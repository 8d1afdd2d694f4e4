"""conehull benchmark: one workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports conehull from src/ there.
Workloads (see README.md in this directory):

    cone-profiles  Qn*(256) profiles with features, serial
    limit-cells    zero cells, window cells, Pn*(10^4) and Cauchy hulls, serial
    verify-quick   `conehull verify --profile quick --workers 2` as a subprocess

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, and the spans go to perfbench/out/ as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
from reference import reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cone-profiles", "limit-cells", "verify-quick")
# End-to-end metric name -> unit.  round_ref is the median round time in
# units of the reference task timed while the workload ran (reference.py).
E2E_UNITS = {"round_ref": "ref-loops", "peak_rss_mb": "MB", "setup_s": "s"}
# Start-up is timed in this many fresh interpreters before the workload and
# as many after it, and reported as the median: the machine's speed drifts
# over the run, and two windows half a minute apart see more of it.
SETUP_STARTS = 5
# The gate runs at the seed its documentation uses, whatever --seed is: its
# energy tests reject at level 0.01, so a correct program fails a record on
# some seeds and not on others, and the failed share would differ by seed.
GATE_SEED = 42
GATE_WORKERS = 2
# The gate's processes fill both cores, so run.py times the reference task
# every half second while the gate runs.  Of the tasks, "stream" tracked the
# gate's time best from here (quartile spread 0.058 over 6 gate runs, raw
# time 0.041, "python" 0.13).
GATE_REFERENCE = ("stream",)
CHILD_TIMEOUT_S = 170.0
# BLAS threads per process; with GATE_WORKERS processes this holds the gate
# to nproc = 2 threads in total.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CONEHULL_SEED", None)  # it would override the gate seed
    env["PYTHONPATH"] = SRC
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended just now
        pass


def _wait(proc: subprocess.Popen, refs: list[float] | None = None):
    """Reap proc: its exit code and peak RSS in MB.  Given a list, time the
    gate's reference task into it every half second while proc runs.  A
    child still running after CHILD_TIMEOUT_S is killed with its whole
    process group, so pool workers of the gate go too.

    Linux reports in ru_maxrss the peak RSS of the child and of every
    descendant it waited for, in KiB.
    """
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        while refs is not None:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            refs.append(reference_seconds(GATE_REFERENCE))
            time.sleep(0.5)
        else:
            _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024 / 1e6


def setup_starts(count: int) -> list[float]:
    """Times from starting an interpreter to conehull imported."""
    starts = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "workloads.py"), "probe"],
                                cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        with proc.stdout:
            ready = proc.stdout.readline().strip() == "ready"
            starts.append(time.perf_counter() - t0)
            proc.stdout.read()
        code, _ = _wait(proc)
        if not ready or code != 0:
            raise SystemExit("conehull could not be imported from src/")
    return starts


class Child:
    """A finished child process: exit code, wall time, peak RSS, stdout and,
    if asked for, the reference-task timings taken while it ran."""

    def __init__(self, argv: list[str], stdout_path: str | None = None,
                 sample_reference: bool = False) -> None:
        self.refs: list[float] = []
        t0 = time.perf_counter()
        with open(stdout_path or os.devnull, "w", encoding="utf-8") as out:
            proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out,
                                    start_new_session=True)
            self.returncode, self.peak_rss_mb = _wait(
                proc, self.refs if sample_reference else None)
        self.wall_s = time.perf_counter() - t0
        self.stdout = ""
        if stdout_path:
            with open(stdout_path, encoding="utf-8") as fh:
                self.stdout = fh.read()
            os.remove(stdout_path)


def verify_quick(seconds: float) -> dict:
    """Closed loop of gate runs through the CLI, at least one."""
    result = {"correct": True, "attempted": 0, "failed": 0, "reasons": [],
              "rounds": [], "refs": [], "peak_rss_mb": 0.0}
    csv_path = os.path.join(OUT, f"verify-quick-{os.getpid()}.csv")
    while True:
        child = Child([sys.executable, "-m", "conehull.cli", "verify", "--profile", "quick",
                       "--workers", str(GATE_WORKERS), "--seed", str(GATE_SEED),
                       "--out", csv_path], sample_reference=True)
        result["rounds"].append(child.wall_s)
        refs = child.refs or [reference_seconds(GATE_REFERENCE)]
        result["refs"].append(statistics.median(refs))
        result["peak_rss_mb"] = max(result["peak_rss_mb"], child.peak_rss_mb)
        rows, bad = [], "no CSV written"
        if os.path.exists(csv_path):
            with open(csv_path, encoding="utf-8") as fh:
                rows, bad = checks.gate_records(fh.read())
            os.remove(csv_path)
        # One operation per record; a run that yields no record, or exits
        # with an error while every record passes, counts as one failure.
        reasons = [r for r in (checks.gate_record(row) for row in rows) if r]
        if child.returncode != 0 and not reasons:
            reasons.append(f"exit code {child.returncode}")
        if bad:
            reasons.append(bad)
        result["attempted"] += max(len(rows), 1)
        result["failed"] += min(len(reasons), max(len(rows), 1))
        result["reasons"] += [r for r in reasons if r not in result["reasons"]]
        total = sum(result["rounds"])
        if total + total / len(result["rounds"]) > seconds:
            return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "conehull", "__init__.py")):
        print(f"no conehull sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    seed = GATE_SEED if args.workload == "verify-quick" else args.seed
    starts = [] if args.trace else setup_starts(SETUP_STARTS)

    if args.trace or args.workload != "verify-quick":
        child = Child([sys.executable, os.path.join(HERE, "workloads.py"), args.workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", OUT],
                      os.path.join(OUT, f"{args.workload}-{os.getpid()}.out"))
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines or lines[0] != "ready":
            print(f"{args.workload} worker failed with exit code {child.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["peak_rss_mb"] = child.peak_rss_mb
    else:
        result = verify_quick(args.seconds)
    rounds = result["rounds"]

    for key, value in result.get("info", {}).items():
        print(f"# {args.workload} {key}: {value}")
    for reason in result["reasons"]:
        print(f"# failed: {reason}")
    print(f"# {args.workload}: {len(rounds)} rounds, median {statistics.median(rounds):.4f} s")

    if args.trace:
        metrics = result["layers"]
    else:
        values = {
            "setup_s": statistics.median(starts + setup_starts(SETUP_STARTS)),
            "peak_rss_mb": result["peak_rss_mb"],
            "round_ref": statistics.median(t / r for t, r in zip(rounds, result["refs"])),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
