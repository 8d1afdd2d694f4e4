"""Benchmark workloads, each run in a fresh interpreter.

run.py starts this file as

    python3 perfbench/workloads.py probe
    python3 perfbench/workloads.py <workload> --seed N --seconds S --trace 0|1 --out DIR

It imports conehull from the checkout's src/, prints "ready" (run.py times
start-up up to that line), then runs closed-loop rounds of its workload
until the measured time reaches --seconds, checks every output, and prints
one JSON line with the round times, the operation counts and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import conehull  # noqa: E402
import numpy as np  # noqa: E402

import checks  # noqa: E402
from reference import reference_seconds  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402
# Calls go through the module attributes, so the traced run sees them.
from conehull import RngStream, profiles, tessellation  # noqa: E402

QN_N = 256
GAMMA = 0.5  # the gate's line intensity, intensity_gamma(2)
WINDOW_R = 45.0
# Samples per round: the two phases take about the same time, so a gain in
# either moves the round time.  Pn*(10^4) and Cauchy hulls of 10^4 points,
# also limit-side samples, are left out: convex_hull drops a true vertex of
# about 1 in 100 such clouds, so their checks would fail on some seeds only.
CONE_ROUND = 4
LIMIT_ROUND = {"importance": 24, "window": 1}

# Per-layer metric name -> unit.  Every workload prints all of them; a layer
# that a workload never reaches reads 0.
LAYER_UNITS = {
    "arrangement.fast_ray_data.calls": "count",
    "arrangement.fast_ray_data.self_pct": "%",
    "arrangement.fast_ray_data.mb": "MB",
    "samplers.sample_schlaefli_cone.self_pct": "%",
    "samplers.sample_uniform_in_cell.self_pct": "%",
    "samplers.sample_s_minus_e.self_pct": "%",
    "samplers.sample_cauchy_points.self_pct": "%",
    "profiles.cell_profile.self_pct": "%",
    "profiles.attempts_per_profile": "attempts/profile",
    "geometry.convex_hull.self_pct": "%",
    "geometry.convex_hull.points_in": "count",
    "geometry.convex_hull.vertices_out": "count",
    "tessellation.sample_zero_cell.self_pct": "%",
    "tessellation.sample_zero_cell.hyperplanes": "count",
    "tessellation.sample_zero_cell.doublings": "count",
    "tessellation.window_cells.self_pct": "%",
    "tessellation.window_cells.cells": "count",
    "tessellation.cell_features.ms": "ms",
    "tessellation.cell_features.self_pct": "%",
    "stats.two_sample_energy_test.self_pct": "%",
    "densities.log_eval_phi_n.self_pct": "%",
    "harness.map_replicates.calls": "count",
    "harness.map_replicates.pools": "count",
    "harness.speedup_2_workers": "x",
    **{f"acceptance.{c}.pct": "%" for c in (
        "cone-count", "face-formula", "wendel", "size-bias", "duality-chain",
        "main-theorem", "density-convergence", "closed-forms", "beta-hull-limit",
        "harness-reproducibility")},
    "trace.spans": "count",
}


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons: list[str] = []

    def op(self, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            self._note(reason)

    def aggregate(self, reason: str | None, ops: int, what: str) -> None:
        """A check over many operations: all of them fail with it."""
        if reason:
            self.failed += ops
            self.correct = False
            self._note(f"{what}: {reason}")

    def _note(self, reason: str) -> None:
        if reason not in self.reasons and len(self.reasons) < 10:
            self.reasons.append(reason)


def _timed(fn, rng):
    t0 = time.perf_counter()
    try:
        out = fn(rng)
    except Exception:  # a failing sample is counted, and the loop goes on
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, out, None


def _run_rounds(one_round, seconds: float, reference: tuple[str, ...]
                ) -> tuple[list[float], list[float]]:
    """Closed loop: rounds until the next one would pass the time budget.

    Returns each round's measured time and the reference-task time taken
    just before it.
    """
    times: list[float] = []
    refs: list[float] = []
    while True:
        refs.append(reference_seconds(reference))
        times.append(one_round(len(times)))
        total = sum(times)
        if total + total / len(times) > seconds:
            return times, refs


# ---------------------------------------------------------------------------
# cone-profiles
# ---------------------------------------------------------------------------


def _qn(rng):
    s = profiles.sample_Qn_star(QN_N, 2, rng)
    return s, tessellation.feature_array(s.polytope)


def cone_profiles(seed: int, seconds: float, tally: Tally) -> dict:
    f0s: list[float] = []

    def one_round(i: int) -> float:
        spent = 0.0
        for k in range(CONE_ROUND):
            dt, out, err = _timed(_qn, RngStream(seed, i * CONE_ROUND + k).generator())
            spent += dt
            if err:
                tally.op(err)
                continue
            s, feats = out
            cone = s.source.cone
            tally.op(checks.cone_profile(s.polytope.vertices, cone.normals, cone.signs,
                                         s.source.rays))
            f0s.append(float(feats[1]))
        return spent

    rounds, refs = _run_rounds(one_round, seconds, ("python", "stream"))
    tally.aggregate(checks.mean_near(f0s, checks.uniform_cell_mean_f0(QN_N)), len(f0s),
                    "Qn* mean f0")
    return {"rounds": rounds, "refs": refs,
            "info": {"qn_mean_f0": float(np.mean(f0s)) if f0s else None}}


# ---------------------------------------------------------------------------
# limit-cells
# ---------------------------------------------------------------------------


def _importance(rng):
    w = tessellation.sample_typical_cell(2, GAMMA, rng, method="importance")
    return w.polytope.vertices, tessellation.feature_array(w.polytope), w.weight


def _window(rng):
    w = tessellation.sample_typical_cell(2, GAMMA, rng, method="window", window_radius=WINDOW_R)
    return w.polytope.vertices, tessellation.feature_array(w.polytope)


PHASES = {"importance": _importance, "window": _window}


def limit_cells(seed: int, seconds: float, tally: Tally) -> dict:
    f0s: dict[str, list[float]] = {p: [] for p in PHASES}
    weights: list[float] = []
    spent_by = {p: 0.0 for p in PHASES}
    per_round = sum(LIMIT_ROUND.values())

    def one_round(i: int) -> float:
        spent = 0.0
        stream = i * per_round
        for phase, fn in PHASES.items():
            for _ in range(LIMIT_ROUND[phase]):
                dt, out, err = _timed(fn, RngStream(seed, stream).generator())
                stream += 1
                spent += dt
                spent_by[phase] += dt
                if err:
                    tally.op(err)
                    continue
                tally.op(checks.origin_inside(out[0]))
                f0s[phase].append(float(out[1][1]))
                if phase == "importance":
                    weights.append(float(out[2]))
        return spent

    rounds, refs = _run_rounds(one_round, seconds, ("small-arrays",))
    tally.aggregate(checks.mean_near(f0s["importance"], checks.ZERO_CELL_MEAN_F0),
                    len(f0s["importance"]), "zero-cell mean f0")
    tally.aggregate(checks.mean_near(f0s["window"], checks.TYPICAL_CELL_MEAN_F0),
                    len(f0s["window"]), "window-cell mean f0")
    info = {f"{p}_per_s": len(rounds) * LIMIT_ROUND[p] / spent_by[p] for p in PHASES}
    info.update({f"{p}_mean_f0": float(np.mean(v)) for p, v in f0s.items() if v})
    # Importance ratios have heavy tails (weights 1/area), so at a run's
    # ~1000 cells they are reported, not checked.
    w = np.asarray(weights)
    info["importance_ratio_mean_f0"] = float((w * np.asarray(f0s["importance"])).sum() / w.sum())
    info["importance_ratio_mean_area"] = float(len(w) / w.sum())
    return {"rounds": rounds, "refs": refs, "info": info}


# ---------------------------------------------------------------------------
# verify-quick (traced run only; the untraced run times the CLI from run.py)
# ---------------------------------------------------------------------------


def verify_quick_traced(seed: int, rec1: SpanRecorder, rec2: SpanRecorder, tally: Tally) -> dict:
    from conehull.acceptance import run_all
    from conehull.harness import records_to_csv

    install(rec1)
    t0 = time.perf_counter()
    try:
        records = run_all(seed, workers=1, profile="quick")
    finally:
        wall1 = time.perf_counter() - t0
        rec1.restore()
    install(rec2, only_harness=True)
    t0 = time.perf_counter()
    try:
        run_all(seed, workers=2, profile="quick")
    finally:
        wall2 = time.perf_counter() - t0
        rec2.restore()
    rows, bad = checks.gate_records(records_to_csv(records))
    if bad:
        tally.op(bad)
    for row in rows:
        tally.op(checks.gate_record(row))
    return {"rounds": [wall1], "wall2": wall2}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _attempts(args, kwargs, result):
    return {"attempts": result.attempts}


def _hull_counts(args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    return {"points_in": int(np.shape(points)[0]), "vertices_out": int(result.n_vertices)}


def _zero_cell_counts(args, kwargs, result):
    gamma = args[1] if len(args) > 1 else kwargs["gamma"]
    r0 = kwargs.get("initial_radius", args[3] if len(args) > 3 else None) or 5.0 / gamma
    return {"hyperplanes": len(result.hyperplanes),
            "doublings": round(math.log2(result.radius / r0))}


TRACED = [
    ("conehull.arrangement", "fast_ray_data",
     lambda a, k, r: {"mb": r.signs.nbytes / 1e6}),
    ("conehull.samplers", "sample_schlaefli_cone", None),
    ("conehull.samplers", "sample_uniform_in_cell", None),
    ("conehull.samplers", "sample_s_minus_e", None),
    ("conehull.samplers", "sample_cauchy_points", None),
    ("conehull.profiles", "sample_Qn_star", _attempts),
    ("conehull.profiles", "sample_Pn_star", _attempts),
    ("conehull.profiles", "cell_profile", None),
    ("conehull.geometry", "convex_hull", _hull_counts),
    ("conehull.tessellation", "sample_zero_cell", _zero_cell_counts),
    ("conehull.tessellation", "window_cells", lambda a, k, r: {"cells": len(r)}),
    ("conehull.tessellation", "cell_features", None),
    ("conehull.stats", "two_sample_energy_test", None),
    ("conehull.densities", "log_eval_phi_n", None),
]


def install(rec: SpanRecorder, only_harness: bool = False) -> None:
    """Wrap the traced functions, the pool class and every gate criterion."""
    import conehull.acceptance  # noqa: F401  (registers the criteria)
    from conehull.harness import EXPERIMENTS

    if not only_harness:
        for module, attr, counters in TRACED:
            rec.patch("conehull", module, attr, f"{module.split('.')[1]}.{attr}", counters)
    rec.patch("conehull", "conehull.harness", "map_replicates", "harness.map_replicates")
    rec.patch("conehull", "conehull.harness", "ProcessPoolExecutor", "harness.pool")
    for name in list(EXPERIMENTS):
        rec.patch_mapping(EXPERIMENTS, name, f"acceptance.{name}")


def layer_metrics(rec: SpanRecorder, wall: float, pool_rec: SpanRecorder | None,
                  wall2: float | None) -> dict:
    """Per-layer metrics from the spans of one traced run."""
    selfs = self_times(rec.spans)
    by: dict[str, list[int]] = {}
    for i, s in enumerate(rec.spans):
        by.setdefault(s.name, []).append(i)

    def self_pct(name):
        return 100.0 * sum(selfs[i] for i in by.get(name, [])) / wall

    def median_ms(name):
        ds = [rec.spans[i].duration for i in by.get(name, [])]
        return 1e3 * statistics.median(ds) if ds else 0.0

    def counter(name, key, agg=statistics.median):
        vs = [rec.spans[i].counters[key] for i in by.get(name, [])]
        return float(agg(vs)) if vs else 0.0

    prof = by.get("profiles.sample_Qn_star", []) + by.get("profiles.sample_Pn_star", [])
    attempts = [rec.spans[i].counters["attempts"] for i in prof]
    pools = pool_rec if pool_rec is not None else rec
    out = {
        "arrangement.fast_ray_data.calls": len(by.get("arrangement.fast_ray_data", [])),
        "arrangement.fast_ray_data.mb": counter("arrangement.fast_ray_data", "mb"),
        "profiles.attempts_per_profile": sum(attempts) / len(attempts) if attempts else 0.0,
        "geometry.convex_hull.points_in": counter("geometry.convex_hull", "points_in"),
        "geometry.convex_hull.vertices_out": counter("geometry.convex_hull", "vertices_out"),
        "tessellation.sample_zero_cell.hyperplanes":
            counter("tessellation.sample_zero_cell", "hyperplanes"),
        "tessellation.sample_zero_cell.doublings":
            counter("tessellation.sample_zero_cell", "doublings", statistics.fmean),
        "tessellation.window_cells.cells": counter("tessellation.window_cells", "cells"),
        "harness.map_replicates.calls":
            sum(s.name == "harness.map_replicates" for s in pools.spans),
        "harness.map_replicates.pools": sum(s.name == "harness.pool" for s in pools.spans),
        "harness.speedup_2_workers": wall / wall2 if wall2 else 0.0,
        "trace.spans": len(rec.spans),
    }
    for name in LAYER_UNITS:
        if name.endswith(".self_pct"):
            out[name] = self_pct(name[: -len(".self_pct")])
        elif name.endswith(".ms"):
            out[name] = median_ms(name[: -len(".ms")])
        elif name.startswith("acceptance."):
            crit = name[: -len(".pct")]
            out[name] = 100.0 * sum(rec.spans[i].duration for i in by.get(crit, [])) / wall
    return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    if not os.path.abspath(conehull.__file__).startswith(SRC + os.sep):
        print(f"conehull was imported from {conehull.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.workload == "probe":
        return 0
    tally = Tally()
    rec = SpanRecorder()
    if args.workload == "verify-quick":
        if not args.trace:
            sys.exit("the untraced verify-quick run times the CLI; see run.py")
        pool_rec = SpanRecorder()
        result = verify_quick_traced(args.seed, rec, pool_rec, tally)
        wall2 = result.pop("wall2")
    else:
        run = {"cone-profiles": cone_profiles, "limit-cells": limit_cells}[args.workload]
        pool_rec, wall2 = None, None
        if args.trace:
            install(rec)
        try:
            result = run(args.seed, args.seconds, tally)
        finally:
            rec.restore()
    if args.trace:
        result["layers"] = layer_metrics(rec, sum(result["rounds"]), pool_rec, wall2)
        if args.out:
            rec.write_jsonl(os.path.join(
                args.out, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    result.update(attempted=tally.attempted, failed=tally.failed, correct=tally.correct,
                  reasons=tally.reasons)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
