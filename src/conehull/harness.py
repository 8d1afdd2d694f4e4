"""Experiment orchestration: configs, replicate-parallel execution with
deterministic per-replicate streams, and diff-able CSV / JSON-lines output.

Replicate r always uses the stream (seed, r), and replicates are assembled
in index order, so records are identical for any worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from .errors import ConfigError
from .rng import RngStream

CSV_COLUMNS = [
    "experiment",
    "d",
    "n",
    "reps",
    "seed",
    "estimate",
    "std_error",
    "ci_low",
    "ci_high",
    "exact_target",
    "pass",
    "runtime_ms",
]


# Named size presets of the acceptance criteria: "full" runs the gate
# sizes, "quick" is a fast smoke profile for determinism checks and CI.
PROFILES = {
    "full": dict(
        cone_seeds=100,
        face_seeds=25,
        wendel_reps=100_000,
        size_bias_reps=20_000,
        dual_reps=2000,
        qn_n=256,
        qn_reps=2000,
        typ_reps=20_000,
        energy_m=800,
        perms=499,
        l1_reps=1500,
        beta_reps=2000,
        beta_n=10_000,
        pn_n=10_000,
        window_R=45.0,
        repro_reps=192,
    ),
    "quick": dict(
        cone_seeds=6,
        face_seeds=3,
        wendel_reps=6000,
        size_bias_reps=1200,
        dual_reps=150,
        qn_n=64,
        qn_reps=80,
        typ_reps=4000,
        energy_m=80,
        perms=199,
        l1_reps=150,
        beta_reps=150,
        beta_n=2000,
        pn_n=2000,
        window_R=25.0,
        repro_reps=64,
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    workers: int = 1
    profile: str = "full"

    def validate(self) -> "ExperimentConfig":
        if not self.experiment:
            raise ConfigError("experiment: name must be nonempty")
        if self.workers < 1:
            raise ConfigError("workers: must be >= 1")
        if self.profile not in PROFILES:
            raise ConfigError(f"profile: unknown profile {self.profile!r}")
        return self


@dataclass
class ResultRecord:
    experiment: str
    d: int
    n: object
    reps: int
    seed: int
    estimate: float | None
    std_error: float | None
    ci_low: float | None
    ci_high: float | None
    exact_target: float | None
    passed: bool | None
    runtime_ms: float = 0.0
    # when the record was built; run_experiment turns these into runtimes
    built_at: float = field(default_factory=time.perf_counter, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a numpy bool would print as True/False and is not `False`
        if self.passed is not None:
            self.passed = bool(self.passed)

    def csv_row(self, include_runtime: bool = True) -> str:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return f"{v:.12g}"
            return str(v)

        fields = [
            self.experiment,
            fmt(self.d),
            fmt(self.n),
            fmt(self.reps),
            fmt(self.seed),
            fmt(self.estimate),
            fmt(self.std_error),
            fmt(self.ci_low),
            fmt(self.ci_high),
            fmt(self.exact_target),
            fmt(self.passed),
        ]
        fields.append(f"{self.runtime_ms:.3f}" if include_runtime else "")
        return ",".join(fields)

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "d": self.d,
            "n": self.n,
            "reps": self.reps,
            "seed": self.seed,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "exact_target": self.exact_target,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
        }


def records_to_csv(records, include_runtime: bool = True) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines += [r.csv_row(include_runtime) for r in records]
    return "\n".join(lines) + "\n"


def strip_runtime_column(csv_text: str) -> str:
    out = []
    for line in csv_text.strip().split("\n"):
        out.append(",".join(line.split(",")[:-1]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Replicate-parallel map
# ---------------------------------------------------------------------------

# The pool of the enclosing `run_pool` block; every map inside it uses it.
_RUN_POOL = None


def _run_block(args):
    fn, seed, lo, hi = args
    return [fn(RngStream(seed, r).generator(), r) for r in range(lo, hi)]


def map_replicates(fn, reps: int, seed: int, workers: int = 1, block: int = 64) -> list:
    """fn(rng, replicate_index) over replicate streams (seed, 0..reps-1).

    Output order and content are independent of the worker count; the only
    requirement on fn is picklability (module-level function or partial).
    A block holds at most a quarter of a worker's share of the replicates.
    Inside a `run_pool` block the map runs on that pool, else on its own.
    """
    if workers <= 1 or reps < 2:
        return [fn(RngStream(seed, r).generator(), r) for r in range(reps)]
    block = min(block, -(-reps // (4 * workers)))
    blocks = [(fn, seed, lo, min(lo + block, reps)) for lo in range(0, reps, block)]
    shared = _RUN_POOL
    pool_cm = ProcessPoolExecutor(max_workers=workers) if shared is None else nullcontext(shared)
    with pool_cm as pool:
        return [x for chunk in pool.map(_run_block, blocks) for x in chunk]


@contextmanager
def run_pool(workers: int):
    """One process pool for every map_replicates call in the block, from any
    thread.  Its workers start on entry, so enter it before starting threads:
    no process is forked while they run.  Exit shuts it down and joins it."""
    global _RUN_POOL
    outer = _RUN_POOL
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        pool.submit(int).result()  # a forking pool starts every worker on its first task
        _RUN_POOL = pool
        yield
    finally:
        _RUN_POOL = outer
        pool.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict = {}


def register_experiment(name: str):
    def deco(fn):
        EXPERIMENTS[name] = fn
        return fn

    return deco


def run_experiment(config: ExperimentConfig) -> list[ResultRecord]:
    """Dispatch a named experiment.

    A record's runtime is the wall time from the previous record of its
    experiment (the first: from the start) to its own construction, so work
    shared by several records is charged to the first of them.
    """
    config.validate()
    fn = EXPERIMENTS.get(config.experiment)
    if fn is None:
        raise ConfigError(f"experiment: unknown name {config.experiment!r}")
    last = time.perf_counter()
    records = fn(config)
    for r in records:
        r.runtime_ms = (r.built_at - last) * 1000.0
        last = r.built_at
    return records
