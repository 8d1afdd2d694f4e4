import json
import math
import multiprocessing
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats as sps

from conehull.acceptance import all_passed, run_all
from conehull.errors import ConfigError
from conehull.harness import (
    CSV_COLUMNS,
    EXPERIMENTS,
    ExperimentConfig,
    ResultRecord,
    map_replicates,
    records_to_csv,
    run_experiment,
    run_pool,
    strip_runtime_column,
)
from conehull.rng import RngStream
from conehull.stats import (
    Estimate,
    binomial_estimate,
    mean_estimate,
    ratio_estimate,
    two_sample_energy_test,
)


def test_estimate_ci_and_covers():
    e = Estimate(1.0, 0.1)
    lo, hi = e.ci(4)
    assert (lo, hi) == (0.6, 1.4)
    assert e.covers(1.35)
    assert not e.covers(1.5)


def test_mean_and_binomial_estimates():
    e = mean_estimate([1.0, 2.0, 3.0, 4.0])
    assert e.value == 2.5
    assert e.std_error == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2)
    b = binomial_estimate(50, 100)
    assert b.value == 0.5
    assert b.std_error == pytest.approx(0.05)


def test_ratio_estimate_consistency():
    rng = np.random.default_rng(0)
    b = rng.random(20_000) + 0.5
    a = 3.0 * b + rng.standard_normal(20_000) * 0.1
    r = ratio_estimate(a, b)
    assert abs(r.value - 3.0) <= 4 * r.std_error


# --- energy test ------------------------------------------------------------


def test_energy_test_detects_shift():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((500, 1))
    y = rng.standard_normal((500, 1)) + 1.0
    stat, p = two_sample_energy_test(x, y, 199, rng)
    assert p < 0.01
    assert stat > 0


def test_energy_test_null_p_uniform():
    rng = np.random.default_rng(2)
    pvals = []
    for _ in range(200):
        x = rng.standard_normal((60, 2))
        y = rng.standard_normal((60, 2))
        _, p = two_sample_energy_test(x, y, 99, rng)
        pvals.append(p)
    # level check at alpha = 0.05 within 4 binomial SEs
    alpha_hat = np.mean(np.asarray(pvals) <= 0.05)
    se = math.sqrt(0.05 * 0.95 / len(pvals))
    assert abs(alpha_hat - 0.05) <= 4 * se
    # and the p-values look uniform overall
    assert sps.kstest(pvals, "uniform").pvalue > 1e-3


def test_energy_test_split_sample_calibrated():
    # splitting one iid pool is a null case: p should rarely be small
    rng = np.random.default_rng(3)
    big = 0
    for _ in range(10):
        pool = rng.standard_cauchy((400, 3))
        _, p = two_sample_energy_test(pool[:200], pool[200:], 199, rng)
        big += p > 0.05
    assert big >= 8


# --- replicate map ----------------------------------------------------------


def _noise(rng, r):
    return float(rng.standard_normal() + r)


def test_map_replicates_deterministic_across_workers():
    a = map_replicates(_noise, 100, seed=5, workers=1)
    b = map_replicates(_noise, 100, seed=5, workers=3, block=16)
    assert a == b
    for reps in (1, 7, 80, 150):
        serial = [_noise(RngStream(5, r).generator(), r) for r in range(reps)]
        for workers in (1, 2, 3):
            assert map_replicates(_noise, reps, seed=5, workers=workers) == serial


def test_short_maps_split_over_every_worker(monkeypatch):
    # blocks shrink to a quarter of a worker's share; a pool that runs the
    # blocks in this process records their sizes
    import conehull.harness as harness

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            sizes.append([hi - lo for _, _, lo, hi in blocks])
            return map(fn, blocks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    expect = {
        (1, 2): None,
        (7, 2): [1] * 7,
        (80, 2): [10] * 8,
        (150, 2): [19] * 7 + [17],
        (150, 3): [13] * 11 + [7],
        (1000, 2): [64] * 15 + [40],
    }
    for (reps, workers), blocks in expect.items():
        sizes.clear()
        out = harness.map_replicates(_noise, reps, seed=5, workers=workers)
        assert out == [_noise(RngStream(5, r).generator(), r) for r in range(reps)]
        assert sizes == ([] if blocks is None else [blocks])


def _counting_pools(monkeypatch):
    import conehull.harness as harness

    made = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    return made


def test_gate_run_uses_one_pool(monkeypatch):
    # both criteria map at two workers; a pool per map would make two
    made = _counting_pools(monkeypatch)
    names = ["density-convergence", "harness-reproducibility"]
    records = run_all(3, workers=2, profile="quick", criteria=names)
    assert len(made) == 1
    assert [r.experiment.split("[")[0] for r in records] == [names[0]] * 4 + [names[1]]
    assert records_to_csv(records, include_runtime=False) == records_to_csv(
        run_all(3, workers=1, profile="quick", criteria=names), include_runtime=False
    )
    assert multiprocessing.active_children() == []


def test_gate_run_leaves_no_process_when_a_criterion_raises(monkeypatch):
    def boom(config):
        map_replicates(_noise, 40, seed=1, workers=config.workers)
        raise RuntimeError("boom")

    monkeypatch.setitem(EXPERIMENTS, "boom", boom)
    with pytest.raises(RuntimeError, match="boom"):
        run_all(3, workers=2, profile="quick", criteria=["harness-reproducibility", "boom"])
    assert multiprocessing.active_children() == []


def test_run_pool_forks_every_worker_before_it_is_used():
    # criterion threads start only after this; none of them forks
    with run_pool(3):
        pids = {p.pid for p in multiprocessing.active_children()}
        assert len(pids) == 3
        assert map_replicates(_noise, 50, seed=2, workers=3) == map_replicates(_noise, 50, seed=2)
        assert {p.pid for p in multiprocessing.active_children()} == pids
    assert multiprocessing.active_children() == []


def test_threads_share_the_run_pool():
    # more threads and workers than cores, switching often: every thread
    # still gets its own replicates back, in order
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with run_pool(3), ThreadPoolExecutor(max_workers=8) as threads:
            futures = [threads.submit(map_replicates, _noise, 60 + s, s, 3) for s in range(16)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [map_replicates(_noise, 60 + s, s) for s in range(16)]
    assert multiprocessing.active_children() == []


def test_map_replicates_streams_are_replicate_indexed():
    vals = map_replicates(_noise, 10, seed=5, workers=1)
    expect = [_noise(RngStream(5, r).generator(), r) for r in range(10)]
    assert vals == expect


# --- configs and records ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="", seed=1).validate()
    with pytest.raises(ConfigError, match="profile"):
        ExperimentConfig(experiment="x", profile="fast").validate()


def test_unknown_experiment_raises():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(experiment="no-such-thing"))


def test_runtime_is_measured_per_record():
    # each wendel case draws and counts its own sample before its record
    t0 = time.perf_counter()
    records = run_experiment(ExperimentConfig(experiment="wendel", seed=3, profile="quick"))
    wall = (time.perf_counter() - t0) * 1000.0
    runtimes = [r.runtime_ms for r in records]
    assert len(runtimes) == 3 and len(set(runtimes)) > 1
    assert min(runtimes) > 0.0
    assert sum(runtimes) == pytest.approx(wall, rel=0.1)


def test_csv_roundtrip_and_runtime_strip():
    rec = ResultRecord(
        experiment="demo", d=2, n=5, reps=10, seed=1,
        estimate=0.5, std_error=0.1, ci_low=0.1, ci_high=0.9,
        exact_target=0.5, passed=True, runtime_ms=12.0,
    )
    text = records_to_csv([rec])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("demo,2,5,10,1,0.5,0.1,0.1,0.9,0.5,true,")
    stripped = strip_runtime_column(text)
    assert stripped.strip().split("\n")[1] == "demo,2,5,10,1,0.5,0.1,0.1,0.9,0.5,true"


def test_result_record_json():
    rec = ResultRecord(
        experiment="demo", d=2, n=None, reps=1, seed=0,
        estimate=1.0, std_error=0.0, ci_low=1.0, ci_high=1.0,
        exact_target=None, passed=None,
    )
    obj = rec.to_json()
    json.dumps(obj)
    assert obj["pass"] is None


def test_numpy_bool_pass_flag_is_a_real_bool():
    def record(passed):
        return ResultRecord(
            experiment="demo", d=2, n=None, reps=1, seed=0,
            estimate=1.0, std_error=0.0, ci_low=1.0, ci_high=1.0,
            exact_target=1.0, passed=passed,
        )

    failing = record(np.float64(1.0) <= np.float64(0.5))
    assert failing.passed is False
    assert not all_passed([record(True), failing])
    assert failing.csv_row(include_runtime=False).endswith(",false,")
    assert failing.to_json()["pass"] is False
    passing = record(np.True_)
    assert passing.passed is True
    assert passing.csv_row(include_runtime=False).endswith(",true,")
