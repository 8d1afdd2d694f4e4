"""Acceptance gate: every criterion at its stated tolerance.

Runs the named acceptance experiments at the gate scales and prints one
pass/fail line per criterion.  The reproducibility criterion drives the
installed CLI end to end and byte-compares its CSV output (runtime column
excluded) across repeated runs and worker counts.
"""

import os
import subprocess
import sys

import pytest

from conehull.acceptance import CRITERIA, all_passed, format_record_line
from conehull.harness import ExperimentConfig, run_experiment, strip_runtime_column

SEED = 42
WORKERS = 1

# Gate scales: spec-stated sizes, except that the importance-weighted moment
# checks use more (cheap) zero cells so their stated SE bands are
# trustworthy against the heavy 1/vol tail.
GATE_OPTIONS = {
    "cone-count": {"cone_seeds": 100},
    "face-formula": {"face_seeds": 25},
    "wendel": {"wendel_reps": 100_000},
    "size-bias": {"size_bias_reps": 20_000},
    "duality-chain": {"dual_reps": 2000, "pn_n": 10_000, "perms": 499},
    "main-theorem": {
        "qn_n": 256,
        "qn_reps": 2000,
        "typ_reps": 20_000,
        "energy_m": 800,
        "perms": 499,
        "window_R": 45.0,
    },
    "density-convergence": {"l1_reps": 1500},
    "closed-forms": {},
    "beta-hull-limit": {"beta_reps": 2000, "beta_n": 10_000, "perms": 499},
    "harness-reproducibility": {"repro_reps": 192},
}


def run_criterion(name):
    options = {"profile": "full"}
    options.update(GATE_OPTIONS[name])
    config = ExperimentConfig(experiment=name, seed=SEED, workers=WORKERS, options=options)
    records = run_experiment(config)
    for rec in records:
        print(format_record_line(rec))
    return records


@pytest.mark.parametrize("name", [c for c in CRITERIA if c != "harness-reproducibility"])
def test_criterion(name):
    records = run_criterion(name)
    failures = [r for r in records if r.passed is False]
    assert not failures, "\n".join(format_record_line(r) for r in failures)


def test_criterion_harness_reproducibility():
    records = run_criterion("harness-reproducibility")
    assert all_passed(records)


def _run_verify(seed, workers, out_path):
    env = dict(os.environ)
    env.pop("CONEHULL_SEED", None)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "conehull.cli",
            "verify",
            "--seed",
            str(seed),
            "--workers",
            str(workers),
            "--profile",
            "quick",
            "--out",
            str(out_path),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=1800,
    )
    assert proc.returncode in (0, 1), proc.stderr
    with open(out_path, "r", encoding="utf-8") as fh:
        return strip_runtime_column(fh.read()), proc.returncode


def test_criterion_cli_reproducibility(tmp_path):
    """`conehull verify --seed 42` twice, workers 1 and 8: identical CSVs."""
    runs = {}
    for tag, workers in (("a1", 1), ("a2", 1), ("b1", 8), ("b2", 8)):
        csv_text, rc = _run_verify(42, workers, tmp_path / f"{tag}.csv")
        runs[tag] = csv_text
        print(f"[PASS] reproducibility run {tag} (workers={workers}, exit={rc})")
    assert runs["a1"] == runs["a2"], "repeat run with workers=1 differs"
    assert runs["b1"] == runs["b2"], "repeat run with workers=8 differs"
    assert runs["a1"] == runs["b1"], "worker count changed the records"
