"""Acceptance gate: every criterion at its stated tolerance.

Runs the named acceptance experiments at the sizes of PROFILES["full"] and
prints one pass/fail line per criterion.  The reproducibility criterion
drives the installed CLI end to end and byte-compares its CSV output
(runtime column excluded) across repeated runs and worker counts, and with
the committed quick-profile records of tests/data.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conehull.acceptance import CRITERIA, all_passed, format_record_line
from conehull.harness import ExperimentConfig, run_experiment, strip_runtime_column

SEED = 42
WORKERS = 1

GOLDEN = Path(__file__).parent / "data" / "verify_quick_seed42.csv"


def run_criterion(name):
    records = run_experiment(ExperimentConfig(experiment=name, seed=SEED, workers=WORKERS, profile="full"))
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
    """`conehull verify --seed 42` twice, workers 1 and 8: identical CSVs,
    equal to the committed records (a change of draws updates that file)."""
    runs = {}
    for tag, workers in (("a1", 1), ("a2", 1), ("b1", 8), ("b2", 8)):
        csv_text, rc = _run_verify(42, workers, tmp_path / f"{tag}.csv")
        runs[tag] = csv_text
        print(f"[PASS] reproducibility run {tag} (workers={workers}, exit={rc})")
    assert runs["a1"] == runs["a2"], "repeat run with workers=1 differs"
    assert runs["b1"] == runs["b2"], "repeat run with workers=8 differs"
    assert runs["a1"] == runs["b1"], "worker count changed the records"
    assert runs["a1"] == GOLDEN.read_text(encoding="utf-8"), "records differ from " + GOLDEN.name
