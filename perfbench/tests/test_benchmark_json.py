"""BENCHMARK.json names exactly the metrics that run.py and workloads.py print."""

import json
import os

import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_match():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_layer_metrics_cover_every_name_on_an_empty_trace():
    rec = workloads.SpanRecorder()
    out = workloads.layer_metrics(rec, 1.0, None, None)
    assert {k: v["unit"] for k, v in out.items()} == workloads.LAYER_UNITS
