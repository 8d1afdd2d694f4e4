"""Span recorder: self-time arithmetic and patching of imported names."""

import sys
import types

import pytest

import spans
from spans import Span, SpanRecorder, self_times


def test_self_time_of_nested_and_overlapping_children():
    s = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: the union 1..6 is covered
        Span("a.x", 2.0, 3.0, parent=1),
        Span("late", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(s) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_wrapped_calls_record_parents_counters_and_self_time(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda x: x * 2, lambda a, k, r: {"out": r})

    def outer_fn(x):
        return inner(x) + inner(x + 1)

    outer = rec.wrap("outer", outer_fn)
    assert outer(1) == 6
    names = [(s.name, s.parent, s.counters) for s in rec.spans]
    assert names == [("outer", -1, {}), ("inner", 0, {"out": 2}), ("inner", 0, {"out": 4})]
    # outer 0..5, inners 1..2 and 3..4
    assert self_times(rec.spans) == pytest.approx([3.0, 1.0, 1.0])


def test_patch_wraps_every_binding_and_restores(monkeypatch):
    def f():
        return g() + 1

    def g():
        return 1

    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    a.f, a.g = f, g
    f.__globals__["g"] = g
    b.f = f  # as bound by "from .a import f"
    pkg.f = f
    for m in (pkg, a, b):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    rec = SpanRecorder()
    rec.patch("fakepkg", "fakepkg.a", "f", "a.f")
    assert a.f is not f and b.f is a.f and pkg.f is a.f
    assert b.f() == 2 and [s.name for s in rec.spans] == ["a.f"]
    rec.restore()
    assert a.f is f and b.f is f and pkg.f is f


def test_write_jsonl(tmp_path):
    rec = SpanRecorder()
    rec.wrap("w", lambda: None)()
    path = tmp_path / "t.jsonl"
    rec.write_jsonl(str(path))
    line = path.read_text().splitlines()[0]
    assert '"name": "w"' in line and '"parent": -1' in line
