"""In-memory span recorder that wraps public functions from outside a package.

A span holds a name, a start, an end, the index of its parent span and a
few counters taken from the call's arguments and result.  Spans stay in
memory while the benchmark runs and are written as JSON lines at the end.
Self time is a span's duration minus the part of it that its child spans
cover.

Wrapping replaces every module attribute of the package that refers to the
original function, so a name bound by ``from .x import y`` is traced in
each module that imported it, and calls inside the defining module (which
look the name up in its globals) are traced too.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans of wrapped calls; one recorder per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counters=None):
        """Traced version of fn; ``counters(args, kwargs, result)`` returns a
        dict stored on the span after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent=parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result

        return traced

    def patch(self, package: str, module: str, attr: str, name: str, counters=None) -> None:
        """Wrap ``module.attr`` wherever the package's modules bind it."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(name, original, counters)
        for mod in _package_modules(package):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def patch_mapping(self, mapping: dict, key, name: str, counters=None) -> None:
        """Wrap one value of a registry dict in place."""
        original = mapping[key]
        mapping[key] = self.wrap(name, original, counters)
        self._undo.append((mapping, key, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "counters": s.counters,
                }) + "\n")


def _package_modules(package: str):
    prefix = package + "."
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(prefix))]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [s.duration - _covered(children.get(i, [])) for i, s in enumerate(spans)]
