"""Fixed reference tasks that gauge how fast this core runs right now.

On a shared machine the speed of a core drifts by +-20 % over tens of
seconds, and both wall and CPU time follow it.  Each workload times a
reference task before every round, in the same thread, and reports round
times in units of it, which cancels most of the drift.  How much a piece
of code slows down depends on what it does, so each workload uses the task
closest to its own work:

- "small-arrays": many numpy calls on arrays of a few elements, as in the
  polygon clipping of zero and window cells.  Over 8 blocks of 5 s, cell
  rounds divided by it stayed within 6 % where raw times spread over 43 %.
- "python" + "stream": a pure-Python loop and elementwise passes over 2 MB
  of float32, as in the Qn* sampler and its ray-sign matrix.  Qn* rounds
  divided by it stayed within 12 % where raw times spread over 35 %.

A reference timed in another process does worse, since the two processes
may sit on cores that drift apart; only the gate, whose processes fill
both cores, is normalised that way (see run.py).  Tasks are timed in CPU time of their
own thread, so time slices given to other processes do not count.
"""

from __future__ import annotations

import time

import numpy as np

_MATRIX = np.ones((512, 1024), dtype=np.float32)
_SCRATCH = np.empty_like(_MATRIX)
_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_DIRECTION = np.array([0.3, 0.4])


def _python() -> None:
    total = 0
    for i in range(50_000):
        total += i * i


def _stream() -> None:
    for _ in range(8):  # elementwise only: no BLAS threads
        np.abs(_MATRIX, out=_SCRATCH)
        np.add(_SCRATCH, _MATRIX, out=_SCRATCH)


def _small_arrays() -> None:
    for _ in range(400):
        keep = _SQUARE @ _DIRECTION - 0.5 <= 0
        ring = np.concatenate([_SQUARE[keep], _SQUARE[:1]])
        np.linalg.norm(ring, axis=1)


TASKS = {"python": _python, "stream": _stream, "small-arrays": _small_arrays}


def reference_seconds(tasks: tuple[str, ...]) -> float:
    """Thread CPU seconds of the named tasks (each about 4 ms)."""
    t0 = time.thread_time()
    for name in tasks:
        TASKS[name]()
    return time.thread_time() - t0
