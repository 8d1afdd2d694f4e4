"""Output checks of the benchmark, against targets computed here.

Every check returns None when the output is right and a short reason when
it is not.  None of them calls conehull: the geometry is re-done with plain
numpy and the exact targets come from closed forms.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Miles (PNAS 52, 1964): mean vertex count of the zero cell of a stationary
# isotropic Poisson line tessellation; the typical cell has mean 4.
ZERO_CELL_MEAN_F0 = math.pi ** 2 / 2
TYPICAL_CELL_MEAN_F0 = 4.0
# Mean checks fail beyond this many standard errors; for a correct program
# that happens about once in 10^6 checks.
Z_BAND = 5.0

CSV_COLUMNS = ["experiment", "d", "n", "reps", "seed", "estimate", "std_error",
               "ci_low", "ci_high", "exact_target", "pass", "runtime_ms"]


def uniform_cell_mean_f0(n: int) -> float:
    """Exact mean vertex count of a uniform cell cut from S^2 by n great
    circles: each of the n(n-1) vertices lies on 4 cells, out of
    n^2 - n + 2 cells."""
    return 4.0 * n * (n - 1) / (n * n - n + 2)


def cover_efron_probability(n: int, d: int) -> float:
    """C(n, d+1) / 2^n with C(n, D) = 2 sum_{k<D} binom(n-1, k), the number
    of cells cut from R^D by n generic linear hyperplanes (Wendel)."""
    cells = 2 * sum(math.comb(n - 1, k) for k in range(d + 1))
    return cells / 2 ** n


def _ccw(vertices: np.ndarray) -> np.ndarray:
    c = vertices.mean(axis=0)
    return vertices[np.argsort(np.arctan2(vertices[:, 1] - c[1], vertices[:, 0] - c[0]))]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def convex_polygon(vertices) -> str | None:
    """The vertices are all extreme points of a convex polygon."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3 or not np.all(np.isfinite(v)):
        return "not a planar polygon with at least 3 finite vertices"
    v = _ccw(v)
    edges = np.roll(v, -1, axis=0) - v
    if not np.all(_cross(edges, np.roll(edges, -1, axis=0)) > 0):
        return "polygon is not strictly convex"
    return None


def origin_inside(vertices) -> str | None:
    """Convex polygon with the origin strictly inside."""
    bad = convex_polygon(vertices)
    if bad:
        return bad
    v = _ccw(np.asarray(vertices, dtype=float))
    if not np.all(_cross(v, np.roll(v, -1, axis=0)) > 0):
        return "origin is not strictly inside"
    return None


def cone_profile(vertices, normals, signs, rays) -> str | None:
    """Profile of a cone: origin inside, one vertex per extreme ray, and
    every ray inside the cone it came from."""
    bad = origin_inside(vertices)
    if bad:
        return bad
    rays = np.asarray(rays, dtype=float)
    if len(rays) != len(vertices):
        return f"{len(vertices)} profile vertices but {len(rays)} extreme rays"
    slack = (np.asarray(signs)[:, None] * np.asarray(normals)) @ rays.T
    if np.any(slack < -1e-9):
        return "an extreme ray lies outside its cone"
    return None


def mean_near(values, target: float) -> str | None:
    """Sample mean within Z_BAND standard errors of target."""
    x = np.asarray(values, dtype=float)
    if len(x) < 2:
        return "fewer than two samples"
    mean = float(x.mean())
    se = float(x.std(ddof=1)) / math.sqrt(len(x))
    if abs(mean - target) > Z_BAND * se:
        return f"mean {mean:.4f} (se {se:.4f}) is far from {target:.4f}"
    return None


def gate_records(csv_text: str) -> tuple[list[dict], str | None]:
    """Parse the gate CSV; a reason when the table itself is malformed."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    header = csv_text.split("\n", 1)[0].split(",")
    if header != CSV_COLUMNS:
        return [], f"unexpected CSV header {header}"
    if not rows:
        return [], "no records"
    return rows, None


def gate_record(row: dict) -> str | None:
    """One gate record passes, and a wendel record has the exact target."""
    if row.get("pass") != "true":
        return f"{row.get('experiment')}: pass={row.get('pass')!r}"
    if row["experiment"] == "wendel":
        target = cover_efron_probability(int(row["n"]), int(row["d"]))
        if not math.isclose(float(row["exact_target"]), target, rel_tol=1e-11):
            return f"wendel n={row['n']}: target {row['exact_target']} != {target!r}"
    return None
