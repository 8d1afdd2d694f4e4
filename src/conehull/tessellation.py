"""Stationary isotropic Poisson hyperplane tessellations in R^d.

Hyperplanes are pairs (direction, distance) with uniform directions and
distances, at 2*gamma*R expected hits of the ball B(0, R).  The zero cell
is sampled exactly by radius doubling: once the cell fits strictly inside
the simulated ball no unseen hyperplane can cut it.  Typical cells come in
two flavors: complete cells inside a window picked uniformly and recentered
at a uniform interior point, or zero cells carrying inverse-volume weights
for self-normalized averages.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection

from .densities import gamma_intensity
from .errors import DegenerateInput, EmptyWindow, IterationCap, ZeroVolume
from .geometry import (
    EPS_SIGN,
    Polytope,
    ccw_order,
    polygon_area,
    polygon_edge_normals,
    polytope_volume,
)
from .samplers import sample_uniform_sphere_batch

intensity_gamma = gamma_intensity

# (d+1)-subsets of facet constraints solved per batch in chebyshev_inradius;
# bounds its work arrays for cells with many facets.
_CHEBYSHEV_BLOCK = 2048
# Fresh windows sample_typical_cell draws before it gives up on finding a
# complete cell.
MAX_WINDOW_RETRIES = 50


@dataclass(frozen=True)
class AffineHyperplane:
    """{x : <direction, x> = distance} with distance >= 0."""

    direction: np.ndarray
    distance: float


@dataclass(frozen=True)
class HyperplaneProcessSample:
    intensity: float
    window_radius: float
    hyperplanes: list[AffineHyperplane]


@dataclass(frozen=True)
class Cell:
    polytope: Polytope
    complete: bool


@dataclass(frozen=True)
class ZeroCellSample:
    polytope: Polytope
    radius: float
    hyperplanes: list[AffineHyperplane]


@dataclass(frozen=True)
class WeightedPolytope:
    polytope: Polytope
    weight: float
    method: str


def sample_pht(
    d: int, gamma: float, R: float, rng: np.random.Generator
) -> HyperplaneProcessSample:
    """All hyperplanes of the process hitting B(0, R): Poisson(2 gamma R)
    many, uniform directions, uniform distances."""
    if R <= 0 or gamma <= 0:
        raise DegenerateInput("need positive gamma and R")
    planes = _sample_pht_shell(d, gamma, 0.0, R, rng)
    return HyperplaneProcessSample(intensity=gamma, window_radius=R, hyperplanes=planes)


def _shell_arrays(
    d: int, gamma: float, r_lo: float, r_hi: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Directions (m, d) and distances (m,) of the hyperplanes whose
    distance from the origin lies in [r_lo, r_hi)."""
    count = int(rng.poisson(2.0 * gamma * (r_hi - r_lo)))
    dirs = sample_uniform_sphere_batch(d - 1, count, rng) if count else np.empty((0, d))
    return dirs, r_lo + (r_hi - r_lo) * rng.random(count)


def _hyperplanes(dirs: np.ndarray, dists: np.ndarray) -> list[AffineHyperplane]:
    return [AffineHyperplane(u, t) for u, t in zip(dirs, dists.tolist())]


def _sample_pht_shell(
    d: int, gamma: float, r_lo: float, r_hi: float, rng: np.random.Generator
) -> list[AffineHyperplane]:
    return _hyperplanes(*_shell_arrays(d, gamma, r_lo, r_hi, rng))


def _plane_arrays(planes: list[AffineHyperplane], d: int) -> tuple[np.ndarray, np.ndarray]:
    """The directions (m, d) and distances (m,) of a list of hyperplanes."""
    normals = np.array([h.direction for h in planes]).reshape(-1, d)
    return normals, np.array([h.distance for h in planes], dtype=float)


# ---------------------------------------------------------------------------
# Planar polygon clipping
# ---------------------------------------------------------------------------


def _box(R: float) -> np.ndarray:
    return np.array([[-R, -R], [R, -R], [R, R], [-R, R]], dtype=float)


def _split_polygon(
    verts: np.ndarray, vals: list[float], upper: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Both parts of a ccw convex polygon, where vals = <normal, x> - offset
    at its vertices is <= EPS_SIGN and where it is >= -EPS_SIGN, in one
    Sutherland-Hodgman pass; a part with under 3 vertices comes back empty,
    and so does the upper part when upper is False.
    The upper part is the lower part of -vals bit for bit: negation is
    exact, and it leaves a cut edge's parameter va / (va - vb) unchanged.
    """
    pts = verts.tolist()
    lo: list[list[float]] = []
    hi: list[list[float]] = []
    for a, va, b, vb in zip(pts, vals, pts[1:] + pts[:1], vals[1:] + vals[:1]):
        if va <= EPS_SIGN:
            lo.append(a)
        if upper and va >= -EPS_SIGN:
            hi.append(a)
        if (va < -EPS_SIGN and vb > EPS_SIGN) or (va > EPS_SIGN and vb < -EPS_SIGN):
            s = va / (va - vb)
            p = [a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])]
            lo.append(p)
            hi.append(p)
    empty = np.empty((0, 2))
    return np.array(lo) if len(lo) >= 3 else empty, np.array(hi) if len(hi) >= 3 else empty


def intersect_halfplanes(
    normals: np.ndarray, offsets: np.ndarray, bound: float
) -> np.ndarray:
    """ccw vertices of the intersection of {<u_i, x> <= t_i} with a box.

    A line with <u, x> - t <= EPS_SIGN at every vertex would keep the
    polygon as it is, so only the lines that cut it are clipped.
    """
    poly = _box(bound)
    for u, t in zip(normals, offsets.tolist()):
        vals = (poly @ u - t).tolist()
        if max(vals) <= EPS_SIGN:
            continue
        poly = _split_polygon(poly, vals, upper=False)[0]
        if len(poly) == 0:
            break
    return poly


# ---------------------------------------------------------------------------
# Zero cell
# ---------------------------------------------------------------------------


def _zero_cell_polytope(
    d: int, planes: list[AffineHyperplane], bound: float
) -> np.ndarray:
    """Vertices of the cell containing the origin, clipped to a box."""
    if d == 2:
        return intersect_halfplanes(*_plane_arrays(planes, d), bound)
    rows = [np.concatenate([h.direction, [-h.distance]]) for h in planes]
    for j in range(d):
        e = np.zeros(d + 1)
        e[j] = 1.0
        e[d] = -bound
        rows.append(e.copy())
        e[j] = -1.0
        rows.append(e)
    hs = HalfspaceIntersection(np.array(rows), np.zeros(d))
    return hs.intersections


def sample_zero_cell(
    d: int,
    gamma: float,
    rng: np.random.Generator,
    initial_radius: float | None = None,
    max_doublings: int = 20,
) -> ZeroCellSample:
    """Exact zero cell: grow the simulation radius until the cell fits.

    Hyperplanes with distance beyond the final radius cannot intersect a
    cell contained in the open ball of that radius, so the result is the
    true zero cell of the infinite process.
    """
    if d not in (2, 3):
        raise DegenerateInput("zero cells supported for d in {2, 3}")
    R = initial_radius if initial_radius is not None else 5.0 / gamma
    dirs, dists = _shell_arrays(d, gamma, 0.0, R, rng)
    for _ in range(max_doublings):
        if d == 2:
            verts = intersect_halfplanes(dirs, dists, R)
        else:
            verts = _zero_cell_polytope(d, _hyperplanes(dirs, dists), R)
        if len(verts) >= d + 1:
            vmax = float(np.max(np.linalg.norm(verts, axis=1)))
            if vmax < R * (1.0 - 1e-12):
                planes = _hyperplanes(dirs, dists)
                return ZeroCellSample(polytope=Polytope(d, verts), radius=R, hyperplanes=planes)
        more_dirs, more_dists = _shell_arrays(d, gamma, R, 2.0 * R, rng)
        dirs, dists = np.concatenate((dirs, more_dirs)), np.concatenate((dists, more_dists))
        R *= 2.0
    raise IterationCap("zero cell did not close after radius doublings")


# ---------------------------------------------------------------------------
# Typical cell
# ---------------------------------------------------------------------------


def _window_polygons(normals: np.ndarray, offsets: np.ndarray, R: float) -> list[np.ndarray]:
    """Vertex arrays of the cells that the lines {<u_i, x> = t_i} cut from
    the box [-R, R]^2, in the lexicographic order of their sign vectors,
    lower side first.

    A line cuts only polygons that have vertices on both of its sides.  So
    the per-polygon min and max of <u, x> - t over one flat vertex array,
    widened by a slack far above rounding, pick the polygons that go to the
    exact EPS_SIGN test; all others are kept as they are.
    """
    polys = [_box(R)]
    slack = 1e-9 * R
    for u, t in zip(normals, offsets):
        starts = np.cumsum([0] + [len(p) for p in polys[:-1]])
        vals = np.concatenate(polys) @ u - t
        lo, hi = np.minimum.reduceat(vals, starts), np.maximum.reduceat(vals, starts)
        # back to front, so that splicing in two halves keeps the indices
        for k in np.flatnonzero((lo < slack) & (hi > -slack))[::-1]:
            vk = (polys[k] @ u - t).tolist()
            if max(vk) <= EPS_SIGN or min(vk) >= -EPS_SIGN:
                continue
            polys[k : k + 1] = [h for h in _split_polygon(polys[k], vk) if len(h)]
    return polys


def _window_sample(
    d: int, gamma: float, R: float, rng: np.random.Generator
) -> tuple[list[np.ndarray], np.ndarray]:
    """The cells of a simulated window, and which of them lie strictly
    inside B(0, R): only those are cells of the full tessellation."""
    if d != 2:
        raise DegenerateInput("window extraction implemented for d = 2")
    polys = _window_polygons(*_plane_arrays(sample_pht(d, gamma, R, rng).hyperplanes, d), R)
    starts = np.cumsum([0] + [len(p) for p in polys[:-1]])
    norms = np.linalg.norm(np.concatenate(polys), axis=1)
    return polys, np.maximum.reduceat(norms, starts) < R * (1.0 - 1e-12)


def window_cells(
    d: int, gamma: float, R: float, rng: np.random.Generator
) -> list[Cell]:
    """All cells of a simulated window, flagged complete when they lie
    strictly inside B(0, R) (only those are cells of the full tessellation)."""
    polys, complete = _window_sample(d, gamma, R, rng)
    return [Cell(polytope=Polytope(2, p), complete=bool(c)) for p, c in zip(polys, complete)]


def uniform_point_in_polygon(verts_ccw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform point in a convex polygon: area-weighted fan triangle, then
    the square-root triangle map."""
    m = len(verts_ccw)
    areas = np.empty(m - 2)
    for i in range(1, m - 1):
        a, b, c = verts_ccw[0], verts_ccw[i], verts_ccw[i + 1]
        areas[i - 1] = 0.5 * abs(
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        )
    total = float(areas.sum())
    if total <= 0:
        raise ZeroVolume("cannot sample inside a degenerate polygon")
    k = int(rng.choice(m - 2, p=areas / total))
    a, b, c = verts_ccw[0], verts_ccw[k + 1], verts_ccw[k + 2]
    u1, u2 = rng.random(), rng.random()
    s = math.sqrt(u1)
    return (1 - s) * a + s * (1 - u2) * b + s * u2 * c


def sample_typical_cell(
    d: int,
    gamma: float,
    rng: np.random.Generator,
    method: str = "importance",
    window_radius: float | None = None,
) -> WeightedPolytope:
    """One draw for typical-cell averages.

    importance: a zero cell with weight 1/vol; expectations under the
    typical-cell law are self-normalized ratios E[h w]/E[w].  window: a
    uniformly chosen complete cell of a finite window, recentered at a
    uniform interior point (weight 1; finite-window bias shrinks with R).
    """
    if method == "importance":
        z0 = sample_zero_cell(d, gamma, rng)
        vol = polytope_volume(z0.polytope)
        if vol <= 0:
            raise ZeroVolume("zero cell has vanished")
        return WeightedPolytope(polytope=z0.polytope, weight=1.0 / vol, method=method)
    if method != "window":
        raise DegenerateInput(f"unknown method {method!r}")
    R = window_radius if window_radius is not None else 20.0 / gamma
    for _ in range(MAX_WINDOW_RETRIES):
        polys, flags = _window_sample(d, gamma, R, rng)
        complete = [p for p, c in zip(polys, flags) if c]
        if complete:
            poly = complete[int(rng.integers(len(complete)))]
            verts = ccw_order(Polytope(d, poly).vertices)
            v = uniform_point_in_polygon(verts, rng)
            return WeightedPolytope(
                polytope=Polytope(d, verts - v), weight=1.0, method=method
            )
    raise EmptyWindow("no complete cell found; enlarge the window")


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellFeatures:
    volume: float
    f_vector: tuple
    inradius: float
    diameter: float

    def as_array(self) -> np.ndarray:
        return np.array([self.volume, self.f_vector[0], self.inradius, self.diameter])


def chebyshev_inradius(normals: np.ndarray, offsets: np.ndarray, center: np.ndarray) -> float:
    """Exact radius of the largest ball in {x : <u_i, x> <= t_i}, u_i unit.

    The LP max r s.t. <u_i, x> + r <= t_i has its optimum at a vertex, where
    d+1 constraints are tight: solve every (d+1)-subset and keep the largest
    r that satisfies all constraints.  Shifting to the interior point
    `center` makes the feasibility tolerance relative to the cell's size.
    """
    m, d = normals.shape
    t = offsets - normals @ center
    tol = 1e-12 * float(np.max(np.abs(t)))
    A = np.hstack([normals, np.ones((m, 1))])
    subsets = itertools.combinations(range(m), d + 1)
    best = -np.inf
    for _ in range(-(-math.comb(m, d + 1) // _CHEBYSHEV_BLOCK)):
        block = itertools.islice(subsets, _CHEBYSHEV_BLOCK)
        idx = np.fromiter(itertools.chain.from_iterable(block), dtype=np.intp).reshape(-1, d + 1)
        M = A[idx]
        regular = np.abs(np.linalg.det(M)) > EPS_SIGN
        sol = np.linalg.solve(M[regular], t[idx[regular]][..., None])[..., 0]
        feasible = np.all(sol @ A.T <= t + tol, axis=1)
        if feasible.any():
            best = max(best, float(sol[feasible, d].max()))
    if best < 0.0:
        raise ZeroVolume("cell has no interior")
    return best


def cell_features(p: Polytope) -> CellFeatures:
    """Volume, face vector, inradius and diameter of a cell.  The inradius
    is exact: chebyshev_inradius of the facet constraints, in d = 2 and 3."""
    d, verts = p.dim, p.vertices
    if d == 1:
        length = float(verts[:, 0].max() - verts[:, 0].min())
        return CellFeatures(volume=length, f_vector=(2,), inradius=length / 2, diameter=length)
    if d == 2:
        ordered = ccw_order(verts)
        vol = abs(polygon_area(ordered))
        normals, offsets = polygon_edge_normals(ordered)
        f_vector = (len(ordered), len(ordered))
    elif d == 3:
        qh = ConvexHull(verts)
        vol = float(qh.volume)
        # merge triangulated facets into planes
        planes: list[np.ndarray] = []
        for eq in qh.equations:
            if not any(np.linalg.norm(eq - q) <= 1e-8 for q in planes):
                planes.append(eq)
        f0, f2 = len(qh.vertices), len(planes)
        f_vector = (f0, f0 + f2 - 2, f2)
        eqs = np.array(planes)
        normals, offsets = eqs[:, :3], -eqs[:, 3]
    else:
        raise DegenerateInput("cell features supported for d <= 3")
    diam = float(np.sqrt(np.max(np.sum((verts[:, None] - verts[None]) ** 2, axis=2))))
    inr = chebyshev_inradius(normals, offsets, verts.mean(axis=0))
    return CellFeatures(volume=vol, f_vector=f_vector, inradius=inr, diameter=diam)


def feature_array(p: Polytope) -> np.ndarray:
    return cell_features(p).as_array()
