"""Exact geometric primitives shared by every other module.

Convex hulls, polar duals, polyhedral cones given by hyperplanes plus a sign
vector, face counting, and solid angles.  Exact mode deliberately stops at
small ambient dimension (polytopes in R^1..R^3, cones up to R^4 for counting
and up to R^3 for exact angles); larger dimensions are served by Monte Carlo
fallbacks at the call sites.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    DegenerateInput,
    NonGeneric,
    NotPointed,
    OriginNotInterior,
    TiedFirstCoordinate,
)

# Sign predicates (inner products against zero).
EPS_SIGN = 1e-12
# Reconstructed-coordinate comparisons (round trips, dedup).
EPS_COORD = 1e-9
# Rank decisions (pointedness, affine dimension).
EPS_RANK = 1e-9


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n <= EPS_SIGN:
        raise DegenerateInput("cannot normalize a (near-)zero vector")
    return v / n


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polytope:
    """Polytope stored as its vertex list, sorted by first coordinate.

    Vertices are sorted lexicographically; a polytope whose hull vertices
    have pairwise distinct first coordinates is in coordinate representation
    (`first_coords_strict`).  Construction does not reject ties: man-made
    inputs like axis-aligned squares are legitimate test objects, and the
    operations that genuinely require strict order check it themselves.
    """

    dim: int
    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.vertices, dtype=float)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.ndim != 2 or v.shape[1] != self.dim or v.shape[0] == 0:
            raise DegenerateInput(f"vertex array must have shape (m, {self.dim})")
        if not np.all(np.isfinite(v)):
            raise DegenerateInput("vertices must be finite")
        order = np.lexsort(tuple(v[:, j] for j in range(self.dim - 1, -1, -1)))
        v = v[order]
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def first_coords_strict(self) -> bool:
        if self.n_vertices < 2:
            return True
        return bool(np.all(np.diff(self.vertices[:, 0]) > 0))

    def scaled(self, factor: float) -> "Polytope":
        return Polytope(self.dim, self.vertices * float(factor))

    def to_json(self) -> dict:
        return {"dim": self.dim, "vertices": self.vertices.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Polytope":
        return cls(int(obj["dim"]), np.asarray(obj["vertices"], dtype=float))


def _cross2(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def affine_rank(points: np.ndarray) -> int:
    diffs = points[1:] - points[0]
    if diffs.size == 0:
        return 0
    return int(np.linalg.matrix_rank(diffs, tol=EPS_RANK))


def convex_hull(points, dim: int) -> Polytope:
    """Extreme points of a point set in R^dim, dim in {1, 2, 3}.

    Dims 2 and 3 go through Qhull; points on an edge or a facet are not
    vertices.  Raises DegenerateInput when the points span a
    lower-dimensional affine subspace and TiedFirstCoordinate when two hull
    vertices share a first coordinate exactly.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DegenerateInput(f"points must have shape (k, {dim})")
    if dim not in (1, 2, 3):
        raise DegenerateInput("exact hulls are only supported for dim <= 3")
    pts = np.unique(pts, axis=0)
    if pts.shape[0] < dim + 1:
        raise DegenerateInput("need at least dim+1 distinct points")
    if affine_rank(pts) < dim:
        raise DegenerateInput("points lie in a lower-dimensional affine subspace")

    if dim == 1:
        hull = np.array([[pts[:, 0].min()], [pts[:, 0].max()]])
    else:
        try:
            hull = pts[ConvexHull(pts).vertices]
        except QhullError as exc:  # pragma: no cover - rank check above
            raise DegenerateInput(str(exc)) from exc

    firsts = np.sort(hull[:, 0])
    if np.any(np.diff(firsts) == 0.0):
        raise TiedFirstCoordinate("two hull vertices share a first coordinate")
    return Polytope(dim, hull)


def ccw_order(vertices: np.ndarray) -> np.ndarray:
    """Vertices of a convex polygon in counterclockwise boundary order."""
    v = np.asarray(vertices, dtype=float)
    c = v.mean(axis=0)
    ang = np.arctan2(v[:, 1] - c[1], v[:, 0] - c[0])
    return v[np.argsort(ang, kind="stable")]


def polygon_area(vertices_ccw: np.ndarray) -> float:
    x = vertices_ccw[:, 0]
    y = vertices_ccw[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def polytope_volume(p: Polytope) -> float:
    """d-dimensional volume (length / area / volume) of the polytope."""
    if p.dim == 1:
        return float(p.vertices[:, 0].max() - p.vertices[:, 0].min())
    if p.dim == 2:
        return abs(polygon_area(ccw_order(p.vertices)))
    if p.dim == 3:
        return float(ConvexHull(p.vertices).volume)
    raise DegenerateInput("volumes are only supported for dim <= 3")


def point_in_convex_polygon(x, vertices_ccw: np.ndarray, tol: float = EPS_SIGN) -> bool:
    x = np.asarray(x, dtype=float)
    m = len(vertices_ccw)
    for i in range(m):
        a = vertices_ccw[i]
        b = vertices_ccw[(i + 1) % m]
        if _cross2(a, b, x) < -tol:
            return False
    return True


def polygon_edge_normals(vertices_ccw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals and offsets of a ccw convex polygon's edges."""
    a = vertices_ccw
    b = np.roll(vertices_ccw, -1, axis=0)
    t = b - a
    normals = np.stack([t[:, 1], -t[:, 0]], axis=1)
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms <= EPS_SIGN):
        raise DegenerateInput("repeated polygon vertex")
    normals /= norms[:, None]
    offsets = np.einsum("ij,ij->i", normals, a)
    return normals, offsets


def polar_polytope(p: Polytope) -> Polytope:
    """Polar dual of a polytope with the origin strictly interior.

    A facet with outer unit normal u at offset h > 0 maps to the vertex u/h.
    """
    if p.dim == 1:
        lo = float(p.vertices[:, 0].min())
        hi = float(p.vertices[:, 0].max())
        if lo >= -EPS_SIGN or hi <= EPS_SIGN:
            raise OriginNotInterior("origin not strictly inside the segment")
        return Polytope(1, np.array([[1.0 / lo], [1.0 / hi]]))
    if p.dim == 2:
        verts = ccw_order(p.vertices)
        if len(verts) < 3:
            raise DegenerateInput("polygon needs at least 3 vertices")
        normals, offsets = polygon_edge_normals(verts)
        if np.any(offsets <= EPS_SIGN):
            raise OriginNotInterior("origin not strictly interior to the polygon")
        return Polytope(2, normals / offsets[:, None])
    if p.dim == 3:
        qh = ConvexHull(p.vertices)
        normals = qh.equations[:, :3]
        offsets = -qh.equations[:, 3]
        if np.any(offsets <= EPS_SIGN):
            raise OriginNotInterior("origin not strictly interior to the polytope")
        cand = normals / offsets[:, None]
        # qhull triangulates facets; merge duplicate planes
        out: list[np.ndarray] = []
        for v in cand:
            if not any(np.linalg.norm(v - w) <= EPS_COORD for w in out):
                out.append(v)
        return Polytope(3, np.array(out))
    raise DegenerateInput("polar duals are only supported for dim <= 3")


# ---------------------------------------------------------------------------
# Polyhedral cones
# ---------------------------------------------------------------------------


@dataclass
class PolyhedralCone:
    """Cone {x : sign_i * <normal_i, x> >= 0 for all i} in R^D.

    The pair (normal, sign) is only meaningful through the product, so every
    operation is invariant under flipping a normal together with its sign.
    Extreme rays are computed lazily and cached.
    """

    normals: np.ndarray
    signs: np.ndarray
    _rays: np.ndarray | None = field(default=None, repr=False)
    _ray_incidence: tuple[tuple[int, ...], ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        nm = np.array(self.normals, dtype=float)
        if nm.ndim != 2 or nm.shape[0] == 0:
            raise DegenerateInput("normals must have shape (n, D) with n >= 1")
        norms = np.linalg.norm(nm, axis=1)
        if np.any(norms <= EPS_SIGN):
            raise DegenerateInput("zero hyperplane normal")
        nm /= norms[:, None]
        sg = np.asarray(self.signs, dtype=int)
        if sg.shape != (nm.shape[0],) or not np.all(np.abs(sg) == 1):
            raise DegenerateInput("signs must be a vector over {+1, -1}, one per hyperplane")
        nm.setflags(write=False)
        sg.setflags(write=False)
        self.normals = nm
        self.signs = sg

    @property
    def ambient_dim(self) -> int:
        return self.normals.shape[1]

    @property
    def n_hyperplanes(self) -> int:
        return self.normals.shape[0]

    @property
    def effective_normals(self) -> np.ndarray:
        return self.signs[:, None] * self.normals


def contains(cone: PolyhedralCone, x, tol: float = EPS_SIGN) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.min(cone.effective_normals @ x) >= -tol)


def lineality_dim(cone: PolyhedralCone) -> int:
    return cone.ambient_dim - int(np.linalg.matrix_rank(cone.normals, tol=EPS_RANK))


def is_pointed(cone: PolyhedralCone) -> bool:
    """A closed cone is pointed iff its lineality space is trivial."""
    return lineality_dim(cone) == 0


def line_directions(rows) -> np.ndarray:
    """Generalized cross products: for each stacked set of D-1 rows in R^D,
    the vector v with v_j = (-1)^j det(rows without column j), orthogonal to
    every row.  This is the canonical direction of the line on D-1 linear
    hyperplanes, for rows of shape (..., D-1, D)."""
    rows = np.asarray(rows, dtype=float)
    D = rows.shape[-1]
    if rows.shape[-2] != D - 1:
        raise DegenerateInput("need exactly D-1 rows")
    if D == 3:
        flat = rows.reshape(-1, 2, 3)
        return cross_rows(flat[:, 0], flat[:, 1]).reshape(rows.shape[:-2] + (3,))
    if D == 2:
        return np.stack([rows[..., 0, 1], -rows[..., 0, 0]], axis=-1)
    cols = np.arange(D)
    return np.stack(
        [(-1.0) ** j * np.linalg.det(rows[..., cols != j]) for j in range(D)], axis=-1
    )


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise cross products of (k, 3) arrays: np.cross's arithmetic without
    its axis handling, which costs more than the products for a few rows."""
    return p[:, _NEXT] * q[:, _PREV] - p[:, _PREV] * q[:, _NEXT]


def extreme_rays(cone: PolyhedralCone) -> np.ndarray:
    """Unit extreme rays of a pointed full-dimensional cone, one per row.

    Each ray lies on exactly D-1 of the hyperplanes; a candidate lying on
    more raises NonGeneric.  Results are cached on the cone.
    """
    if cone._rays is not None:
        return cone._rays
    if not is_pointed(cone):
        raise NotPointed("cone contains a line; extreme rays are undefined")
    return _pointed_rays(cone)


def _pointed_rays(cone: PolyhedralCone) -> np.ndarray:
    """extreme_rays for a cone already known to be pointed.

    A line carries a ray of the cone iff all n - D + 1 planes off it lie on
    one side of it; fewer than that strictly off it means it lies on more
    planes than dimension allows.
    """
    n, D = cone.normals.shape
    subsets, V, dots = _ray_lines(cone.normals, cone.effective_normals)
    above = np.count_nonzero(dots > EPS_SIGN, axis=1)
    below = np.count_nonzero(dots < -EPS_SIGN, axis=1)
    if np.any(above + below < n - D + 1):
        raise NonGeneric("candidate ray lies on more hyperplanes than dimension allows")
    pos = above == n - D + 1
    neg = below == n - D + 1
    incidence = np.concatenate([subsets[pos], subsets[neg]]).tolist()
    return _cache_rays(cone, np.concatenate([V[pos], -V[neg]]), tuple(map(tuple, incidence)))


def _ray_lines(normals: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (D-1)-subset of the n planes with normals ``normals``, shape
    (L, D-1) in itertools.combinations order; the unit canonical direction
    of each subset's line (line_directions, normalized row-wise), shape
    (L, D); and the products of each direction with the rows of W, shape
    (L, n), zero on the line's own planes, so that they count on neither
    side of it.  Raises NonGeneric on a dependent subset."""
    n, D = normals.shape
    subsets = _subsets(n, D - 1)
    if D == 3:  # line_directions' cross products, without its (L, 2, 3) gather
        V = cross_rows(normals[subsets[:, 0]], normals[subsets[:, 1]])
    else:
        V = line_directions(normals[subsets])
    norms = np.linalg.norm(V, axis=1)
    if np.any(norms <= EPS_RANK):
        raise NonGeneric("dependent hyperplane subset")
    V /= norms[:, None]
    dots = V @ W.T
    rows = np.arange(len(subsets))
    for col in subsets.T:
        dots[rows, col] = 0.0
    return subsets, V, dots


@functools.lru_cache(maxsize=16)
def _subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) in itertools.combinations order, one per
    row, read-only; cached, since cells of one size recur."""
    out = np.array(list(itertools.combinations(range(n), k)), dtype=int)
    out = out.reshape(math.comb(n, k), k)
    out.setflags(write=False)
    return out


def _cache_rays(cone: PolyhedralCone, rays: np.ndarray, incidence) -> np.ndarray:
    """Store a cone's extreme rays, read-only, and the planes through each;
    every writer of the ray cache goes through here."""
    rays.setflags(write=False)
    cone._rays = rays
    cone._ray_incidence = incidence
    return rays


def ray_incidence(cone: PolyhedralCone) -> tuple[tuple[int, ...], ...]:
    """The hyperplanes through each extreme ray; every writer of the ray
    cache writes this one too."""
    extreme_rays(cone)
    return cone._ray_incidence


def interior_point(cone: PolyhedralCone) -> np.ndarray:
    """A point with all sign-weighted inner products strictly positive.

    Existence certifies full dimensionality; raises DegenerateInput otherwise.
    """
    D = cone.ambient_dim
    r = int(np.linalg.matrix_rank(cone.normals, tol=EPS_RANK))
    if r == 0:
        return np.zeros(D)
    if r == D:
        rays = extreme_rays(cone)
        if rays.shape[0] == 0:
            raise DegenerateInput("cone has empty interior")
        x = rays.sum(axis=0)
    else:
        # reduce by the lineality space and lift back
        _, _, vt = np.linalg.svd(cone.normals)
        basis = vt[:r]  # row space of the normals
        reduced = PolyhedralCone(cone.normals @ basis.T, cone.signs)
        x = basis.T @ interior_point(reduced)
    if np.min(cone.effective_normals @ x) <= EPS_SIGN * 10:
        raise DegenerateInput("cone has empty interior")
    return x


def polar_cone(cone: PolyhedralCone) -> PolyhedralCone:
    """Polar cone {y : <x, y> <= 0 for all x in the cone} of a pointed cone."""
    rays = extreme_rays(cone)
    if rays.shape[0] == 0:
        raise DegenerateInput("polar of a trivial cone is all of space")
    return PolyhedralCone(rays, -np.ones(rays.shape[0], dtype=int))


def ray_cycle(cone: PolyhedralCone) -> np.ndarray:
    """Extreme rays of a pointed 3-d cone in boundary order.

    Rays are neighbours when ray_incidence puts them on a common facet;
    facets are paired in hyperplane-index order, the cycle starts at ray 0.
    """
    rays = extreme_rays(cone)
    m = rays.shape[0]
    if m < 3:
        raise DegenerateInput("full-dimensional pointed 3-d cone needs >= 3 rays")
    on_plane: dict[int, list[int]] = {}
    for i, T in enumerate(ray_incidence(cone)):
        for j in T:
            on_plane.setdefault(j, []).append(i)
    if any(len(v) > 2 for v in on_plane.values()):
        raise NonGeneric("hyperplane incident to more than two rays")
    adj: list[list[int]] = [[] for _ in range(m)]
    for j in sorted(on_plane):
        if len(on_plane[j]) == 2:
            a, b = on_plane[j]
            adj[a].append(b)
            adj[b].append(a)
    if any(len(v) != 2 for v in adj):
        raise NonGeneric("ray adjacency is not a cycle")
    order = [0, adj[0][0]]
    while len(order) < m:
        nxt = [j for j in adj[order[-1]] if j != order[-2]]
        if len(nxt) != 1:
            raise NonGeneric("ray adjacency is not a cycle")
        order.append(nxt[0])
    if len(set(order)) != m:
        raise NonGeneric("ray adjacency is not a single cycle")
    return rays[order]


def spherical_triangle_areas(ordered_rays: np.ndarray) -> np.ndarray:
    """Areas of the fan triangles (v_0, v_i, v_i+1), i = 1..m-2, of a convex
    spherical polygon with vertex directions in order: 2 atan2(|a.(b x c)|,
    1 + a.b + b.c + c.a) (Van Oosterom & Strackee 1983), with the triple
    product taken as a.((b - a) x (c - a)) to keep tiny cells precise."""
    v = np.asarray(ordered_rays, dtype=float)
    edges = np.concatenate((v[1:], v[:1])) - v
    if (np.einsum("ij,ij->i", edges, edges) <= EPS_SIGN**2).any():
        raise NonGeneric("coincident neighbor rays")
    a = v[0]
    spokes = v[1:] - a
    det = cross_rows(spokes[:-1], spokes[1:]) @ a
    to_a = v @ a
    denom = 1.0 + to_a[1:-1] + np.einsum("ij,ij->i", v[1:-1], v[2:]) + to_a[2:]
    return 2.0 * np.arctan2(np.abs(det), denom)


def spherical_polygon_area(ordered_rays: np.ndarray) -> float:
    """Area of a convex spherical polygon from its vertex directions in order."""
    return float(spherical_triangle_areas(ordered_rays).sum())


def solid_angle(cone: PolyhedralCone) -> float:
    """Exact normalized solid angle (fraction of the sphere) for ambient <= 3.

    Cones with lineality are reduced to their pointed part first; the
    normalized angle is invariant under adding a linear space.
    """
    D = cone.ambient_dim
    if cone._rays is None:  # cached rays prove the cone pointed
        r = int(np.linalg.matrix_rank(cone.normals, tol=EPS_RANK))
        if r == 0:
            return 1.0
        if r < D:
            _, _, vt = np.linalg.svd(cone.normals)
            basis = vt[:r]
            return solid_angle(PolyhedralCone(cone.normals @ basis.T, cone.signs))
        if D in (2, 3):
            _pointed_rays(cone)  # r == D: pointed, so skip extreme_rays' rank
    if D == 1:
        w = cone.effective_normals[:, 0]
        if np.all(w > 0) or np.all(w < 0):
            return 0.5
        raise DegenerateInput("cone in R^1 has empty interior")
    if D == 2:
        rays = extreme_rays(cone)
        if rays.shape[0] != 2:
            raise DegenerateInput("planar cone must have exactly two boundary rays")
        ang = math.atan2(abs(_cross2((0.0, 0.0), rays[0], rays[1])), float(np.dot(rays[0], rays[1])))
        return ang / (2.0 * math.pi)
    if D == 3:
        return spherical_polygon_area(ray_cycle(cone)) / (4.0 * math.pi)
    raise DegenerateInput("exact solid angles only for ambient dimension <= 3")


def solid_angle_mc(cone: PolyhedralCone, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo solid angle in any dimension: (estimate, binomial SE)."""
    D = cone.ambient_dim
    W = cone.effective_normals
    hits = 0
    remaining = int(samples)
    batch = 65536
    while remaining > 0:
        k = min(batch, remaining)
        x = rng.standard_normal((k, D))
        hits += int(np.count_nonzero(np.min(x @ W.T, axis=1) >= 0.0))
        remaining -= k
    p = hits / samples
    se = math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    return p, se


def face_counts_spherical(cone: PolyhedralCone) -> np.ndarray:
    """Face vector (f_0, ..., f_d) of the spherical polytope cone ∩ S^d.

    f_k counts the (k+1)-dimensional faces of the cone; f_0 is the number of
    extreme rays and f_d = 1 for the cone itself.  Raises NotPointed for
    cones containing a line (half-spaces and the like), where the counts
    have no agreed convention.
    """
    D = cone.ambient_dim
    d = D - 1
    rays = extreme_rays(cone)  # NotPointed/NonGeneric propagate
    incid = ray_incidence(cone)
    f = np.zeros(d + 1, dtype=int)
    f[0] = rays.shape[0]
    f[d] = 1
    if d == 0:
        return f[:1]
    active = sorted({i for T in incid for i in T})
    for k in range(1, d):
        size = D - (k + 1)
        count = 0
        for T in itertools.combinations(active, size):
            sel = [j for j, inc in enumerate(incid) if set(T).issubset(inc)]
            if len(sel) < k + 1:
                continue
            if int(np.linalg.matrix_rank(rays[sel], tol=EPS_RANK)) == k + 1:
                count += 1
        f[k] = count
    return f
