"""Random generators: sphere and half-sphere points, heavy-tailed planar
points via the gnomonic projection, the four random-cone models, uniform
directions inside spherical cells, and the scale-invariant Poisson point
process whose hull is sampled exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .arrangement import (
    RaySignData,
    cell_incidence,
    cell_ray_lines,
    cell_rays,
    enumerate_cones,
    ray_sign_data,
    wendel_probability,
)
from .densities import omega
from .errors import DegenerateInput, IterationCap, NonGeneric, NotPointed
from .geometry import (
    EPS_RANK,
    EPS_SIGN,
    PolyhedralCone,
    contains,
    cross_rows,
    extreme_rays,
    interior_point,
    is_pointed,
    ray_cycle,
    spherical_triangle_areas,
    unit,
)

MAX_GENERICITY_RETRIES = 3


def pole(dim: int) -> np.ndarray:
    """Reference pole e: the last coordinate axis."""
    e = np.zeros(dim)
    e[-1] = 1.0
    return e


# ---------------------------------------------------------------------------
# Points on spheres and their gnomonic images
# ---------------------------------------------------------------------------


def sample_uniform_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on S^d in R^{d+1} (normalized Gaussian)."""
    while True:
        x = rng.standard_normal(d + 1)
        n = np.linalg.norm(x)
        if n > 1e-12:
            return x / n


def sample_uniform_sphere_batch(d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((size, d + 1))
    n = np.linalg.norm(x, axis=1)
    bad = n <= 1e-12
    while np.any(bad):  # pragma: no cover - probability ~0
        x[bad] = rng.standard_normal((int(bad.sum()), d + 1))
        n = np.linalg.norm(x, axis=1)
        bad = n <= 1e-12
    return x / n[:, None]


def sample_uniform_half_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the closed upper half-sphere {<x, e> >= 0}."""
    x = sample_uniform_sphere(d, rng)
    if x[-1] < 0:
        x = -x
    return x


def sample_cauchy_point(d: int, rng: np.random.Generator) -> np.ndarray:
    """Gnomonic image of a uniform upper half-sphere point.

    The resulting law on R^d has density (2/omega_{d+1}) (1+|x|^2)^{-(d+1)/2}.
    """
    u = sample_uniform_half_sphere(d, rng)
    while abs(u[-1]) <= 1e-300:  # pragma: no cover
        u = sample_uniform_half_sphere(d, rng)
    return u[:d] / u[-1]


def sample_cauchy_points(d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    x = sample_uniform_sphere_batch(d, size, rng)
    x *= np.sign(x[:, -1:] + (x[:, -1:] == 0))
    return x[:, :d] / x[:, -1:]


# ---------------------------------------------------------------------------
# Cone samples
# ---------------------------------------------------------------------------


@dataclass
class ConeSample:
    """One sampled random cone with its generators and bookkeeping."""

    kind: str
    generators: np.ndarray
    cone: PolyhedralCone | None = None
    trials: int = 1
    rays: np.ndarray | None = field(default=None, repr=False)
    full_dimensional: bool = True

    def check_consistency(self) -> bool:
        """Membership of a recomputed interior point in the stored cone."""
        if self.cone is None:
            return True
        return contains(self.cone, interior_point(self.cone))


def _uniform_cell_lazy(
    data: RaySignData, rng: np.random.Generator, max_trials: int = 1_000_000
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    """Signs, rays and ray incidences of a uniform cell, without enumerating.

    Proposals are uniform over (ray line, orientation, corner signs), which
    hits each cell once per extreme ray; accepting with probability 1/f_0
    makes the cell exactly uniform.  Needs n >= D so that cells are pointed.
    """
    D = data.dim
    L = len(data.subsets)
    for _ in range(max_trials):
        l = int(rng.integers(L))
        orient = 1 if rng.random() < 0.5 else -1
        s = (orient * data.signs[l]).astype(np.int8)
        eps = (rng.integers(0, 2, size=D - 1) * 2 - 1).astype(np.int8)
        s[data.subsets[l]] = eps
        pos, neg = cell_ray_lines(data, s)
        f0 = int(np.count_nonzero(pos)) + int(np.count_nonzero(neg))
        if rng.random() * f0 < 1.0:
            return s.astype(int), cell_rays(data, pos, neg), cell_incidence(data, pos, neg)
    raise IterationCap("uniform cell sampling did not accept")


def _unit_cross(a, b) -> tuple[float, float, float]:
    c = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    nc = math.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
    if nc <= EPS_RANK:
        raise NonGeneric("dependent hyperplane subset")
    return (c[0] / nc, c[1] / nc, c[2] / nc)


def _walk_cell(normals: np.ndarray, s: np.ndarray, i: int, j: int, r, u: float):
    """Walk the boundary of the cell with signs s from its ray r on planes
    i < j: from a ray on planes a and b, along plane a in the direction t
    away from plane b, to the first plane met, argmin B_k / A_k with
    A = s * (N r), B = s * (N t).  Returns the other rays' lines (lo, hi),
    split by whether the ray is unit(n_lo x n_hi) (pos) or its negative
    (neg); None once u * f_0 >= 1.
    """
    pos, neg = [], []
    a, b, f0 = i, j, 1
    while True:
        na = normals[a].tolist()
        t = _unit_cross(na, r)
        A, B = (np.array((r, t)) @ normals.T) * s
        if B[b] < 0:
            B, t = -B, (-t[0], -t[1], -t[2])
        A[a] = A[b] = 1.0
        B[a] = B[b] = np.inf
        if A.min() <= EPS_SIGN:
            raise NonGeneric("walked ray is not strictly inside the other half-spaces")
        c = int((B / A).argmin())
        if a == j and c == i:
            return pos, neg
        f0 += 1
        if u * f0 >= 1.0:
            return None
        if f0 > len(s):
            raise NonGeneric("cell boundary walk did not close")
        r = _unit_cross(na, normals[c].tolist())
        forward = r[0] * t[0] + r[1] * t[1] + r[2] * t[2] > 0
        r = r if forward else (-r[0], -r[1], -r[2])
        (pos if forward == (a < c) else neg).append((min(a, c), max(a, c)))
        a, b = c, a


def _uniform_cell_local(
    normals: np.ndarray, rng: np.random.Generator, max_trials: int = 1_000_000
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """Signs, rays and ray incidences of a uniform cell of n planes through
    0 in R^3, at O(n) cost per walked vertex.  Proposals and the 1/f_0
    acceptance are those of _uniform_cell_lazy.  The draws, in order: the
    line l, the orientation, the signs of its planes i < j and the accept
    draw u, taken before the walk so that it can stop once u * f_0 >= 1.
    Rays and incidences come in the order of cell_rays.
    """
    n = normals.shape[0]
    L = n * (n - 1) // 2
    for _ in range(max_trials):
        l = int(rng.integers(L))  # (i, j) in the row-major order of triu_indices(n, 1)
        i = n - 2 - (math.isqrt(8 * (L - l) - 7) - 1) // 2
        j = l + i + 1 - L + (n - i) * (n - i - 1) // 2
        *flips, u = rng.random(4)
        if u * 3 >= 1.0:  # every cell has f_0 >= 3
            continue
        orient, si, sj = (1 if x < 0.5 else -1 for x in flips)
        v = _unit_cross(normals[i].tolist(), normals[j].tolist())
        dots = normals @ v
        if np.flatnonzero(np.abs(dots) <= EPS_SIGN).tolist() != [i, j]:
            raise NonGeneric("a ray line lies on more hyperplanes than dimension allows")
        s = np.where(dots > 0, orient, -orient)
        s[i], s[j] = si, sj
        walk = _walk_cell(normals, s, i, j, tuple(orient * x for x in v), u)
        if walk is None:
            continue
        pos, neg = walk
        (pos if orient > 0 else neg).append((i, j))
        pairs = np.array(sorted(pos) + sorted(neg))
        V = cross_rows(normals[pairs[:, 0]], normals[pairs[:, 1]])
        V /= np.linalg.norm(V, axis=1)[:, None]
        V[len(pos):] = -V[len(pos):]
        return s, V, tuple(map(tuple, pairs.tolist()))
    raise IterationCap("uniform cell sampling did not accept")


def sample_schlaefli_cone(
    n: int, d: int, rng: np.random.Generator, method: str = "auto"
) -> ConeSample:
    """Uniformly chosen cell of the tessellation by n uniform hyperplanes.

    ``method`` picks between full enumeration and the lazy uniform-cell
    route (identical law); "auto" uses the lazy route whenever cells are
    pointed (ambient R^3, n >= 3).
    """
    D = d + 1
    if method == "auto":
        method = "lazy" if D == 3 and n >= 3 else "enumerate"
    last: Exception | None = None
    for _ in range(MAX_GENERICITY_RETRIES):
        normals = sample_uniform_sphere_batch(d, n, rng)
        try:
            if method == "enumerate":
                arr = enumerate_cones(normals)
                cone = arr.cells[int(rng.integers(arr.n_cells))]
                return ConeSample(kind="schlaefli", generators=normals, cone=cone, rays=cone._rays)
            if n < D:
                raise DegenerateInput("lazy sampling needs n >= d+1")
            if D == 3:
                signs, rays, incidence = _uniform_cell_local(normals, rng)
            else:
                signs, rays, incidence = _uniform_cell_lazy(ray_sign_data(normals), rng)
            cone = PolyhedralCone(normals, signs)
            rays.setflags(write=False)
            cone._rays = rays
            cone._ray_incidence = incidence
            return ConeSample(kind="schlaefli", generators=normals, cone=cone, rays=rays)
        except NonGeneric as exc:
            last = exc
    raise NonGeneric(f"persistent degeneracy after {MAX_GENERICITY_RETRIES} resamples: {last}")


def positive_hull_spans(points: np.ndarray) -> bool:
    """Whether pos(points) is all of R^D (exact for generic inputs).

    pos(points) misses a closed half-space iff some supporting direction
    exists; generically a supporting direction can be found among the
    normals of (D-1)-point subsets.
    """
    pts = np.asarray(points, dtype=float)
    n, D = pts.shape
    if n <= D:
        return False
    data = ray_sign_data(pts)
    sgn = data.signs
    rows_nonneg = ~np.any(sgn > 0, axis=1)
    rows_nonpos = ~np.any(sgn < 0, axis=1)
    return not bool(np.any(rows_nonneg | rows_nonpos))


def sample_cover_efron(
    n: int, d: int, rng: np.random.Generator, build_cone: bool = True
) -> ConeSample:
    """Positive hull of n uniform sphere points, conditioned not to span.

    Rejection on the spanning event; the acceptance frequency is the
    classical orthant probability C(n, d+1)/2^n.
    """
    D = d + 1
    expected_trials = 1.0 / float(wendel_probability(n, d))
    if expected_trials > 1e6:
        raise IterationCap(
            f"acceptance probability {1.0 / expected_trials:.3g} too small for rejection"
        )
    trials = 0
    while True:
        trials += 1
        pts = sample_uniform_sphere_batch(d, n, rng)
        if not positive_hull_spans(pts):
            break
        if trials > 100 * expected_trials + 1000:  # pragma: no cover
            raise IterationCap("cover-efron rejection loop stuck")
    full = n >= D
    cone = None
    if build_cone and full:
        # facets of pos(points): extreme rays of the polar cell {<x_i, y> <= 0}
        polar = PolyhedralCone(pts, -np.ones(n, dtype=int))
        rays = extreme_rays(polar)
        cone = PolyhedralCone(rays, -np.ones(rays.shape[0], dtype=int))
    return ConeSample(
        kind="cover_efron", generators=pts, cone=cone, trials=trials, full_dimensional=full
    )


def sample_s_minus_e(n: int, d: int, rng: np.random.Generator) -> ConeSample:
    """The almost surely unique cell containing the south pole -e."""
    D = d + 1
    e = pole(D)
    for _ in range(MAX_GENERICITY_RETRIES):
        normals = sample_uniform_sphere_batch(d, n, rng)
        dots = normals @ (-e)
        if np.any(np.abs(dots) <= EPS_SIGN):
            continue
        signs = np.sign(dots).astype(int)
        cone = PolyhedralCone(normals, signs)
        return ConeSample(kind="s_minus_e", generators=normals, cone=cone)
    raise NonGeneric("hyperplane through the pole after repeated resampling")


def sample_r_n(n: int, d: int, rng: np.random.Generator) -> ConeSample:
    """Positive hull of n uniform points on the upper half-sphere (V-form)."""
    D = d + 1
    pts = sample_uniform_sphere_batch(d, n, rng)
    pts *= np.sign(pts[:, -1:] + (pts[:, -1:] == 0))
    full = n >= D and int(np.linalg.matrix_rank(pts)) == D
    return ConeSample(kind="r_n", generators=pts, cone=None, full_dimensional=full)


def polar_of_r_n(sample: ConeSample) -> PolyhedralCone:
    """H-form of pos(generators)^polar = {y : <x_i, y> <= 0}."""
    pts = sample.generators
    return PolyhedralCone(pts, -np.ones(pts.shape[0], dtype=int))


# ---------------------------------------------------------------------------
# Uniform directions inside spherical cells
# ---------------------------------------------------------------------------


def _sample_spherical_triangle(A, B, C, area: float, rng: np.random.Generator) -> np.ndarray:
    """Exact uniform point in a spherical triangle of the given area (Arvo's
    construction)."""
    cos_c = float(np.dot(A, B))
    tb = B - np.dot(B, A) * A  # unit tangents at A towards B and C
    ortho = C - np.dot(C, A) * A
    tb /= np.linalg.norm(tb)
    ortho /= np.linalg.norm(ortho)
    alpha = math.atan2(float(np.linalg.norm(np.cross(tb, ortho))), float(np.dot(tb, ortho)))
    xi1 = rng.random()
    xi2 = rng.random()
    a_hat = xi1 * area
    s = math.sin(a_hat - alpha)
    t = math.cos(a_hat - alpha)
    u = t - math.cos(alpha)
    v = s + math.sin(alpha) * cos_c
    denom = (v * s + u * t) * math.sin(alpha)
    if abs(denom) <= 1e-300:
        return np.array(A)
    q = ((v * t - u * s) * math.cos(alpha) - v) / denom
    q = min(1.0, max(-1.0, q))
    c_hat = q * A + math.sqrt(max(0.0, 1.0 - q * q)) * ortho
    z = 1.0 - xi2 * (1.0 - float(np.dot(c_hat, B)))
    z = min(1.0, max(-1.0, z))
    ortho2 = c_hat - np.dot(c_hat, B) * B
    nn = np.linalg.norm(ortho2)
    if nn <= 1e-15:
        return np.array(B)
    ortho2 /= nn
    return unit(z * B + math.sqrt(max(0.0, 1.0 - z * z)) * ortho2)


def sample_uniform_in_cell(
    cone: PolyhedralCone,
    rng: np.random.Generator,
    max_iters: int = 10_000_000,
) -> np.ndarray:
    """Uniform direction in cone ∩ S^d w.r.t. spherical Lebesgue measure.

    Exact in ambient dimension 2 (arc) and 3 (area-weighted fan of
    spherical triangles, each sampled exactly); cap rejection otherwise.
    """
    D = cone.ambient_dim
    if not is_pointed(cone):
        raise NotPointed("uniform direction needs a pointed cell")
    rays = extreme_rays(cone)
    if D == 2:
        ang = math.atan2(
            abs(rays[0, 0] * rays[1, 1] - rays[0, 1] * rays[1, 0]),
            float(np.dot(rays[0], rays[1])),
        )
        theta = rng.random() * ang
        u = (math.sin(ang - theta) * rays[0] + math.sin(theta) * rays[1]) / math.sin(ang)
        return unit(u)
    if D == 3:
        ordered = ray_cycle(cone)
        areas = spherical_triangle_areas(ordered)
        total = float(areas.sum())
        if total <= 0.0:
            raise DegenerateInput("cell has vanishing spherical area")
        k = int(rng.choice(len(areas), p=areas / total))
        return _sample_spherical_triangle(ordered[0], ordered[k + 1], ordered[k + 2], areas[k], rng)
    # cap rejection for higher dimensions
    center = unit(rays.sum(axis=0))
    cosmax = float(np.min(rays @ center))
    for _ in range(max_iters):
        if cosmax > 1e-9:
            z = cosmax + rng.random() * (1.0 - cosmax)
            if rng.random() > (1.0 - z * z) ** ((D - 3) / 2.0):
                continue
            dirn = sample_uniform_sphere(D - 2, rng)
            basis = _orthobasis(center)
            x = z * center + math.sqrt(max(0.0, 1.0 - z * z)) * (basis.T @ dirn)
        else:
            x = sample_uniform_sphere(D - 1, rng)
        if contains(cone, x):
            return x
    raise IterationCap("cap rejection exhausted its budget")


def _orthobasis(v: np.ndarray) -> np.ndarray:
    """Rows: an orthonormal basis of v-perp."""
    _, _, vt = np.linalg.svd(v.reshape(1, -1))
    return vt[1:]


# ---------------------------------------------------------------------------
# The scale-invariant Poisson process
# ---------------------------------------------------------------------------


def poisson_radial_mass(d: int) -> float:
    """Expected number of process points with |y| >= 1 (equals 2 omega_d / omega_{d+1})."""
    return 2.0 * omega(d) / omega(d + 1)


def _inradius_at_origin(points: np.ndarray, d: int) -> float:
    """Largest r with B(0, r) inside conv(points); 0 if origin not interior."""
    if points.shape[0] < d + 1:
        return 0.0
    try:
        offs = -ConvexHull(points).equations[:, -1]
    except QhullError:
        return 0.0
    return float(np.min(offs)) if np.all(offs > 0) else 0.0


def sample_poisson_Pi(
    d: int, rng: np.random.Generator, max_points: int = 100_000
) -> np.ndarray:
    """Point set whose hull equals the hull of the Poisson process with
    intensity (2/omega_{d+1}) |y|^{-(d+1)}.

    Radii are generated outward-in (the count beyond radius r is Poisson
    with mean a/r); generation stops once the ball of the current radius
    lies inside the hull of the points so far, so every omitted point is
    interior and the returned hull is exact.
    """
    if d not in (2, 3):
        raise DegenerateInput("Poisson hull sampling supports d in {2, 3}")
    a = poisson_radial_mass(d)
    u = 0.0
    pts: list[np.ndarray] = []
    check_at = d + 1
    for _ in range(max_points):
        u += rng.exponential()
        r = a / u
        direction = sample_uniform_sphere(d - 1, rng)
        pts.append(r * direction)
        if len(pts) >= check_at:
            arr = np.array(pts)
            if r <= _inradius_at_origin(arr, d):
                return arr
            check_at = len(pts) + 1
    raise IterationCap("Poisson hull truncation did not close")
