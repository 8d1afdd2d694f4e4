"""Random generators: sphere and half-sphere points, heavy-tailed planar
points via the gnomonic projection, the four random-cone models, uniform
directions inside spherical cells, and the scale-invariant Poisson point
process whose hull is sampled exactly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .arrangement import enumerate_cones, ray_sign_data, wendel_probability
from .densities import omega
from .errors import DegenerateInput, IterationCap, NonGeneric, NotPointed
from .geometry import (
    EPS_RANK,
    EPS_SIGN,
    PolyhedralCone,
    _cache_rays,
    contains,
    extreme_rays,
    is_pointed,
    line_directions,
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


def _cross(rows) -> list[float]:
    """line_directions for one set of D-1 rows, as Python floats; the R^3
    case is unrolled, with cross_rows's arithmetic, because the walk takes
    it twice per vertex."""
    if len(rows) == 2 and len(rows[0]) == 3:
        (a0, a1, a2), (b0, b1, b2) = rows
        return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    return line_directions(np.array(rows)).tolist()


def _ray(v: list[float], sign: int) -> list[float]:
    """The unit ray sign * v / |v| of a line with canonical direction v."""
    nv = math.hypot(*v)
    if nv <= EPS_RANK:
        raise NonGeneric("dependent hyperplane subset")
    return [x / (sign * nv) for x in v]


def _check_off_planes(A: np.ndarray, P) -> None:
    """Raise unless a ray on the planes P is strictly inside the other
    half-spaces: A = s * (N r) > EPS_SIGN off P.  Sets A to 1 on P."""
    for p in P:
        A[p] = 1.0
    if A.min() <= EPS_SIGN:
        raise NonGeneric("a ray line lies on more hyperplanes than dimension allows")


def _unrank_combination(rank: int, n: int, k: int) -> tuple[int, ...]:
    """The rank-th k-subset of range(n) in itertools.combinations order,
    read off the combinadic of its reverse rank."""
    rest = math.comb(n, k) - 1 - rank
    out = []
    for m in range(k, 1, -1):
        a = int((math.factorial(m) * rest) ** (1.0 / m)) + (m - 1) // 2
        while math.comb(a + 1, m) <= rest:
            a += 1
        while math.comb(a, m) > rest:
            a -= 1
        rest -= math.comb(a, m)
        out.append(n - 1 - a)
    out.append(n - 1 - rest)
    return tuple(out)


def _walk_cell(normals: np.ndarray, s: np.ndarray, start, rows, orient: int, u: float):
    """Search the vertex graph of the cell with signs s from its ray on the
    sorted planes ``start``, whose normals are ``rows``; the ray is ``orient``
    times the line's canonical direction.

    A ray r on the D-1 planes P has D-1 edges.  The one leaving plane b keeps
    the other planes K and runs along t = _cross(normals[K] + [r]), oriented
    so that s_b <n_b, t> > 0, to the first plane c met: argmin B_k / A_k with
    A = s * (N r), B = s * (N t).  A new ray skips the edge it came by; an
    edge that ends at a known ray is closed, so that the ray at its other end
    skips it too, and every edge is walked once.  Returns, keyed by the
    sorted plane tuple, each ray's sign against its line's canonical
    direction and that direction; None once u * f_0 >= 1.
    """
    D = normals.shape[1]
    snT = (normals * s[:, None]).T.copy()
    v = _cross(rows)
    found = {start: (orient, v)}
    closed: set[tuple[int, ...]] = set()
    walked = 0
    stack = [(start, rows, _ray(v, orient), list(range(D - 1)))]  # a ray and its edges left
    while stack:
        P, rows, r, todo = stack[-1]
        m = todo.pop()
        if not todo:
            stack.pop()
        K = P[:m] + P[m + 1:]
        if K in closed:
            continue
        walked += 1
        krows = rows[:m] + rows[m + 1:]
        t = _cross(krows + [r])
        A, B = np.array((r, t)) @ snT
        if B[P[m]] < 0:
            B, t = -B, [-x for x in t]
        _check_off_planes(A, P)
        for p in P:
            B[p] = np.inf
        c = int((B / A).argmin())
        i = bisect.bisect(K, c)
        Q = K[:i] + (c,) + K[i:]
        if Q in found:
            closed.add(K)
            continue
        if u * (len(found) + 1) >= 1.0:
            return None
        qrows = krows[:i] + [normals[c].tolist()] + krows[i:]
        v = _cross(qrows)
        sign = 1 if sum(map(mul, v, t)) > 0 else -1
        found[Q] = (sign, v)
        todo = list(range(D - 1))
        del todo[i]  # the edge back
        if todo:
            stack.append((Q, qrows, _ray(v, sign), todo))
        else:  # D = 2: the far ray of the one edge
            _check_off_planes(np.dot(_ray(v, sign), snT), Q)
    if 2 * walked != (D - 1) * len(found):  # a simple polytope has (D-1) f_0 / 2 edges
        raise NonGeneric("cell boundary walk did not close")
    return found


def _uniform_cell_local(
    normals: np.ndarray, rng: np.random.Generator, max_trials: int = 1_000_000
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    """Signs, rays and ray incidences of a uniform cell of n >= D generic
    hyperplanes through 0 in R^D, at O(n) cost per walked vertex.

    Proposals are uniform over (ray line, orientation, signs on the line's
    D-1 planes), which hits each cell once per extreme ray; accepting with
    probability 1/f_0 makes the cell exactly uniform.  The draws, in order:
    the line, an index into C(n, D-1) in itertools.combinations order, then
    rng.random(D+1): the orientation, the signs of the line's planes and the
    accept draw u, taken before the walk so that it can stop once
    u * f_0 >= 1.  Rays and incidences come in the order of cell_rays, and
    rays are normalized as ray_sign_data normalizes them.
    """
    n, D = normals.shape
    L = math.comb(n, D - 1)
    for _ in range(max_trials):
        l = int(rng.integers(L))
        *flips, u = rng.random(D + 1).tolist()
        if u * D >= 1.0:  # a pointed cell in R^D has f_0 >= D
            continue
        orient, *eps = (1 if x < 0.5 else -1 for x in flips)
        P = _unrank_combination(l, n, D - 1)
        rows = [normals[p].tolist() for p in P]
        s = np.where(normals @ _cross(rows) > 0, orient, -orient)
        for p, e in zip(P, eps):
            s[p] = e
        found = _walk_cell(normals, s, P, rows, orient, u)
        if found is None:
            continue
        pos = sorted(Q for Q in found if found[Q][0] > 0)
        neg = sorted(Q for Q in found if found[Q][0] < 0)
        V = np.array([found[Q][1] for Q in pos + neg])
        V /= np.sqrt((V * V).sum(axis=1))[:, None]  # np.linalg.norm's arithmetic
        V[len(pos):] *= -1.0
        return s, V, tuple(pos + neg)
    raise IterationCap("uniform cell sampling did not accept")


def sample_schlaefli_cone(n: int, d: int, rng: np.random.Generator) -> ConeSample:
    """Uniformly chosen cell of the tessellation by n uniform hyperplanes.

    With n >= d+1 the cells are pointed and one cell is walked from a
    uniform proposal (_uniform_cell_local), at any n; with fewer planes
    every cell contains a line, and the arrangement is enumerated.
    """
    D = d + 1
    last: Exception | None = None
    for _ in range(MAX_GENERICITY_RETRIES):
        normals = sample_uniform_sphere_batch(d, n, rng)
        try:
            if n < D:
                arr = enumerate_cones(normals)
                cone = arr.cells[int(rng.integers(arr.n_cells))]
                return ConeSample(kind="schlaefli", generators=normals, cone=cone, rays=cone._rays)
            signs, rays, incidence = _uniform_cell_local(normals, rng)
            cone = PolyhedralCone(normals, signs)
            _cache_rays(cone, rays, incidence)
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
