import itertools
import math

import numpy as np
import pytest

from conehull.errors import (
    DegenerateInput,
    NonGeneric,
    NotPointed,
    OriginNotInterior,
    TiedFirstCoordinate,
)
from conehull.arrangement import enumerate_cones
from conehull.geometry import (
    EPS_RANK,
    EPS_SIGN,
    PolyhedralCone,
    Polytope,
    ccw_order,
    contains,
    convex_hull,
    extreme_rays,
    face_counts_spherical,
    interior_point,
    is_pointed,
    point_in_convex_polygon,
    polar_cone,
    polar_polytope,
    polytope_volume,
    ray_cycle,
    ray_incidence,
    solid_angle,
    solid_angle_mc,
    spherical_polygon_area,
    spherical_triangle_areas,
    unit,
)
from conehull.rng import RngStream
from conehull.samplers import sample_cauchy_points, sample_s_minus_e, sample_schlaefli_cone


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def gift_wrap_2d(points):
    """Independent O(n^2) Jarvis-march hull, for cross-checking."""
    pts = [tuple(p) for p in np.unique(np.asarray(points, float), axis=0)]
    start = min(pts)
    hull = [start]
    while True:
        cur = hull[-1]
        cand = None
        for q in pts:
            if q == cur:
                continue
            if cand is None:
                cand = q
                continue
            cross = (cand[0] - cur[0]) * (q[1] - cur[1]) - (cand[1] - cur[1]) * (q[0] - cur[0])
            if cross < 0 or (cross == 0 and
                             (q[0] - cur[0]) ** 2 + (q[1] - cur[1]) ** 2 >
                             (cand[0] - cur[0]) ** 2 + (cand[1] - cur[1]) ** 2):
                cand = q
        if cand == start:
            break
        hull.append(cand)
    return np.array(sorted(hull))


def vertex_sets_equal(a, b, tol=1e-9):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= tol))


# --- convex_hull -----------------------------------------------------------


def test_hull_square_with_interior_point():
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    pts = np.vstack([corners, [[0, 0]]]) @ rotation2(0.3).T
    hull = convex_hull(pts, 2)
    assert hull.n_vertices == 4
    assert vertex_sets_equal(hull.vertices, np.array(sorted(map(tuple, corners @ rotation2(0.3).T))))


def _edge_points_square(scale):
    # a tilted square with points exactly on its edges (dyadic fractions, so
    # the collinearity is exact) and one interior point
    corners = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 3.0], [-1.0, 2.0]])
    t = np.array([0.25, 0.5, 0.75])[:, None]
    edges = [a + t * (b - a) for a, b in zip(corners, np.roll(corners, -1, axis=0))]
    return scale * np.vstack([corners, *edges, [[0.5, 1.5]]])


def _cross_tol(pts):
    # _cross2 multiplies two coordinate differences, so its rounding error
    # grows with the square of the coordinate scale
    return 1e-9 * max(1.0, float(np.abs(pts).max())) ** 2


def _hull_inputs():
    """(points, containment tolerance) pairs for the hull oracle test."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        yield rng.standard_cauchy((10, 2)), 1e-9
    for r in range(4):
        pts = sample_cauchy_points(2, 10_000, RngStream(5, r).generator())
        yield pts, _cross_tol(pts)
    for scale in (1.0, 1e5):
        pts = _edge_points_square(scale)
        yield pts, _cross_tol(pts)


def test_hull_matches_gift_wrapping_on_cauchy_points():
    for pts, tol in _hull_inputs():
        hull = convex_hull(pts, 2)
        oracle = gift_wrap_2d(pts)
        assert vertex_sets_equal(hull.vertices, oracle)
        verts = ccw_order(hull.vertices)
        for p in pts[:200]:
            assert point_in_convex_polygon(p, verts, tol=tol)


def test_hull_collinear_points_degenerate():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(DegenerateInput):
        convex_hull(pts, 2)


def test_hull_exact_first_coordinate_tie_rejected():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5], [-1.0, 0.5]])
    with pytest.raises(TiedFirstCoordinate):
        convex_hull(pts, 2)


def test_hull_idempotent_on_vertices():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((30, 2))
    hull = convex_hull(pts, 2)
    again = convex_hull(hull.vertices, 2)
    assert vertex_sets_equal(hull.vertices, again.vertices)


def _is_extreme(pts, i):
    # pts[i] is a vertex iff it is not a convex combination of the others
    from scipy.optimize import linprog

    others = np.delete(pts, i, axis=0)
    k = len(others)
    res = linprog(np.zeros(k), A_eq=np.vstack([others.T, np.ones(k)]),
                  b_eq=np.append(pts[i], 1.0), bounds=(0, None), method="highs")
    return res.status == 2  # infeasible


def test_hull_dim1_and_dim3():
    h1 = convex_hull(np.array([[0.3], [1.5], [-2.0], [0.0]]), 1)
    assert vertex_sets_equal(h1.vertices, [[-2.0], [1.5]])
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((40, 3))
    h3 = convex_hull(pts, 3)
    # the hull vertices are exactly the input points that are extreme
    extreme = [p for i, p in enumerate(pts) if _is_extreme(pts, i)]
    assert h3.n_vertices >= 4
    assert vertex_sets_equal(h3.vertices, Polytope(3, np.array(extreme)).vertices, tol=0.0)


# --- polar duality ---------------------------------------------------------


def test_polar_square_is_diamond():
    square = Polytope(2, np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float))
    diamond = polar_polytope(square)
    expect = np.array(sorted([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]))
    assert vertex_sets_equal(diamond.vertices, expect)


def test_polar_round_trip_random_polygons():
    rng = np.random.default_rng(23)
    done = 0
    while done < 50:
        pts = rng.standard_normal((12, 2)) + 0.1 * rng.standard_normal(2)
        hull = convex_hull(pts, 2)
        verts = ccw_order(hull.vertices)
        if not point_in_convex_polygon([0.0, 0.0], verts, tol=1e-6):
            continue
        back = polar_polytope(polar_polytope(hull))
        assert vertex_sets_equal(back.vertices, hull.vertices, tol=1e-9)
        done += 1


def test_polar_requires_interior_origin():
    tri = Polytope(2, np.array([[1.0, 1.0], [2.0, 1.2], [1.5, 2.0]]))
    with pytest.raises(OriginNotInterior):
        polar_polytope(tri)


def test_polar_cube_cross_polytope_3d():
    cube = Polytope(3, np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float))
    cross = polar_polytope(cube)
    assert cross.n_vertices == 6
    assert np.allclose(np.sort(np.abs(cross.vertices).sum(axis=1)), 1.0)
    back = polar_polytope(cross)
    assert back.n_vertices == 8


# --- cones: rays, membership, faces ---------------------------------------


def orthant3():
    return PolyhedralCone(np.eye(3), np.ones(3, dtype=int))


def test_orthant_rays_and_membership():
    cone = orthant3()
    rays = extreme_rays(cone)
    assert vertex_sets_equal(np.sort(rays, axis=0), np.sort(np.eye(3), axis=0))
    assert contains(cone, [1.0, 1.0, 1.0])
    assert not contains(cone, [-1.0, 1.0, 1.0])
    for r in rays:
        assert contains(cone, r)


def test_random_cone_rays_satisfy_system():
    rng = np.random.default_rng(5)
    for _ in range(20):
        normals = rng.standard_normal((4, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        x = rng.standard_normal(3)
        signs = np.where(normals @ x >= 0, 1, -1)
        cone = PolyhedralCone(normals, signs)
        rays = extreme_rays(cone)
        W = cone.effective_normals
        for r in rays:
            assert np.min(W @ r) >= -1e-12
            on = np.sum(np.abs(cone.normals @ r) <= 1e-9)
            assert on == 2


def test_sign_flip_invariance():
    rng = np.random.default_rng(9)
    normals = rng.standard_normal((4, 3))
    x = rng.standard_normal(3)
    signs = np.where(normals @ x >= 0, 1, -1)
    cone = PolyhedralCone(normals, signs)
    # negate the third (normal, sign) pair: the same cone
    nm, sg = normals.copy(), signs.copy()
    nm[2], sg[2] = -nm[2], -sg[2]
    flipped = PolyhedralCone(nm, sg)
    assert vertex_sets_equal(np.sort(extreme_rays(cone), axis=0),
                             np.sort(extreme_rays(flipped), axis=0), tol=1e-12)
    assert solid_angle(cone) == pytest.approx(solid_angle(flipped), abs=1e-14)
    assert np.array_equal(face_counts_spherical(cone), face_counts_spherical(flipped))


def test_orthant_face_counts():
    f = face_counts_spherical(orthant3())
    assert tuple(f) == (3, 3, 1)


def test_half_space_not_pointed():
    half = PolyhedralCone(np.array([[0.0, 0.0, 1.0]]), np.array([1]))
    with pytest.raises(NotPointed):
        face_counts_spherical(half)
    with pytest.raises(NotPointed):
        extreme_rays(half)
    assert not is_pointed(half)


def test_nongeneric_ray_detection():
    # four planes sharing the ray e3: candidate rays lie on 3 > 2 hyperplanes
    normals = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 1.0, 0.0],
        [1.0, -2.0, 0.0],
    ])
    cone = PolyhedralCone(normals, np.array([1, 1, 1, 1]))
    with pytest.raises((NonGeneric, NotPointed)):
        extreme_rays(cone)


def test_euler_relation_4d_cones():
    rng = np.random.default_rng(13)
    for _ in range(10):
        normals = rng.standard_normal((6, 4))
        x = rng.standard_normal(4)
        signs = np.where(normals @ x >= 0, 1, -1)
        cone = PolyhedralCone(normals, signs)
        if not is_pointed(cone):
            continue
        f = face_counts_spherical(cone)
        assert f[0] - f[1] + f[2] == 2
        assert f[3] == 1


def test_ray_cycle_walks_the_facets_of_each_cell():
    # consecutive rays span a facet plane (their cross product is parallel
    # to one of the normals); every ray appears once; the walk starts at ray 0
    from conehull.arrangement import enumerate_cones

    rng = np.random.default_rng(41)
    normals = rng.standard_normal((7, 3))
    for cell in enumerate_cones(normals).cells:
        rays = extreme_rays(cell)
        cycle = ray_cycle(cell)
        m = len(rays)
        assert np.array_equal(cycle[0], rays[0])
        assert sorted(map(tuple, cycle)) == sorted(map(tuple, rays))
        for i in range(m):
            c = unit(np.cross(cycle[i], cycle[(i + 1) % m]))
            assert np.max(np.abs(cell.normals @ c)) == pytest.approx(1.0, abs=1e-9)


def test_ray_cycle_uses_the_incidence_extreme_rays_decided():
    # cut a 1e-10 corner off a cell at ray r: the two new rays lie about
    # 1e-10 from a plane they are not on, which extreme_rays tells apart at
    # EPS_SIGN, so the cycle and the solid angle must accept the cone too
    from conehull.arrangement import enumerate_cones

    cell = enumerate_cones(np.random.default_rng(41).standard_normal((5, 3))).cells[0]
    r, r2 = extreme_rays(cell)[:2]
    near = unit(-unit(r2 - np.dot(r2, r) * r) + 1e-10 * r)
    cone = PolyhedralCone(np.vstack([cell.normals, near]), np.append(cell.signs, -1))
    assert len(extreme_rays(cell)) == 4 and len(ray_cycle(cone)) == 5
    # the corner cut off has area of order 1e-20
    assert solid_angle(cone) == pytest.approx(solid_angle(cell), rel=1e-9)


# --- solid angles ----------------------------------------------------------


def test_half_space_solid_angle():
    half = PolyhedralCone(np.array([[0.0, 0.0, 1.0]]), np.array([1]))
    assert solid_angle(half) == pytest.approx(0.5, abs=1e-15)


def test_orthant_solid_angle():
    assert solid_angle(orthant3()) == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_wedge_solid_angle_matches_dihedral():
    # two planes in R^3 at a known dihedral angle
    theta = 0.7
    normals = np.array([[1.0, 0.0, 0.0], [math.cos(theta), math.sin(theta), 0.0]])
    # the boundary lines sit at angles pi/2 and pi/2 + theta, so the wedge
    # containing their bisector has dihedral angle theta
    mid = np.array([math.cos((math.pi + theta) / 2), math.sin((math.pi + theta) / 2), 0.0])
    signs = np.where(normals @ mid >= 0, 1, -1)
    cone = PolyhedralCone(normals, signs)
    assert solid_angle(cone) == pytest.approx(theta / (2 * math.pi), abs=1e-12)


def test_mc_solid_angle_within_4se_of_exact():
    rng = np.random.default_rng(31)
    normals = rng.standard_normal((5, 3))
    x = rng.standard_normal(3)
    signs = np.where(normals @ x >= 0, 1, -1)
    cone = PolyhedralCone(normals, signs)
    exact = solid_angle(cone)
    est, se = solid_angle_mc(cone, 200_000, rng)
    assert abs(est - exact) <= 4 * se


def test_solid_angle_computes_rank_once_and_not_for_cached_rays(monkeypatch):
    # cached rays prove a cone pointed; for an uncached cone one rank
    # decides pointedness for both the angle and the ray enumeration
    builders = [
        orthant3,
        lambda: _pyramid(0.3, 0.2)[0],
        lambda: PolyhedralCone(np.eye(2), np.ones(2, dtype=int)),
    ]
    expect = [solid_angle(build()) for build in builders]
    calls = []
    rank = np.linalg.matrix_rank

    def counting_rank(*args, **kwargs):
        calls.append(1)
        return rank(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counting_rank)
    for build, value in zip(builders, expect):
        fresh = build()
        calls.clear()
        assert solid_angle(fresh) == value
        assert len(calls) == 1
        calls.clear()
        assert solid_angle(fresh) == value  # its rays are cached now
        assert calls == []
    s = sample_schlaefli_cone(8, 2, RngStream(4, 0).generator())
    calls.clear()
    solid_angle(s.cone)
    assert calls == []


def test_cell_angles_of_arrangement_sum_to_one():
    rng = np.random.default_rng(37)
    normals = rng.standard_normal((4, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    total = 0.0
    count = 0
    for signs in np.ndindex(*(2,) * 4):
        s = np.array([1 if b else -1 for b in signs])
        cone = PolyhedralCone(normals, s)
        try:
            interior_point(cone)
        except DegenerateInput:
            continue
        total += solid_angle(cone)
        count += 1
    assert count == 14  # C(4,3) cells
    assert total == pytest.approx(1.0, abs=1e-9)


def _pyramid(a, b, rotation=None):
    """The right rectangular pyramid {|x1| <= a x3, |x2| <= b x3}, whose
    solid angle is 4 asin(ab / sqrt((1 + a^2)(1 + b^2))) exactly."""
    normals = np.array([[-1.0, 0.0, a], [1.0, 0.0, a], [0.0, -1.0, b], [0.0, 1.0, b]])
    if rotation is not None:
        normals = normals @ rotation.T
    exact = 4.0 * math.asin(a * b / math.sqrt((1.0 + a * a) * (1.0 + b * b)))
    return PolyhedralCone(normals, np.ones(4, dtype=int)), exact / (4.0 * math.pi)


@pytest.mark.parametrize(
    "a,b", [(1.0, 1.0), (1e-2, 1e-2), (1e-4, 1e-4), (1e-6, 1e-6), (1e-7, 1e-7), (0.3, 1e-5), (2.0, 1e-7)]
)
def test_pyramid_solid_angle_is_exact_in_tiny_cells(a, b):
    # the Gauss-Bonnet angle sum cancels catastrophically here (relative
    # error 4e-9 at a = b = 1e-4, 9e-5 at 1e-6, 8e-4 at 1e-7)
    cone, exact = _pyramid(a, b)
    assert solid_angle(cone) == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("a", [1e-2, 1e-4, 1e-6])
def test_rotated_pyramid_solid_angle_keeps_the_rays_precision(a):
    # rotated, the rays carry absolute rounding errors of ~1e-16, which
    # bound the relative precision of an area of order a^2 by ~1e-16 / a;
    # the angle sum loses another factor 1 / a^2 (relative error > 1 at 1e-6)
    rng = np.random.default_rng(43)
    for _ in range(20):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        cone, exact = _pyramid(a, a, q * np.sign(np.diag(r)))
        assert solid_angle(cone) == pytest.approx(exact, rel=1e-14 / a, abs=0)


def test_fan_areas_sum_to_the_polygon_area():
    rng = np.random.default_rng(44)
    for n in (3, 4, 8, 32, 256):
        for k in range(10):
            cone = sample_schlaefli_cone(n, 2, RngStream(4400 + n, k).generator()).cone
            cycle = ray_cycle(cone)
            areas = spherical_triangle_areas(cycle)
            assert areas.shape == (len(cycle) - 2,) and np.all(areas > 0)
            assert spherical_polygon_area(cycle) == float(areas.sum())
            # a fan from another vertex covers the same polygon
            shifted = np.roll(cycle, int(rng.integers(1, len(cycle))), axis=0)
            assert spherical_polygon_area(shifted) == pytest.approx(float(areas.sum()), rel=1e-12)


def test_fan_areas_reject_coincident_neighbor_rays():
    rays = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0]])
    with pytest.raises(NonGeneric, match="coincident"):
        spherical_triangle_areas(rays / np.linalg.norm(rays, axis=1)[:, None])


# --- the vectorized ray code against the loops it replaced -----------------
# _reference_extreme_rays_3d pairs planes through itertools.combinations and
# masks each line's own planes with an (L, n) boolean matrix;
# _reference_ray_cycle builds the (m, n) boolean ray-plane matrix.  The
# package code must give bit-identical rays and cycles and equal incidences.


def _reference_extreme_rays_3d(cone):
    n = cone.n_hyperplanes
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=int)
    V = np.cross(cone.normals[pairs[:, 0]], cone.normals[pairs[:, 1]])
    norms = np.linalg.norm(V, axis=1)
    if np.any(norms <= EPS_RANK):
        raise NonGeneric("dependent hyperplane subset")
    V /= norms[:, None]
    dots = V @ cone.effective_normals.T
    L = len(pairs)
    inc = np.zeros((L, n), dtype=bool)
    inc[np.repeat(np.arange(L), 2), pairs.ravel()] = True
    if np.any((np.abs(dots) <= EPS_SIGN) & ~inc):
        raise NonGeneric("candidate ray lies on more hyperplanes than dimension allows")
    off_masked = np.where(inc, np.nan, dots)
    pos = np.nanmin(off_masked, axis=1) > 0
    neg = np.nanmax(off_masked, axis=1) < 0
    rays = np.concatenate([V[pos], -V[neg]], axis=0)
    incid = [tuple(pairs[i]) for i in np.nonzero(pos)[0]]
    incid += [tuple(pairs[i]) for i in np.nonzero(neg)[0]]
    return rays, tuple(incid)


def _reference_ray_cycle(rays, incidence, n):
    m = rays.shape[0]
    inc = np.zeros((m, n), dtype=bool)
    for i, T in enumerate(incidence):
        inc[i, list(T)] = True
    per_plane = inc.sum(axis=0)
    if np.any(per_plane > 2):
        raise NonGeneric("hyperplane incident to more than two rays")
    adj = [[] for _ in range(m)]
    for j in np.nonzero(per_plane == 2)[0]:
        a, b = np.nonzero(inc[:, j])[0]
        adj[a].append(int(b))
        adj[b].append(int(a))
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


def _identity_cells():
    """Walk cells for n = 3..64, pole cells and every cell of a few
    enumerated arrangements: 670 cells."""
    for n in range(3, 65):
        for k in range(6):
            yield sample_schlaefli_cone(n, 2, RngStream(4500 + n, k).generator()).cone
    for n in (3, 4, 8, 16, 32, 64):
        for k in range(20):
            yield sample_s_minus_e(n, 2, RngStream(4600 + n, k).generator()).cone
    for n in (3, 4, 5, 6, 7, 8):
        yield from enumerate_cones(np.random.default_rng([4700, n]).standard_normal((n, 3))).cells


def _assert_same(xs, ys):
    assert xs.shape == ys.shape and xs.tobytes() == ys.tobytes()


def test_ray_code_matches_the_loops_it_replaced():
    count = 0
    for cone in _identity_cells():
        n = cone.n_hyperplanes
        if cone._rays is not None:  # walk and enumeration caches
            _assert_same(ray_cycle(cone), _reference_ray_cycle(cone._rays, cone._ray_incidence, n))
        fresh = PolyhedralCone(cone.normals, cone.signs)
        rays_ref, incid_ref = _reference_extreme_rays_3d(fresh)
        _assert_same(extreme_rays(fresh), rays_ref)
        assert ray_incidence(fresh) == incid_ref
        assert all(type(i) is int for T in ray_incidence(fresh) for i in T)
        _assert_same(ray_cycle(fresh), _reference_ray_cycle(rays_ref, incid_ref, n))
        count += 1
    assert count == 670


def _raises_the_same(fn, ref):
    with pytest.raises(NonGeneric) as got:
        fn()
    with pytest.raises(NonGeneric) as want:
        ref()
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "normals",
    [
        # three planes through the x3 axis, and a fourth
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.3, -0.2, 1.0]],
        # the ray of planes 0 and 1, (0, 0, 1), lies on plane 2
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, -2.0, 0.0], [0.2, 0.3, 1.0], [-0.4, 0.1, 1.0]],
        # ... and within EPS_SIGN / 2 of plane 2
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 5e-13], [0.2, 0.3, 1.0]],
        # two equal planes
        [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ],
)
def test_ray_enumeration_raises_where_the_loop_raised(normals):
    signs = np.ones(len(normals), dtype=int)
    _raises_the_same(
        lambda: extreme_rays(PolyhedralCone(normals, signs)),
        lambda: _reference_extreme_rays_3d(PolyhedralCone(normals, signs)),
    )


@pytest.mark.parametrize(
    "incidence",
    [
        ((0, 1), (1, 2), (1, 3), (0, 3)),  # plane 1 holds three rays
        ((0, 1), (1, 2), (2, 0), (3, 4)),  # a ray with no neighbour
        ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)),  # two cycles
    ],
)
def test_ray_cycle_raises_where_the_matrix_raised(incidence):
    rng = np.random.default_rng(45)
    cone = PolyhedralCone(rng.standard_normal((6, 3)), np.ones(6, dtype=int))
    rays = rng.standard_normal((len(incidence), 3))
    cone._rays, cone._ray_incidence = rays, incidence
    _raises_the_same(lambda: ray_cycle(cone), lambda: _reference_ray_cycle(rays, incidence, 6))


# --- polytope plumbing -----------------------------------------------------


def test_polytope_sorts_vertices_and_serializes():
    p = Polytope(2, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    assert p.vertices[0, 0] == -1.0
    obj = p.to_json()
    q = Polytope.from_json(obj)
    assert vertex_sets_equal(p.vertices, q.vertices)
    assert p.first_coords_strict


def test_polytope_volume_shoelace_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        pts = rng.standard_normal((15, 2))
        hull = convex_hull(pts, 2)
        v = ccw_order(hull.vertices)
        shoelace = 0.5 * abs(sum(v[i][0] * v[(i + 1) % len(v)][1] - v[(i + 1) % len(v)][0] * v[i][1]
                                 for i in range(len(v))))
        assert polytope_volume(hull) == pytest.approx(shoelace, rel=1e-12)


def test_polar_cone_of_orthant():
    cone = orthant3()
    pol = polar_cone(cone)
    # polar of the positive orthant is the negative orthant
    assert contains(pol, [-1.0, -1.0, -1.0])
    assert not contains(pol, [1.0, 0.5, 0.2])
    back = polar_cone(pol)
    assert contains(back, [1.0, 1.0, 1.0])


def test_hull_keeps_quadrilateral_corner_at_large_coordinates():
    # coordinates of order 1e5: an absolute tolerance once dropped the true
    # hull vertex (120166.7, -434983.9), a corner of the quadrilateral of
    # axis extremes
    pts = sample_cauchy_points(2, 10_000, RngStream(1, 296).generator())
    oracle = gift_wrap_2d(pts)
    assert len(oracle) == 5
    hull = convex_hull(pts, 2)
    assert vertex_sets_equal(hull.vertices, oracle, tol=0.0)
