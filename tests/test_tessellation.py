import math

import numpy as np
import pytest
from scipy import stats

from conehull.densities import expected_typical_cell_volume, omega
from conehull.errors import DegenerateInput
from conehull.geometry import (
    EPS_SIGN,
    Polytope,
    ccw_order,
    point_in_convex_polygon,
    polygon_area,
    polygon_edge_normals,
    polytope_volume,
)
from conehull.rng import RngStream
from conehull.tessellation import (
    AffineHyperplane,
    cell_features,
    chebyshev_inradius,
    intensity_gamma,
    intersect_halfplanes,
    sample_pht,
    sample_typical_cell,
    sample_zero_cell,
    uniform_point_in_polygon,
    window_cells,
    _sample_pht_shell,
    _split_polygon,
    _window_polygons,
    _zero_cell_polytope,
)


def rng_for(k):
    return RngStream(555444333, k).generator()


def test_intensity_gamma_values():
    assert intensity_gamma(2) == pytest.approx(0.5, abs=1e-15)
    assert intensity_gamma(1) == pytest.approx(1 / math.pi, abs=1e-15)
    for d in range(1, 6):
        assert intensity_gamma(d) == pytest.approx(
            (omega(d) / 2) * (2 / omega(d + 1)), rel=1e-14
        )


def test_pht_mean_count():
    rng = rng_for(1)
    counts = [len(sample_pht(2, 0.5, 10.0, rng).hyperplanes) for _ in range(2000)]
    m = float(np.mean(counts))
    se = float(np.std(counts)) / math.sqrt(len(counts))
    assert abs(m - 10.0) <= 4 * se


def test_pht_direction_uniformity_kuiper():
    rng = rng_for(2)
    sample = sample_pht(2, 0.5, 2000.0, rng)
    angles = np.array(
        [math.atan2(h.direction[1], h.direction[0]) for h in sample.hyperplanes]
    )
    u = (angles + math.pi) / (2 * math.pi)
    # Kuiper-like check via KS against uniform (rotation-invariant enough here)
    p = stats.kstest(u, "uniform").pvalue
    assert p > 1e-3


def test_line_process_hits_of_segment_linear_in_length():
    # expected number of lines hitting a segment of length L through the
    # origin is linear in L (translative integral geometry, MC check)
    rng = rng_for(3)
    gamma, R = 0.5, 40.0
    hits = {1.0: [], 2.0: []}
    for _ in range(300):
        sample = sample_pht(2, gamma, R, rng)
        for L in hits:
            a = np.array([-L / 2, 0.0])
            b = np.array([L / 2, 0.0])
            k = 0
            for h in sample.hyperplanes:
                va = a @ h.direction - h.distance
                vb = b @ h.direction - h.distance
                if va * vb <= 0:
                    k += 1
            hits[L].append(k)
    m1 = np.mean(hits[1.0])
    m2 = np.mean(hits[2.0])
    se = math.sqrt(np.var(hits[2.0]) / len(hits[2.0]) + 4 * np.var(hits[1.0]) / len(hits[1.0]))
    assert abs(m2 - 2 * m1) <= 4 * se


def test_intersect_halfplanes_square():
    # the box [-1, 1]^2 cut by x <= 0
    half = intersect_halfplanes(np.array([[1.0, 0.0]]), np.array([0.0]), 1.0)
    assert abs(polygon_area(ccw_order(half))) == pytest.approx(2.0, abs=1e-12)
    assert np.max(half[:, 0]) <= 1e-12


def test_zero_cell_contains_origin_interior():
    rng = rng_for(4)
    for _ in range(40):
        z = sample_zero_cell(2, 0.5, rng)
        verts = ccw_order(z.polytope.vertices)
        assert point_in_convex_polygon([0.0, 0.0], verts, tol=-1e-12) or point_in_convex_polygon([0.0, 0.0], verts)


def test_zero_cell_unchanged_by_farther_hyperplanes():
    rng = rng_for(5)
    for _ in range(20):
        z = sample_zero_cell(2, 0.5, rng)
        extra_dirs = rng.standard_normal((30, 2))
        extra_dirs /= np.linalg.norm(extra_dirs, axis=1)[:, None]
        extra = [
            AffineHyperplane(extra_dirs[i], z.radius + 1e-9 + 10.0 * rng.random())
            for i in range(30)
        ]
        verts2 = _zero_cell_polytope(2, z.hyperplanes + extra, bound=z.radius + 20.0)
        p2 = Polytope(2, verts2)
        assert p2.n_vertices == z.polytope.n_vertices
        assert np.allclose(p2.vertices, z.polytope.vertices, atol=1e-9)


def test_zero_cell_3d_smoke():
    rng = rng_for(6)
    z = sample_zero_cell(3, intensity_gamma(3), rng)
    assert z.polytope.dim == 3
    assert z.polytope.n_vertices >= 4
    feats = cell_features(z.polytope)
    assert feats.volume > 0
    assert feats.inradius > 0
    # Euler relation on the merged face counts
    f0, f1, f2 = feats.f_vector
    assert f0 - f1 + f2 == 2


def test_importance_estimator_mean_volume():
    # self-normalized estimate of E vol(Z) = c_2 = 4 pi at gamma = 1/2
    rng = rng_for(7)
    inv_vols = []
    for _ in range(1500):
        w = sample_typical_cell(2, 0.5, rng, method="importance")
        inv_vols.append(w.weight)
    m = float(np.mean(inv_vols))
    se = float(np.std(inv_vols)) / math.sqrt(len(inv_vols))
    est = 1.0 / m
    est_se = se / m**2
    assert abs(est - 4 * math.pi) <= 4 * est_se


def test_window_and_importance_agree():
    rng = rng_for(8)
    areas_w = []
    f0_w = []
    for _ in range(250):
        w = sample_typical_cell(2, 0.5, rng, method="window", window_radius=40.0)
        areas_w.append(polytope_volume(w.polytope))
        f0_w.append(w.polytope.n_vertices)
    zs = [sample_typical_cell(2, 0.5, rng, method="importance") for _ in range(1500)]
    wts = np.array([z.weight for z in zs])
    areas_z = np.array([polytope_volume(z.polytope) for z in zs])
    f0_z = np.array([z.polytope.n_vertices for z in zs])
    mean_area_imp = float((wts * areas_z).sum() / wts.sum())
    mean_f0_imp = float((wts * f0_z).sum() / wts.sum())
    se_area = float(np.std(areas_w)) / math.sqrt(len(areas_w))
    se_f0 = float(np.std(f0_w)) / math.sqrt(len(f0_w))
    assert abs(np.mean(areas_w) - mean_area_imp) <= 5 * se_area + 0.5
    assert abs(np.mean(f0_w) - mean_f0_imp) <= 5 * se_f0 + 0.1


def test_scaling_covariance():
    # doubling gamma scales mean volume by 2^-d
    rng = rng_for(9)
    inv1 = np.array([sample_typical_cell(2, 0.5, rng).weight for _ in range(1200)])
    inv2 = np.array([sample_typical_cell(2, 1.0, rng).weight for _ in range(1200)])
    est1 = 1.0 / inv1.mean()
    est2 = 1.0 / inv2.mean()
    se1 = inv1.std() / math.sqrt(len(inv1)) / inv1.mean() ** 2
    se2 = inv2.std() / math.sqrt(len(inv2)) / inv2.mean() ** 2
    assert abs(est2 - est1 / 4.0) <= 4 * (se2 + se1 / 4.0)


def test_window_bias_shrinks_with_radius():
    rng = rng_for(10)
    means = {}
    for R in (20.0, 40.0):
        f0 = [
            sample_typical_cell(2, 0.5, rng, method="window", window_radius=R).polytope.n_vertices
            for _ in range(200)
        ]
        means[R] = (float(np.mean(f0)), float(np.std(f0)) / math.sqrt(len(f0)))
    ci_width = 4 * means[20.0][1]
    assert abs(means[40.0][0] - means[20.0][0]) <= ci_width + 0.2


def test_cell_features_unit_square():
    square = Polytope(2, np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float))
    feats = cell_features(square)
    assert feats.volume == pytest.approx(1.0, abs=1e-12)
    assert feats.f_vector == (4, 4)
    assert feats.inradius == pytest.approx(0.5, abs=1e-9)
    assert feats.diameter == pytest.approx(math.sqrt(2), abs=1e-12)


def test_cell_features_triangle():
    tri = Polytope(2, np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
    assert cell_features(tri).volume == pytest.approx(0.5, abs=1e-12)


def test_cell_features_volume_shoelace_oracle():
    rng = rng_for(11)
    for _ in range(10):
        z = sample_zero_cell(2, 0.5, rng)
        v = ccw_order(z.polytope.vertices)
        shoelace = 0.5 * abs(
            sum(
                v[i][0] * v[(i + 1) % len(v)][1] - v[(i + 1) % len(v)][0] * v[i][1]
                for i in range(len(v))
            )
        )
        assert cell_features(z.polytope).volume == pytest.approx(shoelace, rel=1e-12)


def test_uniform_point_in_polygon_inside():
    rng = rng_for(12)
    z = sample_zero_cell(2, 0.5, rng)
    verts = ccw_order(z.polytope.vertices)
    for _ in range(200):
        x = uniform_point_in_polygon(verts, rng)
        assert point_in_convex_polygon(x, verts, tol=1e-9)


def test_window_cells_cover_and_complete_flags():
    rng = rng_for(13)
    cells = window_cells(2, 0.5, 20.0, rng)
    assert len(cells) > 1
    total = sum(polytope_volume(c.polytope) for c in cells)
    assert total == pytest.approx((2 * 20.0) ** 2, rel=1e-9)
    for c in cells:
        inside = np.max(np.linalg.norm(c.polytope.vertices, axis=1)) < 20.0
        assert c.complete == inside


# --- window cells against the all-polygon loop ------------------------------
#
# The oracles below are the straightforward algorithms written out in full:
# a Sutherland-Hodgman clip that keeps one side of a line, and a window loop
# that tests every polygon against every line and clips a cut polygon twice.


def _reference_clip(verts, normal, offset, eps=1e-12):
    if len(verts) == 0:
        return verts
    vals = verts @ np.asarray(normal, dtype=float) - offset
    out = []
    m = len(verts)
    for i in range(m):
        a, va = verts[i], vals[i]
        b, vb = verts[(i + 1) % m], vals[(i + 1) % m]
        if va <= eps:
            out.append(a)
        if (va < -eps and vb > eps) or (va > eps and vb < -eps):
            t = va / (va - vb)
            out.append(a + t * (b - a))
    if len(out) < 3:
        return np.empty((0, 2))
    return np.array(out)


def _reference_window_polygons(normals, offsets, R):
    polys = [np.array([[-R, -R], [R, -R], [R, R], [-R, R]], dtype=float)]
    for u, t in zip(normals, offsets):
        nxt = []
        for poly in polys:
            vals = poly @ u - t
            if np.all(vals <= EPS_SIGN) or np.all(vals >= -EPS_SIGN):
                nxt.append(poly)
                continue
            for half in (_reference_clip(poly, u, t), _reference_clip(poly, -u, -t)):
                if len(half) >= 3:
                    nxt.append(half)
        polys = nxt
    return polys


def _reference_window_cells(gamma, R, rng):
    planes = sample_pht(2, gamma, R, rng).hyperplanes
    normals = np.array([h.direction for h in planes]).reshape(-1, 2)
    offsets = np.array([h.distance for h in planes])
    polys = _reference_window_polygons(normals, offsets, R)
    return [(Polytope(2, p), bool(np.max(np.linalg.norm(p, axis=1)) < R * (1.0 - 1e-12))) for p in polys]


def _reference_window_draw(gamma, R, rng):
    """The cells of the first window, and the window draw."""
    first = None
    for _ in range(50):
        cells = _reference_window_cells(gamma, R, rng)
        first = first or cells
        complete = [p for p, c in cells if c]
        if complete:
            verts = ccw_order(complete[int(rng.integers(len(complete)))].vertices)
            return first, Polytope(2, verts - uniform_point_in_polygon(verts, rng))
    raise AssertionError("no complete cell")


def _state(rng):
    return repr(rng.bit_generator.state)


def _same_arrays(xs, ys):
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys)
    )


@pytest.mark.parametrize("R, streams", [(20.0, 100), (25.0, 70), (45.0, 30)])
def test_window_matches_all_polygon_loop(R, streams):
    # same cells in the same order, bit-identical vertices, same flags; and
    # the same typical-cell draw with the generator left in the same state
    for r in range(streams):
        g_ref = RngStream(6100 + int(R), r).generator()
        ref, expect = _reference_window_draw(0.5, R, g_ref)
        cells = window_cells(2, 0.5, R, RngStream(6100 + int(R), r).generator())
        assert _same_arrays([c.polytope.vertices for c in cells], [p.vertices for p, _ in ref])
        assert [c.complete for c in cells] == [c for _, c in ref]

        g = RngStream(6100 + int(R), r).generator()
        w = sample_typical_cell(2, 0.5, g, method="window", window_radius=R)
        assert _same_arrays([w.polytope.vertices], [expect.vertices])
        assert _state(g) == _state(g_ref)


def _unit(x, y):
    v = np.array([x, y], dtype=float)
    return v / np.linalg.norm(v)


def _borderline_line_sets():
    R = 10.0
    s = 1.0 / math.sqrt(2.0)
    grid = [(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 1.0]), 2.0)]
    u = _unit(1.0, 1.0)
    through = float((np.array([[1.0, 2.0]]) @ u)[0])
    sets = {
        "box-corner": [(np.array([s, s]), float((np.array([[R, R]]) @ np.array([s, s]))[0]))],
        "two-box-corners": [(np.array([s, -s]), 0.0)],
        "existing-vertex": grid + [(u, through)],
        "coincident": grid + [grid[0], (u, 0.5), (u, 0.5)],
        "coincident-opposite": grid + [(-grid[0][0], -grid[0][1])],
    }
    # a line through the grid vertex (1, 2), shifted by up to a few EPS_SIGN:
    # within EPS_SIGN the vertex counts as on the line, beyond it a sliver
    # is cut off, and both must reach the exact test
    for k in (-4, -2, -1.5, -1, -0.5, 0.5, 1, 1.5, 2, 4):
        sets[f"vertex{k:+}eps"] = grid + [(u, through + k * EPS_SIGN)]
        sets[f"corner{k:+}eps"] = [(np.array([s, s]), R * math.sqrt(2.0) + k * EPS_SIGN)]
    return {
        name: (np.array([l[0] for l in ls]), np.array([l[1] for l in ls]), R)
        for name, ls in sets.items()
    }


@pytest.mark.parametrize("name", sorted(_borderline_line_sets()))
def test_window_polygons_on_borderline_lines(name):
    normals, offsets, R = _borderline_line_sets()[name]
    got = _window_polygons(normals, offsets, R)
    assert _same_arrays(got, _reference_window_polygons(normals, offsets, R))
    assert sum(abs(polygon_area(ccw_order(p))) for p in got) == pytest.approx(4 * R * R, rel=1e-12)


def _random_convex_polygon(rng):
    m = int(rng.integers(3, 9))
    ang = np.sort(rng.uniform(0.0, 2 * math.pi, m))
    scale = 10.0 ** rng.uniform(-2, 2)
    return scale * np.column_stack([np.cos(ang), np.sin(ang)]) + rng.normal(0.0, scale, 2)


def test_split_polygon_equals_two_clips():
    # lines through a vertex exactly (value 0), within and just beyond
    # EPS_SIGN of it, and generic lines
    rng = rng_for(31)
    shifts = [0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 3.0, -3.0]
    for _ in range(400):
        poly = _random_convex_polygon(rng)
        u = _unit(*rng.normal(size=2))
        k = int(rng.integers(len(poly)))
        for t in [float((poly @ u)[k]) + c * EPS_SIGN for c in shifts] + [float(u @ rng.normal(size=2))]:
            vals = poly @ u - t
            lo, hi = _split_polygon(poly, vals.tolist())
            assert _same_arrays([lo, hi], [_reference_clip(poly, u, t), _reference_clip(poly, -u, -t)])


def _halfplane_sets():
    # the borderline lines on both sides, lines that miss the box, and
    # sets that empty it: apart, or leaving a two-vertex sliver
    sets = {}
    for name, (normals, offsets, R) in _borderline_line_sets().items():
        sets[name] = (normals, offsets, R)
        sets[name + "-flipped"] = (-normals, -offsets, R)
    R = 10.0
    e1 = np.array([1.0, 0.0])
    sets["none"] = (np.empty((0, 2)), np.empty(0), R)
    sets["miss"] = (np.array([e1, -e1, _unit(1.0, 1.0)]), np.array([R, R + 1.0, 20.0]), R)
    sets["apart"] = (np.array([e1, -e1, _unit(1.0, 2.0)]), np.array([-1.0, -1.0, 0.0]), R)
    sets["sliver"] = (np.array([e1, -e1]), np.array([0.0, -0.5 * EPS_SIGN]), R)
    return sets


@pytest.mark.parametrize("name", sorted(_halfplane_sets()))
def test_intersect_halfplanes_equals_clip_chain(name):
    normals, offsets, R = _halfplane_sets()[name]
    expect = np.array([[-R, -R], [R, -R], [R, R], [-R, R]], dtype=float)
    for u, t in zip(normals, offsets):
        expect = _reference_clip(expect, u, t)
        if len(expect) == 0:
            break
    assert _same_arrays([intersect_halfplanes(normals, offsets, R)], [expect])


def test_planar_area_and_normals_match_roll_forms():
    rng = rng_for(32)
    for _ in range(1000):
        v = ccw_order(_random_convex_polygon(rng))
        x, y = v[:, 0], v[:, 1]
        assert polygon_area(v) == 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        t = np.roll(v, -1, axis=0) - v
        normals = np.stack([t[:, 1], -t[:, 0]], axis=1)
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        got = polygon_edge_normals(v)
        assert _same_arrays(got, [normals, np.einsum("ij,ij->i", normals, v)])


def _reference_zero_cell_sample(gamma, R, rng):
    """The zero cell, its radius and its drawn lines, by the clip chain."""
    planes = _sample_pht_shell(2, gamma, 0.0, R, rng)
    for _ in range(20):
        poly = np.array([[-R, -R], [R, -R], [R, R], [-R, R]], dtype=float)
        for h in planes:
            poly = _reference_clip(poly, h.direction, h.distance)
            if len(poly) == 0:
                break
        if len(poly) >= 3 and float(np.max(np.linalg.norm(poly, axis=1))) < R * (1.0 - 1e-12):
            return Polytope(2, poly), R, planes
        planes = planes + _sample_pht_shell(2, gamma, R, 2.0 * R, rng)
        R *= 2.0
    raise AssertionError("zero cell did not close")


def _reference_zero_cell(gamma, rng):
    return _reference_zero_cell_sample(gamma, 5.0 / gamma, rng)[0]


def test_importance_draws_match_reference_clip_loop():
    for r in range(300):
        g_ref, g = RngStream(6300, r).generator(), RngStream(6300, r).generator()
        expect = _reference_zero_cell(0.5, g_ref)
        w = sample_typical_cell(2, 0.5, g, method="importance")
        assert _same_arrays([w.polytope.vertices], [expect.vertices])
        assert w.weight == 1.0 / polytope_volume(expect)
        assert _state(g) == _state(g_ref)


def test_zero_cells_from_small_radius_match_clip_chain():
    # from radius 0.5 a draw doubles the radius 2 to 6 times
    doublings = []
    for r in range(40):
        g_ref, g = RngStream(6400, r).generator(), RngStream(6400, r).generator()
        poly, R, planes = _reference_zero_cell_sample(0.5, 0.5, g_ref)
        z = sample_zero_cell(2, 0.5, g, initial_radius=0.5)
        assert _same_arrays([z.polytope.vertices], [poly.vertices])
        assert z.radius == R
        assert _state(g) == _state(g_ref)
        assert len(z.hyperplanes) == len(planes)
        assert _same_arrays([h.direction for h in z.hyperplanes], [h.direction for h in planes])
        assert [h.distance for h in z.hyperplanes] == [h.distance for h in planes]
        doublings.append(math.log2(R / 0.5))
    assert min(doublings) >= 2 and np.median(doublings) >= 3


# --- exact inradius -------------------------------------------------------


def regular_polygon(m, radius=1.0, phase=0.3):
    ang = phase + 2 * math.pi * np.arange(m) / m
    return Polytope(2, radius * np.column_stack([np.cos(ang), np.sin(ang)]))


@pytest.mark.parametrize("m", list(range(3, 65)) + [200])
def test_inradius_regular_polygon(m):
    # 200 edges give C(200, 3) edge triples, many blocks of the solver
    feats = cell_features(regular_polygon(m))
    assert feats.inradius == pytest.approx(math.cos(math.pi / m), rel=1e-12)


@pytest.mark.parametrize("a, b", [(3.0, 4.0), (1.0, 1.0), (0.01, 7.5), (2.0, 1e-3)])
def test_inradius_right_triangle(a, b):
    tri = Polytope(2, np.array([[0.0, 0.0], [a, 0.0], [0.0, b]]))
    c = math.hypot(a, b)
    assert cell_features(tri).inradius == pytest.approx((a + b - c) / 2, rel=1e-12)


@pytest.mark.parametrize("w, h", [(1.0, 1.0), (3.0, 1.0), (0.2, 5.0), (1e-4, 1.0)])
def test_inradius_rectangle(w, h):
    rect = Polytope(2, np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]]))
    assert cell_features(rect).inradius == pytest.approx(min(w, h) / 2, rel=1e-12)


def test_inradius_translation_invariant():
    rng = rng_for(21)
    for _ in range(20):
        p = sample_zero_cell(2, 0.5, rng).polytope
        moved = Polytope(2, p.vertices + np.array([1e6, -1e6]))
        r0, r1 = cell_features(p).inradius, cell_features(moved).inradius
        assert r1 == pytest.approx(r0, rel=1e-9)
    hexagon = Polytope(2, regular_polygon(6).vertices + np.array([1e6, 1e6]))
    assert cell_features(hexagon).inradius == pytest.approx(math.cos(math.pi / 6), rel=1e-9)


def test_inradius_unit_cube():
    cube = Polytope(3, np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]))
    feats = cell_features(cube)
    assert feats.f_vector == (8, 12, 6)
    assert feats.inradius == pytest.approx(0.5, rel=1e-12)
    assert feats.diameter == pytest.approx(math.sqrt(3), rel=1e-12)


def test_inradius_3d_zero_cells_match_linprog():
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull

    rng = rng_for(22)
    for _ in range(10):
        p = sample_zero_cell(3, intensity_gamma(3), rng).polytope
        eqs = ConvexHull(p.vertices).equations
        A = np.hstack([eqs[:, :3], np.ones((len(eqs), 1))])
        res = linprog([0, 0, 0, -1], A_ub=A, b_ub=-eqs[:, 3], bounds=[(None, None)] * 4)
        assert res.success
        assert cell_features(p).inradius == pytest.approx(res.x[3], rel=1e-9)


def test_chebyshev_inradius_on_raw_constraints():
    # the triangle x >= 0, y >= 0, x + y <= 1, shifted to a non-central point
    normals = np.array([[0.0, -1.0], [-1.0, 0.0], [1.0, 1.0] / np.sqrt(2.0)])
    offsets = np.array([0.0, 0.0, 1.0 / np.sqrt(2.0)])
    r = chebyshev_inradius(normals, offsets, np.array([0.3, 0.3]))
    assert r == pytest.approx((2.0 - math.sqrt(2.0)) / 2.0, rel=1e-12)


def test_chebyshev_inradius_rejects_near_feasible_vertex():
    # the 3-4-5 triangle (inradius 1, centre (1, 1)) with its incircle's
    # tangent at 45 degrees pushed in by delta: the old optimum violates the
    # new edge by delta only, and the exact radius is 1 - delta (sqrt 2 - 1)
    delta = 1e-7
    s = 1.0 / math.sqrt(2.0)
    normals = np.array([[-1.0, 0.0], [0.0, -1.0], [0.8, 0.6], [s, s]])
    offsets = np.array([0.0, 0.0, 2.4, math.sqrt(2.0) + 1.0 - delta])
    r = chebyshev_inradius(normals, offsets, np.array([1.0, 1.0]))
    assert r == pytest.approx(1.0 - delta * (math.sqrt(2.0) - 1.0), rel=1e-12)


def test_diameter_matches_pairwise_loop():
    # the vectorized diameter against the pairwise loop it replaced; the
    # arithmetic per pair is the same, so the results are equal
    rng = rng_for(23)
    cells = [sample_zero_cell(2, 0.5, rng).polytope for _ in range(20)]
    cells += [sample_zero_cell(3, intensity_gamma(3), rng).polytope for _ in range(5)]
    for p in cells:
        v = p.vertices
        loop = max(float(np.max(np.linalg.norm(v[i + 1 :] - v[i], axis=1))) for i in range(len(v) - 1))
        assert cell_features(p).diameter == loop
