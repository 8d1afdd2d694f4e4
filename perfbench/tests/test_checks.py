"""Each output check accepts right output and rejects a deliberately wrong one."""

import math

import numpy as np

import checks

SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def test_convex_polygon_accepts_square_in_any_order():
    assert checks.convex_polygon(SQUARE[[2, 0, 3, 1]]) is None


def test_convex_polygon_rejects_non_convex():
    dart = np.array([[0.0, 0.0], [2.0, -1.0], [0.5, 0.0], [2.0, 1.0]])
    assert checks.convex_polygon(dart) is not None
    with_interior_point = np.vstack([SQUARE, [[0.2, 0.1]]])
    assert checks.convex_polygon(with_interior_point) is not None
    collinear = np.vstack([SQUARE, [[1.0, 0.0]]])
    assert checks.convex_polygon(collinear) is not None
    assert checks.convex_polygon(SQUARE[:2]) is not None


def test_origin_inside_rejects_origin_outside_or_on_boundary():
    assert checks.origin_inside(SQUARE) is None
    assert checks.origin_inside(SQUARE + [3.0, 0.0]) is not None
    assert checks.origin_inside(SQUARE + [1.0, 0.0]) is not None


def test_cone_profile_matches_rays_and_cone():
    # the positive octant: three facets, three extreme rays
    normals = np.eye(3)
    signs = np.ones(3)
    rays = np.eye(3)
    triangle = np.array([[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]])
    assert checks.cone_profile(triangle, normals, signs, rays) is None
    assert checks.cone_profile(SQUARE, normals, signs, rays) is not None
    outside = rays.copy()
    outside[2] = [0.0, 0.6, -0.8]
    assert checks.cone_profile(triangle, normals, signs, outside) is not None


def test_mean_near_rejects_wrong_f0_mean():
    rng = np.random.default_rng(0)
    right = checks.ZERO_CELL_MEAN_F0 + rng.normal(0.0, 1.3, 2000)
    assert checks.mean_near(right, checks.ZERO_CELL_MEAN_F0) is None
    typical = 4.0 + rng.normal(0.0, 1.3, 2000)
    assert checks.mean_near(typical, checks.ZERO_CELL_MEAN_F0) is not None
    assert checks.mean_near([4.0], 4.0) is not None


def test_exact_targets():
    assert math.isclose(checks.uniform_cell_mean_f0(256), 4 * 256 * 255 / (256**2 - 256 + 2))
    # the gate's three wendel cases
    assert checks.cover_efron_probability(3, 1) == 0.75
    assert checks.cover_efron_probability(6, 2) == 0.5
    assert checks.cover_efron_probability(4, 2) == 0.875


def test_exact_targets_agree_with_conehull():
    import conehull

    for n in (3, 10, 256):
        assert math.isclose(checks.uniform_cell_mean_f0(n),
                            float(conehull.expected_spherical_face_count(n, 2, 0)))
    for n, d in ((3, 1), (6, 2), (4, 2), (9, 3)):
        assert checks.cover_efron_probability(n, d) == float(conehull.wendel_probability(n, d))


def _csv(rows):
    head = ",".join(checks.CSV_COLUMNS)
    return "\n".join([head] + rows) + "\n"


def test_gate_records_and_record_checks():
    good = "wendel,1,3,6000,42,0.7,0.005,0.68,0.72,0.75,true,1.0"
    rows, bad = checks.gate_records(_csv([good]))
    assert bad is None and checks.gate_record(rows[0]) is None
    wrong_target = good.replace(",0.75,", ",0.375,")
    assert checks.gate_record(checks.gate_records(_csv([wrong_target]))[0][0]) is not None
    for flag in ("false", "True", ""):
        row = good.replace(",true,", f",{flag},")
        assert checks.gate_record(checks.gate_records(_csv([row]))[0][0]) is not None
    assert checks.gate_records("a,b\n1,2\n")[1] is not None
    assert checks.gate_records(_csv([]))[1] is not None
