"""Cross-module invariants: rotation invariance of the samplers, exact
agreement of the two profile constructions, and the sampler-vs-density
consistency bridge for the vertex-tuple densities."""

import math

import numpy as np
import pytest
from scipy import stats

from conehull.arrangement import schlaefli_count
from conehull.densities import pc_polygon
from conehull.geometry import PolyhedralCone, ccw_order, convex_hull, solid_angle
from conehull.profiles import cell_profile, profile, rotate_to_pole, tangent_frame
from conehull.rng import RngStream
from conehull.samplers import (
    pole,
    sample_cauchy_points,
    sample_schlaefli_cone,
    sample_uniform_in_cell,
    sample_uniform_sphere,
)


def rng_for(k):
    return RngStream(246813579, k).generator()


def random_rotation3(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_rotation_invariance_of_schlaefli_features():
    # rotating all generators before cell selection leaves rotation-invariant
    # features (f0, solid angle) distributionally unchanged
    rng = rng_for(1)
    rot = random_rotation3(rng)
    plain = []
    rotated = []
    for _ in range(400):
        s = sample_schlaefli_cone(6, 2, rng)
        plain.append((s.rays.shape[0], solid_angle(s.cone)))
        t = sample_schlaefli_cone(6, 2, rng)
        cone_rot = PolyhedralCone(t.cone.normals @ rot.T, t.cone.signs)
        rotated.append((len(t.rays), solid_angle(cone_rot)))
    p_f0 = stats.ks_2samp([a for a, _ in plain], [a for a, _ in rotated]).pvalue
    p_alpha = stats.ks_2samp([b for _, b in plain], [b for _, b in rotated]).pvalue
    assert p_f0 > 1e-3
    assert p_alpha > 1e-3


def test_rotation_commutes_with_solid_angle_exactly():
    rng = rng_for(2)
    for _ in range(20):
        s = sample_schlaefli_cone(5, 2, rng)
        rot = random_rotation3(rng)
        cone_rot = PolyhedralCone(s.cone.normals @ rot.T, s.cone.signs)
        assert solid_angle(cone_rot) == pytest.approx(solid_angle(s.cone), abs=1e-11)


def test_profile_equals_profile_of_reflected_cone_exactly():
    # I_v on the cone at v agrees with the pole frame on the reflected cone,
    # realization by realization (the frames come from one reflection)
    rng = rng_for(3)
    done = 0
    while done < 30:
        s = sample_schlaefli_cone(6, 2, rng)
        u = sample_uniform_in_cell(s.cone, rng)
        direct = cell_profile(s.cone.normals, s.cone.signs, u, scale=6.0)
        rot = rotate_to_pole(s.cone, u)
        via_pole = cell_profile(rot.normals, rot.signs, -pole(3), scale=6.0)
        if direct is None:
            assert via_pole is None
        else:
            assert via_pole is not None
            assert np.allclose(direct.vertices, via_pole.vertices, atol=1e-9)
        done += 1


def test_size_bias_test_functions_rotation_invariant():
    # the three test functions of the reweighting identity ignore the frame
    rng = rng_for(4)
    s = sample_schlaefli_cone(5, 2, rng)
    u = sample_uniform_in_cell(s.cone, rng)
    rot = rotate_to_pole(s.cone, u)
    assert solid_angle(rot) == pytest.approx(solid_angle(s.cone), abs=1e-11)
    from conehull.geometry import extreme_rays

    assert extreme_rays(rot).shape[0] == s.rays.shape[0]


def test_solid_angle_equals_half_profile_content():
    # the angle of a cone pointed toward the pole is half the probability
    # content of its tangent-plane profile (the half-space has angle 1/2)
    from conehull.samplers import sample_s_minus_e

    rng = rng_for(5)
    done = 0
    while done < 40:
        s = sample_s_minus_e(7, 2, rng)
        poly = cell_profile(s.cone.normals, s.cone.signs, -pole(3), scale=1.0)
        if poly is None:
            continue
        alpha = solid_angle(s.cone)
        pc = pc_polygon(ccw_order(poly.vertices))
        assert alpha == pytest.approx(0.5 * pc, abs=1e-10)
        done += 1


def test_size_bias_weight_profile_form():
    # C(n,d+1) * alpha equals (1/2) C(n,d+1) * PC(profile / n)
    from conehull.densities import size_bias_weight
    from conehull.samplers import sample_s_minus_e

    rng = rng_for(6)
    n = 9
    done = 0
    while done < 20:
        s = sample_s_minus_e(n, 2, rng)
        poly = cell_profile(s.cone.normals, s.cone.signs, -pole(3), scale=float(n))
        if poly is None:
            continue
        w = size_bias_weight(s.cone, n, 2)
        pc = pc_polygon(ccw_order(poly.vertices / n))
        assert w == pytest.approx(0.5 * schlaefli_count(n, 3) * pc, rel=1e-9)
        done += 1


# --- sampler-vs-density bridge ------------------------------------------------


def test_scheffe_bridge_vertex_count_strata():
    """Histogram of hull vertex counts vs the density integral per stratum.

    The integral of the n-point vertex-tuple density over the m-vertex
    stratum is estimated with the limit law as the importance proposal
    (sample the scale-invariant Poisson hull, weight by phi_n / phi); the
    ratio is near one, so the estimate is tight where an iid proposal would
    have unbounded weight variance.
    """
    from conehull.densities import CoordinateRep, log_eval_phi, log_eval_phi_n
    from conehull.samplers import sample_poisson_Pi

    n = 50
    ms = (3, 4, 5)
    rng = rng_for(100)
    reps = 4000
    counts = {m: 0 for m in ms}
    for _ in range(reps):
        pts = sample_cauchy_points(2, n, rng) / n
        f0 = convex_hull(pts, 2).n_vertices
        if f0 in counts:
            counts[f0] += 1
    proposals = 4000
    weights = {m: np.zeros(proposals) for m in ms}
    for k in range(proposals):
        pts = sample_poisson_Pi(2, rng)
        hull = convex_hull(pts, 2)
        if hull.n_vertices not in weights:
            continue
        rep = CoordinateRep(2, hull.vertices)
        ratio = math.exp(log_eval_phi_n(rep, n) - log_eval_phi(rep))
        weights[hull.n_vertices][k] = ratio
    for m in ms:
        p_hat = counts[m] / reps
        se_hat = math.sqrt(max(p_hat * (1 - p_hat), 1 / reps) / reps)
        p_is = float(weights[m].mean())
        se_is = float(weights[m].std(ddof=1)) / math.sqrt(proposals)
        assert abs(p_hat - p_is) <= 4 * math.hypot(se_hat, se_is), (
            m, p_hat, p_is, se_hat, se_is,
        )
