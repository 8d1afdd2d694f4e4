import math

import numpy as np
import pytest
from scipy import stats

from conehull.errors import DegenerateInput, SingularFrame
from conehull.geometry import (
    PolyhedralCone,
    ccw_order,
    contains,
    convex_hull,
    extreme_rays,
    polar_polytope,
    polygon_edge_normals,
    polytope_volume,
)
from conehull.profiles import (
    Profile,
    ProfileSample,
    cell_profile,
    profile,
    rotate_to_pole,
    sample_Pn_star,
    sample_Qn_star,
    tangent_frame,
)
from conehull.rng import RngStream
from conehull.samplers import (
    pole,
    sample_poisson_Pi,
    sample_s_minus_e,
    sample_schlaefli_cone,
    sample_uniform_in_cell,
    sample_uniform_sphere,
    sample_uniform_sphere_batch,
)


def rng_for(k):
    return RngStream(192837465, k).generator()


# --- frames -----------------------------------------------------------------


def test_frame_at_south_pole_is_reference():
    v = -pole(3)
    fr = tangent_frame(v)
    assert np.allclose(fr.basis, np.eye(3)[:2], atol=1e-15)
    assert np.allclose(fr.reflection_matrix(), np.eye(3), atol=1e-15)


def test_frame_orthonormal_and_orthogonal_to_base():
    rng = rng_for(1)
    for _ in range(50):
        v = sample_uniform_sphere(2, rng)
        fr = tangent_frame(v)
        gram = fr.basis @ fr.basis.T
        assert np.allclose(gram, np.eye(2), atol=1e-12)
        assert np.allclose(fr.basis @ v, 0.0, atol=1e-12)


def test_frame_singular_at_north_pole():
    with pytest.raises(SingularFrame):
        tangent_frame(pole(3))


def test_frame_isometry_on_tangent_points():
    rng = rng_for(2)
    v = sample_uniform_sphere(2, rng)
    fr = tangent_frame(v)
    # random points on the affine tangent plane at v
    ys = rng.standard_normal((10, 2))
    pts = fr.base + ys @ fr.basis
    for i in range(10):
        assert np.allclose(fr.basis @ (pts[i] - fr.base), ys[i], atol=1e-12)
        for j in range(10):
            d_plane = np.linalg.norm(ys[i] - ys[j])
            d_space = np.linalg.norm(pts[i] - pts[j])
            assert d_space == pytest.approx(d_plane, abs=1e-12)


def test_frame_reflection_carries_base_to_pole():
    rng = rng_for(3)
    for _ in range(20):
        v = sample_uniform_sphere(2, rng)
        ref = tangent_frame(v).reflection_matrix()
        assert np.allclose(ref @ v, -pole(3), atol=1e-12)
        assert np.allclose(ref @ ref, np.eye(3), atol=1e-12)


# --- profiles ----------------------------------------------------------------


def test_profile_d1_segment_example():
    # planar cone spanned by the directions at 225 and 315 degrees,
    # viewed from -e = (0, -1): the segment [-1, 1] on the tangent line
    r1 = np.array([math.cos(math.radians(225)), math.sin(math.radians(225))])
    r2 = np.array([math.cos(math.radians(315)), math.sin(math.radians(315))])
    normals = np.array([[-r1[1], r1[0]], [-r2[1], r2[0]]])
    mid = -pole(2)
    signs = np.sign(normals @ mid).astype(int)
    cone = PolyhedralCone(normals, signs)
    prof = profile(cone, -pole(2), scale=1.0)
    assert prof.bounded
    assert np.allclose(np.sort(prof.polytope.vertices[:, 0]), [-1.0, 1.0], atol=1e-12)


def test_profile_orthant_is_triangle():
    cone = PolyhedralCone(np.eye(3), np.ones(3, dtype=int))
    v = np.ones(3) / math.sqrt(3)
    prof = profile(cone, v, scale=1.0)
    assert prof.bounded
    verts = prof.polytope.vertices
    assert verts.shape == (3, 2)
    # equilateral: all pairwise distances equal
    d01 = np.linalg.norm(verts[0] - verts[1])
    d02 = np.linalg.norm(verts[0] - verts[2])
    d12 = np.linalg.norm(verts[1] - verts[2])
    assert d01 == pytest.approx(d02, rel=1e-9)
    assert d01 == pytest.approx(d12, rel=1e-9)


def test_profile_unbounded_when_ray_orthogonal():
    cone = PolyhedralCone(np.eye(3), np.ones(3, dtype=int))
    prof = profile(cone, np.array([1.0, 1.0, 0.0]) / math.sqrt(2))
    assert not prof.bounded


def test_profile_boundedness_criterion_two_ways():
    rng = rng_for(4)
    for _ in range(60):
        s = sample_schlaefli_cone(5, 2, rng)
        u = sample_uniform_in_cell(s.cone, rng)
        prof = profile(s.cone, u)
        rays = extreme_rays(s.cone)
        assert prof.bounded == bool(np.all(rays @ u > 1e-12))


def test_profile_vertex_count_transport():
    rng = rng_for(5)
    for _ in range(40):
        s = sample_schlaefli_cone(6, 2, rng)
        u = sample_uniform_in_cell(s.cone, rng)
        prof = profile(s.cone, u)
        if prof.bounded:
            assert prof.polytope.n_vertices == extreme_rays(s.cone).shape[0]


def test_cell_profile_agrees_with_ray_route():
    rng = rng_for(6)
    done = 0
    while done < 40:
        s = sample_schlaefli_cone(6, 2, rng)
        u = sample_uniform_in_cell(s.cone, rng)
        prof = profile(s.cone, u, scale=7.5)
        poly = cell_profile(s.cone.normals, s.cone.signs, u, scale=7.5)
        if prof.bounded:
            assert poly is not None
            assert poly.n_vertices == prof.polytope.n_vertices
            assert np.allclose(poly.vertices, prof.polytope.vertices, atol=1e-7)
        else:
            assert poly is None
        done += 1


def test_profile_scale_multiplies_coordinates():
    cone = PolyhedralCone(np.eye(3), np.ones(3, dtype=int))
    v = np.ones(3) / math.sqrt(3)
    p1 = profile(cone, v, scale=1.0).polytope
    p9 = profile(cone, v, scale=9.0).polytope
    assert np.allclose(p9.vertices, 9.0 * p1.vertices, atol=1e-12)


def test_profile_requires_membership():
    cone = PolyhedralCone(np.eye(3), np.ones(3, dtype=int))
    with pytest.raises(DegenerateInput):
        profile(cone, np.array([-1.0, 0.0, 0.0]))


# --- conditional samplers -------------------------------------------------------


def test_pn_star_bounded_fraction_and_shape():
    rng = rng_for(7)
    attempts = 0
    for _ in range(60):
        s = sample_Pn_star(50, 2, rng)
        attempts += s.attempts
        assert s.polytope.dim == 2
    assert 60 / attempts >= 0.9  # bounded fraction at n=50


def test_pn_star_equals_polar_of_gnomonic_hull():
    # per realization: profile of the pole cell = polar of hull of the
    # gnomonic images of the (flipped) normals, scaled by n
    rng = rng_for(8)
    n = 40
    for _ in range(20):
        s = sample_s_minus_e(n, 2, rng)
        cone = s.cone
        poly = cell_profile(cone.normals, cone.signs, -pole(3), scale=float(n))
        flipped = cone.normals * np.sign(cone.normals[:, -1:])
        gnomonic = flipped[:, :2] / flipped[:, -1:]
        hull = convex_hull(gnomonic, 2)
        verts = ccw_order(hull.vertices)
        _, offsets = polygon_edge_normals(verts)
        if np.all(offsets > 1e-12):
            dual = polar_polytope(hull).scaled(float(n))
            assert poly is not None
            assert np.allclose(np.sort(poly.vertices, axis=0), np.sort(dual.vertices, axis=0), atol=1e-8)
        else:
            assert poly is None


def test_qn_star_vertex_count_equals_source_f0():
    rng = rng_for(9)
    for _ in range(25):
        s = sample_Qn_star(16, 2, rng)
        assert s.polytope.n_vertices == extreme_rays(s.source.cone).shape[0]


def test_qn_star_redraws_a_direction_on_a_tiny_cells_boundary():
    # this stream's cell has sides of ~1e-7, and its first uniform direction
    # lies 8e-17 from a facet, which cell_profile rejects as not interior
    s = sample_Qn_star(256, 2, RngStream(5002, 10792).generator())
    assert s.attempts == 1
    assert s.polytope.n_vertices == s.source.rays.shape[0] == 3


def test_qn_bounded_fraction_increases_with_n():
    rng = rng_for(10)
    fracs = []
    for n, reps in ((8, 150), (32, 80), (128, 30)):
        attempts = 0
        for _ in range(reps):
            s = sample_Qn_star(n, 2, rng)
            attempts += s.attempts
        fracs.append(reps / attempts)
    assert fracs[0] <= fracs[1] <= fracs[2] or fracs[2] >= 0.97
    assert fracs[-1] >= 0.9


def test_qn_two_constructions_agree_in_distribution():
    # Q_n directly vs profile of the reflected cone at the pole
    rng1 = rng_for(11)
    rng2 = rng_for(12)
    n = 12
    areas_a = []
    areas_b = []
    for _ in range(300):
        s = sample_Qn_star(n, 2, rng1)
        areas_a.append(polytope_volume(s.polytope))
        # alternate construction with independent randomness
        s2 = sample_schlaefli_cone(n, 2, rng2)
        u = sample_uniform_in_cell(s2.cone, rng2)
        rot = rotate_to_pole(s2.cone, u)
        poly = cell_profile(rot.normals, rot.signs, -pole(3), scale=float(n))
        if poly is not None:
            areas_b.append(polytope_volume(poly))
    p = stats.ks_2samp(areas_a, areas_b).pvalue
    assert p > 1e-3


def test_rn_profile_vertices_are_gnomonic_images_of_extreme_generators():
    # the hull of the gnomonic images picks exactly the extreme generators
    # of the half-sphere positive hull; extremality checked by NNLS
    from scipy.optimize import nnls

    from conehull.samplers import sample_r_n

    from conehull.samplers import polar_of_r_n

    rng = rng_for(15)
    for _ in range(10):
        s = sample_r_n(25, 2, rng)
        X = s.generators
        gnomonic = X[:, :2] / X[:, 2:]
        hull = convex_hull(gnomonic, 2)
        hull_set = {tuple(np.round(v, 9)) for v in hull.vertices}
        for i in range(len(X)):
            others = np.delete(X, i, axis=0)
            _, resid = nnls(others.T, X[i])
            in_hull = tuple(np.round(gnomonic[i], 9)) in hull_set
            # decisively extreme generators must appear as hull vertices
            # (the converse margin does not transfer between the 3-d cone
            # scale and the gnomonically stretched plane scale)
            if resid > 1e-6:
                assert in_hull
        # facet count of the polar cell equals the gnomonic hull vertex count
        assert extreme_rays(polar_of_r_n(s)).shape[0] == hull.n_vertices


def test_pn_star_f0_matches_polar_poisson_hull_small_sample():
    rng1 = rng_for(13)
    rng2 = rng_for(14)
    f0_pn = [sample_Pn_star(2000, 2, rng1).polytope.n_vertices for _ in range(250)]
    f0_pi = []
    for _ in range(250):
        pts = sample_poisson_Pi(2, rng2)
        hull = convex_hull(pts, 2)
        f0_pi.append(polar_polytope(hull).n_vertices)
    p = stats.ks_2samp(f0_pn, f0_pi).pvalue
    assert p > 1e-3
