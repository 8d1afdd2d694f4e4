import math

import numpy as np
import pytest
from scipy import stats

from conehull.arrangement import (
    enumerate_cones,
    expected_spherical_face_count,
    schlaefli_count,
    wendel_probability,
)
from conehull.densities import omega, pc_ball
from conehull.errors import IterationCap, NonGeneric, NotPointed
from conehull.geometry import (
    PolyhedralCone,
    contains,
    extreme_rays,
    convex_hull,
    interior_point,
    ray_cycle,
    solid_angle,
    spherical_triangle_areas,
)
from conehull.rng import RngStream
from conehull.samplers import (
    ConeSample,
    _sample_spherical_triangle,
    pole,
    poisson_radial_mass,
    polar_of_r_n,
    positive_hull_spans,
    sample_cauchy_point,
    sample_cauchy_points,
    sample_cover_efron,
    sample_poisson_Pi,
    sample_r_n,
    sample_s_minus_e,
    sample_schlaefli_cone,
    sample_uniform_half_sphere,
    sample_uniform_in_cell,
    sample_uniform_sphere,
    sample_uniform_sphere_batch,
)


def rng_for(test_id=0):
    return RngStream(987654321, test_id).generator()


# --- sphere and gnomonic points ---------------------------------------------


def test_sphere_sample_norms_and_mean():
    rng = rng_for(1)
    x = sample_uniform_sphere_batch(2, 100_000, rng)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
    assert np.all(np.abs(x.mean(axis=0)) <= 4 / math.sqrt(100_000))


def test_sphere_coordinate_second_moment():
    rng = rng_for(2)
    d = 3
    x = sample_uniform_sphere_batch(d, 50_000, rng)
    m2 = (x[:, 0] ** 2).mean()
    se = (x[:, 0] ** 2).std() / math.sqrt(len(x))
    assert abs(m2 - 1.0 / (d + 1)) <= 4 * se


def test_half_sphere_respects_pole():
    rng = rng_for(3)
    for _ in range(100):
        x = sample_uniform_half_sphere(2, rng)
        assert x[-1] >= 0


def test_cauchy_d1_quartiles():
    rng = rng_for(4)
    xs = np.array([sample_cauchy_point(1, rng)[0] for _ in range(20_000)])
    med = np.median(xs)
    q1, q3 = np.quantile(xs, [0.25, 0.75])
    assert abs(med) < 0.05
    assert abs(q1 + 1.0) < 0.1 and abs(q3 - 1.0) < 0.1


def test_cauchy_d2_disc_probability():
    rng = rng_for(5)
    pts = sample_cauchy_points(2, 200_000, rng)
    p_hat = np.mean(np.linalg.norm(pts, axis=1) <= 1.0)
    p = pc_ball(1.0, 2)
    se = math.sqrt(p * (1 - p) / len(pts))
    assert abs(p_hat - p) <= 4 * se


def test_cauchy_density_at_origin_kernel_estimate():
    rng = rng_for(6)
    pts = sample_cauchy_points(2, 400_000, rng)
    eps = 0.05
    p_hat = np.mean(np.linalg.norm(pts, axis=1) <= eps)
    dens = p_hat / (math.pi * eps**2)
    assert dens == pytest.approx(1 / (2 * math.pi), rel=0.05)


# --- Wendel & cover-efron -----------------------------------------------------


@pytest.mark.parametrize("d,n", [(1, 3), (2, 4), (2, 6), (3, 6)])
def test_wendel_acceptance_rates(d, n):
    rng = rng_for(10 + n + 10 * d)
    reps = 4000
    hits = 0
    for _ in range(reps):
        pts = sample_uniform_sphere_batch(d, n, rng)
        if not positive_hull_spans(pts):
            hits += 1
    p = float(wendel_probability(n, d))
    se = math.sqrt(p * (1 - p) / reps)
    assert abs(hits / reps - p) <= 4 * se


def test_wendel_never_spans_small_n():
    rng = rng_for(11)
    for _ in range(50):
        pts = sample_uniform_sphere_batch(2, 3, rng)  # n = d+1
        assert not positive_hull_spans(pts)


def test_cover_efron_sample_consistency():
    rng = rng_for(12)
    s = sample_cover_efron(6, 2, rng)
    assert s.kind == "cover_efron"
    assert s.cone is not None
    # generators belong to the reconstructed H-form cone
    for g in s.generators:
        assert contains(s.cone, g, tol=1e-9)
    assert contains(s.cone, interior_point(s.cone))


def test_cover_efron_iteration_cap_guard():
    rng = rng_for(13)
    with pytest.raises(IterationCap):
        sample_cover_efron(80, 2, rng)  # acceptance ~ C(80,3)/2^80, hopeless


# --- schlaefli ----------------------------------------------------------------


def test_schlaefli_cell_uniformity_chi2_fixed_arrangement():
    # fixed hyperplanes, uniform index choice over the 14 cells
    rng = rng_for(14)
    normals = sample_uniform_sphere_batch(2, 4, rng)
    arr = enumerate_cones(normals)
    assert arr.n_cells == 14
    counts = np.zeros(arr.n_cells)
    draws = 10_000
    for _ in range(draws):
        counts[int(rng.integers(arr.n_cells))] += 1
    chi2 = float(((counts - draws / arr.n_cells) ** 2 / (draws / arr.n_cells)).sum())
    assert stats.chi2.sf(chi2, arr.n_cells - 1) > 1e-3


def _matrix_uniform_cell(data, rng):
    """Reference for the local kernel: the proposal loop over the float32
    ray sign matrix of fast_ray_data, one mat-vec per proposal."""
    from conehull.arrangement import cell_rays

    L = len(data.subsets)
    while True:
        l = int(rng.integers(L))
        orient = 1.0 if rng.random() < 0.5 else -1.0
        s = orient * data.signs[l]
        i, j = data.subsets[l]
        s[i] = 1.0 if rng.random() < 0.5 else -1.0
        s[j] = 1.0 if rng.random() < 0.5 else -1.0
        m = data.signs @ s
        pos = m == data.offcount
        neg = m == -data.offcount
        f0 = int(np.count_nonzero(pos)) + int(np.count_nonzero(neg))
        if rng.random() * f0 < 1.0:
            incident = np.concatenate([data.subsets[pos], data.subsets[neg]])
            return s.astype(int), cell_rays(data, pos, neg), tuple(map(tuple, incident.tolist()))


@pytest.mark.parametrize(
    "n,seeds", [(3, 150), (4, 150), (5, 150), (8, 150), (16, 150), (64, 200), (128, 40), (256, 20)]
)
def test_local_cell_kernel_matches_ray_sign_matrix(n, seeds):
    # same draws in the same order, so the same cell, bit-identical rays,
    # the same incidences and the same generator state afterwards
    from conehull.arrangement import fast_ray_data
    from conehull.samplers import _uniform_cell_local

    for seed in range(seeds):
        normals = sample_uniform_sphere_batch(2, n, np.random.default_rng([n, seed]))
        data = fast_ray_data(normals)
        ref_rng = np.random.default_rng([seed, 1])
        rng = np.random.default_rng([seed, 1])
        for _ in range(2):
            s_ref, rays_ref, inc_ref = _matrix_uniform_cell(data, ref_rng)
            s, rays, inc = _uniform_cell_local(normals, rng)
            assert np.array_equal(s, s_ref)
            assert rays.tobytes() == rays_ref.tobytes()
            assert inc == inc_ref
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def _ray_sign_uniform_cell(data, rng):
    """Reference for the walk in any dimension: the proposal loop over the
    ray sign matrix of ray_sign_data, with the walk's draws in its order."""
    from conehull.arrangement import cell_incidence, cell_ray_lines, cell_rays

    D = data.dim
    while True:
        l = int(rng.integers(len(data.subsets)))
        *flips, u = rng.random(D + 1)
        orient, *eps = (1 if x < 0.5 else -1 for x in flips)
        s = orient * data.signs[l].astype(int)
        s[data.subsets[l]] = eps
        pos, neg = cell_ray_lines(data, s)
        if u * (np.count_nonzero(pos) + np.count_nonzero(neg)) < 1.0:
            return s, cell_rays(data, pos, neg), cell_incidence(data, pos, neg)


@pytest.mark.parametrize("D,n,seeds", [(2, 2, 40), (2, 7, 40), (2, 20, 40), (4, 4, 40),
                                       (4, 6, 40), (4, 12, 30), (4, 20, 20), (5, 5, 30),
                                       (5, 8, 20), (5, 14, 10)])
def test_walk_matches_ray_sign_proposals(D, n, seeds):
    # the same draws in the same order outside R^3: the same cell, rays equal
    # to the bit, the same incidences and the same generator state afterwards
    from conehull.arrangement import ray_sign_data
    from conehull.samplers import _uniform_cell_local

    for seed in range(seeds):
        normals = sample_uniform_sphere_batch(D - 1, n, np.random.default_rng([D, n, seed]))
        data = ray_sign_data(normals)
        ref_rng = np.random.default_rng([seed, 2])
        rng = np.random.default_rng([seed, 2])
        for _ in range(2):
            s_ref, rays_ref, inc_ref = _ray_sign_uniform_cell(data, ref_rng)
            s, rays, inc = _uniform_cell_local(normals, rng)
            assert np.array_equal(s, s_ref)
            assert rays.tobytes() == rays_ref.tobytes()
            assert inc == inc_ref
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 3])
def test_local_cell_kernel_matches_enumerate_distribution(d):
    from conehull.samplers import _uniform_cell_local

    rng = rng_for(40)
    normals = sample_uniform_sphere_batch(d, 5, rng)
    arr = enumerate_cones(normals)
    index = {tuple(c.signs): i for i, c in enumerate(arr.cells)}
    counts = np.zeros(arr.n_cells)
    draws = 8000
    for _ in range(draws):
        s, rays, inc = _uniform_cell_local(normals, rng)
        cell = arr.cells[index[tuple(s)]]
        assert inc == cell._ray_incidence
        np.testing.assert_allclose(rays, cell._rays, rtol=0, atol=1e-12)
        counts[index[tuple(s)]] += 1
    chi2 = float(((counts - draws / arr.n_cells) ** 2 / (draws / arr.n_cells)).sum())
    assert stats.chi2.sf(chi2, arr.n_cells - 1) > 1e-3


@pytest.mark.parametrize("d,n", [(2, 3), (2, 5), (2, 8), (3, 4), (3, 6), (3, 8)])
def test_lazy_cells_cache_the_incidence_enumeration_caches(d, n):
    rng = rng_for(41)
    for _ in range(30):
        s = sample_schlaefli_cone(n, d, rng)
        arr = enumerate_cones(s.generators)
        cell = next(c for c in arr.cells if np.array_equal(c.signs, s.cone.signs))
        assert s.cone._ray_incidence == cell._ray_incidence
        # enumerate_cones renormalizes the normals, so rays agree to rounding
        np.testing.assert_allclose(s.rays, cell._rays, rtol=0, atol=1e-12)


def _degenerate_normals(kind):
    """Six generic planes in R^3, made degenerate: "double" repeats the first
    plane in place of the second (and keeps four planes); "pencil" puts the
    third plane through the line of the first two.  "twin" is three lines in
    R^2, the last two the same."""
    if kind == "twin":
        base = sample_uniform_sphere_batch(1, 2, np.random.default_rng(0))
        return np.vstack([base, -base[1:]])
    base = sample_uniform_sphere_batch(2, 6, np.random.default_rng(0))
    if kind == "double":
        return np.vstack([base[:1], base[:1], base[2:4]])
    base[2] = (base[0] + base[1]) / np.linalg.norm(base[0] + base[1])
    return base


@pytest.mark.parametrize("kind,seed,message", [
    # the proposed line is the doubled plane's
    ("double", 6, "dependent hyperplane subset"),
    # the proposed line lies on the doubled plane, or on the pencil's third
    ("double", 0, "lies on more hyperplanes"),
    ("pencil", 4, "lies on more hyperplanes"),
    # a ray met later in the walk does
    ("double", 7, "lies on more hyperplanes"),
    ("pencil", 1, "lies on more hyperplanes"),
    ("twin", 1, "lies on more hyperplanes"),  # the far ray of the one edge in R^2
])
def test_walk_raises_on_degenerate_planes(kind, seed, message):
    from conehull.samplers import _uniform_cell_local

    with pytest.raises(NonGeneric, match=message):
        _uniform_cell_local(_degenerate_normals(kind), np.random.default_rng(seed))


def test_walk_that_does_not_close_raises(monkeypatch):
    # with the vertex check switched off, the ratio test meets three planes
    # at once on the pencil's line, and the edge count gives the walk away
    import conehull.samplers as samplers

    monkeypatch.setattr(samplers, "EPS_SIGN", -np.inf)
    normals = _degenerate_normals("pencil")
    P = (0, 1)
    s = np.where(normals @ np.cross(normals[0], normals[1]) > 0, 1, -1)
    s[:3] = 1  # the third plane holds the line of the first two
    with pytest.raises(NonGeneric, match="did not close"):
        samplers._walk_cell(normals, s, P, [normals[p].tolist() for p in P], 1, 0.0)


def test_schlaefli_cone_at_ten_thousand_planes():
    import tracemalloc

    from conehull.geometry import ray_cycle

    rng = rng_for(42)
    tracemalloc.start()
    try:
        samples = [sample_schlaefli_cone(10_000, 2, rng) for _ in range(2)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    for s in samples:
        cone = s.cone
        assert s.rays.shape[0] >= 3
        dots = cone.effective_normals @ s.rays.T  # (n, f0)
        for k, pair in enumerate(cone._ray_incidence):
            on = np.nonzero(np.abs(dots[:, k]) <= 1e-12)[0]
            assert tuple(on) == pair
            assert np.delete(dots[:, k], on).min() > 0
        assert ray_cycle(cone).shape == s.rays.shape


def test_schlaefli_mean_alpha_is_inverse_cell_count():
    rng = rng_for(16)
    n, d = 4, 2
    vals = []
    for _ in range(2000):
        s = sample_schlaefli_cone(n, d, rng)
        vals.append(solid_angle(s.cone))
    mean = float(np.mean(vals))
    se = float(np.std(vals)) / math.sqrt(len(vals))
    assert abs(mean - 1.0 / schlaefli_count(n, d + 1)) <= 4 * se


def test_schlaefli_f0_constant_n3():
    rng = rng_for(17)
    for _ in range(50):
        s = sample_schlaefli_cone(3, 2, rng)
        assert s.rays.shape[0] == 3


@pytest.mark.parametrize("d", [2, 3])
def test_schlaefli_f0_matches_enumerated_cells(d):
    # the walked cell against a uniform index into the enumerated cells
    rng1 = rng_for(18)
    rng2 = rng_for(19)
    f0_enum = []
    for _ in range(600):
        arr = enumerate_cones(sample_uniform_sphere_batch(d, 8, rng1))
        f0_enum.append(arr.cells[int(rng1.integers(arr.n_cells))]._rays.shape[0])
    f0_walk = [sample_schlaefli_cone(8, d, rng2).rays.shape[0] for _ in range(600)]
    p = stats.ks_2samp(f0_enum, f0_walk).pvalue
    assert p > 1e-3


@pytest.mark.parametrize("d", [1, 3])
def test_schlaefli_mean_f0_beyond_the_enumeration_limit(d):
    # exact E f_0 of the uniform cell at n = 128 > ENUMERATION_LIMIT
    rng = rng_for(43)
    f0 = np.array([sample_schlaefli_cone(128, d, rng).rays.shape[0] for _ in range(2000)])
    se = float(f0.std(ddof=1)) / math.sqrt(len(f0))
    exact = float(expected_spherical_face_count(128, d, 0))
    assert abs(float(f0.mean()) - exact) <= 4 * se


# --- pole cell and half-sphere cones -------------------------------------------


def test_s_minus_e_contains_pole():
    rng = rng_for(20)
    e = pole(3)
    for _ in range(50):
        s = sample_s_minus_e(7, 2, rng)
        assert contains(s.cone, -e)


def test_s_minus_e_n1_is_half_space():
    rng = rng_for(21)
    s = sample_s_minus_e(1, 2, rng)
    assert contains(s.cone, -pole(3))
    assert not is_pointed_cone(s.cone)


def is_pointed_cone(cone):
    from conehull.geometry import is_pointed

    return is_pointed(cone)


def test_r_n_generators_in_upper_half():
    rng = rng_for(22)
    s = sample_r_n(30, 2, rng)
    assert np.all(s.generators[:, -1] >= 0)


def test_r_n_contains_pole_interior_large_n():
    rng = rng_for(23)
    hits = 0
    reps = 200
    for _ in range(reps):
        s = sample_r_n(100, 2, rng)
        # e interior to pos(X) iff -e interior to the polar, iff polar profile bounded:
        # equivalently max margin of <X_i, e> ... use spans-check on reflected set
        polar = polar_of_r_n(s)
        dots = polar.effective_normals @ (-pole(3))
        # -e strictly inside polar cell and polar pointed toward -e
        rays = extreme_rays(polar)
        hits += bool(np.all(rays @ -pole(3) > 0))
    assert hits / reps >= 0.99


def test_rn_polar_duality_f0_two_sample():
    # f_0 of the pole cell vs facet count of independently sampled R_n polars
    rng = rng_for(24)
    n, d = 20, 2
    f0_pole = []
    f0_polar = []
    for _ in range(400):
        s = sample_s_minus_e(n, d, rng)
        f0_pole.append(extreme_rays(s.cone).shape[0])
        r = sample_r_n(n, d, rng)
        f0_polar.append(extreme_rays(polar_of_r_n(r)).shape[0])
    p = stats.ks_2samp(f0_pole, f0_polar).pvalue
    assert p > 1e-3


# --- uniform directions in cells ------------------------------------------------


def test_uniform_in_orthant_mean_direction():
    rng = rng_for(25)
    cone = PolyhedralCone(np.eye(3), np.ones(3, dtype=int))
    pts = np.array([sample_uniform_in_cell(cone, rng) for _ in range(20_000)])
    mean = pts.mean(axis=0)
    direction = mean / np.linalg.norm(mean)
    assert np.allclose(direction, np.ones(3) / math.sqrt(3), atol=0.02)
    for p in pts[:200]:
        assert contains(cone, p)


def test_uniform_in_cell_matches_rejection_oracle():
    rng = rng_for(26)
    normals = sample_uniform_sphere_batch(2, 4, rng)
    x = sample_uniform_sphere(2, rng)
    signs = np.sign(normals @ x).astype(int)
    cone = PolyhedralCone(normals, signs)
    fixed = np.array([0.3, -0.5, 0.81])
    fixed /= np.linalg.norm(fixed)
    a = np.array([sample_uniform_in_cell(cone, rng) @ fixed for _ in range(3000)])
    b = []
    while len(b) < 3000:
        y = sample_uniform_sphere(2, rng)
        if contains(cone, y):
            b.append(y @ fixed)
    p = stats.ks_2samp(a, np.array(b)).pvalue
    assert p > 1e-3


def test_uniform_in_cell_d1():
    rng = rng_for(27)
    normals = sample_uniform_sphere_batch(1, 3, rng)
    x = sample_uniform_sphere(1, rng)
    signs = np.sign(normals @ x).astype(int)
    cone = PolyhedralCone(normals, signs)
    for _ in range(100):
        u = sample_uniform_in_cell(cone, rng)
        assert contains(cone, u)


def test_uniform_in_cell_needs_pointed():
    half = PolyhedralCone(np.array([[0.0, 0.0, 1.0]]), np.array([1]))
    with pytest.raises(NotPointed):
        sample_uniform_in_cell(half, rng_for(28))


def _reference_triangle_area(A, B, C):
    """The fan weight as it was computed one triangle at a time."""
    det = float(np.dot(A, np.cross(B, C)))
    denom = 1.0 + float(np.dot(A, B)) + float(np.dot(B, C)) + float(np.dot(A, C))
    return 2.0 * math.atan2(abs(det), denom)


def _reference_fan(cone):
    cycle = ray_cycle(cone)
    tris = [(cycle[0], cycle[i], cycle[i + 1]) for i in range(1, len(cycle) - 1)]
    return tris, np.maximum(np.array([_reference_triangle_area(*t) for t in tris]), 0.0)


def test_uniform_in_cell_matches_the_per_triangle_fan():
    # 2500 streams: 2450 cells at n = 4..256 and 50 tiny cells at n = 10^4.
    # The fan choice and the generator state must be the same.  The areas
    # agree to 1e-13 but not bit for bit: the triple product is now taken
    # from differences of the rays, and the per-triangle one lost up to
    # 2e-7 of a tiny triangle's area.  Arvo's map carries that into the
    # direction: 2328 of the 2500 directions are bit-identical, and the
    # largest change is 4.5e-6 of the cell's diameter (r = 2481, n = 10^4).
    ns = (4, 8, 16, 64, 256)
    identical = 0
    for r in range(2500):
        n = ns[r % 5] if r < 2450 else 10_000
        cone = sample_schlaefli_cone(n, 2, RngStream(7100 + n, r).generator()).cone
        tris, ref_areas = _reference_fan(cone)
        areas = spherical_triangle_areas(ray_cycle(cone))
        np.testing.assert_allclose(areas, ref_areas, rtol=0, atol=1e-13)
        g, g_ref = RngStream(7200, r).generator(), RngStream(7200, r).generator()
        k = int(g.choice(len(areas), p=areas / areas.sum()))
        k_ref = int(g_ref.choice(len(tris), p=ref_areas / ref_areas.sum()))
        assert k == k_ref
        g, g_ref = RngStream(7200, r).generator(), RngStream(7200, r).generator()
        u = sample_uniform_in_cell(cone, g)
        g_ref.choice(len(tris), p=ref_areas / ref_areas.sum())
        u_ref = _sample_spherical_triangle(*tris[k], ref_areas[k], g_ref)
        assert repr(g.bit_generator.state) == repr(g_ref.bit_generator.state)
        diameter = np.max(np.linalg.norm(tris[0][0] - np.array([t[2] for t in tris]), axis=1))
        assert np.max(np.abs(u - u_ref)) <= 1e-4 * diameter
        identical += u.tobytes() == u_ref.tobytes()
    assert identical >= 2300


# --- the scale-invariant Poisson process ----------------------------------------


def test_poisson_radial_mass_d2():
    assert poisson_radial_mass(2) == pytest.approx(1.0, rel=1e-14)


def test_poisson_pi_counts_outside_radius():
    rng = rng_for(29)
    counts1 = []
    counts2 = []
    for _ in range(600):
        pts = sample_poisson_Pi(2, rng)
        r = np.linalg.norm(pts, axis=1)
        counts1.append(int(np.sum(r >= 1.0)))
        counts2.append(int(np.sum(r >= 2.0)))
    m1 = float(np.mean(counts1))
    se1 = float(np.std(counts1)) / math.sqrt(len(counts1))
    assert abs(m1 - 1.0) <= 4 * se1
    diff = np.array(counts1) - np.array(counts2)
    m_diff = float(np.mean(diff))
    se_diff = float(np.std(diff)) / math.sqrt(len(diff))
    assert abs(m_diff - 0.5) <= 4 * se_diff  # mean a/(2r) at r=1 is 1/2


def test_poisson_pi_hull_contains_origin():
    rng = rng_for(30)
    for _ in range(50):
        pts = sample_poisson_Pi(2, rng)
        hull = convex_hull(pts, 2)
        from conehull.geometry import ccw_order, polygon_edge_normals

        _, offsets = polygon_edge_normals(ccw_order(hull.vertices))
        assert np.all(offsets > 0)


def test_poisson_pi_truncation_is_exact():
    # adding more (smaller-radius) points never changes the hull
    rng = rng_for(31)
    for _ in range(20):
        pts = sample_poisson_Pi(2, rng)
        hull = convex_hull(pts, 2)
        rmin = np.linalg.norm(pts, axis=1).min()
        extra_dirs = sample_uniform_sphere_batch(1, 50, rng)
        extra = 0.99 * rmin * extra_dirs * rng.random((50, 1))
        hull2 = convex_hull(np.vstack([pts, extra]), 2)
        assert hull.n_vertices == hull2.n_vertices
        assert np.allclose(hull.vertices, hull2.vertices)


# --- reproducibility -------------------------------------------------------------


def test_streams_reproducible_and_distinct():
    a1 = RngStream(42, 7).generator().standard_normal(5)
    a2 = RngStream(42, 7).generator().standard_normal(5)
    b = RngStream(42, 8).generator().standard_normal(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_sampler_reproducible_via_stream():
    s1 = sample_schlaefli_cone(6, 2, RngStream(1, 2).generator())
    s2 = sample_schlaefli_cone(6, 2, RngStream(1, 2).generator())
    assert np.array_equal(s1.generators, s2.generators)
    assert np.array_equal(s1.cone.signs, s2.cone.signs)
