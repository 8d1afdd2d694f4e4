import itertools
from fractions import Fraction

import numpy as np
import pytest

from conehull.arrangement import (
    ConicalArrangement,
    arrangement_face_census,
    cell_ray_lines,
    cell_rays,
    enumerate_cones,
    expected_spherical_face_count,
    ray_sign_data,
    schlaefli_count,
    wendel_probability,
)
from conehull.errors import NonGeneric, NotPointed
from conehull.geometry import face_counts_spherical


def random_normals(n, D, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, D))
    return x / np.linalg.norm(x, axis=1)[:, None]


def test_schlaefli_count_values():
    assert schlaefli_count(4, 3) == 14
    assert schlaefli_count(2, 3) == 4
    assert schlaefli_count(6, 3) == 32
    assert schlaefli_count(3, 3) == 8
    assert schlaefli_count(10, 3) == 2 * (1 + 9 + 36)
    assert schlaefli_count(1, 4) == 2
    # n <= dim: every sign vector is a cell
    for n in range(1, 6):
        assert schlaefli_count(n, n) == 2**n


def test_wendel_probability_values():
    assert wendel_probability(3, 1) == Fraction(3, 4)
    assert wendel_probability(6, 2) == Fraction(1, 2)
    assert wendel_probability(4, 2) == Fraction(14, 16)
    assert wendel_probability(2, 2) == 1  # n <= d+1 never spans


def test_enumerate_three_planes_gives_eight_cells():
    arr = enumerate_cones(random_normals(3, 3, seed=0))
    assert arr.n_cells == 8


def test_enumerate_single_hyperplane():
    arr = enumerate_cones(random_normals(1, 3, seed=1))
    assert arr.n_cells == 2


@pytest.mark.parametrize("n", [4, 6, 10])
def test_enumerate_counts_match_formula_many_seeds(n):
    for seed in range(100):
        arr = enumerate_cones(random_normals(n, 3, seed=seed))
        assert arr.n_cells == schlaefli_count(n, 3)


def test_enumerate_4d():
    for seed in range(5):
        arr = enumerate_cones(random_normals(6, 4, seed=seed))
        assert arr.n_cells == schlaefli_count(6, 4)


def test_enumerate_rejects_degenerate():
    normals = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [np.sqrt(0.5), np.sqrt(0.5), 0.0],  # shares the line x=y=0 with the others
    ])
    with pytest.raises(NonGeneric):
        enumerate_cones(normals)


def test_partition_property():
    arr = enumerate_cones(random_normals(6, 3, seed=5))
    index = {tuple(c.signs): i for i, c in enumerate(arr.cells)}
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        # every direction off the planes has the sign vector of exactly one cell
        dots = arr.normals @ rng.standard_normal(3)
        assert np.all(np.abs(dots) > 1e-12)
        assert tuple(np.sign(dots).astype(int)) in index


def _brute_force_rays(cell):
    """The rays of a cell from scratch: each (D-1)-subset's line, from an SVD
    null vector, in whichever orientation lies strictly inside every other
    half-space of the cell.  Returns {subset: unit ray}."""
    W = cell.effective_normals
    n, D = W.shape
    out = {}
    for T in itertools.combinations(range(n), D - 1):
        v = np.linalg.svd(cell.normals[list(T)])[2][-1]
        others = [j for j in range(n) if j not in T]
        for r in (v, -v):
            if np.all(W[others] @ r > 1e-9):
                out[T] = r
    return out


def _assert_cached_rays_are_the_cells(cell):
    expect = _brute_force_rays(cell)
    assert sorted(cell._ray_incidence) == sorted(expect)
    assert len(cell._rays) == len(cell._ray_incidence)
    for ray, T in zip(cell._rays, cell._ray_incidence):
        dots = cell.effective_normals @ ray
        on = np.abs(dots) <= 1e-9
        assert tuple(np.nonzero(on)[0]) == T  # on exactly its planes
        assert np.all(dots[~on] > 1e-9)  # strictly inside the others
        np.testing.assert_allclose(ray, expect[T], rtol=0, atol=1e-12)


def test_cell_rays_match_direct_computation():
    for cell in enumerate_cones(random_normals(5, 3, seed=8)).cells:
        _assert_cached_rays_are_the_cells(cell)


@pytest.mark.parametrize("D, n", [(3, 6), (4, 6)])
def test_cell_ray_incidences_match_direct_computation(D, n):
    # the cached incidences pair each cached ray with the hyperplanes it
    # lies on, as found from the ray itself
    for cell in enumerate_cones(random_normals(n, D, seed=20 + D)).cells:
        _assert_cached_rays_are_the_cells(cell)


def test_expected_face_count_values():
    assert expected_spherical_face_count(3, 2, 0) == Fraction(3)
    assert expected_spherical_face_count(4, 2, 0) == Fraction(24, 7)
    assert expected_spherical_face_count(3, 2, 2) == Fraction(1)


def test_census_small_arrangement():
    arr = enumerate_cones(random_normals(3, 3, seed=2))
    census = arrangement_face_census(arr)
    # 6 rays, each bordering 4 cells
    assert census.arrangement_faces[1] == 6
    assert census.cell_face_sums[1] == 24
    assert census.identity_holds(1)
    assert census.identity_holds(2)
    assert census.identity_holds(3)
    assert census.spherical_means[0] == Fraction(3)
    assert census.mean_matches_formula(0)
    assert census.mean_matches_formula(1)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_census_exactness_d2(n):
    arr = enumerate_cones(random_normals(n, 3, seed=n))
    census = arrangement_face_census(arr)
    for j in (1, 2, 3):
        assert census.identity_holds(j)
    for k in (0, 1, 2):
        assert census.mean_matches_formula(k)


def test_census_4d():
    arr = enumerate_cones(random_normals(6, 4, seed=3))
    census = arrangement_face_census(arr)
    for j in (1, 2, 3, 4):
        assert census.identity_holds(j)
    for k in (0, 1, 2, 3):
        assert census.mean_matches_formula(k)


def test_census_rejects_non_pointed():
    arr = enumerate_cones(random_normals(1, 3, seed=4))
    with pytest.raises(NotPointed):
        arrangement_face_census(arr)


def test_sum_f0_incidence_oracle():
    # every ray of a 3-plane arrangement borders exactly 4 of the 8 cells
    normals = random_normals(3, 3, seed=12)
    arr = enumerate_cones(normals)
    total_f0 = sum(int(face_counts_spherical(c)[0]) for c in arr.cells)
    assert total_f0 == 24
    data = ray_sign_data(normals)
    for cell in arr.cells:
        rays = cell_rays(data, *cell_ray_lines(data, cell.signs))
        assert rays.shape[0] == 3  # simplicial cells
