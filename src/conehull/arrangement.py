"""Conical tessellations: enumerate the cells cut out of R^D by n linear
hyperplanes and verify their exact combinatorics.

Cells are identified with sign vectors.  Enumeration goes through the
arrangement's rays: every ray of a generic arrangement with n >= D
hyperplanes lies on exactly D-1 of them, and locally around a ray every
sign choice on those D-1 hyperplanes is realized by a cell.  This yields
each cell once per incident ray, so deduplication recovers the cell list
without any feasibility programming.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateInput, NonGeneric, NotPointed
from .geometry import (
    EPS_RANK,
    EPS_SIGN,
    PolyhedralCone,
    _cache_rays,
    _ray_lines,
    face_counts_spherical,
)

# Most hyperplanes enumerate_cones accepts.  The uniform-cell sampler only
# enumerates with n < D planes, where cells contain a line; otherwise it
# walks one cell, at any n.
ENUMERATION_LIMIT = 64


def schlaefli_count(n: int, dim: int) -> int:
    """Number of cells cut out of R^dim by n generic linear hyperplanes.

    Equals 2 * sum_{m=0}^{dim-1} binom(n-1, m); binomials with too-large
    lower index vanish.
    """
    if n < 1 or dim < 1:
        raise ValueError("need n >= 1 and dim >= 1")
    return 2 * sum(math.comb(n - 1, m) for m in range(dim))


def wendel_probability(n: int, d: int) -> Fraction:
    """P[n uniform sphere points in R^{d+1} do not positively span everything]."""
    return Fraction(schlaefli_count(n, d + 1), 2**n)


def expected_spherical_face_count(n: int, d: int, k: int) -> Fraction:
    """Mean number of k-faces of a uniformly chosen spherical cell, exact.

    This is also the deterministic per-realization average for generic
    hyperplanes, since all face counts of a generic arrangement are
    constant.
    """
    if not 0 <= k <= d:
        raise ValueError("k must satisfy 0 <= k <= d")
    if n < d + 1:
        raise ValueError("per-cell face counts need n >= d+1 (pointed cells)")
    num = 2 ** (d - k) * math.comb(n, d - k) * schlaefli_count(n - d + k, k + 1)
    return Fraction(num, schlaefli_count(n, d + 1))


# ---------------------------------------------------------------------------
# Ray machinery
# ---------------------------------------------------------------------------


@dataclass
class RaySignData:
    """All (D-1)-subset ray lines of an arrangement with their sign patterns.

    ``signs[l, j]`` is the sign of <normal_j, v_l> for the canonical
    orientation v_l of line l, with the D-1 incident entries set to 0.
    """

    subsets: np.ndarray  # (L, D-1) int indices
    directions: np.ndarray  # (L, D) unit vectors
    signs: np.ndarray  # (L, n) int8, zeros exactly at incidences
    n: int
    dim: int


def ray_sign_data(normals: np.ndarray) -> RaySignData:
    normals = np.asarray(normals, dtype=float)
    n, D = normals.shape
    if n < D - 1:
        raise DegenerateInput("too few hyperplanes for any ray line")
    subsets, V, dots = _ray_lines(normals, normals)
    off = np.count_nonzero(dots > EPS_SIGN, axis=1) + np.count_nonzero(dots < -EPS_SIGN, axis=1)
    if np.any(off < n - D + 1):
        raise NonGeneric("a ray line lies on more hyperplanes than dimension allows")
    signs = np.sign(dots, out=dots).astype(np.int8)
    return RaySignData(subsets=subsets, directions=V, signs=signs, n=n, dim=D)


def fast_ray_data(normals: np.ndarray) -> RaySignData:
    # Nothing in the package calls this.  It stays only because the
    # benchmark's tracer (perfbench/workloads.py, TRACED) wraps it by name,
    # and as a function, not an alias: the tracer patches by object
    # identity, so an alias would count every ray_sign_data call here.
    return ray_sign_data(normals)


def _cell_sign_vectors(data: RaySignData) -> np.ndarray:
    """All distinct cell sign vectors of a generic arrangement, n >= D."""
    D = data.dim
    eps_patterns = np.array(list(itertools.product((-1, 1), repeat=D - 1)), dtype=np.int8)
    blocks = []
    for orient in (1, -1):
        base = orient * data.signs  # (L, n)
        for eps in eps_patterns:
            block = base.copy()
            rows = np.arange(len(data.subsets))
            for j in range(D - 1):
                block[rows, data.subsets[:, j]] = eps[j]
            blocks.append(block)
    allv = np.concatenate(blocks, axis=0)
    return np.unique(allv, axis=0)


def cell_ray_lines(data: RaySignData, cell_signs) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the ray lines whose canonical (pos) or reversed (neg)
    direction is an extreme ray of the cell with the given +-1 signs.

    Each line has exactly n - D + 1 nonzero signs; it carries a ray of the
    cell iff all of them agree with the cell's signs, up to orientation.
    """
    agree = data.signs @ np.asarray(cell_signs, dtype=np.int64)
    off = data.n - data.dim + 1
    return agree == off, agree == -off


def cell_rays(data: RaySignData, pos, neg) -> np.ndarray:
    """Extreme rays of a cell from its ray-line masks (see cell_ray_lines)."""
    return np.concatenate([data.directions[pos], -data.directions[neg]], axis=0)


def cell_incidence(data: RaySignData, pos, neg) -> tuple[tuple[int, ...], ...]:
    """The hyperplanes through each ray of cell_rays(data, pos, neg), in order."""
    return tuple(map(tuple, np.concatenate([data.subsets[pos], data.subsets[neg]]).tolist()))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@dataclass
class ConicalArrangement:
    """All cells of the conical tessellation generated by the hyperplanes."""

    normals: np.ndarray  # (n, D) unit rows
    cells: list[PolyhedralCone]

    @property
    def n_hyperplanes(self) -> int:
        return self.normals.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.normals.shape[1]

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def enumerate_cones(normals) -> ConicalArrangement:
    """Enumerate every cell of the arrangement of the given hyperplanes.

    Genericity is checked, not assumed: dependent subsets, rays on extra
    hyperplanes, and any mismatch with the Steiner-Schlaefli cell count
    raise NonGeneric.
    """
    normals = np.asarray(normals, dtype=float)
    if normals.ndim != 2:
        raise DegenerateInput("normals must have shape (n, D)")
    n, D = normals.shape
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise DegenerateInput(f"enumeration supports 1 <= n <= {ENUMERATION_LIMIT}")
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms <= EPS_SIGN):
        raise DegenerateInput("zero normal")
    normals = normals / norms[:, None]

    if n <= D - 1:
        if int(np.linalg.matrix_rank(normals, tol=EPS_RANK)) < n:
            raise NonGeneric("hyperplane normals are linearly dependent")
        sign_vectors = np.array(
            list(itertools.product((-1, 1), repeat=n)), dtype=np.int8
        )
        data = None
    else:
        data = ray_sign_data(normals)
        sign_vectors = _cell_sign_vectors(data)

    expected = schlaefli_count(n, D)
    if len(sign_vectors) != expected:
        raise NonGeneric(
            f"enumerated {len(sign_vectors)} cells, expected {expected}; input is degenerate"
        )

    cells = []
    for s in sign_vectors:
        cone = PolyhedralCone(normals, np.asarray(s, dtype=int))
        if data is not None and n >= D:
            pos, neg = cell_ray_lines(data, s)
            _cache_rays(cone, cell_rays(data, pos, neg), cell_incidence(data, pos, neg))
        cells.append(cone)
    return ConicalArrangement(normals=normals, cells=cells)


# ---------------------------------------------------------------------------
# Face census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceCensus:
    n: int
    ambient_dim: int
    arrangement_faces: dict  # j -> N_j, number of j-dim faces of the arrangement
    cell_face_sums: dict  # j -> sum over cells of (number of j-dim cone faces)
    spherical_means: dict  # k -> Fraction, mean spherical f_k over cells

    def identity_holds(self, j: int) -> bool:
        return self.cell_face_sums[j] == 2 ** (self.ambient_dim - j) * self.arrangement_faces[j]

    def mean_matches_formula(self, k: int) -> bool:
        d = self.ambient_dim - 1
        return self.spherical_means[k] == expected_spherical_face_count(self.n, d, k)


def _orthonormal_nullspace(rows: np.ndarray, D: int) -> np.ndarray:
    """Orthonormal basis (rows) of the common null space of the given rows."""
    if rows.shape[0] == 0:
        return np.eye(D)
    _, sv, vt = np.linalg.svd(rows)
    rank = int(np.sum(sv > EPS_RANK))
    if rank < rows.shape[0]:
        raise NonGeneric("dependent hyperplane subset")
    return vt[rank:]


def _count_induced_cells(normals: np.ndarray) -> int:
    """Number of cells of a central arrangement, by geometric enumeration."""
    n, D = normals.shape
    if D == 1:
        return 2
    if n == 0:
        return 1
    if n <= D - 1:
        if int(np.linalg.matrix_rank(normals, tol=EPS_RANK)) < n:
            raise NonGeneric("dependent normals in induced arrangement")
        return 2**n
    data = ray_sign_data(normals)
    return len(_cell_sign_vectors(data))


def arrangement_face_census(arr: ConicalArrangement) -> FaceCensus:
    """Count faces of the arrangement and of its cells, with exact identities.

    For each dimension j the sum of per-cell j-face counts must equal
    2^(D-j) * N_j, and the per-arrangement mean of spherical face counts
    must match the closed-form expectation exactly.
    """
    n = arr.n_hyperplanes
    D = arr.ambient_dim
    d = D - 1
    if D not in (3, 4):
        raise DegenerateInput("face census supports ambient dimension 3 or 4")
    if n < D:
        raise NotPointed("census needs pointed cells (n >= ambient dimension)")

    faces: dict[int, int] = {}
    for j in range(1, D + 1):
        if j == D:
            faces[j] = arr.n_cells
            continue
        size = D - j
        total = 0
        for T in itertools.combinations(range(n), size):
            basis = _orthonormal_nullspace(arr.normals[list(T)], D)
            others = [i for i in range(n) if i not in T]
            reduced = arr.normals[others] @ basis.T
            rnorm = np.linalg.norm(reduced, axis=1)
            if np.any(rnorm <= EPS_RANK):
                raise NonGeneric("hyperplane contains an intersection subspace")
            total += _count_induced_cells(reduced / rnorm[:, None])
        faces[j] = total

    sums: dict[int, int] = {j: 0 for j in range(1, D + 1)}
    sph_sums: dict[int, int] = {k: 0 for k in range(d + 1)}
    for cell in arr.cells:
        f = face_counts_spherical(cell)
        for k in range(d + 1):
            sph_sums[k] += int(f[k])
            sums[k + 1] += int(f[k])
    means = {k: Fraction(sph_sums[k], arr.n_cells) for k in range(d + 1)}
    return FaceCensus(
        n=n,
        ambient_dim=D,
        arrangement_faces=faces,
        cell_face_sums=sums,
        spherical_means=means,
    )
