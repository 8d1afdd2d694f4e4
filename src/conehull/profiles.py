"""Tangent-plane profiles of cones and their rescaled conditional samplers.

A cone containing a direction v is cut with the affine tangent plane of the
sphere at v and mapped to R^d by a fixed isometry of that plane.  The frame
at v comes from one Householder reflection exchanging v and the south pole,
so the isometry and the rotation used in the reweighting identity are the
same map.  Profiles of cones not pointed toward v are unbounded; the
conditional samplers implement the conditioning by rejection and report the
bounded fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, IterationCap, OriginNotInterior, SingularFrame
from .geometry import (
    EPS_SIGN,
    PolyhedralCone,
    Polytope,
    contains,
    convex_hull,
    extreme_rays,
    is_pointed,
    polar_polytope,
    unit,
)
from .samplers import (
    MAX_GENERICITY_RETRIES,
    ConeSample,
    pole,
    sample_s_minus_e,
    sample_schlaefli_cone,
    sample_uniform_in_cell,
)

FRAME_TOL = 1e-12


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal frame of the tangent plane at a sphere point.

    ``basis`` rows span base-perp; the associated orthogonal map (the same
    Householder reflection) carries base to the south pole, so profiles
    computed in this frame agree exactly with profiles of the rotated cone
    at the pole.
    """

    base: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reflection_matrix(self) -> np.ndarray:
        D = len(self.base)
        e = pole(D)
        w = self.base + e
        nw2 = float(w @ w)
        if nw2 <= FRAME_TOL:
            return np.eye(D)
        return np.eye(D) - 2.0 * np.outer(w, w) / nw2


def tangent_frame(v) -> TangentFrame:
    """Frame at v from the Householder reflection exchanging v and -e.

    The reflection is involutive and deterministic in v; the construction
    is singular only at v = e, which is excluded.
    """
    v = unit(np.asarray(v, dtype=float))
    D = len(v)
    e = pole(D)
    if float(np.linalg.norm(v - e)) <= 1e-9:
        raise SingularFrame("tangent frame is undefined at the north pole")
    ref = np.eye(D)
    w = v + e
    nw2 = float(w @ w)
    if nw2 > FRAME_TOL:
        ref = np.eye(D) - 2.0 * np.outer(w, w) / nw2
    basis = ref[:, :-1].T  # images of the reference basis of (-e)-perp
    return TangentFrame(base=v, basis=basis)


@dataclass(frozen=True)
class Profile:
    """Profile of a cone at a direction, scaled; unbounded is a value."""

    source_kind: str
    polytope: Polytope | None
    scale: float

    @property
    def bounded(self) -> bool:
        return self.polytope is not None


def profile(cone: PolyhedralCone, v, scale: float = 1.0, kind: str = "cone") -> Profile:
    """Cut the cone with the tangent plane at v and map it to R^d, scaled.

    Bounded exactly when the cone is pointed and every extreme ray r has
    <r, v> > 0; then the vertices are the scaled frame images of r/<r, v>.
    """
    v = unit(np.asarray(v, dtype=float))
    if not contains(cone, v):
        raise DegenerateInput("profile base direction must lie in the cone")
    if not is_pointed(cone):
        return Profile(source_kind=kind, polytope=None, scale=scale)
    rays = extreme_rays(cone)
    dots = rays @ v
    if np.any(dots <= EPS_SIGN):
        return Profile(source_kind=kind, polytope=None, scale=scale)
    frame = tangent_frame(v)
    pts = (rays / dots[:, None] - v) @ frame.basis.T * scale
    return Profile(source_kind=kind, polytope=Polytope(frame.dim, pts), scale=scale)


def cell_profile(normals: np.ndarray, signs: np.ndarray, v, scale: float = 1.0) -> Polytope | None:
    """Profile of the arrangement cell containing v, by polytope duality.

    In tangent coordinates the cell reads {y : <q_i, y> <= 1} with
    q_i = -(basis w_i)/<w_i, v>, i.e. the polar of conv(q).  Bounded iff the
    origin is interior to that hull; this avoids ray enumeration entirely
    and stays cheap for thousands of hyperplanes.
    """
    v = unit(np.asarray(v, dtype=float))
    frame = tangent_frame(v)
    w = signs[:, None] * normals
    dots = w @ v
    if np.any(dots <= EPS_SIGN):
        # v on (or beyond) a boundary: not strictly interior
        raise DegenerateInput("base direction must be strictly interior to the cell")
    q = -(w @ frame.basis.T) / dots[:, None]
    try:
        return polar_polytope(convex_hull(q, frame.dim)).scaled(scale)
    except (DegenerateInput, OriginNotInterior):
        return None


@dataclass
class ProfileSample:
    polytope: Polytope
    source: ConeSample
    attempts: int
    bounded_fraction: float


def sample_Pn_star(
    n: int, d: int, rng: np.random.Generator, max_attempts: int = 10_000
) -> ProfileSample:
    """Rescaled profile of the pole cell, conditioned to be compact.

    Samples the cell containing -e, extracts its profile at -e with scale n,
    and rejects unbounded outcomes; the rejection rate vanishes as n grows.
    """
    e = pole(d + 1)
    for attempt in range(1, max_attempts + 1):
        sample = sample_s_minus_e(n, d, rng)
        cone = sample.cone
        assert cone is not None
        poly = cell_profile(cone.normals, cone.signs, -e, scale=float(n))
        if poly is not None:
            return ProfileSample(
                polytope=poly,
                source=sample,
                attempts=attempt,
                bounded_fraction=1.0 / attempt,
            )
    raise IterationCap(f"no compact pole-cell profile in {max_attempts} attempts")


def sample_Qn_star(
    n: int, d: int, rng: np.random.Generator, max_attempts: int = 10_000
) -> ProfileSample:
    """Rescaled profile of the uniformly chosen cell at a uniform interior
    direction, conditioned to be compact."""
    for attempt in range(1, max_attempts + 1):
        sample = sample_schlaefli_cone(n, d, rng)
        cone = sample.cone
        assert cone is not None
        if not is_pointed(cone):
            continue
        for _ in range(MAX_GENERICITY_RETRIES):  # rounding can put u on a tiny cell's boundary
            u = sample_uniform_in_cell(cone, rng)
            if np.min(cone.effective_normals @ u) > EPS_SIGN:
                break
        else:
            continue
        poly = cell_profile(cone.normals, cone.signs, u, scale=float(n))
        if poly is not None:
            return ProfileSample(
                polytope=poly,
                source=sample,
                attempts=attempt,
                bounded_fraction=1.0 / attempt,
            )
    raise IterationCap(f"no compact profile in {max_attempts} attempts")


def rotate_to_pole(cone: PolyhedralCone, v) -> PolyhedralCone:
    """Image of the cone under the frame reflection carrying v to -e."""
    ref = tangent_frame(v).reflection_matrix()
    return PolyhedralCone(cone.normals @ ref.T, cone.signs)
