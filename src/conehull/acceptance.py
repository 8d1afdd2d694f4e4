"""The acceptance suite: every gate criterion as a named experiment.

Each criterion yields ResultRecords with an estimate, a standard error, a
target and a pass flag at its stated tolerance, built by one of three
helpers: an exact failure count, an estimate with a k-SE band, or an
energy-test p-value at level 0.01.  Sizes come from harness.PROFILES.
Per-replicate randomness always derives from (seed, criterion, replicate),
so records are reproducible for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .arrangement import (
    arrangement_face_census,
    enumerate_cones,
    schlaefli_count,
    wendel_probability,
)
from .densities import (
    Constants,
    CoordinateRep,
    expected_typical_cell_volume,
    exterior_inverse_power_integral,
    log_eval_phi,
    log_eval_phi_n,
    pc_halfspace,
)
from .errors import TiedFirstCoordinate
from .geometry import Polytope, convex_hull, extreme_rays, polar_polytope, solid_angle
from .harness import (
    PROFILES,
    ExperimentConfig,
    ResultRecord,
    map_replicates,
    register_experiment,
    run_experiment,
    run_pool,
)
from .profiles import sample_Pn_star, sample_Qn_star
from .rng import RngStream, _mix
from .samplers import (
    sample_cauchy_points,
    sample_poisson_Pi,
    sample_s_minus_e,
    sample_schlaefli_cone,
    sample_uniform_sphere_batch,
)
from .stats import Estimate, binomial_estimate, mean_estimate, ratio_estimate, two_sample_energy_test
from .tessellation import feature_array, intensity_gamma, sample_typical_cell, sample_zero_cell

CRITERIA = [
    "cone-count",
    "face-formula",
    "wendel",
    "size-bias",
    "duality-chain",
    "main-theorem",
    "density-convergence",
    "closed-forms",
    "beta-hull-limit",
    "harness-reproducibility",
]


def _seed_for(config: ExperimentConfig, tag: int) -> int:
    return _mix(config.seed, CRITERIA.index(config.experiment) * 1000 + tag)


def _exact_record(config, name, failures: int, total: int, d: int = 2, n=None) -> ResultRecord:
    """A count of failed exact checks; its zero-width band covers 0 only at zero."""
    return _band_record(config, name, Estimate(float(failures), 0.0), 0.0, total, n=n, d=d)


def _band_record(
    config, name, est: Estimate, target, reps: int, n=None, k: float = 4.0, d: int = 2, passed=None
) -> ResultRecord:
    """An estimate with its k-SE band; it passes if the band covers the
    target, unless the caller decides the pass flag."""
    lo, hi = est.ci(k)
    return ResultRecord(
        experiment=name,
        d=d,
        n=n,
        reps=reps,
        seed=config.seed,
        estimate=est.value,
        std_error=est.std_error,
        ci_low=lo,
        ci_high=hi,
        exact_target=target,
        passed=est.covers(target, k) if passed is None else passed,
    )


def _energy_record(config, name, a, b, tag: int, n=None) -> ResultRecord:
    """Energy two-sample test of a against b; passes at p >= 0.01."""
    rng = RngStream(_seed_for(config, tag), 0).generator()
    _, p = two_sample_energy_test(a, b, PROFILES[config.profile]["perms"], rng)
    return ResultRecord(
        experiment=name,
        d=2,
        n=n,
        reps=len(a),
        seed=config.seed,
        estimate=p,
        std_error=None,
        ci_low=None,
        ci_high=None,
        exact_target=0.01,
        passed=p >= 0.01,
    )


# ---------------------------------------------------------------------------
# 1. Cone-count exactness
# ---------------------------------------------------------------------------


@register_experiment("cone-count")
def criterion_cone_count(config: ExperimentConfig) -> list[ResultRecord]:
    seeds = PROFILES[config.profile]["cone_seeds"]
    records = []
    for d in (1, 2, 3):
        failures = 0
        total = 0
        for n in range(1, 11):
            expected = schlaefli_count(n, d + 1)
            for s in range(seeds):
                rng = RngStream(_seed_for(config, 1), d * 10_000 + n * 100 + s).generator()
                normals = sample_uniform_sphere_batch(d, n, rng)
                arr = enumerate_cones(normals)
                total += 1
                if arr.n_cells != expected:
                    failures += 1
        records.append(
            _exact_record(config, "cone-count", failures, total, d=d, n="1-10")
        )
    return records


# ---------------------------------------------------------------------------
# 2. Face-formula exactness
# ---------------------------------------------------------------------------


@register_experiment("face-formula")
def criterion_face_formula(config: ExperimentConfig) -> list[ResultRecord]:
    seeds = PROFILES[config.profile]["face_seeds"]
    failures = 0
    total = 0
    for n in range(3, 9):
        for s in range(seeds):
            rng = RngStream(_seed_for(config, 2), n * 1000 + s).generator()
            normals = sample_uniform_sphere_batch(2, n, rng)
            census = arrangement_face_census(enumerate_cones(normals))
            total += 1
            ok = all(census.mean_matches_formula(k) for k in (0, 1))
            ok = ok and all(census.identity_holds(j) for j in (1, 2, 3))
            if not ok:
                failures += 1
    return [_exact_record(config, "face-formula", failures, total, d=2, n="3-8")]


# ---------------------------------------------------------------------------
# 3. Wendel probabilities
# ---------------------------------------------------------------------------


def _wendel_hits_d1(n: int, reps: int, rng: np.random.Generator) -> int:
    """Count trials where n circle points stay inside a closed half-plane."""
    angles = rng.random((reps, n)) * 2.0 * math.pi
    angles.sort(axis=1)
    gaps = np.diff(angles, axis=1)
    wrap = 2.0 * math.pi - (angles[:, -1] - angles[:, 0])
    max_gap = np.maximum(gaps.max(axis=1) if n > 1 else np.zeros(reps), wrap)
    return int(np.count_nonzero(max_gap >= math.pi))


def _wendel_hits_d2(n: int, reps: int, rng: np.random.Generator, chunk: int = 20_000) -> int:
    """Count trials where n sphere points miss a closed half-space (d = 2)."""
    ii, jj = np.triu_indices(n, k=1)
    hits = 0
    done = 0
    while done < reps:
        k = min(chunk, reps - done)
        pts = rng.standard_normal((k, n, 3))
        pts /= np.linalg.norm(pts, axis=2)[:, :, None]
        vv = np.cross(pts[:, ii], pts[:, jj])  # (k, P, 3)
        dots = np.einsum("kpc,knc->kpn", vv, pts)  # (k, P, n)
        rows = np.arange(len(ii))
        dots[:, rows, ii] = 0.0
        dots[:, rows, jj] = 0.0
        pos_any = np.any(dots > 0, axis=2)
        neg_any = np.any(dots < 0, axis=2)
        supporting = ~pos_any | ~neg_any  # all off-pair on one side
        hits += int(np.count_nonzero(np.any(supporting, axis=1)))
        done += k
    return hits


@register_experiment("wendel")
def criterion_wendel(config: ExperimentConfig) -> list[ResultRecord]:
    reps = PROFILES[config.profile]["wendel_reps"]
    cases = [(1, 3), (2, 6), (2, 4)]
    records = []
    for idx, (d, n) in enumerate(cases):
        rng = RngStream(_seed_for(config, 3), idx).generator()
        if d == 1:
            hits = _wendel_hits_d1(n, reps, rng)
        else:
            hits = _wendel_hits_d2(n, reps, rng)
        target = float(wendel_probability(n, d))
        est = binomial_estimate(hits, reps)
        records.append(_band_record(config, "wendel", est, target, reps, n=n, d=d))
    return records


# ---------------------------------------------------------------------------
# 4. Size-bias identity
# ---------------------------------------------------------------------------


def _size_bias_rep(rng: np.random.Generator, r: int, n: int = 8) -> tuple:
    s = sample_schlaefli_cone(n, 2, rng)
    alpha = solid_angle(s.cone)
    f0 = s.rays.shape[0]
    t = sample_s_minus_e(n, 2, rng)
    alpha_t = solid_angle(t.cone)
    f0_t = extreme_rays(t.cone).shape[0]
    w = schlaefli_count(n, 3) * alpha
    return (w, alpha * w, f0 * w, 1.0, alpha_t, float(f0_t))


@register_experiment("size-bias")
def criterion_size_bias(config: ExperimentConfig) -> list[ResultRecord]:
    reps = PROFILES[config.profile]["size_bias_reps"]
    records = []
    for n in (4, 8, 16):
        rows = map_replicates(
            partial(_size_bias_rep, n=n), reps, _seed_for(config, 4) + n, config.workers
        )
        arr = np.asarray(rows)
        for col, fname in ((0, "one"), (1, "alpha"), (2, "f0")):
            lhs = mean_estimate(arr[:, col])
            rhs = mean_estimate(arr[:, col + 3])
            diff = Estimate(lhs.value - rhs.value, math.hypot(lhs.std_error, rhs.std_error))
            records.append(_band_record(config, f"size-bias[f={fname}]", diff, 0.0, reps, n=n))
    return records


# ---------------------------------------------------------------------------
# 5. Duality chain
# ---------------------------------------------------------------------------


def _pi_hull(rng: np.random.Generator) -> Polytope:
    """Hull of one planar Poisson hull process draw, redrawn on a tie."""
    while True:
        pts = sample_poisson_Pi(2, rng)
        try:
            return convex_hull(pts, 2)
        except TiedFirstCoordinate:  # pragma: no cover - probability 0
            continue


def _polar_pi_feature_rep(rng: np.random.Generator, r: int) -> np.ndarray:
    return feature_array(polar_polytope(_pi_hull(rng)))


def _pn_feature_rep(rng: np.random.Generator, r: int, n: int = 10_000) -> np.ndarray:
    return feature_array(sample_Pn_star(n, 2, rng).polytope)


def _zero_feature_rep(rng: np.random.Generator, r: int, gamma: float = 0.5) -> np.ndarray:
    return feature_array(sample_zero_cell(2, gamma, rng).polytope)


@register_experiment("duality-chain")
def criterion_duality_chain(config: ExperimentConfig) -> list[ResultRecord]:
    knobs = PROFILES[config.profile]
    reps = knobs["dual_reps"]
    gamma = intensity_gamma(2)
    pn = np.array(
        map_replicates(partial(_pn_feature_rep, n=knobs["pn_n"]), reps, _seed_for(config, 51), config.workers)
    )
    pi_a = np.array(map_replicates(_polar_pi_feature_rep, reps, _seed_for(config, 52), config.workers))
    z0 = np.array(
        map_replicates(partial(_zero_feature_rep, gamma=gamma), reps, _seed_for(config, 53), config.workers)
    )
    pi_b = np.array(map_replicates(_polar_pi_feature_rep, reps, _seed_for(config, 54), config.workers))
    return [
        _energy_record(config, "duality-chain[pn-vs-polar-pi]", pn, pi_a, 55, n=knobs["pn_n"]),
        _energy_record(config, "duality-chain[zero-vs-polar-pi]", z0, pi_b, 56),
    ]


# ---------------------------------------------------------------------------
# 6. Main theorem at finite n
# ---------------------------------------------------------------------------


def _qn_feature_rep(rng: np.random.Generator, r: int, n: int = 256) -> np.ndarray:
    return feature_array(sample_Qn_star(n, 2, rng).polytope)


def _typical_importance_rep(rng: np.random.Generator, r: int, gamma: float = 0.5) -> tuple:
    """f0 and the 1/vol weight of one zero cell: all that its records read."""
    w = sample_typical_cell(2, gamma, rng, method="importance")
    return (float(w.polytope.n_vertices), w.weight)


def _window_feature_rep(rng: np.random.Generator, r: int, gamma: float = 0.5, R: float = 45.0) -> np.ndarray:
    w = sample_typical_cell(2, gamma, rng, method="window", window_radius=R)
    return feature_array(w.polytope)


@register_experiment("main-theorem")
def criterion_main_theorem(config: ExperimentConfig) -> list[ResultRecord]:
    knobs = PROFILES[config.profile]
    gamma = intensity_gamma(2)
    n = knobs["qn_n"]
    qn = np.array(
        map_replicates(partial(_qn_feature_rep, n=n), knobs["qn_reps"], _seed_for(config, 61), config.workers)
    )
    typ = np.array(
        map_replicates(
            partial(_typical_importance_rep, gamma=gamma),
            knobs["typ_reps"],
            _seed_for(config, 62),
            config.workers,
        )
    )
    weights = typ[:, 1]
    qn_f0 = mean_estimate(qn[:, 1])
    records = [_band_record(config, "main-theorem[qn-mean-f0]", qn_f0, 4.0, knobs["qn_reps"], n=n)]
    # importance-weighted typical-cell moments (self-normalized)
    ratio_f0 = ratio_estimate(typ[:, 0] * weights, weights)
    records.append(_band_record(config, "main-theorem[typical-mean-f0]", ratio_f0, 4.0, knobs["typ_reps"]))
    # E vol(Z) = 1 / mean(1/vol(Z_0)); pass within 3 SE of c_2
    inv = mean_estimate(weights)
    vol_est = Estimate(value=1.0 / inv.value, std_error=inv.std_error / inv.value**2)
    c2 = expected_typical_cell_volume(2)
    records.append(
        _band_record(config, "main-theorem[typical-mean-area]", vol_est, c2, knobs["typ_reps"], k=3)
    )
    # distributional test against unweighted window-method typical cells
    m = min(knobs["energy_m"], len(qn))
    win = np.array(
        map_replicates(
            partial(_window_feature_rep, gamma=gamma, R=knobs["window_R"]),
            m,
            _seed_for(config, 63),
            config.workers,
        )
    )
    records.append(_energy_record(config, "main-theorem[joint-two-sample]", qn[:m, :4], win, 64, n=n))
    return records


# ---------------------------------------------------------------------------
# 7. Density convergence
# ---------------------------------------------------------------------------


def _rotated_square_rep() -> CoordinateRep:
    theta = 0.2
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    return CoordinateRep(2, corners @ rot.T)


def _l1_rep(rng: np.random.Generator, r: int, ns: tuple = (100, 1000, 10_000)) -> tuple:
    rep = CoordinateRep(2, _pi_hull(rng).vertices)
    base = log_eval_phi(rep)
    return tuple(abs(math.exp(log_eval_phi_n(rep, n) - base) - 1.0) for n in ns)


@register_experiment("density-convergence")
def criterion_density_convergence(config: ExperimentConfig) -> list[ResultRecord]:
    reps = PROFILES[config.profile]["l1_reps"]
    rep = _rotated_square_rep()
    err = abs(math.exp(log_eval_phi_n(rep, 100_000) - log_eval_phi(rep)) - 1.0)
    name = "density-convergence[pointwise]"
    records = [_band_record(config, name, Estimate(err, 0.0), 0.01, 1, n=100_000, passed=err <= 0.01)]
    ns = (100, 1000, 10_000)
    rows = np.array(map_replicates(partial(_l1_rep, ns=ns), reps, _seed_for(config, 7), config.workers))
    ests = [mean_estimate(rows[:, i]) for i in range(len(ns))]
    decreasing = all(ests[i].value > ests[i + 1].value for i in range(len(ns) - 1))
    for est, n in zip(ests, ns):
        records.append(
            _band_record(config, "density-convergence[l1]", est, None, reps, n=n, passed=decreasing)
        )
    return records


# ---------------------------------------------------------------------------
# 8. Closed-form oracles
# ---------------------------------------------------------------------------


@register_experiment("closed-forms")
def criterion_closed_forms(config: ExperimentConfig) -> list[ResultRecord]:
    records = []

    def check(name, value, target, tol):
        passed = abs(value - target) <= tol
        records.append(
            _band_record(config, f"closed-forms[{name}]", Estimate(value, 0.0), target, 1, passed=passed)
        )

    # regular m-gons of inradius r: each edge adds 2 sin(pi/m) / r
    for m, r in ((3, 0.5), (64, 1.0), (1024, 2.0)):
        ang = 2.0 * math.pi * np.arange(m) / m
        ngon = Polytope(2, r / math.cos(math.pi / m) * np.column_stack([np.cos(ang), np.sin(ang)]))
        target = 2.0 * m * math.sin(math.pi / m) / r
        check(f"ngon-exterior-m={m}-r={r}", exterior_inverse_power_integral(ngon, 2), target, 1e-9)
    square = Polytope(2, np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float))
    check("square-exterior", exterior_inverse_power_integral(square, 2), 4.0 * math.sqrt(2.0), 1e-9)
    check("pc-half-space", pc_halfspace(0.0), 0.5, 0.0)
    worst = 0.0
    for d in range(1, 11):
        worst = max(worst, max(Constants.for_dim(d).identity_residuals().values()))
    check("constants-identities-d<=10", worst, 0.0, 1e-12)
    return records


# ---------------------------------------------------------------------------
# 9. Rescaled heavy-tailed hulls vs the Poisson hull
# ---------------------------------------------------------------------------


def _beta_f0_rep(rng: np.random.Generator, r: int, n: int = 10_000) -> float:
    while True:
        pts = sample_cauchy_points(2, n, rng)
        try:
            return float(convex_hull(pts, 2).n_vertices)
        except TiedFirstCoordinate:  # pragma: no cover
            continue


def _pi_f0_rep(rng: np.random.Generator, r: int) -> float:
    return float(_pi_hull(rng).n_vertices)


@register_experiment("beta-hull-limit")
def criterion_beta_hull_limit(config: ExperimentConfig) -> list[ResultRecord]:
    knobs = PROFILES[config.profile]
    reps = knobs["beta_reps"]
    a = np.array(
        map_replicates(partial(_beta_f0_rep, n=knobs["beta_n"]), reps, _seed_for(config, 91), config.workers)
    )
    b = np.array(map_replicates(_pi_f0_rep, reps, _seed_for(config, 92), config.workers))
    return [_energy_record(config, "beta-hull-limit", a, b, 93, n=knobs["beta_n"])]


# ---------------------------------------------------------------------------
# 10. Harness reproducibility
# ---------------------------------------------------------------------------


def _repro_rep(rng: np.random.Generator, r: int) -> float:
    return float(rng.standard_normal() + sample_schlaefli_cone(4, 2, rng).rays.shape[0])


@register_experiment("harness-reproducibility")
def criterion_reproducibility(config: ExperimentConfig) -> list[ResultRecord]:
    reps = PROFILES[config.profile]["repro_reps"]
    seed = _seed_for(config, 10)
    serial = map_replicates(_repro_rep, reps, seed, workers=1)
    parallel = map_replicates(_repro_rep, reps, seed, workers=2, block=16)
    return [_exact_record(config, "harness-reproducibility", int(serial != parallel), reps)]


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_all(
    seed: int, workers: int = 1, profile: str = "full", criteria: list[str] | None = None
) -> list[ResultRecord]:
    """Records of the named criteria (default: all), in the order named.

    At workers >= 2 every criterion runs in its own thread, and all of them
    map their replicates on one process pool that lives as long as the run.
    """
    names = criteria if criteria is not None else CRITERIA
    configs = [ExperimentConfig(name, seed, workers, profile) for name in names]
    if workers <= 1:
        return [r for c in configs for r in run_experiment(c)]
    with run_pool(workers), ThreadPoolExecutor(max_workers=max(len(configs), 1)) as threads:
        futures = [threads.submit(run_experiment, c) for c in configs]
        return [r for f in futures for r in f.result()]


def all_passed(records: list[ResultRecord]) -> bool:
    return all(r.passed is not False for r in records)


def format_record_line(rec: ResultRecord) -> str:
    status = "PASS" if rec.passed else ("FAIL" if rec.passed is not None else "INFO")
    target = f" target={rec.exact_target:.6g}" if rec.exact_target is not None else ""
    se = f" se={rec.std_error:.3g}" if rec.std_error else ""
    n = f" n={rec.n}" if rec.n is not None else ""
    return f"[{status}] {rec.experiment}{n}: estimate={rec.estimate:.6g}{se}{target}"
