"""Estimation and test statistics for the experiment harness.

Normal-approximation confidence intervals with a conservative k = 4
standard-error pass band, and an energy-distance permutation test for
multivariate feature samples (consistent against general alternatives,
exchangeable under the null by construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

DEFAULT_SE_BAND = 4.0


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float

    def ci(self, k: float = DEFAULT_SE_BAND) -> tuple[float, float]:
        return self.value - k * self.std_error, self.value + k * self.std_error

    def covers(self, target: float, k: float = DEFAULT_SE_BAND) -> bool:
        return abs(self.value - target) <= k * self.std_error


def mean_estimate(values) -> Estimate:
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    se = float(x.std(ddof=1)) / math.sqrt(x.size) if x.size > 1 else 0.0
    return Estimate(value=float(x.mean()), std_error=se)


def binomial_estimate(hits: int, trials: int) -> Estimate:
    p = hits / trials
    se = math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)
    return Estimate(value=p, std_error=se)


def ratio_estimate(numerators, denominators) -> Estimate:
    """Self-normalized ratio E[a]/E[b] with a delta-method standard error."""
    a = np.asarray(numerators, dtype=float)
    b = np.asarray(denominators, dtype=float)
    n = a.size
    ma, mb = float(a.mean()), float(b.mean())
    r = ma / mb
    resid = (a - r * b) / mb
    se = float(resid.std(ddof=1)) / math.sqrt(n)
    return Estimate(value=r, std_error=se)


def _energy_from_membership(dist: np.ndarray, row_sums: np.ndarray, z: np.ndarray,
                            nx: int, ny: int) -> float:
    """Energy statistic from a 0/1 membership vector via one mat-vec."""
    dz = dist @ z
    s_aa = float(z @ dz)
    s_ab = float(z @ row_sums) - s_aa
    s_bb = float(row_sums.sum()) - 2.0 * float(z @ row_sums) + s_aa
    term_ab = s_ab / (nx * ny)
    term_aa = s_aa / (nx * (nx - 1)) if nx > 1 else 0.0
    term_bb = s_bb / (ny * (ny - 1)) if ny > 1 else 0.0
    return 2.0 * term_ab - term_aa - term_bb


def two_sample_energy_test(
    features_a,
    features_b,
    permutations: int,
    rng: np.random.Generator,
    standardize: bool = True,
) -> tuple[float, float]:
    """Energy-distance permutation test; returns (statistic, p-value).

    Features are standardized by pooled moments (a permutation-invariant
    preprocessing, so exchangeability under the null is preserved).  The
    p-value uses the add-one convention and is valid at finite permutations.
    """
    x = np.asarray(features_a, dtype=float)
    y = np.asarray(features_b, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    if x.shape[1] != y.shape[1]:
        raise ValueError("feature dimensions differ")
    if standardize:
        pooled = np.vstack([x, y])
        mu = pooled.mean(axis=0)
        sd = pooled.std(axis=0)
        sd[sd <= 1e-300] = 1.0
        x = (x - mu) / sd
        y = (y - mu) / sd
    nx, ny = x.shape[0], y.shape[0]
    n = nx + ny
    dist = squareform(pdist(np.vstack([x, y])))
    row_sums = dist.sum(axis=1)
    z = np.zeros(n)
    z[:nx] = 1.0
    observed = _energy_from_membership(dist, row_sums, z, nx, ny)
    count = 0
    for _ in range(permutations):
        rng.shuffle(z)
        if _energy_from_membership(dist, row_sums, z, nx, ny) >= observed:
            count += 1
    p_value = (count + 1) / (permutations + 1)
    return observed, p_value
