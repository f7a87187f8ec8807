"""Single-step Tukey HSD: simultaneous difference CIs and rank CIs.

Every null hypothesis "mu_i = mu_j" is tested against one common critical
value, the Monte-Carlo (1-alpha)-quantile of the standardized pairwise range.
Counting non-rejections around each sorted observation turns the pairwise
decisions into simultaneous confidence intervals for the ranks.
"""

from dataclasses import dataclass

import numpy as np

from .core import CenterSample, SimultaneousRankCIs, rank_bounds_from_rejections
from .mcquantile import McPool, studentized_range_quantile

__all__ = ["DifferenceCI", "tukey_difference_cis", "tukey_rank_cis", "tukey_rejected_pairs"]


@dataclass(frozen=True)
class DifferenceCI:
    """Simultaneous confidence interval for the difference mu_i - mu_j."""

    i: int
    j: int
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"difference CI has lower > upper: {self}")


def _check_pool(sample: CenterSample, pool: McPool) -> None:
    if not pool.matches_sigma(sample.sigma):
        raise ValueError("pool was not built with the sample's sigma vector")


def _statistic_matrix(sample: CenterSample) -> np.ndarray:
    """|y_i - y_j| / sqrt(sigma_i^2 + sigma_j^2) for all i, j."""
    y = sample.y
    sig2 = sample.sigma ** 2
    with np.errstate(over="ignore"):  # an inf exceeds every q: its pair is rightly rejected
        return np.abs(y[:, None] - y[None, :]) / np.sqrt(sig2[:, None] + sig2[None, :])


def tukey_difference_cis(sample: CenterSample, alpha: float, pool: McPool) -> list[DifferenceCI]:
    """Simultaneous CIs ``y_i - y_j +- sqrt(sigma_i^2 + sigma_j^2) * q`` for all i != j.

    The list covers every ordered pair in lexicographic order; the interval
    for (j, i) is the negation of the one for (i, j), reversed.
    """
    _check_pool(sample, pool)
    n = sample.n
    if n < 2:
        return []
    q = studentized_range_quantile(pool, alpha)
    y = sample.y
    sig2 = sample.sigma ** 2
    out = []
    with np.errstate(over="ignore"):  # a difference past the float range is infinite
        for i in range(n):
            for j in range(n):
                if i != j:
                    diff, half = y[i] - y[j], np.sqrt(sig2[i] + sig2[j]) * q
                    out.append(DifferenceCI(i, j, float(diff - half), float(diff + half)))
    return out


def tukey_rejected_pairs(sample: CenterSample, alpha: float, pool: McPool) -> np.ndarray:
    """Positive pairs (i, j), i > j, whose standardized difference exceeds q.

    The pairs come as a read-only, strictly lower-triangular ``(n, n)``
    boolean mask over the sorted sample.  Rejection is strict
    (statistic > q); a statistic exactly equal to the critical value is not
    rejected.
    """
    _check_pool(sample, pool)
    if sample.n < 2:
        rejected = np.zeros((1, 1), dtype=bool)
    else:
        q = studentized_range_quantile(pool, alpha)
        rejected = np.tril(_statistic_matrix(sample) > q, -1)
    rejected.setflags(write=False)
    return rejected


def tukey_rank_cis(sample: CenterSample, alpha: float, pool: McPool) -> SimultaneousRankCIs:
    """Simultaneous rank CIs from single-step Tukey HSD.

    For sorted index i (1-based rank i+1), the lower bound is 1 plus the
    number of centers below i whose difference from i is rejected, and the
    upper bound is n minus the rejected count above i.  The counting handles
    non-contiguous rejection patterns, which can occur with unequal sigmas.
    """
    intervals = rank_bounds_from_rejections(tukey_rejected_pairs(sample, alpha, pool))
    return SimultaneousRankCIs(tuple(intervals), alpha, "tukey")
