"""Sequential-rejective variant of Tukey's HSD.

The first round tests every positive pair (i above j in the sorted sample)
against the full studentized-range quantile.  After each batch of rejections
the critical value is recomputed on the same frozen pool, restricted to the
unrejected positive pairs plus all negative pairs; the loop stops at the
first round that rejects nothing.  Keeping the negatives in the maximum is
what anchors each interval to its empirical rank, and reusing one pool makes
the critical values non-increasing by construction rather than on average.
"""

from dataclasses import dataclass

import numpy as np

from .core import CenterSample, PairSet, RankInterval, SimultaneousRankCIs
from .mcquantile import (
    McPool,
    empirical_quantile,
    negative_row_maxima,
    pair_row_maxima,
    studentized_range_quantile,
)

__all__ = ["SeqStep", "SeqTrace", "sequential_tukey", "rank_bounds_from_rejections"]


@dataclass(frozen=True)
class SeqStep:
    """One testing round: the critical value used, what it newly rejected."""

    critical_value: float
    newly_rejected: PairSet
    rejected_total: PairSet


@dataclass(frozen=True)
class SeqTrace:
    """Per-round history of the sequential procedure.

    Critical values never increase along the trace and the cumulative
    rejected set only grows; both facts are exact because every quantile
    comes from the same pool.
    """

    steps: tuple[SeqStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def critical_values(self) -> list[float]:
        return [s.critical_value for s in self.steps]

    @property
    def final_rejected(self) -> PairSet:
        return self.steps[-1].rejected_total if self.steps else PairSet()


def rank_bounds_from_rejections(rejected: PairSet, n: int) -> list[RankInterval]:
    """Rank intervals implied by a set of rejected positive pairs.

    ``L_i = 1 + #{j < i : (i, j) rejected}`` and
    ``U_i = n - #{j > i : (j, i) rejected}``, in 1-based rank units.

    Raises
    ------
    ValueError
        If a pair is not positive (i > j) or indexes outside ``0..n-1``.
    """
    lower = np.ones(n, dtype=int)
    upper = np.full(n, n, dtype=int)
    for i, j in rejected:
        if not 0 <= j < i < n:
            raise ValueError(f"({i}, {j}) is not a positive pair within 0..{n - 1}")
        lower[i] += 1
        upper[j] -= 1
    return [RankInterval(int(lo), int(up)) for lo, up in zip(lower, upper)]


def sequential_tukey(sample: CenterSample, alpha: float, pool: McPool
                     ) -> tuple[SimultaneousRankCIs, SeqTrace]:
    """Sequentially rejective Tukey HSD on a sorted sample.

    Returns the simultaneous rank CIs and the full per-round trace.  On a
    shared pool the result is nested within the single-step Tukey intervals:
    round one makes exactly Tukey's rejections, and later rounds can only
    reject more.
    """
    if not pool.matches_sigma(sample.sigma):
        raise ValueError("pool was not built with the sample's sigma vector")
    n = sample.n
    if n == 1:
        cis = SimultaneousRankCIs((RankInterval(1, 1),), alpha, "seqtukey", iterations=0)
        return cis, SeqTrace(())

    y = sample.y
    sig2 = sample.sigma ** 2
    pos_i, pos_j = PairSet.positive_pairs(n).index_arrays()
    pos_stat = (y[pos_i] - y[pos_j]) / np.sqrt(sig2[pos_i] + sig2[pos_j])
    active = np.ones(pos_i.size, dtype=bool)

    q = studentized_range_quantile(pool, alpha)
    rejected: set[tuple[int, int]] = set()
    steps: list[SeqStep] = []

    while True:
        newly_mask = active & (pos_stat > q)
        newly = {(int(i), int(j)) for i, j in zip(pos_i[newly_mask], pos_j[newly_mask])}
        rejected |= newly
        steps.append(SeqStep(q, PairSet(frozenset(newly)), PairSet(frozenset(rejected))))
        if not newly:
            break
        active &= ~newly_mask
        if not active.any():
            break
        # the negative pairs stay in every round; their row maxima are
        # cached on the pool, shared across rounds and across alphas
        row_max = pair_row_maxima(pool, pos_i[active], pos_j[active])
        np.maximum(row_max, negative_row_maxima(pool), out=row_max)
        q = empirical_quantile(row_max, alpha)

    intervals = rank_bounds_from_rejections(PairSet(frozenset(rejected)), n)
    cis = SimultaneousRankCIs(tuple(intervals), alpha, "seqtukey", iterations=len(steps))
    return cis, SeqTrace(tuple(steps))
