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

from .core import CenterSample, RankInterval, SimultaneousRankCIs, rank_bounds_from_rejections
from .mcquantile import (
    McPool,
    empirical_quantile,
    negative_row_maxima,
    pair_row_maxima,
    studentized_range_quantile,
)
from .tukey import _check_pool, _statistic_matrix

__all__ = ["SeqStep", "SeqTrace", "sequential_tukey"]


@dataclass(frozen=True)
class SeqStep:
    """One testing round: the critical value used, what it newly rejected.

    Both rejection sets are read-only strictly lower-triangular ``(n, n)``
    masks over the sorted sample.
    """

    critical_value: float
    newly_rejected: np.ndarray
    rejected_total: np.ndarray


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
    def final_rejected(self) -> np.ndarray | None:
        """The cumulative rejection mask of the last round; None without rounds."""
        return self.steps[-1].rejected_total if self.steps else None


def sequential_tukey(sample: CenterSample, alpha: float, pool: McPool
                     ) -> tuple[SimultaneousRankCIs, SeqTrace]:
    """Sequentially rejective Tukey HSD on a sorted sample.

    Returns the simultaneous rank CIs and the full per-round trace.  On a
    shared pool the result is nested within the single-step Tukey intervals:
    round one makes exactly Tukey's rejections, and later rounds can only
    reject more.
    """
    _check_pool(sample, pool)
    n = sample.n
    if n == 1:
        cis = SimultaneousRankCIs((RankInterval(1, 1),), alpha, "seqtukey", iterations=0)
        return cis, SeqTrace(())

    stat = _statistic_matrix(sample)
    rejected = np.zeros((n, n), dtype=bool)
    q = studentized_range_quantile(pool, alpha)
    steps: list[SeqStep] = []

    while True:
        newly = np.tril(stat > q, -1) & ~rejected
        rejected = rejected | newly
        newly.setflags(write=False)
        rejected.setflags(write=False)
        steps.append(SeqStep(q, newly, rejected))
        if not newly.any():
            break
        active_i, active_j = np.nonzero(np.tril(~rejected, -1))
        if active_i.size == 0:
            break
        # the negative pairs stay in every round; their row maxima are
        # cached on the pool, shared across rounds and across alphas
        row_max = pair_row_maxima(pool, active_i, active_j)
        np.maximum(row_max, negative_row_maxima(pool), out=row_max)
        q = empirical_quantile(row_max, alpha)

    intervals = rank_bounds_from_rejections(rejected)
    cis = SimultaneousRankCIs(tuple(intervals), alpha, "seqtukey", iterations=len(steps))
    return cis, SeqTrace(tuple(steps))
