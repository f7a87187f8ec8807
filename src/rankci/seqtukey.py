"""Sequential-rejective variant of Tukey's HSD.

The first round tests every positive pair (i above j in the sorted sample)
against the full studentized-range quantile.  After each batch of rejections
the critical value is recomputed on the same frozen pool, restricted to the
unrejected positive pairs plus all negative pairs; the loop stops at the
first round that rejects nothing.  Keeping the negatives in the maximum is
what anchors each interval to its empirical rank, and reusing one pool makes
the critical values non-increasing by construction rather than on average.

Each round only drops pairs, so its row maxima are derived from the maxima
of the round before in the same call, or for the first restricted round from
the pool's full-range maxima; none are kept once the call returns.  Let
``base`` be the row maxima over the positive pairs A plus the negatives,
where A is every positive pair not rejected before the round.  The new round
keeps the subset B of A and drops the pairs R, which are exactly the round's
newly rejected pairs, so no pair mask is carried from round to round.  A row
keeps ``base`` unless its maximum may lie in R: ``max_R >= base`` while the
negatives stay below ``base`` (``>=``, because a maximum attained in R equals
``base``).  Only those stale rows are recomputed over B, gathered, and maxed
with the negatives.  A maximum is exact and every pair value comes from the
same elementwise formula, so the derived maxima are bit for bit the direct
ones.  When |R| >= |B| the maxima over B are computed directly instead.

The rounds need only the pool rows that can reach their quantiles.  Every
round keeps all negative pairs, so its quantile at alpha is at least
Qneg(alpha), and the pool selects once per alpha the rows whose full-range
maximum is not below it (:func:`rankci.mcquantile.rows_reaching`).  When at
most a quarter of its rows are kept, every round runs on a copy of them,
starting from their slices of the pool's maxima, and selects the (k - m)-th
order statistic of the kept rows, m the rows left out and k = ceil((1 -
alpha) N) over all N rows.  This is the k-th of all rows, ties at
Qneg(alpha) included: fewer than k rows lie below Qneg(alpha), and the m
rows left out are among them.  Otherwise the rounds run on the whole pool
with m = 0.
"""

from dataclasses import dataclass

import numpy as np

from .core import CenterSample, RankInterval, SimultaneousRankCIs, rank_bounds_from_rejections
from .mcquantile import (
    McPool,
    empirical_quantile,
    pair_row_maxima,
    rows_reaching,
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
    """Per-round history of the sequential procedure, and its round count.

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


def _row_maxima_from(pool: McPool, base: np.ndarray, negative: np.ndarray,
                     dropped: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Row maxima over ``active``'s positive pairs and every negative pair.

    ``base`` holds the row maxima over the positive pairs of ``dropped`` and
    ``active``, two disjoint masks, and every negative pair; ``negative``
    holds those over the negative pairs alone.  Only the rows whose maximum
    may lie in a dropped pair are recomputed (see the module docstring); the
    result may be ``base`` itself.
    """
    if np.count_nonzero(dropped) >= np.count_nonzero(active):
        row_max = pair_row_maxima(pool, *np.nonzero(active))
        return np.maximum(row_max, negative, out=row_max)
    reached = pair_row_maxima(pool, *np.nonzero(dropped)) >= base
    stale = np.flatnonzero(reached & (negative < base))
    if stale.size == 0:
        return base
    fresh = pair_row_maxima(pool.take_rows(stale), *np.nonzero(active))
    np.maximum(fresh, negative[stale], out=fresh)
    row_max = base.copy()
    row_max[stale] = fresh
    return row_max


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
        return SimultaneousRankCIs((RankInterval(1, 1),), alpha, "seqtukey"), SeqTrace(())

    stat = _statistic_matrix(sample)
    rejected = np.zeros((n, n), dtype=bool)
    q = studentized_range_quantile(pool, alpha)
    base = None
    steps: list[SeqStep] = []

    while True:
        newly = np.tril(stat > q, -1) & ~rejected
        rejected = rejected | newly
        newly.setflags(write=False)
        rejected.setflags(write=False)
        steps.append(SeqStep(q, newly, rejected))
        if not newly.any():
            break
        active = np.tril(~rejected, -1)
        if not active.any():
            break
        if base is None:
            rows, base, negative, below = rows_reaching(pool, alpha)
        # the negative pairs stay in every round; each round's row maxima
        # derive from the round before's, the first from the full range's,
        # by dropping the pairs this round newly rejected
        base = _row_maxima_from(rows, base, negative, newly, active)
        q = empirical_quantile(base, alpha, _below=below)

    intervals = rank_bounds_from_rejections(rejected)
    return SimultaneousRankCIs(tuple(intervals), alpha, "seqtukey"), SeqTrace(tuple(steps))
