"""Rankability: how distinguishable a set of centers is, in [0, 1].

One formula over n >= 2 rank intervals, ``1 - sum(u_i - l_i) / (n (n - 1))``,
gives both rankabilities.  Over the true set-ranks it is the true
rankability, the probability that two centers picked at random have
different set-ranks.  Over simultaneous rank CIs at level ``1 - alpha`` it is
an estimate that undershoots the truth with probability at least
``1 - alpha``, so ``[estimate, 1]`` is the one-sided CI at the CIs' alpha.
"""

from .core import RankInterval, SimultaneousRankCIs

__all__ = ["rankability_true", "rankability_estimate"]


def _rankability(intervals) -> float:
    n = len(intervals)
    if n < 2:
        raise ValueError("rankability requires at least 2 centers")
    return 1.0 - sum(ci.width for ci in intervals) / (n * (n - 1))


def rankability_true(set_ranks: list[RankInterval]) -> float:
    """True rankability from the set-ranks of :func:`rankci.core.true_set_ranks`."""
    return _rankability(set_ranks)


def rankability_estimate(cis: SimultaneousRankCIs) -> float:
    """Estimated rankability from a family of simultaneous rank CIs.

    ``[estimate, 1]`` is its one-sided confidence interval at ``cis.alpha``.
    Adding one rank to any single interval lowers the estimate by exactly
    ``1 / (n (n - 1))``; nested CI families can only score higher.
    """
    return _rankability(cis.intervals)
