"""Rankability: how distinguishable a set of centers is, in [0, 1].

The true rankability is one minus the normalized total set-rank width; it
equals the probability that two centers picked at random have different
set-ranks.  Plugging simultaneous rank CIs into the same formula gives an
estimate that undershoots the truth with probability at least 1 - alpha,
so [estimate, 1] is a one-sided confidence interval.
"""

from dataclasses import dataclass

from .core import SetRank, SimultaneousRankCIs

__all__ = ["RankabilityEstimate", "rankability_true", "rankability_estimate"]


@dataclass(frozen=True)
class RankabilityEstimate:
    """Estimated rankability with its one-sided confidence interval [value, 1]."""

    value: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"rankability must be in [0, 1], got {self.value}")

    @property
    def ci_lower(self) -> float:
        return self.value

    @property
    def ci_upper(self) -> float:
        return 1.0


def rankability_true(set_ranks: list[SetRank]) -> float:
    """True rankability ``1 - sum(u_i - l_i) / (n (n - 1))`` from set-ranks.

    Requires n >= 2; the normalization is undefined for a single center.
    """
    n = len(set_ranks)
    if n < 2:
        raise ValueError("rankability requires at least 2 centers")
    total = sum(sr.width for sr in set_ranks)
    return 1.0 - total / (n * (n - 1))


def rankability_estimate(cis: SimultaneousRankCIs) -> RankabilityEstimate:
    """Estimated rankability from a family of simultaneous rank CIs.

    Adding one rank to any single interval lowers the estimate by exactly
    ``1 / (n (n - 1))``; nested CI families can only score higher.
    """
    n = cis.n
    if n < 2:
        raise ValueError("rankability requires at least 2 centers")
    total = int(cis.widths().sum())
    value = 1.0 - total / (n * (n - 1))
    return RankabilityEstimate(value=value, alpha=cis.alpha)
