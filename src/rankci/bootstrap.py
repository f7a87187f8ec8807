"""Bootstrap rank CIs: pointwise intervals plus a bisected joint level.

This is the baseline the simulation harness shows to under-cover.  Pointwise
rank intervals are empirical quantiles of each center's rank across K
parametric bootstrap replicates; the joint method then searches, by bisection
on the pointwise level beta, for the narrowest family whose *estimated*
joint coverage still clears 1 - alpha.  Deliberately, the same K draws are
used both to build the intervals and to estimate their joint coverage; the
method is reproduced faithfully, not repaired.

The joint method never reads the Monte-Carlo pool, so the command line and
the simulation harness run it in a thread of its own beside the pool fill
and the Tukey kernels.  It draws, scales and ranks the K replicates a chunk
of rows at a time and holds only the K x n ``int32`` rank matrix, never the
K x n float draws.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CenterSample, RankInterval, SimultaneousRankCIs
from .mcquantile import _check_fits_memory

__all__ = [
    "BootstrapConfig",
    "ZhangResult",
    "make_bootstrap_draws",
    "spiegelhalter_pointwise",
    "zhang_simultaneous",
]

#: Bootstrap replicates drawn, scaled and ranked at a time.
_RANK_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs for the bootstrap baseline."""

    n_boot: int = 10_000
    precision: float = 1e-6
    maxiter: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.n_boot < 1:
            raise ValueError("n_boot must be at least 1")
        if self.precision <= 0:
            raise ValueError("precision must be positive")
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")


@dataclass(frozen=True)
class ZhangResult:
    """Joint bootstrap CIs with the bisection outcome."""

    cis: SimultaneousRankCIs
    achieved_coverage: float
    beta_final: float
    converged: bool
    iterations: int


def _type3_index(size: int, p: float) -> int:
    """1-based order statistic that :func:`quantile_type3` picks among ``size`` values."""
    nppm = size * p - 0.5
    j = math.floor(nppm + 1e-9)
    g = nppm - j
    gamma = 0 if (abs(g) < 1e-9 and j % 2 == 0) else 1
    return min(max(j + gamma, 1), size)


def quantile_type3(sorted_values: np.ndarray, p: float) -> float:
    """Nearest-order-statistic quantile (SAS convention, R's ``type = 3``).

    With ``nppm = n p - 1/2``, take order statistic ``floor(nppm)`` when
    ``nppm`` hits an even integer, else ``floor(nppm) + 1``, clamped to
    ``[1, n]`` (1-based).
    """
    return float(sorted_values[_type3_index(sorted_values.size, p) - 1])


def make_bootstrap_draws(sample: CenterSample, cfg: BootstrapConfig) -> np.ndarray:
    """K x n parametric bootstrap matrix, row k drawn from N(y, sigma^2)."""
    rng = np.random.default_rng(cfg.seed)
    return rng.standard_normal((cfg.n_boot, sample.n)) * sample.sigma[None, :] + sample.y[None, :]


def _rank_into(draws: np.ndarray, out: np.ndarray) -> None:
    """Write the 1-based rank of each entry within its row into ``out`` (ties by position)."""
    order = np.argsort(draws, axis=1, kind="stable")
    positions = np.arange(1, draws.shape[1] + 1, dtype=out.dtype)
    np.put_along_axis(out, order, positions[None, :], axis=1)


def _rank_rows(draws: np.ndarray) -> np.ndarray:
    """1-based ``int32`` rank of every entry within its row (ties broken by position)."""
    ranks = np.empty(draws.shape, dtype=np.int32)
    _rank_into(draws, ranks)
    return ranks


def _bootstrap_ranks(sample: CenterSample, cfg: BootstrapConfig) -> np.ndarray:
    """``_rank_rows(make_bootstrap_draws(sample, cfg))``, built a chunk of rows at a time.

    standard_normal fills its output in C order from one stream, so each
    chunk holds the next rows of the K x n draw.  A chunk is scaled in place
    by the same two operations, so every value, and every rank, is the same
    bit for bit, while the K x n float matrix is never allocated.
    """
    _check_fits_memory(cfg.n_boot * sample.n * 4,
                       f"a bootstrap rank matrix of {cfg.n_boot} x {sample.n}", "--boot-samples")
    rng = np.random.default_rng(cfg.seed)
    ranks = np.empty((cfg.n_boot, sample.n), dtype=np.int32)
    chunk = np.empty((min(_RANK_CHUNK_ROWS, cfg.n_boot), sample.n))
    for start in range(0, cfg.n_boot, _RANK_CHUNK_ROWS):
        stop = min(start + _RANK_CHUNK_ROWS, cfg.n_boot)
        rows = rng.standard_normal(out=chunk[: stop - start])
        rows *= sample.sigma
        rows += sample.y
        _rank_into(rows, ranks[start:stop])
    return ranks


def _interval_bounds(sorted_ranks: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-center [beta/2, 1-beta/2] rank quantiles from presorted ranks.

    Every row holds the same K ranks, so one order-statistic index serves
    every center and each bound is one column.
    """
    k = sorted_ranks.shape[1]
    return (sorted_ranks[:, _type3_index(k, beta / 2.0) - 1],
            sorted_ranks[:, _type3_index(k, 1.0 - beta / 2.0) - 1])


def spiegelhalter_pointwise(sample: CenterSample, beta: float,
                            boot_draws: np.ndarray) -> list[RankInterval]:
    """Pointwise rank CIs at level ``1 - beta`` from bootstrap replicates.

    Each replicate (row of ``boot_draws``) is ranked; center i's interval is
    the [beta/2, 1-beta/2] empirical quantile range of its rank, using the
    nearest-order-statistic convention.  Pointwise means valid one center at
    a time; the family has no joint guarantee.
    """
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    boot_draws = np.asarray(boot_draws, dtype=float)
    if boot_draws.ndim != 2 or boot_draws.shape[1] != sample.n:
        raise ValueError("boot_draws must be a K x n matrix matching the sample")
    k = boot_draws.shape[0]
    if k * (beta / 2.0) < 1.5:
        warnings.warn(
            f"n_boot={k} is too small to resolve beta={beta:g}; "
            "quantile indices collapse to the extremes",
            stacklevel=2,
        )
    ranks = _rank_rows(boot_draws)
    sorted_ranks = np.sort(ranks.T, axis=1)
    lower, upper = _interval_bounds(sorted_ranks, beta)
    return [RankInterval(int(lo), int(up)) for lo, up in zip(lower, upper)]


def _joint_coverage(ranks: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """Fraction of replicates whose whole rank vector stays inside the bounds."""
    outside = (ranks < lower[None, :]) | (ranks > upper[None, :])
    return 1.0 - np.count_nonzero(outside.any(axis=1)) / ranks.shape[0]


def zhang_simultaneous(sample: CenterSample, alpha: float,
                       cfg: BootstrapConfig) -> ZhangResult:
    """Joint bootstrap rank CIs via bisection on the pointwise level.

    Bisects beta over (0, alpha]: when the estimated joint coverage of the
    pointwise family at level beta clears ``1 - alpha`` the bracket moves up
    (narrower intervals), otherwise down.  One K x n draw matrix serves both
    interval construction and coverage estimation; it is ranked a chunk of
    rows at a time and never held as floats.  If the final candidate
    under-covers, beta falls back to the last feasible bracket end, so the
    reported coverage is at least ``1 - alpha`` whenever that fallback fires.

    Returns a :class:`ZhangResult`; ``converged`` is False when the bracket
    was still wider than ``cfg.precision`` at ``cfg.maxiter`` iterations.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    ranks = _bootstrap_ranks(sample, cfg)
    sorted_ranks = np.sort(ranks.T, axis=1)

    def coverage_at(beta: float) -> float:
        lower, upper = _interval_bounds(sorted_ranks, beta)
        return _joint_coverage(ranks, lower, upper)

    beta1, beta2 = 0.0, alpha
    beta = (beta1 + beta2) / 2.0
    iterations = 0
    while abs(beta1 - beta2) > cfg.precision and iterations < cfg.maxiter:
        if coverage_at(beta) >= 1.0 - alpha:
            beta1 = beta
        else:
            beta2 = beta
        beta = (beta1 + beta2) / 2.0
        iterations += 1
    converged = abs(beta1 - beta2) <= cfg.precision

    achieved = coverage_at(beta)
    if achieved < 1.0 - alpha:
        beta = beta1
        achieved = coverage_at(beta)
    lower, upper = _interval_bounds(sorted_ranks, beta)
    intervals = tuple(RankInterval(int(lo), int(up)) for lo, up in zip(lower, upper))
    cis = SimultaneousRankCIs(intervals, alpha, "zhang")
    return ZhangResult(
        cis=cis,
        achieved_coverage=achieved,
        beta_final=beta,
        converged=converged,
        iterations=iterations,
    )
