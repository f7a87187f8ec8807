"""Bootstrap rank CIs: pointwise intervals plus a bisected joint level.

This is the baseline the simulation harness shows to under-cover.  Pointwise
rank intervals are empirical quantiles of each center's rank across K
parametric bootstrap replicates; the joint method then searches, by bisection
on the pointwise level beta, for the narrowest family whose *estimated*
joint coverage still clears 1 - alpha.  Deliberately, the same K draws are
used both to build the intervals and to estimate their joint coverage; the
method is reproduced faithfully, not repaired.

The joint method never reads the Monte-Carlo pool, so it runs beside the
pool work: ``rank`` runs it in a thread of its own beside the pool fill and
the Tukey kernels, and ``simulate`` runs every replicate's bootstrap, in
replicate order, in one helper thread per call, ahead of the pool work.  It
draws, scales, ranks and counts the K replicates a chunk of rows at a time
into one count table (:class:`RankCounts`), so each bisection step is one
O(K) count; ``rank`` bisects both its levels on it.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CenterSample, RankInterval, SimultaneousRankCIs
from .mcquantile import _check_fits_memory

__all__ = ["BootstrapConfig", "RankCounts", "ZhangResult", "make_bootstrap_draws",
           "spiegelhalter_pointwise", "zhang_simultaneous"]

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
    """1-based nearest order statistic among ``size`` values (SAS convention, R's ``type = 3``).

    With ``nppm = size p - 1/2``, take order statistic ``floor(nppm)`` when
    ``nppm`` hits an even integer, else ``floor(nppm) + 1``, clamped to ``[1, size]``.
    """
    nppm = size * p - 0.5
    j = math.floor(nppm + 1e-9)
    g = nppm - j
    gamma = 0 if (abs(g) < 1e-9 and j % 2 == 0) else 1
    return min(max(j + gamma, 1), size)


def quantile_type3(sorted_values: np.ndarray, p: float) -> float:
    """Nearest-order-statistic quantile of sorted values, at :func:`_type3_index`."""
    return float(sorted_values[_type3_index(sorted_values.size, p) - 1])


def make_bootstrap_draws(sample: CenterSample, cfg: BootstrapConfig) -> np.ndarray:
    """K x n parametric bootstrap matrix, row k drawn from N(y, sigma^2)."""
    rng = np.random.default_rng(cfg.seed)
    return rng.standard_normal((cfg.n_boot, sample.n)) * sample.sigma[None, :] + sample.y[None, :]


def _rank_rows(draws: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1-based ``int32`` rank of every entry within its row (ties by position), into ``out``."""
    out = np.empty(draws.shape, dtype=np.int32) if out is None else out
    positions = np.arange(1, draws.shape[1] + 1, dtype=out.dtype)
    np.put_along_axis(out, np.argsort(draws, axis=1, kind="stable"), positions[None, :], axis=1)
    return out


def _bootstrap_ranks(sample: CenterSample, cfg: BootstrapConfig) -> np.ndarray:
    """``_rank_rows(make_bootstrap_draws(sample, cfg))``, built a chunk of rows at a time.

    standard_normal fills its output in C order from one stream, so each
    chunk holds the next rows of the K x n draw.  A chunk is scaled in place
    by the same two operations, so every value, and every rank, is the same
    bit for bit, while the K x n float matrix is never allocated.
    """
    n, chunk_rows = sample.n, min(_RANK_CHUNK_ROWS, cfg.n_boot)
    # the rank matrix, the two K-vectors of its RankCounts, one chunk's temporaries
    _check_fits_memory(cfg.n_boot * (n + 2) * 4 + chunk_rows * n * 32,
                       f"a bootstrap rank matrix of {cfg.n_boot} x {n}", "--boot-samples")
    rng = np.random.default_rng(cfg.seed)
    ranks = np.empty((cfg.n_boot, n), dtype=np.int32)
    chunk = np.empty((chunk_rows, n))
    for start in range(0, cfg.n_boot, _RANK_CHUNK_ROWS):
        stop = min(start + _RANK_CHUNK_ROWS, cfg.n_boot)
        rows = rng.standard_normal(out=chunk[: stop - start])
        rows *= sample.sigma
        rows += sample.y
        _rank_rows(rows, ranks[start:stop])
    return ranks


@dataclass(frozen=True, eq=False)
class RankCounts:
    """What both bootstrap methods read of K ranked replicates, ``int32`` below K = 2**31.

    ``at_most[i, v] = #{k : ranks[k, i] <= v}`` for v in 0..n.  Replicate k
    lies inside the bounds at type-3 indices (lo, hi) exactly when
    ``fewest_at_most[k] = min_i at_most[i, ranks[k, i]] >= lo`` and
    ``most_below[k] = max_i at_most[i, ranks[k, i] - 1] < hi``.
    """

    at_most: np.ndarray
    fewest_at_most: np.ndarray
    most_below: np.ndarray

    @classmethod
    def of(cls, ranks: np.ndarray) -> "RankCounts":
        """Count K x n 1-based ranks a chunk of rows at a time: bincount and take copy to int64."""
        k, n = ranks.shape
        cell0 = np.arange(0, n * (n + 1), n + 1, dtype=np.int32)  # flat index of (i, 0)
        chunks = [slice(s, s + _RANK_CHUNK_ROWS) for s in range(0, k, _RANK_CHUNK_ROWS)]
        counts = sum(np.bincount((ranks[rows] + cell0).ravel(), minlength=n * (n + 1))
                     for rows in chunks)
        count_type = np.int32 if k < 2**31 else np.int64
        at_most = np.cumsum(counts.reshape(n, n + 1), axis=1, dtype=count_type)
        fewest, below = np.empty((2, k), dtype=count_type)
        for rows in chunks:  # centers x rows: reducing over centers is elementwise over rows
            cells = np.add(ranks[rows].T, cell0[:, None], order="C")
            np.min(np.take(at_most, cells), axis=0, out=fewest[rows])
            np.max(np.take(at_most, cells - 1), axis=0, out=below[rows])
        return cls(at_most, fewest, below)

    @classmethod
    def draw(cls, sample: CenterSample, cfg: BootstrapConfig) -> "RankCounts":
        """The counts of the replicates :func:`zhang_simultaneous` draws for ``(sample, cfg)``."""
        return cls.of(_bootstrap_ranks(sample, cfg))

    def _indices(self, beta: float) -> tuple[int, int]:
        return tuple(_type3_index(self.most_below.size, p) for p in (beta / 2.0, 1.0 - beta / 2.0))

    def intervals(self, beta: float) -> tuple[RankInterval, ...]:
        """Per-center [beta/2, 1-beta/2] rank quantiles: a left searchsorted per row and index."""
        lo, hi = (np.count_nonzero(self.at_most < j, axis=1).tolist() for j in self._indices(beta))
        return tuple(map(RankInterval, lo, hi))

    def coverage(self, beta: float) -> float:
        """Fraction of replicates whose whole rank vector stays inside ``intervals(beta)``."""
        lo, hi = self._indices(beta)
        outside = (self.fewest_at_most < lo) | (self.most_below >= hi)
        return 1.0 - np.count_nonzero(outside) / outside.size


def spiegelhalter_pointwise(sample: CenterSample, beta: float,
                            boot_draws: np.ndarray) -> list[RankInterval]:
    """Pointwise rank CIs at level ``1 - beta`` from bootstrap replicates.

    Each replicate (row of ``boot_draws``) is ranked; center i's interval is
    the type-3 [beta/2, 1-beta/2] quantile range of its rank.  Pointwise means
    valid one center at a time; the family has no joint guarantee.
    """
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    boot_draws = np.asarray(boot_draws, dtype=float)
    if boot_draws.ndim != 2 or boot_draws.shape[1] != sample.n:
        raise ValueError("boot_draws must be a K x n matrix matching the sample")
    if len(boot_draws) * (beta / 2.0) < 1.5:
        warnings.warn(f"n_boot={len(boot_draws)} is too small to resolve beta={beta:g}; "
                      "quantile indices collapse to the extremes", stacklevel=2)
    return list(RankCounts.of(_rank_rows(boot_draws)).intervals(beta))


def zhang_simultaneous(sample: CenterSample, alpha: float, cfg: BootstrapConfig,
                       ranked: RankCounts | None = None) -> ZhangResult:
    """Joint bootstrap rank CIs via bisection on the pointwise level.

    Bisects beta over (0, alpha]: when the estimated joint coverage of the
    pointwise family at level beta clears ``1 - alpha`` the bracket moves up
    (narrower intervals), otherwise down.  One K x n draw serves both
    interval construction and coverage estimation; ``ranked``, if given, must
    be its ``RankCounts.draw(sample, cfg)``, so several levels share one
    ranking.  If the final candidate under-covers, beta falls back to the last
    feasible bracket end, so the reported coverage is then at least ``1 - alpha``.
    ``converged`` is False when the bracket was still wider than
    ``cfg.precision`` at ``cfg.maxiter`` iterations.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if ranked is None:
        ranked = RankCounts.draw(sample, cfg)
    beta1, beta2, iterations = 0.0, alpha, 0
    beta = (beta1 + beta2) / 2.0
    while abs(beta1 - beta2) > cfg.precision and iterations < cfg.maxiter:
        if ranked.coverage(beta) >= 1.0 - alpha:
            beta1 = beta
        else:
            beta2 = beta
        beta = (beta1 + beta2) / 2.0
        iterations += 1
    converged = abs(beta1 - beta2) <= cfg.precision
    achieved = ranked.coverage(beta)
    if achieved < 1.0 - alpha:
        beta = beta1
        achieved = ranked.coverage(beta)
    return ZhangResult(SimultaneousRankCIs(ranked.intervals(beta), alpha, "zhang"), achieved,
                       beta, converged, iterations)
