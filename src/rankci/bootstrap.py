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
the Tukey kernels, and ``simulate`` shares its replicates' bootstraps
between one helper thread per call and the calling thread.  It draws and
scales the K replicates a chunk of rows at a time, and turns each chunk's
stable sort order straight into cells of one count table
(:class:`RankCounts`), so no rank matrix is built and each bisection step
is one O(K) count; ``rank`` bisects both its levels on it.  The tests
keep the table's definition from a rank matrix, which the draw must match.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CenterSample, RankInterval, SimultaneousRankCIs
from .mcquantile import _check_fits_memory

__all__ = ["BootstrapConfig", "RankCounts", "ZhangResult", "make_bootstrap_draws",
           "spiegelhalter_pointwise", "zhang_simultaneous"]

#: Bootstrap replicates drawn, scaled, sorted and counted at a time.
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


def make_bootstrap_draws(sample: CenterSample, cfg: BootstrapConfig) -> np.ndarray:
    """K x n parametric bootstrap matrix, row k drawn from N(y, sigma^2)."""
    rng = np.random.default_rng(cfg.seed)
    return rng.standard_normal((cfg.n_boot, sample.n)) * sample.sigma[None, :] + sample.y[None, :]


def _check_bootstraps_fit(n: int, n_boot: int, copies: int = 1) -> None:
    """Refuse ``copies`` bootstraps of ``n_boot`` x ``n`` that physical memory cannot hold at once.

    One bootstrap holds the ``int32`` cell matrix, the two K-vectors of its
    :class:`RankCounts` and one chunk's temporaries.
    """
    need = n_boot * (n + 2) * 4 + min(_RANK_CHUNK_ROWS, n_boot) * n * 32
    what = f"{n_boot} x {n} replicates"
    what = f"a bootstrap of {what}" if copies == 1 else f"running {copies} bootstraps of {what} at once"
    _check_fits_memory(copies * need, what, "--boot-samples")


def _draw_chunks(sample: CenterSample, cfg: BootstrapConfig):
    """Yield the rows of ``make_bootstrap_draws(sample, cfg)`` a chunk at a time, in one buffer.

    standard_normal fills its output in C order from one stream, so each
    chunk holds the next rows of the K x n draw.  A chunk is scaled in place
    by the same two operations, so every value is the same bit for bit,
    while the K x n float matrix is never allocated.  Each chunk is
    overwritten by the next.
    """
    rng = np.random.default_rng(cfg.seed)
    chunk = np.empty((min(_RANK_CHUNK_ROWS, cfg.n_boot), sample.n))
    for start in range(0, cfg.n_boot, _RANK_CHUNK_ROWS):
        rows = rng.standard_normal(out=chunk[: min(_RANK_CHUNK_ROWS, cfg.n_boot - start)])
        rows *= sample.sigma
        rows += sample.y
        yield rows


def _order_cells(chunks, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The table cell of every entry of K x n draws given as row chunks, and the count of each cell.

    A row's stable argsort order lists its centers by rank, ties by
    position, so the center at position p has rank p + 1 and its cell of
    the flattened n x (n+1) table is ``order[k, p] * (n + 1) + p + 1``.
    Cells are stored by position, as ``int32``, and each chunk's cells are
    counted as they are made; no chunk outlives the call.
    """
    cells = np.empty((k, n), dtype=np.int32)
    counts = np.zeros(n * (n + 1), dtype=np.intp)
    positions = np.arange(1, n + 1, dtype=np.int32)
    start = 0
    for rows in chunks:
        out = cells[start:start + len(rows)]
        np.multiply(np.argsort(rows, axis=1, kind="stable"), n + 1, out=out, casting="same_kind")
        out += positions
        counts += np.bincount(out.ravel(), minlength=counts.size)
        start += len(rows)
    return cells, counts


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
    def draw(cls, sample: CenterSample, cfg: BootstrapConfig) -> "RankCounts":
        """The counts of the replicates :func:`zhang_simultaneous` draws for ``(sample, cfg)``."""
        _check_bootstraps_fit(sample.n, cfg.n_boot)
        return cls._of_cells(*_order_cells(_draw_chunks(sample, cfg), cfg.n_boot, sample.n))

    @classmethod
    def _of_cells(cls, cells: np.ndarray, counts: np.ndarray) -> "RankCounts":
        """Build the table from the K x n cells and their counts, then both K-vectors a chunk at a time.

        The cell below cell c is c - 1, so ``most_below`` reads the flattened
        table shifted one place on; a cell's rank is at least 1, so the
        wrapped first entry is never read.
        """
        k, n = cells.shape
        count_type = np.int32 if k < 2**31 else np.int64
        at_most = np.cumsum(counts.reshape(n, n + 1), axis=1, dtype=count_type)
        below = np.roll(at_most, 1)
        fewest, most_below = np.empty((2, k), dtype=count_type)
        for start in range(0, k, _RANK_CHUNK_ROWS):
            rows = slice(start, start + _RANK_CHUNK_ROWS)
            # centers x rows: reducing over centers is elementwise over rows
            chunk = cells[rows].T
            np.min(np.take(at_most, chunk), axis=0, out=fewest[rows])
            np.max(np.take(below, chunk), axis=0, out=most_below[rows])
        return cls(at_most, fewest, most_below)

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
    k = len(boot_draws)
    chunks = (boot_draws[start:start + _RANK_CHUNK_ROWS] for start in range(0, k, _RANK_CHUNK_ROWS))
    return list(RankCounts._of_cells(*_order_cells(chunks, k, sample.n)).intervals(beta))


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
