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
between one helper thread per call and the calling thread.  Everything it
holds adds to the pool's peak, so it is kept compact: it takes the K
replicates as row chunks of one draw, from the stream that fills the pool,
each chunk a budget of values rather than of rows; it stores each
replicate's stable sort order in the smallest unsigned type that holds
n - 1 (``uint8`` up to n = 256), and counts each chunk's (rank, center)
cells into one table (:class:`RankCounts`) as they are made, so no rank
matrix is built and each bisection step is one O(K) count; ``rank`` bisects
both its levels on it, to a fixed bracket width of 1e-6 (``_PRECISION``).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CenterSample, RankInterval, SimultaneousRankCIs, _whole_number
from .mcquantile import _check_fits_memory, _normal_row_chunks

__all__ = ["BootstrapConfig", "RankCounts", "ZhangResult", "make_bootstrap_draws",
           "spiegelhalter_pointwise", "zhang_simultaneous"]

#: Values of a K x n array (draws, sort orders or cells) handled at a time:
#: 4096 rows at n = 10.
_CHUNK_VALUES = 40_960

#: Width of the beta bracket at which the bisection stops.
_PRECISION = 1e-6


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs for the bootstrap baseline; its counts are whole numbers, as in a scenario file."""

    n_boot: int = 10_000
    maxiter: int = 50
    seed: int = 0

    def __post_init__(self):
        for key in ("n_boot", "maxiter", "seed"):
            object.__setattr__(self, key, _whole_number(getattr(self, key), key))
        if self.n_boot < 1:
            raise ValueError("n_boot must be at least 1")
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")


@dataclass(frozen=True)
class ZhangResult:
    """Joint CIs from one stream's K x n draw; the bisection stops at a 1e-6 bracket or maxiter."""

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


def _chunk_rows(n: int) -> int:
    """Rows of a K x n chunk: the value budget, but at least n rows.

    The floor keeps a chunk's ``bincount`` over the n x n table cells no
    dearer than the chunk itself.
    """
    return max(_CHUNK_VALUES // n, n)


def _row_chunks(a: np.ndarray):
    """Consecutive row views of the K x n array ``a``, :func:`_chunk_rows` rows each."""
    step = _chunk_rows(a.shape[1])
    return (a[start:start + step] for start in range(0, len(a), step))


def _check_bootstraps_fit(n: int, n_boot: int, copies: int = 1) -> None:
    """Refuse ``copies`` bootstraps of ``n_boot`` x ``n`` that physical memory cannot hold at once.

    One bootstrap holds the compact sort orders, the two K-vectors of its
    :class:`RankCounts` (at most 8 bytes a replicate), the table (its
    ``intp`` counts, one chunk's ``bincount`` and ``at_most``, at most 8
    bytes a cell each) and one chunk's 16 bytes a value (draw and sort
    order, or cells and one lookup).
    """
    order_bytes = np.min_scalar_type(n - 1).itemsize
    need = (n_boot * (n * order_bytes + 16) + n * (n + 1) * 24
            + min(_chunk_rows(n), n_boot) * n * 16)
    what = f"{n_boot} x {n} replicates"
    what = f"a bootstrap of {what}" if copies == 1 else f"running {copies} bootstraps of {what} at once"
    _check_fits_memory(copies * need, what, "--boot-samples")


def _draw_chunks(sample: CenterSample, cfg: BootstrapConfig):
    """Rows of :func:`make_bootstrap_draws`: chunks of one draw, scaled then shifted in place."""
    for rows in _normal_row_chunks(cfg.seed, cfg.n_boot, sample.n, _chunk_rows(sample.n)):
        rows *= sample.sigma
        rows += sample.y
        yield rows


def _sort_orders(chunks, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of each row of K x n draws given as row chunks, and the cell counts.

    A row's stable argsort order lists its centers by rank, ties by
    position, so center ``order[k, p]`` has rank p + 1: its cell of the
    flattened n x n table of ranks by centers is ``p * n + order[k, p]``.
    Orders are stored by position in the smallest unsigned type that holds
    n - 1 (``uint8`` up to n = 256), and each chunk's cells are counted as
    they are made; no chunk outlives the call.
    """
    orders = np.empty((k, n), dtype=np.min_scalar_type(n - 1))
    counts = np.zeros(n * n, dtype=np.intp)
    offsets = np.arange(0, n * n, n)
    start = 0
    for rows in chunks:
        order = np.argsort(rows, axis=1, kind="stable")
        orders[start:start + len(rows)] = order
        order += offsets
        counts += np.bincount(order.ravel(), minlength=counts.size)
        start += len(rows)
        del order  # before the next chunk's order is made
    return orders, counts.reshape(n, n)


def _cells(orders: np.ndarray):
    """Yield the table cells of K x n sort orders (:func:`_sort_orders`) a row chunk at a time.

    Each chunk's cells are laid out positions x rows, C-contiguous, as
    :meth:`RankCounts._of_cells` reads them, in one buffer that the next
    chunk overwrites.  Cells reach n * n - 1, past what the orders' own
    type holds, so they are computed in ``intp``.
    """
    n = orders.shape[1]
    offsets = np.arange(0, n * n, n)[:, None]
    buffer = np.empty(min(_chunk_rows(n), len(orders)) * n, dtype=np.intp)
    for chunk in _row_chunks(orders):
        cells = buffer[:chunk.size].reshape(n, len(chunk))
        np.add(chunk.T, offsets, dtype=np.intp, out=cells)
        yield cells


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
        return cls._of_orders(_draw_chunks(sample, cfg), cfg.n_boot, sample.n)

    @classmethod
    def _of_orders(cls, chunks, k: int, n: int) -> "RankCounts":
        """The counts of K x n draws given as row chunks, read back from their sort orders."""
        orders, counts = _sort_orders(chunks, k, n)
        return cls._of_cells(counts, k, _cells(orders))

    @classmethod
    def _of_cells(cls, counts: np.ndarray, k: int, cell_chunks) -> "RankCounts":
        """Build the table from the cell counts, then both K-vectors from the cells, chunk by chunk.

        ``counts[v - 1, i]`` is the number of replicates that rank center i
        at v, and ``cell_chunks`` yields, for consecutive row chunks, each
        replicate's n cells ``(v - 1) * n + i`` down a column, so reducing
        over axis 0 is elementwise over replicates.  ``by_rank[v, i]`` is
        ``at_most[i, v]``, so a cell indexes ``by_rank[1:]`` at the
        replicate's rank and ``by_rank[:-1]`` at the rank below.
        """
        n = len(counts)
        count_type = np.int32 if k < 2**31 else np.int64
        by_rank = np.zeros((n + 1, n), dtype=count_type)
        np.cumsum(counts, axis=0, dtype=count_type, out=by_rank[1:])
        fewest, most_below = np.empty((2, k), dtype=count_type)
        start = 0
        for cells in cell_chunks:
            rows = slice(start, start + cells.shape[1])
            np.min(np.take(by_rank[1:], cells), axis=0, out=fewest[rows])
            np.max(np.take(by_rank[:-1], cells), axis=0, out=most_below[rows])
            start = rows.stop
        return cls(by_rank.T, fewest, most_below)

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
    ranked = RankCounts._of_orders(_row_chunks(boot_draws), len(boot_draws), sample.n)
    return list(ranked.intervals(beta))


def zhang_simultaneous(sample: CenterSample, alpha: float, cfg: BootstrapConfig,
                       ranked: RankCounts | None = None) -> ZhangResult:
    """Joint bootstrap rank CIs via bisection on the pointwise level.

    Bisects beta over (0, alpha]: when the estimated joint coverage of the
    pointwise family at level beta clears ``1 - alpha`` the bracket moves up
    (narrower intervals), otherwise down.  One K x n draw, taken in row
    chunks of a single standard-normal stream, serves both interval
    construction and coverage estimation; ``ranked``, if given, must
    be its ``RankCounts.draw(sample, cfg)``, so several levels share one
    ranking.  If the final candidate under-covers, beta falls back to the last
    feasible bracket end, so the reported coverage is then at least ``1 - alpha``.
    The bracket stops at the fixed width ``_PRECISION`` (1e-6);
    ``converged`` is False when it was still wider at ``cfg.maxiter``
    iterations.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if ranked is None:
        ranked = RankCounts.draw(sample, cfg)
    beta1, beta2, iterations = 0.0, alpha, 0
    beta = (beta1 + beta2) / 2.0
    while abs(beta1 - beta2) > _PRECISION and iterations < cfg.maxiter:
        if ranked.coverage(beta) >= 1.0 - alpha:
            beta1 = beta
        else:
            beta2 = beta
        beta = (beta1 + beta2) / 2.0
        iterations += 1
    converged = abs(beta1 - beta2) <= _PRECISION
    achieved = ranked.coverage(beta)
    if achieved < 1.0 - alpha:
        beta = beta1
        achieved = ranked.coverage(beta)
    return ZhangResult(SimultaneousRankCIs(ranked.intervals(beta), alpha, "zhang"), achieved,
                       beta, converged, iterations)
