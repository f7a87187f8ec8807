"""Monte-Carlo quantiles of standardized pairwise maxima.

One frozen pool of centered Gaussian draws backs every quantile evaluation.
Because all quantiles are order statistics of row-wise maxima taken over the
*same* rows, the quantile is exactly (not just statistically) monotone in the
pair set: more pairs can only raise each row's maximum.

The pool keeps one memo of what depends on it alone, each value once: its
full-range and negative-pair row maxima (:func:`row_maxima`), and at each
alpha the full-range quantile and the indices of the rows that can reach a
restricted quantile (:func:`rows_reaching`).  Nothing in it depends on a
sample, so a shared pool carries no state from one sample to the next.

The pool is one column-major buffer, so every pairwise operation reads two
contiguous columns.  It is float32 when every sigma lies in
``[_F32_SIGMA_MIN, _F32_SIGMA_MAX]``, float32's analogue of the core range,
and float64 otherwise.  The draws come from the same float64
``standard_normal`` stream either way, and each scaled value is rounded once,
when it is stored.  Every kernel computes in the pool's dtype, its pair
scales rounded to it once, so its row maxima are bit for bit an ordered-pair
loop in that dtype; a float32 pool halves the bytes each kernel moves.

The row-maxima kernels split the pool rows into contiguous spans, one per
usable core, and run each span in its own thread (numpy releases the GIL
inside its loops).  Every row still takes its max over the same pairs in the
same order, so no result depends on the number of cores.
"""

import contextlib
import functools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import _as_sigma_vector

__all__ = [
    "McPool",
    "make_mc_pool",
    "studentized_range_quantile",
    "DEFAULT_MC_SAMPLES",
    "MC_SAMPLES_FLOOR",
]

#: Pool size used by the estimators unless the caller asks for more.
DEFAULT_MC_SAMPLES = 100_000

#: Hard floor below which quantile estimates are too noisy to trust.
MC_SAMPLES_FLOOR = 1_000

#: Fewest pool rows a row-maxima thread is given; smaller pools run in one span.
_MIN_SPAN_ROWS = 25_000

#: Sigmas in [_F32_SIGMA_MIN, _F32_SIGMA_MAX] get a float32 pool: as in the
#: core range, a square and a sum of two squares are then normal float32s.
_F32_SIGMA_MIN = float(np.sqrt(np.finfo(np.float32).tiny))
_F32_SIGMA_MAX = float(np.sqrt(np.finfo(np.float32).max / 2))

#: Largest share of the pool's rows :func:`rows_reaching` copies; past it
#: (typically at alpha = 0.5, which keeps half the rows or more) the copy's
#: memory and gather cost more than the smaller restricted rounds save.
_MAX_KEPT_SHARE = 0.25


@dataclass(frozen=True, eq=False)
class McPool:
    """Frozen N x n matrix of independent centered Gaussian draws.

    Column i has scale ``sigma[i]``.  The pool is generated once and reused
    for every critical-value evaluation; this sharing is what makes the
    sequential procedure's critical values provably non-increasing.

    The draws are stored once: ``_cols`` is the C-contiguous n x N buffer,
    one row per center, and ``draws`` is its transpose, a view.  Both are
    read-only.  Their dtype, float32 or float64, is the pool's (see the
    module docstring): each value is ``sigma[i]`` times a float64 standard
    normal, rounded once to it.  Every row maximum is in the same dtype.
    Pools compare and hash by identity.

    ``_memo`` holds what depends on the pool alone, filled through
    :func:`_memoized`: under ``"row_maxima"`` the full-range and negative-pair
    row maxima (read through :func:`row_maxima`), under ``("full", alpha)``
    each alpha's :func:`studentized_range_quantile`, and under ``("kept",
    alpha)`` the indices of the rows :func:`rows_reaching` keeps, or None;
    the kept rows' maxima are sliced from ``"row_maxima"``, not stored again.
    Its arrays are read-only, so no caller can change a later quantile.
    """

    _cols: np.ndarray = field(repr=False)
    sigma: np.ndarray
    seed: int
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self._cols.ndim != 2 or len(self._cols) != self.sigma.size:
            raise ValueError("the pool buffer must have one row per sigma")
        self._cols.setflags(write=False)
        self.sigma.setflags(write=False)

    @property
    def draws(self) -> np.ndarray:
        """The N x n draws, one column per center: a view of ``_cols``."""
        return self._cols.T

    @property
    def n_samples(self) -> int:
        return self._cols.shape[1]

    @property
    def n_centers(self) -> int:
        return self.sigma.size

    def matches_sigma(self, sigma) -> bool:
        return np.array_equal(self.sigma, np.asarray(sigma, dtype=float))

    def take_rows(self, rows) -> "McPool":
        """A pool of the given rows of this one, copied, with an empty memo."""
        return McPool(np.take(self._cols, rows, axis=1), self.sigma, self.seed)


def _check_fits_memory(need: int, what: str, flag: str) -> None:
    """Refuse ``need`` bytes for ``what`` beyond physical memory; the error names ``flag``."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if 0 < have < need:
        raise ValueError(
            f"{what} needs {need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB of "
            f"physical memory; use a smaller {flag}"
        )


def _normal_row_chunks(seed: int, k: int, n: int, step: int):
    """Yield ``default_rng(seed).standard_normal((k, n))`` bit for bit, ``step`` rows at a time.

    standard_normal fills its output in C order from one stream, so each chunk
    holds the next rows of that one draw.  Every chunk is a view of one buffer,
    which the next overwrites; the k x n matrix is never allocated.
    """
    rng = np.random.default_rng(seed)
    buffer = np.empty((min(step, k), n))
    for start in range(0, k, step):
        yield rng.standard_normal(out=buffer[: min(step, k - start)])


def _draw_chunk_rows(n: int) -> int:
    """Pool rows drawn from the generator at a time while a pool of n centers is filled.

    4096 rows up to n = 128; above, the draw buffer beside the pool is held
    to 2**19 values (4 MiB).  Smaller chunks at narrow n draw more slowly.
    """
    return max(1, min(4096, 2**19 // n))


def make_mc_pool(sigma, n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> McPool:
    """Draw the reusable pool of centered Gaussians, one column per center.

    Deterministic for fixed ``(sigma, n_samples, seed)``; the generator is
    PCG64 via ``numpy.random.default_rng``, so pools reproduce bit-for-bit
    across platforms.  The pool is float32 when every sigma lies in
    ``[_F32_SIGMA_MIN, _F32_SIGMA_MAX]``, else float64; either way each value
    is the float64 product of sigma and one draw of the same stream, rounded
    once to the pool's dtype when it is stored.

    Raises
    ------
    ValueError
        If ``n_samples`` is below ``MC_SAMPLES_FLOOR``, any sigma lies
        outside ``[SIGMA_MIN, SIGMA_MAX]`` (see :mod:`rankci.core`), or the
        pool would not fit in physical memory.
    """
    sigma = _as_sigma_vector(np.array(sigma, dtype=float))  # a copy: the pool freezes it
    n_samples = int(n_samples)
    if n_samples < MC_SAMPLES_FLOOR:
        raise ValueError(f"n_samples={n_samples} is below the floor of {MC_SAMPLES_FLOOR}")
    in_f32 = sigma.min() >= _F32_SIGMA_MIN and sigma.max() <= _F32_SIGMA_MAX
    dtype = np.dtype(np.float32 if in_f32 else np.float64)
    _check_fits_memory(n_samples * sigma.size * dtype.itemsize,
                       f"a Monte-Carlo pool of {n_samples} x {sigma.size} draws", "--mc-samples")
    # each chunk of one (n_samples, n) draw is scaled in float64, then stored
    # transposed and rounded to the pool's dtype
    cols = np.empty((sigma.size, n_samples), dtype=dtype)
    step = _draw_chunk_rows(sigma.size)
    chunks = _normal_row_chunks(seed, n_samples, sigma.size, step)
    for start, rows in zip(range(0, n_samples, step), chunks):
        np.multiply(rows.T, sigma[:, None], out=cols[:, start:start + len(rows)])
    return McPool(cols, sigma, int(seed))


def empirical_quantile(values: np.ndarray, alpha: float, _below: int = 0) -> float:
    """Upper order statistic at 1-based index ceil((1-alpha)*N).

    This convention never falls below the conventional empirical quantile,
    and it is deterministic, which keeps the monotonicity arguments exact.

    ``values`` are row maxima in the pool's dtype, and the result is one of
    them, widened exactly to a Python float.  The observed statistic it is
    compared with stays float64.  So on a float32 pool a decision can differ
    from a float64 pool's only where a statistic lies within float32
    rounding of the quantile, a few units in its last float32 place.

    ``_below`` counts values left out of ``values`` because they lie strictly
    below the result: N is ``values.size + _below``, and the statistic is the
    ``(k - _below)``-th smallest of ``values``, the same value.

    Raises
    ------
    ValueError
        If ``alpha`` is not in (0, 1), or if the index reaches N: the
        quantile would be the maximum, with no value above it, so the level
        is not resolved.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n = values.size + _below
    k = int(np.ceil((1.0 - alpha) * n))
    if k >= n:
        raise ValueError(
            f"alpha={alpha:g} is too small for N={n} Monte-Carlo samples: the critical "
            f"value would be the pool maximum; use a larger --mc-samples (alpha * N >= 1)"
        )
    return float(np.partition(values, k - 1 - _below)[k - 1 - _below])


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def _in_background(fn):
    """Run ``fn()`` in a thread of its own while the ``with`` body runs.

    Yields ``join``, which waits for the thread and returns what ``fn``
    returned, or re-raises what it raised.  The thread is joined on leaving
    the block however the block ends, so it never outlives the block; an
    exception raised in the body propagates in place of one from ``fn``.
    """
    outcome = {}

    def run():
        try:
            outcome["result"] = fn()
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()

    def join():
        thread.join()
        if "error" in outcome:
            raise outcome["error"]
        return outcome["result"]

    try:
        yield join
    finally:
        thread.join()


def _over_row_spans(n_rows: int, kernel) -> None:
    """Run ``kernel(start, stop)`` on contiguous spans covering ``range(n_rows)``.

    There is one span per usable core, each of at least ``_MIN_SPAN_ROWS``
    rows.  The first span runs in the calling thread, the others each in a
    thread of their own.  A kernel writes only its own slice of its outputs,
    so spans share no mutable state.  An exception raised in any span is
    re-raised here once every span has finished.
    """
    spans = max(1, min(_usable_cores(), n_rows // _MIN_SPAN_ROWS))
    bounds = [n_rows * k // spans for k in range(spans + 1)]
    with contextlib.ExitStack() as stack:
        joins = [stack.enter_context(_in_background(functools.partial(kernel, *span)))
                 for span in zip(bounds[1:-1], bounds[2:])]
        kernel(bounds[0], bounds[1])
        for join in joins:
            join()


def _standardized_diffs(pool: McPool, i_idx, j_idx, start: int, stop: int):
    """Yield ``(Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2)`` on pool rows start:stop, pair by pair.

    Every value is written into the same buffer, in the pool's dtype.  Each
    scale is rounded to that dtype once, so a Python float holds it exactly
    and every division rounds in the pool's dtype, whatever numpy's scalar
    promotion rules.  Indices and scales are looped over as Python numbers,
    which is cheaper per pair on small pools.
    """
    i_idx, j_idx = np.asarray(i_idx, dtype=int), np.asarray(j_idx, dtype=int)
    sig2 = pool.sigma ** 2
    scales = np.sqrt(sig2[i_idx] + sig2[j_idx]).astype(pool._cols.dtype)
    cols = list(pool._cols[:, start:stop])
    diff = np.empty(stop - start, dtype=pool._cols.dtype)
    for i, j, scale in zip(i_idx.tolist(), j_idx.tolist(), scales.tolist()):
        np.subtract(cols[i], cols[j], out=diff)
        diff /= scale
        yield diff


def pair_row_maxima(pool: McPool, i_idx: np.ndarray, j_idx: np.ndarray) -> np.ndarray:
    """Per-row max of (Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2) over given pairs, in the pool's dtype."""
    out = np.empty(pool.n_samples, dtype=pool._cols.dtype)

    def kernel(start, stop):
        row_max = out[start:stop]
        row_max.fill(-np.inf)
        for diff in _standardized_diffs(pool, i_idx, j_idx, start, stop):
            np.maximum(row_max, diff, out=row_max)

    _over_row_spans(pool.n_samples, kernel)
    return out


def _memoized(pool: McPool, key, make):
    """``pool._memo[key]``, set to ``make()`` on first use.

    Nothing is kept when ``make`` raises, so a refused level is refused on
    every call; two threads that race on a key at most make it twice.  No
    value may refer to the pool: a pool reachable from its own memo is freed
    only by the cycle collector, so its draws would outlive their last user.
    """
    if key not in pool._memo:
        pool._memo[key] = make()
    return pool._memo[key]


def _fill_row_maxima(pool: McPool) -> tuple[np.ndarray, np.ndarray]:
    """The full-range and negative-pair row maxima, read-only, made in one pass.

    With equal sigmas and scale ``s``, both reduce to order statistics of
    each row: the negative-pair maximum is ``max_j (max_{i<j} Y_i - Y_j) / s``,
    a running prefix maximum, and the prefix ends at the row's maximum, so the
    full maximum is ``(prefix - min) / s``.  IEEE subtraction and division by
    ``s > 0`` round monotonically, so both are bit for bit the maxima over the
    pairs.

    With unequal sigmas one pass over the unordered pairs i > j keeps the
    row-wise max and min of ``d_ij``.  IEEE subtraction is exactly
    antisymmetric and the scale is symmetric, so ``d_ji == -d_ij``: minus the
    min is the maximum over the negative pairs (i < j), and the larger of the
    two is the maximum of ``|d_ij|`` over all ordered pairs, bit for bit what
    a loop over ordered pairs gives.

    Both vectors are in the pool's dtype, and so is every value on the way:
    the scale is rounded to it once, so no division rounds through float64.
    """
    if pool.n_centers < 2:
        raise ValueError("need at least 2 centers to form a pair")
    cols = pool._cols
    sigma = pool.sigma
    full, negative = (np.empty(pool.n_samples, dtype=cols.dtype) for _ in range(2))
    if np.all(sigma == sigma[0]):
        scale = cols.dtype.type(np.sqrt(sigma[0] ** 2 + sigma[0] ** 2))

        def kernel(start, stop):
            span, upper, lower = cols[:, start:stop], full[start:stop], negative[start:stop]
            lower.fill(-np.inf)
            prefix = span[0].copy()
            diff = np.empty(stop - start, dtype=cols.dtype)
            for row in span[1:]:
                np.maximum(lower, np.subtract(prefix, row, out=diff), out=lower)
                np.maximum(prefix, row, out=prefix)
            np.subtract(prefix, span.min(axis=0), out=upper)
            upper /= scale
            lower /= scale
    else:
        i_idx, j_idx = np.tril_indices(pool.n_centers, k=-1)

        def kernel(start, stop):
            upper = full[start:stop]
            lower = negative[start:stop]
            upper.fill(-np.inf)
            lower.fill(np.inf)
            for diff in _standardized_diffs(pool, i_idx, j_idx, start, stop):
                np.maximum(upper, diff, out=upper)
                np.minimum(lower, diff, out=lower)
            np.negative(lower, out=lower)
            np.maximum(upper, lower, out=upper)

    _over_row_spans(pool.n_samples, kernel)
    full.setflags(write=False)
    negative.setflags(write=False)
    return full, negative


def row_maxima(pool: McPool) -> tuple[np.ndarray, np.ndarray]:
    """``(full, negative)``: per-row maxima of ``(Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2)``.

    ``full`` is over all pairs, the studentized-range statistic; ``negative``
    over the pairs i < j, the negative pairs of a sorted sample, which the
    sequential procedure keeps in every round.  Both are made in one pass on
    first use and returned read-only from the pool's memo.
    """
    return _memoized(pool, "row_maxima", lambda: _fill_row_maxima(pool))


def studentized_range_quantile(pool: McPool, alpha: float) -> float:
    """Empirical (1-alpha)-quantile of the standardized pairwise range.

    The statistic per pool row is
    ``max over i != j of |Y_i - Y_j| / sqrt(sigma_i^2 + sigma_j^2)``,
    equal to the restricted maximum over the full ordered-pair set.  It is
    read from :func:`row_maxima`, and each alpha's order statistic is
    selected once per pool and kept in its memo.
    """
    return _memoized(pool, ("full", alpha),
                     lambda: empirical_quantile(row_maxima(pool)[0], alpha))


def _kept_rows(pool: McPool, alpha: float):
    """Read-only indices of the rows reaching Qneg(alpha); None past the share."""
    full, negative = row_maxima(pool)
    keep = full >= empirical_quantile(negative, alpha)
    if np.count_nonzero(keep) > _MAX_KEPT_SHARE * pool.n_samples:
        return None
    keep = np.flatnonzero(keep)
    keep.setflags(write=False)
    return keep


def rows_reaching(pool: McPool, alpha: float):
    """The pool rows the restricted quantiles at ``alpha`` are selected from.

    A pair set that holds every negative pair has row maxima at least the
    negative-pair ones, so its quantile is at least Qneg(alpha), the same
    order statistic of the negative maxima of :func:`row_maxima`; a row
    whose full-range maximum is below Qneg(alpha) cannot reach it.  Returns
    ``(rows, full, negative, below)``: a pool of the rows that can, their
    slices of the full-range and negative-pair maxima, and the number of
    rows left out; or, when more than ``_MAX_KEPT_SHARE`` of the rows can,
    ``pool`` itself, all its maxima and 0.  Only the rows' indices are kept,
    once per pool and alpha; the rows and their maxima are copied on every
    call, since a copy kept in the memo would stay in memory between calls.
    """
    rows = _memoized(pool, ("kept", alpha), lambda: _kept_rows(pool, alpha))
    full, negative = row_maxima(pool)
    if rows is None:  # a marker, not the pool itself: see _memoized
        return pool, full, negative, 0
    return pool.take_rows(rows), full[rows], negative[rows], pool.n_samples - rows.size
