"""Monte-Carlo quantiles of standardized pairwise maxima.

One frozen pool of centered Gaussian draws backs every quantile evaluation.
Because all quantiles are order statistics of row-wise maxima taken over the
*same* rows, the quantile is exactly (not just statistically) monotone in the
pair set: more pairs can only raise each row's maximum.

The two row-maxima vectors that do not depend on the data, over all pairs and
over the negative pairs, are computed once per pool and cached on it, so every
alpha and every method reads its critical value from the same vectors.  At
each alpha the full-range quantile and Qneg(alpha), the same order statistic
of the negative-pair maxima, are selected once per pool and kept too.  A pair
set that holds every negative pair has row maxima no smaller than the
negative-pair ones, so its quantile at alpha is at least Qneg(alpha); seqtukey
uses this floor to leave out the rows that cannot reach its quantiles, and
:func:`empirical_quantile` takes a private count of such rows.  The pool
caches nothing else, so a shared pool carries no state from one sample to the
next.

The pool is one column-major buffer, so every pairwise operation reads two
contiguous columns.  The row-maxima kernels split the pool rows into
contiguous spans, one per usable core that no live helper thread (such as
the bootstrap's) occupies, and run each span in its own thread (numpy
releases the GIL inside its loops).  Every row still takes its max
over the same pairs in the same order, so no result depends on the number of
cores.
"""

import contextlib
import functools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "McPool",
    "make_mc_pool",
    "studentized_range_quantile",
    "restricted_max_quantile",
    "DEFAULT_MC_SAMPLES",
    "MC_SAMPLES_FLOOR",
]

#: Pool size used by the estimators unless the caller asks for more.
DEFAULT_MC_SAMPLES = 100_000

#: Hard floor below which quantile estimates are too noisy to trust.
MC_SAMPLES_FLOOR = 1_000

#: Pool rows drawn from the generator at a time while the pool is filled.
_DRAW_CHUNK_ROWS = 4096

#: Fewest pool rows a row-maxima thread is given; smaller pools run in one span.
_MIN_SPAN_ROWS = 25_000


@dataclass(frozen=True, eq=False)
class McPool:
    """Frozen N x n matrix of independent centered Gaussian draws.

    Column i has scale ``sigma[i]``.  The pool is generated once and reused
    for every critical-value evaluation; this sharing is what makes the
    sequential procedure's critical values provably non-increasing.

    The draws are stored once: ``_cols`` is the C-contiguous n x N buffer,
    one row per center, and ``draws`` is its transpose, a view.  Both are
    read-only.  Pools compare and hash by identity.

    ``_row_maxima`` caches the ``"full"`` and ``"negative"`` row maxima of
    :func:`full_row_maxima` and :func:`negative_row_maxima`, read-only so no
    caller can change a later quantile, ``_full_quantiles`` each alpha's
    :func:`studentized_range_quantile`, and ``_negative_quantiles`` each
    alpha's Qneg, :func:`negative_pair_quantile`; all depend on the pool alone.
    """

    _cols: np.ndarray = field(repr=False)
    sigma: np.ndarray
    seed: int
    _row_maxima: dict = field(default_factory=dict, init=False, repr=False)
    _full_quantiles: dict = field(default_factory=dict, init=False, repr=False)
    _negative_quantiles: dict = field(default_factory=dict, init=False, repr=False)

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
        """A pool of the given rows of this one, copied, with an empty cache."""
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


def make_mc_pool(sigma, n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> McPool:
    """Draw the reusable pool of centered Gaussians, one column per center.

    Deterministic for fixed ``(sigma, n_samples, seed)``; the generator is
    PCG64 via ``numpy.random.default_rng``, so pools reproduce bit-for-bit
    across platforms.

    Raises
    ------
    ValueError
        If ``n_samples`` is below ``MC_SAMPLES_FLOOR``, any sigma is not
        positive, or the pool would not fit in physical memory.
    """
    sigma = np.array(sigma, dtype=float)  # a copy: the pool freezes it
    if sigma.ndim != 1 or sigma.size < 1:
        raise ValueError("sigma must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0):
        raise ValueError("every sigma must be finite and strictly positive")
    n_samples = int(n_samples)
    if n_samples < MC_SAMPLES_FLOOR:
        raise ValueError(f"n_samples={n_samples} is below the floor of {MC_SAMPLES_FLOOR}")
    _check_fits_memory(n_samples * sigma.size * 8,
                       f"a Monte-Carlo pool of {n_samples} x {sigma.size} draws", "--mc-samples")
    rng = np.random.default_rng(seed)
    # standard_normal fills its output in C order from one stream, so chunks
    # of rows hold the values of a single (n_samples, n) draw; each chunk is
    # scaled and stored transposed in the column-major buffer
    cols = np.empty((sigma.size, n_samples))
    chunk = np.empty((min(_DRAW_CHUNK_ROWS, n_samples), sigma.size))
    for start in range(0, n_samples, _DRAW_CHUNK_ROWS):
        stop = min(start + _DRAW_CHUNK_ROWS, n_samples)
        rows = rng.standard_normal(out=chunk[: stop - start])
        np.multiply(rows.T, sigma[:, None], out=cols[:, start:stop])
    return McPool(cols, sigma, int(seed))


def empirical_quantile(values: np.ndarray, alpha: float, _below: int = 0) -> float:
    """Upper order statistic at 1-based index ceil((1-alpha)*N).

    This convention never falls below the conventional empirical quantile,
    and it is deterministic, which keeps the monotonicity arguments exact.

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


#: Threads started by :func:`_in_background` whose ``fn`` has not yet returned,
#: counted process-wide, as the cores they occupy are.
_live_helpers = 0
_live_helpers_lock = threading.Lock()


def _count_helper(step: int) -> None:
    global _live_helpers
    with _live_helpers_lock:
        _live_helpers += step


@contextlib.contextmanager
def _in_background(fn):
    """Run ``fn()`` in a thread of its own while the ``with`` body runs.

    Yields ``join``, which waits for the thread and returns what ``fn``
    returned, or re-raises what it raised.  The thread is joined on leaving
    the block however the block ends, so it never outlives the block; an
    exception raised in the body propagates in place of one from ``fn``.
    The thread counts in ``_live_helpers`` from its start until ``fn``
    returns or raises.
    """
    outcome = {}

    def run():
        try:
            outcome["result"] = fn()
        except Exception as exc:
            outcome["error"] = exc
        finally:
            _count_helper(-1)

    thread = threading.Thread(target=run)
    _count_helper(1)
    try:
        thread.start()
    except BaseException:
        _count_helper(-1)
        raise

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

    There is one span per usable core not taken by a live helper thread
    (:func:`_in_background`, counted when the kernel starts), each of at
    least ``_MIN_SPAN_ROWS`` rows.  The first span runs in the calling
    thread, the others each in a thread of their own.  A kernel writes only
    its own slice of its outputs, so spans share no mutable state.  An
    exception raised in any span is re-raised here once every span has
    finished.
    """
    spans = max(1, min(_usable_cores() - _live_helpers, n_rows // _MIN_SPAN_ROWS))
    bounds = [n_rows * k // spans for k in range(spans + 1)]
    with contextlib.ExitStack() as stack:
        joins = [stack.enter_context(_in_background(functools.partial(kernel, *span)))
                 for span in zip(bounds[1:-1], bounds[2:])]
        kernel(bounds[0], bounds[1])
        for join in joins:
            join()


def _standardized_diffs(pool: McPool, i_idx, j_idx, start: int, stop: int):
    """Yield ``(Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2)`` on pool rows start:stop, pair by pair.

    Every value is written into the same buffer.  Indices and scales are
    looped over as Python numbers, which is cheaper per pair on small pools.
    """
    i_idx, j_idx = np.asarray(i_idx, dtype=int), np.asarray(j_idx, dtype=int)
    sig2 = pool.sigma ** 2
    scales = np.sqrt(sig2[i_idx] + sig2[j_idx])
    cols = list(pool._cols[:, start:stop])
    diff = np.empty(stop - start)
    for i, j, scale in zip(i_idx.tolist(), j_idx.tolist(), scales.tolist()):
        np.subtract(cols[i], cols[j], out=diff)
        diff /= scale
        yield diff


def pair_row_maxima(pool: McPool, i_idx: np.ndarray, j_idx: np.ndarray) -> np.ndarray:
    """Per-row max of (Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2) over given pairs."""
    out = np.empty(pool.n_samples)

    def kernel(start, stop):
        row_max = out[start:stop]
        row_max.fill(-np.inf)
        for diff in _standardized_diffs(pool, i_idx, j_idx, start, stop):
            np.maximum(row_max, diff, out=row_max)

    _over_row_spans(pool.n_samples, kernel)
    return out


def _fill_row_maxima(pool: McPool) -> None:
    """Cache the ``"full"`` and ``"negative"`` row maxima in one pass.

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
    """
    cols = pool._cols
    sigma = pool.sigma
    full, negative = np.empty(pool.n_samples), np.empty(pool.n_samples)
    if np.all(sigma == sigma[0]):
        scale = np.sqrt(sigma[0] ** 2 + sigma[0] ** 2)

        def kernel(start, stop):
            span, upper, lower = cols[:, start:stop], full[start:stop], negative[start:stop]
            lower.fill(-np.inf)
            prefix = span[0].copy()
            diff = np.empty(stop - start)
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
    for name, values in (("full", full), ("negative", negative)):
        values.setflags(write=False)
        pool._row_maxima[name] = values


def _cached_row_maxima(pool: McPool, key: str) -> np.ndarray:
    """The pool's ``"full"`` or ``"negative"`` row maxima, filling both on first use."""
    if pool.n_centers < 2:
        raise ValueError("need at least 2 centers to form a pair")
    if key not in pool._row_maxima:
        _fill_row_maxima(pool)
    return pool._row_maxima[key]


def full_row_maxima(pool: McPool) -> np.ndarray:
    """Per-row max over *all* pairs (the studentized-range statistic).

    With equal sigmas the maximum reduces to the standardized range
    (max - min); with unequal sigmas the n(n-1)/2 unordered pairs are visited
    once, taking ``|Y_i - Y_j| / sqrt(sigma_i^2 + sigma_j^2)``.  The vector is
    computed once per pool, with :func:`negative_row_maxima`, and returned
    read-only from its cache.
    """
    return _cached_row_maxima(pool, "full")


def negative_row_maxima(pool: McPool) -> np.ndarray:
    """Per-row max of (Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2) over pairs i < j.

    These are the negative pairs of a sorted sample, which the sequential
    procedure keeps in every round.  With equal sigmas this is a running
    prefix maximum, O(n) per row.  The vector is computed once per pool, with
    :func:`full_row_maxima`, and returned read-only from its cache.
    """
    return _cached_row_maxima(pool, "negative")


def studentized_range_quantile(pool: McPool, alpha: float) -> float:
    """Empirical (1-alpha)-quantile of the standardized pairwise range.

    The statistic per pool row is
    ``max over i != j of |Y_i - Y_j| / sqrt(sigma_i^2 + sigma_j^2)``,
    equal to the restricted maximum over the full ordered-pair set.  It is
    read from the pool's cached :func:`full_row_maxima`, and each alpha's
    order statistic is selected once per pool and kept with it.
    """
    if alpha not in pool._full_quantiles:
        pool._full_quantiles[alpha] = empirical_quantile(full_row_maxima(pool), alpha)
    return pool._full_quantiles[alpha]


def negative_pair_quantile(pool: McPool, alpha: float) -> float:
    """Qneg(alpha): the empirical (1-alpha)-quantile of :func:`negative_row_maxima`.

    Every pair set that holds all negative pairs has row maxima at least the
    negative-pair ones, so its quantile at alpha is at least Qneg(alpha).
    Each alpha's order statistic is selected once per pool and kept with it.
    """
    if alpha not in pool._negative_quantiles:
        pool._negative_quantiles[alpha] = empirical_quantile(negative_row_maxima(pool), alpha)
    return pool._negative_quantiles[alpha]


def restricted_max_quantile(pool: McPool, pairs: np.ndarray, alpha: float) -> float:
    """Empirical (1-alpha)-quantile of the maximum over a restricted pair set.

    ``pairs`` is a boolean ``(n, n)`` mask over the pool's columns with a
    False diagonal.  The statistic per pool row is
    ``max over pairs[i, j] of (Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2)``
    (signed, so one-sided hypotheses are represented faithfully).  On a fixed
    pool the result is exactly non-decreasing in the pair set.

    Raises
    ------
    ValueError
        If the mask is not ``(n, n)`` for this pool, is empty, or holds a
        diagonal pair.
    """
    pairs = np.asarray(pairs, dtype=bool)
    n = pool.n_centers
    if pairs.shape != (n, n):
        raise ValueError(f"pair mask must have shape ({n}, {n}), got {pairs.shape}")
    if pairs.diagonal().any():
        raise ValueError("pair (i, i) is not a valid hypothesis")
    if not pairs.any():
        raise ValueError("pair set is empty: no hypothesis left to calibrate")
    i_idx, j_idx = np.nonzero(pairs)
    return empirical_quantile(pair_row_maxima(pool, i_idx, j_idx), alpha)
