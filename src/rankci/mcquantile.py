"""Monte-Carlo quantiles of standardized pairwise maxima.

One frozen pool of centered Gaussian draws backs every quantile evaluation.
Because all quantiles are order statistics of row-wise maxima taken over the
*same* rows, the quantile is exactly (not just statistically) monotone in the
pair set: more pairs can only raise each row's maximum.

The two row-maxima vectors that do not depend on the data, over all pairs and
over the negative pairs, are computed once per pool and cached on it, so every
alpha and every method reads its critical value from the same vectors.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import PairSet

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


@dataclass(frozen=True)
class McPool:
    """Frozen N x n matrix of independent centered Gaussian draws.

    Column i has scale ``sigma[i]``.  The pool is generated once and reused
    for every critical-value evaluation; this sharing is what makes the
    sequential procedure's critical values provably non-increasing.

    The pool also carries a cache of row-maxima vectors, each of length N,
    filled on first use by :func:`full_row_maxima` and
    :func:`negative_row_maxima`.  Cached vectors are read-only, so no caller
    can change the quantiles later drawn from the same pool.
    """

    draws: np.ndarray
    sigma: np.ndarray
    seed: int
    n_samples: int
    _cols: np.ndarray = field(init=False, repr=False, compare=False)
    _row_maxima: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if draws.ndim != 2:
            raise ValueError("draws must be a 2-d matrix")
        if draws.shape != (self.n_samples, sigma.size):
            raise ValueError("draws shape must be (n_samples, len(sigma))")
        draws.setflags(write=False)
        sigma.setflags(write=False)
        # column-contiguous copy: pairwise column ops dominate the runtime
        cols = np.ascontiguousarray(draws.T)
        cols.setflags(write=False)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_row_maxima", {})

    @property
    def n_centers(self) -> int:
        return self.sigma.size

    def matches_sigma(self, sigma) -> bool:
        return np.array_equal(self.sigma, np.asarray(sigma, dtype=float))


def make_mc_pool(sigma, n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0,
                 floor: int = MC_SAMPLES_FLOOR) -> McPool:
    """Draw the reusable pool of centered Gaussians, one column per center.

    Deterministic for fixed ``(sigma, n_samples, seed)``; the generator is
    PCG64 via ``numpy.random.default_rng``, so pools reproduce bit-for-bit
    across platforms.

    Raises
    ------
    ValueError
        If ``n_samples`` is below ``floor`` or any sigma is not positive.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or sigma.size < 1:
        raise ValueError("sigma must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0):
        raise ValueError("every sigma must be finite and strictly positive")
    n_samples = int(n_samples)
    if n_samples < floor:
        raise ValueError(f"n_samples={n_samples} is below the floor of {floor}")
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n_samples, sigma.size)) * sigma[None, :]
    return McPool(draws=draws, sigma=sigma, seed=int(seed), n_samples=n_samples)


def empirical_quantile(values: np.ndarray, alpha: float) -> float:
    """Upper order statistic at 1-based index ceil((1-alpha)*N).

    This convention never falls below the conventional empirical quantile,
    and it is deterministic, which keeps the monotonicity arguments exact.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n = values.size
    k = int(np.ceil((1.0 - alpha) * n))
    k = min(max(k, 1), n)
    return float(np.partition(values, k - 1)[k - 1])


def pair_row_maxima(pool: McPool, i_idx: np.ndarray, j_idx: np.ndarray) -> np.ndarray:
    """Per-row max of (Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2) over given pairs."""
    cols = pool._cols
    sig2 = pool.sigma ** 2
    out = np.full(pool.n_samples, -np.inf)
    diff = np.empty(pool.n_samples)
    for i, j in zip(i_idx, j_idx):
        np.subtract(cols[i], cols[j], out=diff)
        diff /= np.sqrt(sig2[i] + sig2[j])
        np.maximum(out, diff, out=out)
    return out


def _fill_row_maxima(pool: McPool) -> None:
    """Cache both row-maxima vectors from one pass over the unordered pairs.

    For each pair i > j the pass keeps the row-wise max and min of
    ``d_ij = (Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2)``.  IEEE subtraction is
    exactly antisymmetric and the scale is symmetric, so ``d_ji == -d_ij``:
    minus the min is the maximum over the negative pairs (i < j), and the
    larger of the two is the maximum of ``|d_ij|`` over all ordered pairs, bit
    for bit what a loop over ordered pairs gives.
    """
    cols = pool._cols
    sig2 = pool.sigma ** 2
    upper = np.full(pool.n_samples, -np.inf)
    lower = np.full(pool.n_samples, np.inf)
    diff = np.empty(pool.n_samples)
    for i, j in zip(*np.tril_indices(pool.n_centers, k=-1)):
        np.subtract(cols[i], cols[j], out=diff)
        diff /= np.sqrt(sig2[i] + sig2[j])
        np.maximum(upper, diff, out=upper)
        np.minimum(lower, diff, out=lower)
    negative = np.negative(lower, out=lower)
    _cache(pool, "negative", negative)
    if "full" not in pool._row_maxima:
        _cache(pool, "full", np.maximum(upper, negative, out=upper))


def _cache(pool: McPool, key: str, values: np.ndarray) -> None:
    values.setflags(write=False)
    pool._row_maxima[key] = values


def _check_pairs_exist(pool: McPool) -> None:
    if pool.n_centers < 2:
        raise ValueError("need at least 2 centers to form a pair")


def full_row_maxima(pool: McPool) -> np.ndarray:
    """Per-row max over *all* pairs (the studentized-range statistic).

    With equal sigmas the maximum reduces to the standardized range
    (max - min); with unequal sigmas the n(n-1)/2 unordered pairs are visited
    once, taking ``|Y_i - Y_j| / sqrt(sigma_i^2 + sigma_j^2)``.  The vector is
    computed once per pool and returned read-only from its cache.
    """
    _check_pairs_exist(pool)
    if "full" not in pool._row_maxima:
        sigma = pool.sigma
        if np.all(sigma == sigma[0]):
            scale = np.sqrt(sigma[0] ** 2 + sigma[0] ** 2)
            _cache(pool, "full", (pool.draws.max(axis=1) - pool.draws.min(axis=1)) / scale)
        else:
            _fill_row_maxima(pool)
    return pool._row_maxima["full"]


def negative_row_maxima(pool: McPool) -> np.ndarray:
    """Per-row max of (Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2) over pairs i < j.

    These are the negative pairs of a sorted sample, which the sequential
    procedure keeps in every round.  The vector is computed once per pool and
    returned read-only from its cache.
    """
    _check_pairs_exist(pool)
    if "negative" not in pool._row_maxima:
        _fill_row_maxima(pool)
    return pool._row_maxima["negative"]


def studentized_range_quantile(pool: McPool, alpha: float) -> float:
    """Empirical (1-alpha)-quantile of the standardized pairwise range.

    The statistic per pool row is
    ``max over i != j of |Y_i - Y_j| / sqrt(sigma_i^2 + sigma_j^2)``,
    equal to the restricted maximum over the full ordered-pair set.  It is
    read from the pool's cached :func:`full_row_maxima`, so further calls on
    the same pool, at any alpha, only select an order statistic.
    """
    return empirical_quantile(full_row_maxima(pool), alpha)


def restricted_max_quantile(pool: McPool, pairs: PairSet, alpha: float) -> float:
    """Empirical (1-alpha)-quantile of the maximum over a restricted pair set.

    The statistic per pool row is
    ``max over (i, j) in pairs of (Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2)``
    (signed, so one-sided hypotheses are represented faithfully).  On a fixed
    pool the result is exactly non-decreasing in the pair set.

    Raises
    ------
    ValueError
        If ``pairs`` is empty or references a column outside the pool.
    """
    if not pairs:
        raise ValueError("pair set is empty: no hypothesis left to calibrate")
    i_idx, j_idx = pairs.index_arrays()
    n = pool.n_centers
    if i_idx.max() >= n or j_idx.max() >= n:
        raise ValueError("pair index out of range for this pool")
    return empirical_quantile(pair_row_maxima(pool, i_idx, j_idx), alpha)
