"""Direct routes to the program's results, for the tests to check them against."""

import numpy as np

from rankci.mcquantile import empirical_quantile, pair_row_maxima


def restricted_max_quantile(pool, pairs, alpha):
    """Empirical (1-alpha)-quantile of the maximum over a restricted pair set.

    ``pairs`` is a boolean ``(n, n)`` mask over the pool's columns with a
    False diagonal.  The statistic per pool row is
    ``max over pairs[i, j] of (Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2)``
    (signed, so one-sided hypotheses are represented faithfully).  Every
    quantile is computed afresh over all pool rows, so on a fixed pool
    the result is exactly non-decreasing in the pair set.
    """
    i_idx, j_idx = np.nonzero(pairs)
    return empirical_quantile(pair_row_maxima(pool, i_idx, j_idx), alpha)


def ordered_pair_row_maxima(pool, keep):
    """Row maxima of (Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2), one ordered pair at a time.

    ``keep(i, j)`` says whether the ordered pair counts.  Every value is
    computed in the pool's dtype, each scale rounded to it once.
    """
    cols = pool.draws.T
    scalar = cols.dtype.type
    sig2 = pool.sigma ** 2
    out = np.full(pool.n_samples, -np.inf, dtype=cols.dtype)
    for i in range(pool.n_centers):
        for j in range(pool.n_centers):
            if i != j and keep(i, j):
                out = np.maximum(out, (cols[i] - cols[j]) / scalar(np.sqrt(sig2[i] + sig2[j])))
    return out
