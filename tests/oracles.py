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
