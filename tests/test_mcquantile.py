import numpy as np
import pytest

from rankci.core import PairSet
from rankci.mcquantile import (
    MC_SAMPLES_FLOOR,
    full_row_maxima,
    make_mc_pool,
    negative_row_maxima,
    restricted_max_quantile,
    studentized_range_quantile,
)

# standard-normal quantiles, frozen from tables:
# the n=2 equal-sigma statistic is |Z|, so its (1-a) quantile is z_{1-a/2};
# a single ordered pair is one-sided, quantile z_{1-a}
Z_975 = 1.959964
Z_75 = 0.674490
Z_95 = 1.644854
# classical 0.95 studentized-range point for 3 groups, infinite df, divided
# by sqrt(2) because the pairwise scale here is sqrt(sigma_i^2 + sigma_j^2)
SR3_95_OVER_SQRT2 = 2.343701


class TestMakeMcPool:
    def test_deterministic(self):
        a = make_mc_pool([1.0, 1.0], 100_000, seed=7)
        b = make_mc_pool([1.0, 1.0], 100_000, seed=7)
        assert np.array_equal(a.draws, b.draws)

    def test_column_means_centered(self):
        pool = make_mc_pool([1.0, 1.0], 100_000, seed=7)
        assert np.all(np.abs(pool.draws.mean(axis=0)) < 4 / np.sqrt(100_000))

    def test_column_scale(self):
        pool = make_mc_pool([2.0], 100_000, seed=3)
        sd = pool.draws[:, 0].std()
        assert abs(sd - 2.0) / 2.0 < 0.02

    def test_floor_enforced(self):
        with pytest.raises(ValueError):
            make_mc_pool([1.0], 999, seed=0)
        make_mc_pool([1.0], MC_SAMPLES_FLOOR, seed=0)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            make_mc_pool([0.0], 1000, seed=0)
        with pytest.raises(ValueError):
            make_mc_pool([-1.0, 1.0], 1000, seed=0)
        with pytest.raises(ValueError):
            make_mc_pool([], 1000, seed=0)

    def test_draws_frozen(self):
        pool = make_mc_pool([1.0], 1000, seed=0)
        with pytest.raises(ValueError):
            pool.draws[0, 0] = 1.0


class TestStudentizedRangeQuantile:
    def test_two_center_oracle(self):
        pool = make_mc_pool([1.0, 1.0], 100_000, seed=42)
        assert abs(studentized_range_quantile(pool, 0.05) - Z_975) < 0.02
        assert abs(studentized_range_quantile(pool, 0.5) - Z_75) < 0.01

    def test_three_center_oracle(self):
        pool = make_mc_pool([1.0, 1.0, 1.0], 200_000, seed=42)
        assert abs(studentized_range_quantile(pool, 0.05) - SR3_95_OVER_SQRT2) < 0.03

    def test_convergence_with_pool_size(self):
        # O(1/sqrt(N)) shrinkage toward the analytic value
        q_small = studentized_range_quantile(make_mc_pool([1.0, 1.0], 10_000, seed=1), 0.05)
        q_large = studentized_range_quantile(make_mc_pool([1.0, 1.0], 1_000_000, seed=1), 0.05)
        assert abs(q_small - Z_975) < 0.06
        assert abs(q_large - Z_975) < 0.008

    def test_single_center_rejected(self):
        pool = make_mc_pool([1.0], 1000, seed=0)
        with pytest.raises(ValueError):
            studentized_range_quantile(pool, 0.05)

    def test_alpha_domain(self):
        pool = make_mc_pool([1.0, 1.0], 1000, seed=0)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                studentized_range_quantile(pool, bad)

    def test_deterministic(self):
        q1 = studentized_range_quantile(make_mc_pool([1.0, 2.0], 50_000, seed=9), 0.05)
        q2 = studentized_range_quantile(make_mc_pool([1.0, 2.0], 50_000, seed=9), 0.05)
        assert q1 == q2

    def test_equal_sigma_fast_path_matches_pairwise(self):
        # the equal-sigma range shortcut must agree bit for bit with the
        # general pairwise evaluation over the full ordered-pair set
        pool = make_mc_pool([1.5, 1.5, 1.5, 1.5], 20_000, seed=13)
        full = restricted_max_quantile(pool, PairSet.all_pairs(4), 0.1)
        assert studentized_range_quantile(pool, 0.1) == full


class TestRestrictedMaxQuantile:
    def test_full_set_equals_studentized_range(self):
        pool = make_mc_pool([0.7, 1.0, 1.3], 50_000, seed=21)
        q_full = restricted_max_quantile(pool, PairSet.all_pairs(3), 0.05)
        assert q_full == studentized_range_quantile(pool, 0.05)

    def test_single_pair_one_sided_oracle(self):
        pool = make_mc_pool([1.0, 1.0], 200_000, seed=5)
        q = restricted_max_quantile(pool, PairSet(frozenset({(0, 1)})), 0.05)
        assert abs(q - Z_95) < 0.02

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_pair_set(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        pool = make_mc_pool(0.5 + rng.random(n), 5_000, seed=seed)
        all_pairs = sorted(PairSet.all_pairs(n))
        small = PairSet(frozenset(
            p for p in all_pairs if rng.random() < 0.3
        ) or frozenset({all_pairs[0]}))
        extra = frozenset(p for p in all_pairs if rng.random() < 0.5)
        big = PairSet(small.pairs | extra)
        q_small = restricted_max_quantile(pool, small, 0.05)
        q_big = restricted_max_quantile(pool, big, 0.05)
        assert q_small <= q_big

    def test_empty_pairs_rejected(self):
        pool = make_mc_pool([1.0, 1.0], 1000, seed=0)
        with pytest.raises(ValueError):
            restricted_max_quantile(pool, PairSet(), 0.05)

    def test_out_of_range_pair(self):
        pool = make_mc_pool([1.0, 1.0], 1000, seed=0)
        with pytest.raises(ValueError):
            restricted_max_quantile(pool, PairSet(frozenset({(0, 2)})), 0.05)


def _ordered_pair_row_maxima(pool, keep):
    """Row maxima of (Y_i - Y_j) / sqrt(sigma_i^2 + sigma_j^2), one ordered pair at a time."""
    cols = pool.draws.T
    sig2 = pool.sigma ** 2
    out = np.full(pool.n_samples, -np.inf)
    for i in range(pool.n_centers):
        for j in range(pool.n_centers):
            if i != j and keep(i, j):
                out = np.maximum(out, (cols[i] - cols[j]) / np.sqrt(sig2[i] + sig2[j]))
    return out


class TestRowMaximaCache:
    SIGMAS = {
        "unequal": np.random.default_rng(50).uniform(0.5, 1.5, 50),
        "equal": np.full(50, 1.2),
    }

    @pytest.mark.parametrize("negative_first", [False, True])
    @pytest.mark.parametrize("sigma", sorted(SIGMAS))
    def test_bit_identical_to_ordered_pair_loop(self, sigma, negative_first):
        pool = make_mc_pool(self.SIGMAS[sigma], 2_000, seed=17)
        if negative_first:
            negative = negative_row_maxima(pool)
            full = full_row_maxima(pool)
        else:
            full = full_row_maxima(pool)
            negative = negative_row_maxima(pool)
        assert full.tobytes() == _ordered_pair_row_maxima(pool, lambda i, j: True).tobytes()
        assert negative.tobytes() == _ordered_pair_row_maxima(pool, lambda i, j: i < j).tobytes()

    @pytest.mark.parametrize("sigma", sorted(SIGMAS))
    def test_computed_once_per_pool(self, sigma):
        pool = make_mc_pool(self.SIGMAS[sigma][:6], 1_000, seed=3)
        assert full_row_maxima(pool) is full_row_maxima(pool)
        assert negative_row_maxima(pool) is negative_row_maxima(pool)

    @pytest.mark.parametrize("sigma", sorted(SIGMAS))
    def test_cached_vectors_read_only(self, sigma):
        pool = make_mc_pool(self.SIGMAS[sigma][:6], 1_000, seed=3)
        q = studentized_range_quantile(pool, 0.05)
        for values in (full_row_maxima(pool), negative_row_maxima(pool)):
            with pytest.raises(ValueError):
                values[0] = np.inf
        assert studentized_range_quantile(pool, 0.05) == q

    def test_single_center_rejected(self):
        pool = make_mc_pool([1.0], 1000, seed=0)
        with pytest.raises(ValueError):
            negative_row_maxima(pool)
