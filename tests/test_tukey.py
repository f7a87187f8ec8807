import numpy as np
import pytest

from rankci.core import CenterSample
from rankci.mcquantile import make_mc_pool, studentized_range_quantile
from rankci.tukey import (
    DifferenceCI,
    tukey_difference_cis,
    tukey_rank_cis,
    tukey_rejected_pairs,
)


def sample_and_pool(y, sigma, n_samples=100_000, seed=42):
    s = CenterSample.from_observations(y, sigma)
    return s, make_mc_pool(s.sigma, n_samples, seed=seed)


class TestDifferenceCIs:
    def test_two_centers_analytic(self):
        # q ~= 1.96, so mu_2 - mu_1 in 10 +- 1.96*sqrt(2) ~= [7.23, 12.77]
        s, pool = sample_and_pool([0.0, 10.0], [1.0, 1.0])
        cis = tukey_difference_cis(s, 0.05, pool)
        by_pair = {(c.i, c.j): c for c in cis}
        upper_minus_lower = by_pair[(1, 0)]
        assert abs(upper_minus_lower.lower - 7.228) < 0.05
        assert abs(upper_minus_lower.upper - 12.772) < 0.05

    def test_single_center_empty(self):
        s, pool = sample_and_pool([1.0], [1.0], n_samples=1000)
        assert tukey_difference_cis(s, 0.05, pool) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        s, pool = sample_and_pool(rng.normal(size=n), 0.5 + rng.random(n),
                                  n_samples=5_000, seed=seed)
        by_pair = {(c.i, c.j): c for c in tukey_difference_cis(s, 0.05, pool)}
        assert len(by_pair) == n * (n - 1)
        for (i, j), ci in by_pair.items():
            mirror = by_pair[(j, i)]
            assert ci.lower == -mirror.upper
            assert ci.upper == -mirror.lower

    def test_pool_mismatch_rejected(self):
        s, _ = sample_and_pool([0.0, 1.0], [1.0, 1.0], n_samples=1000)
        wrong = make_mc_pool([2.0, 2.0], 1000, seed=0)
        with pytest.raises(ValueError):
            tukey_difference_cis(s, 0.05, wrong)

    def test_difference_ci_validation(self):
        with pytest.raises(ValueError):
            DifferenceCI(0, 1, 2.0, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExtremeButValidInputs:
    """Valid samples whose pairwise statistic passes the float range."""

    @pytest.mark.parametrize("y, sigma", [
        ([-1.7e308, 1.7e308, 0.0], [1.0, 1.0, 1.0]),
        ([0.0, 1e200, 2e200], [1.5e-154, 1.5e-154, 1.0]),
    ], ids=["subtract", "divide"])
    def test_infinite_statistics_are_rejected(self, y, sigma):
        s, pool = sample_and_pool(y, sigma, n_samples=1000)
        cis = tukey_rank_cis(s, 0.05, pool)
        assert [(c.lower, c.upper) for c in cis.intervals] == [(1, 1), (2, 2), (3, 3)]

    def test_difference_cis_of_an_infinite_difference(self):
        s, pool = sample_and_pool([-1.7e308, 1.7e308, 0.0], [1.0, 1.0, 1.0], n_samples=1000)
        by_pair = {(c.i, c.j): c for c in tukey_difference_cis(s, 0.05, pool)}
        assert (by_pair[(2, 0)].lower, by_pair[(2, 0)].upper) == (np.inf, np.inf)
        assert (by_pair[(0, 2)].lower, by_pair[(0, 2)].upper) == (-np.inf, -np.inf)


class TestRankCIs:
    def test_clear_separation(self):
        # statistic 10/sqrt(2) ~= 7.07 > 1.96
        s, pool = sample_and_pool([0.0, 10.0], [1.0, 1.0])
        cis = tukey_rank_cis(s, 0.05, pool)
        assert [(c.lower, c.upper) for c in cis.intervals] == [(1, 1), (2, 2)]

    def test_near_tie(self):
        # statistic 0.1/sqrt(2) ~= 0.0707 <= 1.96
        s, pool = sample_and_pool([0.0, 0.1], [1.0, 1.0])
        cis = tukey_rank_cis(s, 0.05, pool)
        assert [(c.lower, c.upper) for c in cis.intervals] == [(1, 2), (1, 2)]

    def test_single_center(self):
        s, pool = sample_and_pool([1.0], [1.0], n_samples=1000)
        cis = tukey_rank_cis(s, 0.05, pool)
        assert [(c.lower, c.upper) for c in cis.intervals] == [(1, 1)]

    def test_one_low_two_indistinguishable(self):
        # bottom center separated from both others, which are tied:
        # CIs [1,1], [2,3], [2,3]
        s, pool = sample_and_pool([0.0, 10.0, 10.1], [1.0, 1.0, 1.0])
        cis = tukey_rank_cis(s, 0.05, pool)
        assert [(c.lower, c.upper) for c in cis.intervals] == [(1, 1), (2, 3), (2, 3)]

    def test_method_tag_and_alpha(self):
        s, pool = sample_and_pool([0.0, 10.0], [1.0, 1.0], n_samples=1000)
        cis = tukey_rank_cis(s, 0.05, pool)
        assert cis.method == "tukey"
        assert cis.alpha == 0.05

    @pytest.mark.parametrize("seed", range(30))
    def test_two_route_equivalence(self, seed):
        # rank CIs derived from the difference CIs must match the direct
        # counting construction exactly
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        mu = rng.normal(scale=rng.choice([0.3, 1.0, 4.0]), size=n)
        sigma = 0.5 + rng.random(n)
        y = mu + sigma * rng.standard_normal(n)
        s = CenterSample.from_observations(y, sigma)
        pool = make_mc_pool(s.sigma, 2_000, seed=seed)
        direct = tukey_rank_cis(s, 0.05, pool)
        diffs = tukey_difference_cis(s, 0.05, pool)
        lower = np.ones(n, dtype=int)
        upper = np.full(n, n, dtype=int)
        for ci in diffs:
            if ci.lower > 0:
                lower[ci.i] += 1
            if ci.upper <= 0:
                upper[ci.i] -= 1
        assert [(c.lower, c.upper) for c in direct.intervals] == list(zip(lower, upper))

    @pytest.mark.parametrize("seed", range(10))
    def test_contains_empirical_rank(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        s = CenterSample.from_observations(rng.normal(size=n), 0.5 + rng.random(n))
        pool = make_mc_pool(s.sigma, 2_000, seed=seed)
        cis = tukey_rank_cis(s, 0.05, pool)
        for k, ci in enumerate(cis.intervals, start=1):
            assert ci.contains_rank(k)


class TestRejectedPairs:
    def test_rejections_match_rank_cis(self):
        s, pool = sample_and_pool([0.0, 10.0, 10.1], [1.0, 1.0, 1.0])
        rejected = tukey_rejected_pairs(s, 0.05, pool)
        assert rejected[1, 0] and rejected[2, 0]
        assert np.count_nonzero(rejected) == 2

    def test_rejections_are_positive_pairs(self):
        rng = np.random.default_rng(3)
        s = CenterSample.from_observations(rng.normal(size=6), np.ones(6))
        pool = make_mc_pool(s.sigma, 2_000, seed=3)
        rejected = tukey_rejected_pairs(s, 0.05, pool)
        assert rejected.shape == (6, 6)
        assert np.all(~rejected | np.tril(np.ones((6, 6), dtype=bool), -1))
        with pytest.raises(ValueError):
            rejected[1, 0] = True

    def test_strict_rejection_uses_shared_quantile(self):
        # a statistic below q never rejects; the same q feeds both helpers
        s, pool = sample_and_pool([0.0, 0.5], [1.0, 1.0], n_samples=1000)
        q = studentized_range_quantile(pool, 0.05)
        assert 0.5 / np.sqrt(2) < q
        assert not tukey_rejected_pairs(s, 0.05, pool).any()
