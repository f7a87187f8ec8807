import numpy as np
import pytest

from rankci.core import (
    SIGMA_MAX,
    SIGMA_MIN,
    CenterSample,
    PairSet,
    RankInterval,
    SimultaneousRankCIs,
    true_set_ranks,
    truth_partition,
)


class TestTrueSetRanks:
    def test_two_tied_below_one(self):
        # mu = (a, a, b) with a < b
        ranks = true_set_ranks([1.0, 1.0, 5.0])
        assert [(r.lower, r.upper) for r in ranks] == [(1, 2), (1, 2), (3, 3)]

    def test_all_distinct(self):
        ranks = true_set_ranks([1.0, 2.0, 3.0])
        assert [(r.lower, r.upper) for r in ranks] == [(1, 1), (2, 2), (3, 3)]

    def test_full_tie(self):
        ranks = true_set_ranks([2.5] * 4)
        assert [(r.lower, r.upper) for r in ranks] == [(1, 4)] * 4

    def test_unsorted_input(self):
        ranks = true_set_ranks([3.0, 1.0, 2.0])
        assert [(r.lower, r.upper) for r in ranks] == [(3, 3), (1, 1), (2, 2)]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            true_set_ranks([1.0, np.nan])
        with pytest.raises(ValueError):
            true_set_ranks([np.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            true_set_ranks([])

    @pytest.mark.parametrize("seed", range(20))
    def test_width_equals_tie_count(self, seed):
        rng = np.random.default_rng(seed)
        # force ties by rounding
        mu = np.round(rng.normal(size=12), 1)
        ranks = true_set_ranks(mu)
        for i, r in enumerate(ranks):
            ties = np.count_nonzero(mu == mu[i]) - 1
            assert r.width == ties

    def test_total_width_counts_tied_ordered_pairs(self):
        mu = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0])
        ranks = true_set_ranks(mu)
        # each unordered tied pair contributes twice
        tied_ordered = sum(
            1
            for i in range(len(mu))
            for j in range(len(mu))
            if i != j and mu[i] == mu[j]
        )
        assert sum(r.width for r in ranks) == tied_ordered


def pairs_of(mask):
    return set(zip(*(idx.tolist() for idx in np.nonzero(mask))))


class TestTruthPartition:
    def test_two_distinct(self):
        true_pairs, false_pairs = truth_partition([0.0, 1.0])
        assert pairs_of(true_pairs) == {(0, 1)}
        assert pairs_of(false_pairs) == {(1, 0)}

    def test_tie_makes_both_true(self):
        true_pairs, false_pairs = truth_partition([0.0, 0.0])
        assert pairs_of(true_pairs) == {(0, 1), (1, 0)}
        assert not false_pairs.any()

    def test_three_distinct_false_count(self):
        # all 6 ordered pairs by hand: (i,j) true iff mu_i <= mu_j
        true_pairs, false_pairs = truth_partition([0.0, 1.0, 2.0])
        assert np.count_nonzero(false_pairs) == 3
        assert pairs_of(true_pairs) == {(0, 1), (0, 2), (1, 2)}

    @pytest.mark.parametrize("seed", range(10))
    def test_partition_covers_all_ordered_pairs(self, seed):
        rng = np.random.default_rng(seed)
        mu = np.round(rng.normal(size=7), 1)
        true_pairs, false_pairs = truth_partition(mu)
        assert true_pairs.shape == false_pairs.shape == (7, 7)
        assert np.array_equal(true_pairs | false_pairs, ~np.eye(7, dtype=bool))
        assert not (true_pairs & false_pairs).any()

    def test_masks_read_only(self):
        for mask in truth_partition([0.0, 1.0, 1.0]):
            with pytest.raises(ValueError):
                mask[0, 1] = False


class TestIntervalTypes:
    def test_set_rank_validation(self):
        with pytest.raises(ValueError):
            RankInterval(2, 1)
        with pytest.raises(ValueError):
            RankInterval(0, 1)

    def test_rank_interval_containment(self):
        ci = RankInterval(2, 5)
        assert ci.contains_rank(2) and ci.contains_rank(5)
        assert not ci.contains_rank(1)
        assert RankInterval(3, 4).is_subset_of(ci)
        assert not RankInterval(1, 3).is_subset_of(ci)
        assert ci.is_subset_of(RankInterval(1, 5))
        assert not ci.is_subset_of(RankInterval(3, 5))

    def test_simultaneous_cis_must_contain_empirical_rank(self):
        good = (RankInterval(1, 2), RankInterval(1, 2))
        SimultaneousRankCIs(good, 0.05, "tukey")
        bad = (RankInterval(2, 2), RankInterval(1, 2))
        with pytest.raises(ValueError):
            SimultaneousRankCIs(bad, 0.05, "seqtukey")
        # zhang intervals may miss the empirical rank
        SimultaneousRankCIs(bad, 0.05, "zhang")

    def test_simultaneous_cis_bounds_checked_against_n(self):
        with pytest.raises(ValueError):
            SimultaneousRankCIs((RankInterval(1, 3),), 0.05, "tukey")

    def test_unknown_method_tag(self):
        with pytest.raises(ValueError):
            SimultaneousRankCIs((RankInterval(1, 1),), 0.05, "holm")

    def test_nesting_helper(self):
        outer = SimultaneousRankCIs((RankInterval(1, 2), RankInterval(1, 2)), 0.05, "tukey")
        inner = SimultaneousRankCIs((RankInterval(1, 1), RankInterval(2, 2)), 0.05, "seqtukey")
        assert inner.is_nested_in(outer)
        assert not outer.is_nested_in(inner)


class TestPairSet:
    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            PairSet(frozenset({(1, 1)}))

    def test_constructors(self):
        assert len(PairSet.all_pairs(4)) == 12
        assert len(PairSet.positive_pairs(4)) == 6
        assert len(PairSet.negative_pairs(4)) == 6
        assert set(PairSet.all_pairs(3)) == set(
            PairSet.positive_pairs(3).union(PairSet.negative_pairs(3))
        )
        assert all(i > j for i, j in PairSet.positive_pairs(5))
        assert all(i < j for i, j in PairSet.negative_pairs(5))

    def test_membership_and_subset(self):
        ps = PairSet(frozenset({(2, 0), (1, 0)}))
        assert (2, 0) in ps
        assert (0, 2) not in ps
        assert ps.issubset(PairSet.positive_pairs(3))
        assert ps.difference(PairSet(frozenset({(1, 0)}))).pairs == frozenset({(2, 0)})

    def test_index_arrays_sorted(self):
        ps = PairSet(frozenset({(3, 1), (1, 0), (2, 1)}))
        i_idx, j_idx = ps.index_arrays()
        assert list(zip(i_idx.tolist(), j_idx.tolist())) == [(1, 0), (2, 1), (3, 1)]


class TestCenterSample:
    def test_sorts_and_round_trips(self):
        s = CenterSample.from_observations([3.0, 1.0, 2.0], [0.3, 0.1, 0.2], ids=["c", "a", "b"])
        assert s.y.tolist() == [1.0, 2.0, 3.0]
        assert s.sigma.tolist() == [0.1, 0.2, 0.3]
        assert s.ids == ("a", "b", "c")
        assert s.to_input_order(s.ids) == ["c", "a", "b"]
        assert s.to_input_order(s.y.tolist()) == [3.0, 1.0, 2.0]

    def test_tie_warns_and_keeps_input_order(self):
        with pytest.warns(UserWarning, match="ties"):
            s = CenterSample.from_observations([1.0, 1.0], [0.5, 0.7], ids=["x", "y"])
        assert s.ids == ("x", "y")
        assert s.sigma.tolist() == [0.5, 0.7]

    def test_validation(self):
        with pytest.raises(ValueError):
            CenterSample.from_observations([1.0], [0.0])
        with pytest.raises(ValueError):
            CenterSample.from_observations([1.0], [-1.0])
        with pytest.raises(ValueError):
            CenterSample.from_observations([np.nan], [1.0])
        with pytest.raises(ValueError):
            CenterSample.from_observations([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            CenterSample.from_observations([], [])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sort_check_of_extreme_estimates_does_not_overflow(self):
        # 1.7e308 - (-1.7e308) overflows; sortedness is checked by comparison alone
        s = CenterSample.from_observations([1.7e308, -1.7e308], [1.0, 1.0])
        assert s.y.tolist() == [-1.7e308, 1.7e308]

    def test_sigma_bounds(self):
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        assert SIGMA_MIN ** 2 >= tiny and np.nextafter(SIGMA_MIN, 0) ** 2 <= tiny
        assert np.isfinite(2 * SIGMA_MAX ** 2) and SIGMA_MAX < np.sqrt(huge)

    @pytest.mark.parametrize("sigma", [1e-170, np.nextafter(SIGMA_MIN, 0), 1e200,
                                       np.nextafter(SIGMA_MAX, np.inf), 0.0],
                             ids=["underflow", "below", "overflow", "above", "zero"])
    def test_sigma_whose_square_is_not_normal_refused(self, sigma):
        # sigma^2, or a sum of two, would be 0, subnormal or inf in every pairwise statistic
        with pytest.raises(ValueError, match=r"sigma must lie in \[1\.4917e-154, 9\.4808e\+153\]"):
            CenterSample.from_observations([1.0, 2.0], [1.0, sigma])

    def test_sigma_bounds_accepted(self):
        s = CenterSample.from_observations([1.0, 2.0], [SIGMA_MIN, SIGMA_MAX])
        assert s.sigma.tolist() == [SIGMA_MIN, SIGMA_MAX]

    def test_arrays_frozen(self):
        s = CenterSample.from_observations([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            s.y[0] = 5.0
