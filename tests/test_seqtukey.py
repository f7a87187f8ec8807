import numpy as np
import pytest

from rankci.core import CenterSample, rank_bounds_from_rejections
from rankci.mcquantile import make_mc_pool
from rankci.seqtukey import sequential_tukey
from rankci.tukey import tukey_rank_cis, tukey_rejected_pairs


def mask(n, pairs):
    """Boolean (n, n) mask holding the given (i, j) pairs."""
    out = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        out[i, j] = True
    return out


def positive_mask(n):
    return np.tril(np.ones((n, n), dtype=bool), -1)


def random_instance(seed, n_lo=2, n_hi=10, pool_size=2_000):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi))
    mu = rng.normal(scale=rng.choice([0.2, 1.0, 5.0]), size=n)
    sigma = 0.5 + rng.random(n)
    y = mu + sigma * rng.standard_normal(n)
    s = CenterSample.from_observations(y, sigma)
    pool = make_mc_pool(s.sigma, pool_size, seed=seed)
    return s, pool


class TestRankBoundsFromRejections:
    def test_no_rejections(self):
        bounds = rank_bounds_from_rejections(mask(3, []))
        assert [(b.lower, b.upper) for b in bounds] == [(1, 3)] * 3

    def test_all_positive_pairs_rejected(self):
        bounds = rank_bounds_from_rejections(positive_mask(4))
        assert [(b.lower, b.upper) for b in bounds] == [(i, i) for i in range(1, 5)]

    def test_bottom_separated(self):
        bounds = rank_bounds_from_rejections(mask(3, [(1, 0), (2, 0)]))
        assert [(b.lower, b.upper) for b in bounds] == [(1, 1), (2, 3), (2, 3)]

    def test_rejects_negative_pair(self):
        # a pair on or above the diagonal, alone or beside positive ones
        for pairs in ([(0, 1)], [(1, 0), (0, 2)], [(1, 0), (2, 2)]):
            with pytest.raises(ValueError, match="lower-triangular"):
                rank_bounds_from_rejections(mask(3, pairs))

    def test_rejects_out_of_range(self):
        # a pair outside 0..n-1 has no entry in an (n, n) mask; any other
        # shape is refused
        for bad in (np.zeros((3, 4), dtype=bool), np.zeros(3, dtype=bool),
                    np.zeros((2, 2, 2), dtype=bool)):
            with pytest.raises(ValueError, match="square"):
                rank_bounds_from_rejections(bad)


class TestSequentialTukey:
    def test_all_separated_singletons(self):
        # every positive statistic >= 7.07 clears q0 ~= 2.34 in round one
        s = CenterSample.from_observations([0.0, 10.0, 20.0], [1.0, 1.0, 1.0])
        pool = make_mc_pool(s.sigma, 100_000, seed=1)
        cis, trace = sequential_tukey(s, 0.05, pool)
        assert [(c.lower, c.upper) for c in cis.intervals] == [(1, 1), (2, 2), (3, 3)]
        assert cis.iterations == 1
        assert trace.iterations == 1

    def test_fixed_point_equals_tukey(self):
        s = CenterSample.from_observations([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
        pool = make_mc_pool(s.sigma, 50_000, seed=2)
        cis, trace = sequential_tukey(s, 0.05, pool)
        assert trace.iterations == 1
        assert not trace.final_rejected.any()
        tuk = tukey_rank_cis(s, 0.05, pool)
        assert [(c.lower, c.upper) for c in cis.intervals] == [
            (c.lower, c.upper) for c in tuk.intervals
        ]

    def test_golden_regression_three_centers(self):
        # frozen from a brute-force 1e6-sample oracle: q0 ~= 2.3437 rejects
        # only the outer pair (stat 4.243); the recomputed critical value
        # over the 5 remaining pairs is ~= 2.283, which the statistic 2.192
        # does not clear, so the procedure stops after two rounds
        s = CenterSample.from_observations([0.0, 2.9, 6.0], [1.0, 1.0, 1.0])
        pool = make_mc_pool(s.sigma, 1_000_000, seed=20240817)
        cis, trace = sequential_tukey(s, 0.05, pool)
        assert [(c.lower, c.upper) for c in cis.intervals] == [(1, 2), (1, 3), (2, 3)]
        assert cis.iterations == 2
        assert np.array_equal(trace.final_rejected, mask(3, [(2, 0)]))
        assert abs(trace.critical_values[0] - 2.3437) < 0.01
        assert abs(trace.critical_values[1] - 2.2825) < 0.01

    def test_single_center(self):
        s = CenterSample.from_observations([1.0], [1.0])
        pool = make_mc_pool(s.sigma, 1000, seed=0)
        cis, trace = sequential_tukey(s, 0.05, pool)
        assert [(c.lower, c.upper) for c in cis.intervals] == [(1, 1)]
        assert trace.iterations == 0

    def test_pool_mismatch_rejected(self):
        s = CenterSample.from_observations([0.0, 1.0], [1.0, 1.0])
        wrong = make_mc_pool([2.0, 2.0], 1000, seed=0)
        with pytest.raises(ValueError):
            sequential_tukey(s, 0.05, wrong)

    def test_method_tag(self):
        s = CenterSample.from_observations([0.0, 1.0], [1.0, 1.0])
        pool = make_mc_pool(s.sigma, 1000, seed=0)
        cis, _ = sequential_tukey(s, 0.05, pool)
        assert cis.method == "seqtukey"

    @pytest.mark.parametrize("seed", range(60))
    def test_invariants_on_random_instances(self, seed):
        s, pool = random_instance(seed)
        n = s.n
        cis, trace = sequential_tukey(s, 0.05, pool)

        # monotone critical values, exact on the shared pool
        qs = trace.critical_values
        assert all(qs[k + 1] <= qs[k] for k in range(len(qs) - 1))

        # rejected sets only grow; round one onward stays within positives
        previous = mask(n, [])
        for step in trace.steps:
            assert np.all(~previous | step.rejected_total)
            assert np.all(~step.newly_rejected | positive_mask(n))
            previous = step.rejected_total

        # strict growth until the final round
        for step in trace.steps[:-1]:
            assert step.newly_rejected.any()

        # termination bound: at most one round per positive pair, plus one
        assert trace.iterations <= n * (n - 1) // 2 + 1

        # empirical rank containment
        for k, ci in enumerate(cis.intervals, start=1):
            assert ci.contains_rank(k)

        # nested within single-step Tukey on the same pool
        tuk = tukey_rank_cis(s, 0.05, pool)
        assert cis.is_nested_in(tuk)

        # round one makes exactly Tukey's rejections
        assert np.array_equal(trace.steps[0].newly_rejected, tukey_rejected_pairs(s, 0.05, pool))

        # single-step Tukey is the rank bounds of its rejection mask
        rebuilt = rank_bounds_from_rejections(tukey_rejected_pairs(s, 0.05, pool))
        assert [(c.lower, c.upper) for c in tuk.intervals] == [
            (b.lower, b.upper) for b in rebuilt
        ]

    def test_trace_masks_read_only(self):
        s, pool = random_instance(123, n_lo=5, n_hi=9)
        _, trace = sequential_tukey(s, 0.05, pool)
        for step in trace.steps:
            for rejected in (step.newly_rejected, step.rejected_total):
                assert rejected.shape == (s.n, s.n)
                with pytest.raises(ValueError):
                    rejected[1, 0] = True

    def test_bounds_match_final_rejections(self):
        s, pool = random_instance(123, n_lo=5, n_hi=9)
        cis, trace = sequential_tukey(s, 0.05, pool)
        rebuilt = rank_bounds_from_rejections(trace.final_rejected)
        assert [(c.lower, c.upper) for c in cis.intervals] == [
            (b.lower, b.upper) for b in rebuilt
        ]

    @pytest.mark.parametrize("seed", [0, 7, 19, 55])
    def test_critical_values_match_restricted_quantile(self, seed):
        # round 1 uses the full studentized-range quantile; every later round
        # must equal the restricted-max quantile over the unrejected
        # positives plus all negatives, evaluated on the same pool
        from rankci.mcquantile import restricted_max_quantile, studentized_range_quantile

        s, pool = random_instance(seed, n_lo=4, n_hi=9)
        _, trace = sequential_tukey(s, 0.05, pool)
        n = s.n
        assert trace.critical_values[0] == studentized_range_quantile(pool, 0.05)
        positives = positive_mask(n)
        negatives = positives.T
        for k in range(1, trace.iterations):
            remaining = positives & ~trace.steps[k - 1].rejected_total
            expected = restricted_max_quantile(pool, remaining | negatives, 0.05)
            assert trace.critical_values[k] == expected
