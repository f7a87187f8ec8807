import gc
import weakref
from itertools import combinations

import numpy as np
import pytest

from rankci import mcquantile
from rankci.core import CenterSample, rank_bounds_from_rejections
from rankci.mcquantile import McPool, make_mc_pool, pair_row_maxima
from rankci.seqtukey import sequential_tukey
from rankci.simharness import preset_scenario, run_coverage
from rankci.tukey import tukey_rank_cis, tukey_rejected_pairs
from oracles import restricted_max_quantile


def mask(n, pairs):
    """Boolean (n, n) mask holding the given (i, j) pairs."""
    out = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        out[i, j] = True
    return out


def memo_arrays(pool):
    """Every array in the pool's memo, those inside its tuples included."""
    entries = (v for entry in pool._memo.values()
               for v in (entry if isinstance(entry, tuple) else (entry,)))
    return [v for v in entries if isinstance(v, np.ndarray)]


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
        assert trace.iterations == 2
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
        from rankci.mcquantile import studentized_range_quantile

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


class TestSharedPoolCallOrder:
    """A pool shared by several samples and levels gives each call the result of a fresh pool.

    The pool's memo keeps only what depends on the pool alone (its row
    maxima, and per alpha its full-range quantile and the rows that reach
    Qneg), so no call order can change a result.
    """

    N = 4_000
    SEED = 11

    @pytest.fixture(scope="class")
    def samples(self):
        # two equal-sigma samples, so both fit one pool
        rng = np.random.default_rng(4)
        n, sigma = 24, np.full(24, 0.8)
        return [CenterSample.from_observations(
                    np.arange(n) * spread + sigma * rng.standard_normal(n), sigma)
                for spread in (0.4, 0.25)]

    def run(self, sample, alpha, pool):
        _, trace = sequential_tukey(sample, alpha, pool)
        return ([q.hex() for q in trace.critical_values],
                [(step.newly_rejected.tobytes(), step.rejected_total.tobytes())
                 for step in trace.steps])

    @pytest.mark.parametrize("order", [
        [(0, 0.05), (0, 0.5)],
        [(0, 0.5), (0, 0.05)],
        [(0, 0.05), (1, 0.05), (0, 0.5), (1, 0.5), (0, 0.05)],
    ], ids=["alpha-then-half", "half-then-alpha", "interleaved"])
    def test_same_as_fresh_pools(self, samples, order, monkeypatch):
        rows_seen = []

        def recording(pool, i_idx, j_idx):
            rows_seen.append(pool.n_samples)
            return pair_row_maxima(pool, i_idx, j_idx)

        fresh = {(k, alpha): self.run(samples[k], alpha,
                                      make_mc_pool(samples[k].sigma, self.N, seed=self.SEED))
                 for k, alpha in order}
        monkeypatch.setattr("rankci.seqtukey.pair_row_maxima", recording)
        pool = make_mc_pool(samples[0].sigma, self.N, seed=self.SEED)
        for k, alpha in order:
            assert self.run(samples[k], alpha, pool) == fresh[k, alpha]
        # each level runs several rounds, and some round recomputed only
        # gathered stale rows
        assert all(len(qs) >= 3 for qs, _ in fresh.values())
        assert min(rows_seen) < self.N
        for values in memo_arrays(pool):
            assert not values.flags.writeable

    def test_pool_keeps_no_sample_state(self, samples):
        # every restricted round runs, yet the pool keeps only what depends
        # on the pool alone
        pool = make_mc_pool(samples[0].sigma, self.N, seed=self.SEED)
        for sample in samples:
            for alpha in (0.05, 0.5):
                _, trace = sequential_tukey(sample, alpha, pool)
                assert trace.iterations >= 3
        assert set(pool._memo) == {"row_maxima", ("full", 0.05), ("full", 0.5),
                                   ("kept", 0.05), ("kept", 0.5)}

    def test_interleaved_masks_not_nested(self, samples):
        # guards the fixture: the second sample's first restricted round
        # keeps a pair the first sample's last round had dropped, so row
        # maxima carried over from the first call would be no valid base
        # for the second, and the call-order tests above run that sequence
        pool = make_mc_pool(samples[0].sigma, self.N, seed=self.SEED)
        _, first = sequential_tukey(samples[0], 0.05, pool)
        _, second = sequential_tukey(samples[1], 0.05, pool)
        last_active = np.tril(~first.final_rejected, -1)
        active = np.tril(~second.steps[0].rejected_total, -1)
        assert np.any(active & ~last_active)


class TestPoolMemo:
    """The pool's memo keeps only what depends on the pool alone, and never the pool."""

    @staticmethod
    def run_both_levels(pool):
        # a spread sample: at alpha 0.05 a restricted round runs on the copy
        # of the rows that reach Qneg, at 0.5 more than a quarter reach it
        rng = np.random.default_rng(4)
        sigma = np.full(24, 0.8)
        sample = CenterSample.from_observations(np.arange(24) * 0.4 + sigma * rng.standard_normal(24),
                                                sigma)
        for alpha in (0.05, 0.5):
            _, trace = sequential_tukey(sample, alpha, pool)
            assert trace.iterations >= 3
        assert pool._memo["kept", 0.05] is not None
        assert pool._memo["kept", 0.5] is None

    def test_memo_never_holds_its_pool(self):
        # without the cycle collector, a pool reachable from its own memo
        # would stay alive after its last reference is dropped
        gc.disable()
        try:
            pool = make_mc_pool(np.full(24, 0.8), 4_000, seed=11)
            self.run_both_levels(pool)
            freed = weakref.ref(pool)
            del pool
            assert freed() is None
        finally:
            gc.enable()

    def test_memo_arrays_read_only(self):
        pool = make_mc_pool(np.full(24, 0.8), 4_000, seed=11)
        self.run_both_levels(pool)
        # the two row-maxima vectors and the kept rows' indices and maxima
        arrays = memo_arrays(pool)
        assert len(arrays) == 5
        for values in arrays:
            with pytest.raises(ValueError):
                values[0] = 0

    def test_rows_selected_once_per_pool_and_alpha(self, monkeypatch):
        selected, reached = [], []
        kept_rows, rows_reaching = mcquantile._kept_rows, mcquantile.rows_reaching

        def counted_selection(pool, alpha):
            selected.append((pool, alpha))
            return kept_rows(pool, alpha)

        def counted_call(pool, alpha):
            reached.append(alpha)
            return rows_reaching(pool, alpha)

        monkeypatch.setattr(mcquantile, "_kept_rows", counted_selection)
        monkeypatch.setattr("rankci.seqtukey.rows_reaching", counted_call)
        run_coverage(preset_scenario("paper3", reps=12, methods=("tukey", "seqtukey"),
                                     mc_samples=20_000))
        # the replicates share one pool, and several run restricted rounds
        assert len(selected) == len(set(selected)) == 1
        assert len(reached) > 1


def closed_testing_rejections(sample, alpha, pool):
    """The rejections of the closed testing procedure seqtukey shortcuts, by brute force.

    The local test of a nonempty set S of positive pairs rejects when the
    largest statistic in S exceeds the restricted-max quantile over S and
    every negative pair, on the same pool.  A pair is rejected when every S
    that holds it is rejected (Goeman & Solari 2010, sequential rejection).
    """
    n = sample.n
    sig2 = sample.sigma ** 2
    stat = (sample.y[:, None] - sample.y[None, :]) / np.sqrt(sig2[:, None] + sig2[None, :])
    positives = list(zip(*np.nonzero(positive_mask(n))))
    negatives = positive_mask(n).T
    rejected = positive_mask(n)
    for size in range(1, len(positives) + 1):
        for subset in combinations(positives, size):
            held = mask(n, subset)
            if not stat[held].max() > restricted_max_quantile(pool, held | negatives, alpha):
                rejected &= ~held
    return rejected


class TestClosedTestingOracle:
    """seqtukey rejects exactly what closed testing of its local tests rejects."""

    @pytest.mark.filterwarnings("ignore:observed estimates contain exact ties")
    @pytest.mark.parametrize("kind", ["spread", "tied", "none", "all"])
    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("sigmas", ["equal", "unequal"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equals_closed_testing(self, n, sigmas, alpha, kind, monkeypatch):
        sigma = np.ones(n) if sigmas == "equal" else np.linspace(0.6, 1.4, n)
        y = {"spread": 1.8 * np.arange(n),
             "tied": 3.6 * (np.arange(n) // 2),  # 0, 0, 3.6, 3.6, 7.2
             "none": np.zeros(n),
             "all": 20.0 * np.arange(n)}[kind]
        sample = CenterSample.from_observations(y, sigma)
        pool = make_mc_pool(sample.sigma, 2_000, seed=5)
        rows_taken = []
        take_rows = McPool.take_rows

        def recording(self, rows):
            rows_taken.append(len(rows))
            return take_rows(self, rows)

        monkeypatch.setattr(McPool, "take_rows", recording)
        _, trace = sequential_tukey(sample, alpha, pool)
        assert np.array_equal(trace.final_rejected, closed_testing_rejections(sample, alpha, pool))
        if kind == "none":
            assert not trace.final_rejected.any()
        if kind == "all":
            assert np.array_equal(trace.final_rejected, positive_mask(n))
        if kind == "spread" and alpha == 0.05:
            # a restricted round runs, on a copy of the rows that reach Qneg
            assert trace.iterations >= 2
            assert 0 < rows_taken[0] <= pool.n_samples // 4
