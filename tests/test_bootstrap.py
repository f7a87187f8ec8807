import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankci import bootstrap
from rankci.bootstrap import (
    BootstrapConfig,
    RankCounts,
    _type3_index,
    make_bootstrap_draws,
    spiegelhalter_pointwise,
    zhang_simultaneous,
)
from rankci.core import CenterSample

WELL_SEPARATED = (1.512, 1.764, 1.853, 3.020, 3.154, 4.895, 5.419, 7.468, 10.521, 13.054)
NEAR_TIED = (0.017, 0.020, 0.023, 0.029, 0.036, 0.039, 0.048, 0.077, 0.086, 0.089)


def rank_rows(draws):
    """1-based rank of every entry within its row, ties by position: the inverse sort permutation."""
    ranks = np.empty(draws.shape, dtype=np.int32)
    positions = np.arange(1, draws.shape[1] + 1, dtype=np.int32)
    np.put_along_axis(ranks, np.argsort(draws, axis=1, kind="stable"), positions[None, :], axis=1)
    return ranks


def quantile_type3(sorted_values, p):
    """Nearest-order-statistic quantile of sorted values, at ``_type3_index``."""
    return float(sorted_values[_type3_index(sorted_values.size, p) - 1])


def rank_counts_of(ranks):
    """The RankCounts of K x n 1-based ranks; center i at rank v is cell ``(v - 1) * n + i``.

    The definition the draw is tested against: ``RankCounts.draw`` counts the
    same cells straight from each replicate's sort order.  The cells are read
    back in the row chunks the draw reads its orders back in.
    """
    k, n = ranks.shape
    cells = (ranks - 1) * n + np.arange(n, dtype=np.int32)
    counts = np.bincount(cells.ravel(), minlength=n * n).reshape(n, n)
    return RankCounts._of_cells(counts, k, (chunk.T for chunk in bootstrap._row_chunks(cells)))


def assert_same_counts(got, expected):
    for name in ("at_most", "fewest_at_most", "most_below"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestQuantileType3:
    def test_nearest_order_statistic_on_1_to_10(self):
        x = np.arange(1.0, 11.0)
        assert quantile_type3(x, 0.25) == 2.0  # lands on even j=2, stays
        assert quantile_type3(x, 0.5) == 5.0
        assert quantile_type3(x, 0.75) == 8.0  # lands on odd j=7, moves up

    def test_extremes_clamped(self):
        x = np.arange(1.0, 11.0)
        assert quantile_type3(x, 0.0) == 1.0
        assert quantile_type3(x, 1.0) == 10.0

    def test_never_interpolates(self):
        x = np.array([1.0, 10.0, 100.0])
        for p in np.linspace(0, 1, 23):
            assert quantile_type3(x, p) in x


class TestIntervalBounds:
    """The count table's bounds are the type-3 quantiles of each center's ranks."""

    @pytest.mark.parametrize("k", [1, 2, 37, 1000])
    def test_one_column_per_bound_matches_per_row_quantiles(self, monkeypatch, k):
        monkeypatch.setattr(bootstrap, "_CHUNK_VALUES", 7)
        rng = np.random.default_rng(k)
        ranks = rng.integers(1, 9, size=(k, 8), dtype=np.int32)
        sorted_ranks = np.sort(ranks.T, axis=1)
        counts = rank_counts_of(ranks)
        for beta in (1e-12, 1e-4, 0.01, 0.05, 0.2, 0.5, 0.9, 1 - 1e-12):
            cis = counts.intervals(beta)
            assert [c.lower for c in cis] == [quantile_type3(row, beta / 2) for row in sorted_ranks]
            assert [c.upper for c in cis] == [quantile_type3(row, 1 - beta / 2)
                                              for row in sorted_ranks]
        # a beta this small clamps both bounds to the extreme order statistics
        cis = counts.intervals(1e-12)
        assert [c.lower for c in cis] == sorted_ranks[:, 0].tolist()
        assert [c.upper for c in cis] == sorted_ranks[:, -1].tolist()


def reference_bisection(ranks, alpha, cfg):
    """The bisection over a K x n rank matrix, one K x n coverage pass per step.

    Returns ``(bounds, achieved, beta, converged, iterations, fell_back)``.
    """
    k = ranks.shape[0]
    sorted_ranks = np.sort(ranks.T, axis=1)

    def bounds(beta):
        return (sorted_ranks[:, _type3_index(k, beta / 2.0) - 1].tolist(),
                sorted_ranks[:, _type3_index(k, 1.0 - beta / 2.0) - 1].tolist())

    def coverage(beta):
        lower, upper = (np.array(b) for b in bounds(beta))
        outside = (ranks < lower[None, :]) | (ranks > upper[None, :])
        return 1.0 - np.count_nonzero(outside.any(axis=1)) / k

    beta1, beta2, iterations = 0.0, alpha, 0
    beta = (beta1 + beta2) / 2.0
    while abs(beta1 - beta2) > bootstrap._PRECISION and iterations < cfg.maxiter:
        if coverage(beta) >= 1.0 - alpha:
            beta1 = beta
        else:
            beta2 = beta
        beta = (beta1 + beta2) / 2.0
        iterations += 1
    converged = abs(beta1 - beta2) <= bootstrap._PRECISION
    achieved = coverage(beta)
    fell_back = achieved < 1.0 - alpha
    if fell_back:
        beta = beta1
        achieved = coverage(beta)
    return bounds(beta), achieved, beta, converged, iterations, fell_back


# replicates that make the last bisection candidate under-cover, so the
# result falls back to the last feasible bracket end
FALLBACK_CASES = [
    ([[2, 1, 3], [3, 1, 2], [2, 3, 1], [2, 3, 1], [2, 1, 3], [3, 1, 2], [2, 1, 3], [1, 3, 2]],
     0.9, 1),
    ([[2, 3, 1], [3, 2, 1], [1, 3, 2], [2, 1, 3], [1, 2, 3], [1, 2, 3], [1, 2, 3]],
     0.5, 2),
]


@st.composite
def rank_matrices(draw):
    """K x n rank matrices, rows permutations of 1..n; few distinct rows half of the time."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 40))
    distinct = draw(st.integers(1, 3) | st.just(k))
    rows = draw(st.lists(st.permutations(range(1, n + 1)), min_size=distinct,
                         max_size=distinct))
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=k, max_size=k))
    return np.array([rows[p] for p in picks], dtype=np.int32).reshape(k, n)


class TestCountTableBisection:
    """The count-table bisection is the K x n bisection, result for result."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(ranks=rank_matrices(),
           alpha=st.sampled_from([0.01, 0.05, 0.2, 0.5, 0.9]) | st.floats(0.001, 0.999),
           maxiter=st.integers(1, 60),
           chunk_rows=st.sampled_from([1, 3, 4096]))
    @example(ranks=np.array(FALLBACK_CASES[0][0], dtype=np.int32), alpha=0.9, maxiter=1,
             chunk_rows=3)
    @example(ranks=np.array(FALLBACK_CASES[1][0], dtype=np.int32), alpha=0.5, maxiter=2,
             chunk_rows=4096)
    @example(ranks=np.ones((5, 1), dtype=np.int32), alpha=0.05, maxiter=50, chunk_rows=2)
    def test_count_table_bisection_matches_reference(self, ranks, alpha, maxiter, chunk_rows):
        k, n = ranks.shape
        cfg = BootstrapConfig(n_boot=k, maxiter=maxiter)
        # chunks of chunk_rows rows, but never fewer than the n-row floor
        old_budget, bootstrap._CHUNK_VALUES = bootstrap._CHUNK_VALUES, chunk_rows * n
        try:
            counts = rank_counts_of(ranks)
        finally:
            bootstrap._CHUNK_VALUES = old_budget
        # the table and both K-vectors, against their definitions
        v = np.arange(n + 1)
        at_most = (ranks.T[:, :, None] <= v[None, None, :]).sum(axis=1)
        assert np.array_equal(counts.at_most, at_most)
        rows = np.arange(n)
        assert np.array_equal(counts.fewest_at_most, at_most[rows, ranks].min(axis=1))
        assert np.array_equal(counts.most_below, at_most[rows, ranks - 1].max(axis=1))
        assert counts.fewest_at_most.dtype == counts.most_below.dtype == np.int32

        sample = CenterSample.from_observations(np.arange(n, dtype=float), np.ones(n))
        res = zhang_simultaneous(sample, alpha, cfg, counts)
        bounds, achieved, beta, converged, iterations, _ = reference_bisection(ranks, alpha, cfg)
        assert ([c.lower for c in res.cis.intervals], [c.upper for c in res.cis.intervals]) \
            == bounds
        assert res.achieved_coverage == achieved
        assert res.beta_final == beta
        assert res.converged == converged
        assert res.iterations == iterations

    @pytest.mark.parametrize("ranks, alpha, maxiter", FALLBACK_CASES)
    def test_fallback_cases_fall_back(self, ranks, alpha, maxiter):
        ranks = np.array(ranks, dtype=np.int32)
        cfg = BootstrapConfig(n_boot=len(ranks), maxiter=maxiter)
        assert reference_bisection(ranks, alpha, cfg)[-1]

    def test_equals_the_reference_on_drawn_replicates(self):
        for seed, n in enumerate((1, 2, 10)):
            s = CenterSample.from_observations(np.asarray(NEAR_TIED[:n]) * 50, [1.0] * n)
            cfg = BootstrapConfig(n_boot=2000, seed=seed)
            res = zhang_simultaneous(s, 0.05, cfg)
            bounds, achieved, beta, _, iterations, _ = reference_bisection(
                rank_rows(make_bootstrap_draws(s, cfg)), 0.05, cfg)
            assert [(c.lower, c.upper) for c in res.cis.intervals] == list(zip(*bounds))
            assert (res.achieved_coverage, res.beta_final, res.iterations) \
                == (achieved, beta, iterations)

    @staticmethod
    def peak_and_guarded(monkeypatch, n, k):
        """The tracemalloc peak of one zhang_simultaneous call, and what the memory guard counted."""
        s = CenterSample.from_observations(np.arange(n) * 0.3, np.ones(n))
        guarded = []
        check = bootstrap._check_fits_memory

        def recorded(need, *args):
            guarded.append(need)
            check(need, *args)

        # a first call's lazy imports are no part of the bootstrap's peak
        zhang_simultaneous(s, 0.05, BootstrapConfig(n_boot=100, seed=1))
        monkeypatch.setattr(bootstrap, "_check_fits_memory", recorded)
        tracemalloc.start()
        try:
            zhang_simultaneous(s, 0.05, BootstrapConfig(n_boot=k, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(guarded) == 1
        return peak, guarded[0]

    def test_peak_memory_is_the_rank_matrix_and_what_the_guard_counts(self, monkeypatch):
        n, k = 20, 200_000
        peak, guarded = self.peak_and_guarded(monkeypatch, n, k)
        assert peak <= 1.3 * k * n * 4
        # the memory guard counts at least the peak it guards
        assert peak <= guarded

    @pytest.mark.parametrize("n, limit", [(50, 2 * 2**20), (300, 12 * 2**20)])
    def test_peak_memory_at_wide_n_is_the_compact_orders(self, monkeypatch, n, limit):
        # K = 1e4 int32 cells alone take 1.9 MiB at n = 50 and 11.4 MiB at n = 300;
        # the n x n table and a chunk of n rows fit beside uint8/uint16 orders
        peak, guarded = self.peak_and_guarded(monkeypatch, n, 10_000)
        assert peak <= limit and peak <= guarded


class TestChunkedRanks:
    """The draw counts each chunk's cells from its sort order; the oracle ranks the whole draw."""

    @pytest.mark.parametrize("n, k", [(5, 23), (5, 21), (5, 4), (1, 10), (1, 23)],
                             ids=["partial-last-chunk", "whole-chunks", "below-one-chunk",
                                  "one-center", "one-center-partial-chunk"])
    def test_equals_ranks_of_the_full_draw(self, monkeypatch, n, k):
        monkeypatch.setattr(bootstrap, "_CHUNK_VALUES", 7 * n)
        assert bootstrap._chunk_rows(n) == 7
        rng = np.random.default_rng(n * 100 + k)
        s = CenterSample.from_observations(rng.normal(size=n), rng.uniform(0.5, 1.5, n))
        cfg = BootstrapConfig(n_boot=k, seed=k)
        assert_same_counts(RankCounts.draw(s, cfg),
                           rank_counts_of(rank_rows(make_bootstrap_draws(s, cfg))))

    def test_default_chunk_size_with_a_partial_last_chunk(self):
        s = CenterSample.from_observations(NEAR_TIED, [1.0] * 10)
        assert bootstrap._chunk_rows(10) == 4096
        cfg = BootstrapConfig(n_boot=bootstrap._chunk_rows(10) * 2 + 3, seed=1)
        assert_same_counts(RankCounts.draw(s, cfg),
                           rank_counts_of(rank_rows(make_bootstrap_draws(s, cfg))))

    @pytest.mark.filterwarnings("ignore:n_boot=.* is too small")
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(n=st.integers(1, 12),
           chunk_rows=st.sampled_from([1, 3, 4096]),
           k=st.integers(1, 60).filter(lambda k: k % 3),
           seed=st.integers(0, 2**32 - 1),
           beta=st.floats(0.01, 0.99))
    def test_counts_of_the_sort_order_are_the_counts_of_the_ranks(self, n, chunk_rows, k, seed,
                                                                  beta):
        rng = np.random.default_rng(seed)
        s = CenterSample.from_observations(rng.normal(size=n), rng.uniform(0.5, 1.5, n))
        cfg = BootstrapConfig(n_boot=k, seed=seed)
        draws = make_bootstrap_draws(s, cfg)
        expected = rank_counts_of(rank_rows(draws))
        # chunks of chunk_rows rows, but never fewer than the n-row floor
        old_budget, bootstrap._CHUNK_VALUES = bootstrap._CHUNK_VALUES, chunk_rows * n
        try:
            assert_same_counts(RankCounts.draw(s, cfg), expected)
            # the pointwise method counts a given draw by the same route
            assert spiegelhalter_pointwise(s, beta, draws) == list(expected.intervals(beta))
        finally:
            bootstrap._CHUNK_VALUES = old_budget

    @pytest.mark.parametrize("n", [256, 257])
    def test_equals_ranks_where_the_orders_widen(self, monkeypatch, n):
        monkeypatch.setattr(bootstrap, "_CHUNK_VALUES", 1)
        assert bootstrap._chunk_rows(n) == n
        rng = np.random.default_rng(n)
        s = CenterSample.from_observations(0.01 * rng.normal(size=n), rng.uniform(0.5, 1.5, n))
        # two whole chunks of n rows and a partial last one
        cfg = BootstrapConfig(n_boot=2 * n + 5, seed=n)
        draws = make_bootstrap_draws(s, cfg)
        # the orders are uint8 up to n = 256 and uint16 from n = 257; cells
        # computed in the orders' type would wrap (they reach 65,535 and 66,048)
        orders, _ = bootstrap._sort_orders([draws], len(draws), n)
        assert orders.dtype == (np.uint8 if n == 256 else np.uint16)
        expected = rank_counts_of(rank_rows(draws))
        assert_same_counts(RankCounts.draw(s, cfg), expected)
        assert spiegelhalter_pointwise(s, 0.2, draws) == list(expected.intervals(0.2))

    @pytest.mark.filterwarnings("ignore:observed estimates contain exact ties")
    @pytest.mark.parametrize("y", [[0.25], [0.25] * 7, [0.5, 0.25, 0.75] * 6],
                             ids=["one-center", "all-equal", "three-values"])
    def test_exact_ties_rank_by_position(self, y):
        # y + 1e-150 z rounds back to y, so every replicate ties as y does
        n = len(y)
        s = CenterSample.from_observations(y, [1e-150] * n)
        cfg = BootstrapConfig(n_boot=50, seed=2)
        draws = make_bootstrap_draws(s, cfg)
        assert (draws == s.y).all()
        counts = RankCounts.draw(s, cfg)
        assert_same_counts(counts, rank_counts_of(rank_rows(draws)))
        # tied centers rank by their position in the sorted sample
        assert [(c.lower, c.upper) for c in counts.intervals(0.05)] == [(i, i) for i in
                                                                         range(1, n + 1)]
        # the same route ranks unsorted tied replicates by position too
        tied = np.tile(np.resize([0.5, 0.25, 0.75], n), (50, 1))
        assert spiegelhalter_pointwise(s, 0.5, tied) \
            == list(rank_counts_of(rank_rows(tied)).intervals(0.5))

    def test_chunk_size_leaves_the_joint_result_unchanged(self, monkeypatch):
        s = CenterSample.from_observations(NEAR_TIED, [1.0] * 10)
        cfg = BootstrapConfig(n_boot=2000, seed=3)
        whole = zhang_simultaneous(s, 0.05, cfg)
        monkeypatch.setattr(bootstrap, "_CHUNK_VALUES", 7)
        chunked = zhang_simultaneous(s, 0.05, cfg)
        assert chunked == whole


class TestSpiegelhalterPointwise:
    def test_single_center(self):
        s = CenterSample.from_observations([5.0], [1.0])
        draws = make_bootstrap_draws(s, BootstrapConfig(n_boot=1000, seed=0))
        cis = spiegelhalter_pointwise(s, 0.05, draws)
        assert [(c.lower, c.upper) for c in cis] == [(1, 1)]

    def test_far_separated_centers_pin_ranks(self):
        # rank flip probability ~ Phi(-100/sqrt(2)) ~ 0
        s = CenterSample.from_observations([0.0, 100.0], [1.0, 1.0])
        draws = make_bootstrap_draws(s, BootstrapConfig(n_boot=10_000, seed=1))
        cis = spiegelhalter_pointwise(s, 0.05, draws)
        assert [(c.lower, c.upper) for c in cis] == [(1, 1), (2, 2)]

    def test_near_tie_spans_both_ranks_at_half_level(self):
        # flip probability ~ 0.497, so the 0.25/0.75 rank quantiles straddle
        s = CenterSample.from_observations([0.0, 0.01], [1.0, 1.0])
        draws = make_bootstrap_draws(s, BootstrapConfig(n_boot=10_000, seed=2))
        cis = spiegelhalter_pointwise(s, 0.5, draws)
        assert [(c.lower, c.upper) for c in cis] == [(1, 2), (1, 2)]

    def test_beta_domain(self):
        s = CenterSample.from_observations([0.0, 1.0], [1.0, 1.0])
        draws = make_bootstrap_draws(s, BootstrapConfig(n_boot=1000, seed=0))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                spiegelhalter_pointwise(s, bad, draws)

    def test_small_pool_warns_but_proceeds(self):
        s = CenterSample.from_observations([0.0, 1.0], [1.0, 1.0])
        draws = make_bootstrap_draws(s, BootstrapConfig(n_boot=100, seed=0))
        with pytest.warns(UserWarning, match="too small"):
            cis = spiegelhalter_pointwise(s, 0.001, draws)
        assert len(cis) == 2

    def test_shape_mismatch(self):
        s = CenterSample.from_observations([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            spiegelhalter_pointwise(s, 0.05, np.zeros((10, 3)))


class TestZhangSimultaneous:
    def test_single_center(self):
        s = CenterSample.from_observations([5.0], [1.0])
        res = zhang_simultaneous(s, 0.05, BootstrapConfig(n_boot=1000, seed=0))
        assert [(c.lower, c.upper) for c in res.cis.intervals] == [(1, 1)]
        assert res.achieved_coverage == 1.0

    def test_deterministic_under_seed(self):
        s = CenterSample.from_observations(WELL_SEPARATED, [1.0] * 10)
        cfg = BootstrapConfig(n_boot=2000, seed=11)
        a = zhang_simultaneous(s, 0.05, cfg)
        b = zhang_simultaneous(s, 0.05, cfg)
        assert a.cis.intervals == b.cis.intervals
        assert a.beta_final == b.beta_final
        assert a.achieved_coverage == b.achieved_coverage

    def test_golden_well_separated(self):
        # frozen regression values at this exact seed and pool size
        s = CenterSample.from_observations(WELL_SEPARATED, [1.0] * 10)
        res = zhang_simultaneous(s, 0.05, BootstrapConfig(n_boot=10_000, seed=424242))
        assert [(c.lower, c.upper) for c in res.cis.intervals] == [
            (1, 5), (1, 5), (1, 5), (1, 7), (1, 7),
            (4, 8), (4, 8), (7, 9), (8, 10), (9, 10),
        ]
        assert res.converged
        assert res.achieved_coverage >= 0.95

    def test_near_tied_sample_looks_deceptively_fine(self):
        # one drawn sample from the near-tied truths: the family is narrower
        # than the full rank range and its *bootstrap-estimated* coverage
        # clears the target; the true undercoverage shows in the harness
        mu = np.asarray(NEAR_TIED)
        rng = np.random.default_rng(99)
        y = mu + rng.standard_normal(10)
        s = CenterSample.from_observations(y, [1.0] * 10)
        res = zhang_simultaneous(s, 0.05, BootstrapConfig(n_boot=10_000, seed=7))
        assert res.cis.widths().mean() < 9.0
        assert res.achieved_coverage >= 0.95

    def test_bisection_stays_in_range_and_reports_feasible_coverage(self):
        s = CenterSample.from_observations(WELL_SEPARATED, [1.0] * 10)
        res = zhang_simultaneous(s, 0.1, BootstrapConfig(n_boot=2000, seed=5))
        assert 0.0 <= res.beta_final <= 0.1
        assert res.achieved_coverage >= 0.9

    def test_maxiter_flag(self):
        # three halvings leave a bracket of 0.05 / 8, far wider than _PRECISION
        s = CenterSample.from_observations(WELL_SEPARATED, [1.0] * 10)
        res = zhang_simultaneous(s, 0.05, BootstrapConfig(n_boot=500, maxiter=3, seed=5))
        assert not res.converged
        assert res.iterations == 3
        assert res.achieved_coverage >= 0.95

    def test_method_tag(self):
        s = CenterSample.from_observations([0.0, 3.0], [1.0, 1.0])
        res = zhang_simultaneous(s, 0.05, BootstrapConfig(n_boot=1000, seed=0))
        assert res.cis.method == "zhang"

    def test_alpha_domain(self):
        s = CenterSample.from_observations([0.0, 3.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            zhang_simultaneous(s, 0.0, BootstrapConfig(n_boot=1000, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(n_boot=0)
        # the bracket width is fixed, not a setting
        with pytest.raises(TypeError):
            BootstrapConfig(precision=1e-6)
        with pytest.raises(ValueError):
            BootstrapConfig(maxiter=0)
