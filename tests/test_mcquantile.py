import hashlib
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from rankci import bootstrap, mcquantile
from rankci.core import SIGMA_MAX, SIGMA_MIN, CenterSample
from rankci.mcquantile import (
    MC_SAMPLES_FLOOR,
    make_mc_pool,
    pair_row_maxima,
    row_maxima,
    studentized_range_quantile,
)
from oracles import ordered_pair_row_maxima, restricted_max_quantile


def all_pairs(n):
    """Mask of every ordered pair over n centers."""
    return ~np.eye(n, dtype=bool)


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

    @pytest.mark.parametrize("sigma", [1e-170, 1e200, np.nextafter(SIGMA_MIN, 0),
                                       np.nextafter(SIGMA_MAX, np.inf)],
                             ids=["underflow", "overflow", "below", "above"])
    def test_sigma_whose_square_is_not_normal_refused(self, sigma):
        # the parent's pool took 1e-170: sigma^2 = 0 made every row's maximum inf
        with pytest.raises(ValueError, match="sigma must lie in"):
            make_mc_pool([1.0, sigma, 1.0], 1000, seed=0)

    @pytest.mark.parametrize("sigma", [[SIGMA_MIN] * 3, [SIGMA_MAX] * 3,
                                       [SIGMA_MIN, 1.0, SIGMA_MAX]],
                             ids=["min", "max", "both"])
    def test_sigma_bounds_give_finite_quantiles(self, sigma):
        # RuntimeWarnings are errors in this suite, so no overflow or 0/0 either
        pool = make_mc_pool(sigma, 1000, seed=0)
        assert np.isfinite(studentized_range_quantile(pool, 0.05))
        assert np.isfinite(row_maxima(pool)[0]).all()

    def test_draws_frozen(self):
        pool = make_mc_pool([1.0], 1000, seed=0)
        with pytest.raises(ValueError):
            pool.draws[0, 0] = 1.0

    def test_draws_bytes_pinned(self):
        # the row-major bytes of the pool: PCG64 stream order, per-column
        # scale, a row count that fills no whole number of chunks, and one
        # rounding to float32 of the float64 products, whose bytes are pinned too
        rows = mcquantile._draw_chunk_rows(7)
        assert 20_001 % rows and 20_001 > rows
        sigma = np.random.default_rng(8).uniform(0.5, 1.5, 7)
        pool = make_mc_pool(sigma, 20_001, seed=29)
        assert pool.draws.dtype == np.float32
        assert hashlib.sha256(pool.draws.tobytes()).hexdigest() == (
            "a2ecba28d6d63acba32f6946eda12b39ea3a06f86d4bee7356dc69bd3380cf69")
        products = np.random.default_rng(29).standard_normal((20_001, 7)) * sigma
        assert hashlib.sha256(products.tobytes()).hexdigest() == (
            "85937b838e9cfe2d89e5dab42569af517131c4ba9f1ddadae9a73b076d147c6d")
        assert np.array_equal(pool.draws, products.astype(np.float32))

    def test_wide_pool_is_one_draw_in_smaller_chunks(self):
        # above n = 128 the chunks hold fewer than 4096 rows; here 2621, so
        # 6000 rows fill two whole chunks and a partial one
        n, rows = 200, 6_000
        assert mcquantile._draw_chunk_rows(n) == 2621
        sigma = np.random.default_rng(9).uniform(0.5, 1.5, n)
        pool = make_mc_pool(sigma, rows, seed=30)
        expected = np.random.default_rng(30).standard_normal((rows, n)) * sigma
        assert pool.draws.dtype == np.float32
        assert np.array_equal(pool.draws, expected.astype(np.float32))

    def test_one_read_only_buffer(self):
        pool = make_mc_pool([1.0, 2.0, 0.5], 5_000, seed=1)
        assert np.shares_memory(pool.draws, pool._cols)
        assert not pool.draws.flags.writeable and not pool._cols.flags.writeable

    def test_caller_sigma_stays_writeable(self):
        s = np.array([1.0, 2.0])
        pool = make_mc_pool(s, 1000)
        assert s.flags.writeable and not pool.sigma.flags.writeable
        s[0] = 5.0
        assert pool.sigma[0] == 1.0

    def test_pools_compare_by_identity(self):
        pool = make_mc_pool([1.0, 2.0], 1000, seed=1)
        twin = make_mc_pool([1.0, 2.0], 1000, seed=1)
        assert pool != twin and pool == pool
        assert {pool: "a", twin: "b"}[pool] == "a"

    @pytest.mark.skipif(not hasattr(os, "sysconf"), reason="physical memory unknown")
    def test_larger_than_memory_rejected_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("pool allocated before the memory check")

        monkeypatch.setattr(mcquantile.np, "empty", no_allocation)
        monkeypatch.setattr(mcquantile.np.random, "default_rng", no_allocation)
        with pytest.raises(ValueError, match="--mc-samples"):
            make_mc_pool([1.0, 1.0], 10**13, seed=0)

    def test_memory_check_counts_the_pools_item_size(self, monkeypatch):
        # 1000 x 3 draws take 12,000 bytes in float32 and 24,000 in float64
        memory = {"SC_PHYS_PAGES": 18_000, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(mcquantile.os, "sysconf", memory.__getitem__, raising=False)
        assert make_mc_pool([1.0, 2.0, 0.5], 1000, seed=0).draws.nbytes == 12_000
        with pytest.raises(ValueError, match="--mc-samples"):
            make_mc_pool([1e-30, 2.0, 0.5], 1000, seed=0)


F32_MIN, F32_MAX = mcquantile._F32_SIGMA_MIN, mcquantile._F32_SIGMA_MAX


class TestPoolDtype:
    """A pool is float32 when every sigma lies in float32's range, and its kernels return its dtype."""

    @pytest.mark.parametrize("sigma, dtype", [
        ([F32_MIN, 1.0, 2.0], np.float32),
        ([np.nextafter(F32_MIN, 0), 1.0, 2.0], np.float64),
        ([1.0, 2.0, F32_MAX], np.float32),
        ([1.0, np.nextafter(F32_MAX, np.inf), 2.0], np.float64),
        ([F32_MIN, F32_MAX, 1.0], np.float32),
        ([F32_MIN] * 3, np.float32),
        ([np.nextafter(F32_MIN, 0)] * 3, np.float64),
        ([F32_MAX] * 3, np.float32),
        ([np.nextafter(F32_MAX, np.inf)] * 3, np.float64),
    ], ids=["min-in", "min-out", "max-in", "max-out", "both-in",
            "equal-min-in", "equal-min-out", "equal-max-in", "equal-max-out"])
    def test_sigma_edges_give_the_dtype_and_finite_maxima(self, sigma, dtype):
        # RuntimeWarnings are errors in this suite, so no overflow or 0/0 either
        pool = make_mc_pool(sigma, 1000, seed=0)
        assert pool.draws.dtype == dtype
        assert np.isfinite(studentized_range_quantile(pool, 0.05))
        for values in (*row_maxima(pool), pair_row_maxima(pool, [0, 2], [1, 0])):
            assert values.dtype == dtype and np.isfinite(values).all()


class TestNormalRowChunks:
    """The one generator that draws the pool and the bootstrap replicates, a row chunk at a time."""

    def test_chunks_are_one_draw_in_one_buffer(self):
        # a step of 7 does not divide K = 23: three whole chunks and a partial one
        k, n, step = 23, 5, 7
        chunks, first = [], None
        for rows in mcquantile._normal_row_chunks(41, k, n, step):
            first = rows if first is None else first
            assert rows.base is not None and rows.base is first.base
            assert rows.ctypes.data == first.ctypes.data
            chunks.append(rows.copy())
        assert [len(rows) for rows in chunks] == [7, 7, 7, 2]
        expected = np.random.default_rng(41).standard_normal((k, n))
        assert np.concatenate(chunks).tobytes() == expected.tobytes()

    def test_pool_and_bootstrap_each_draw_through_it_once(self, monkeypatch):
        calls, seeds = [], []
        chunks, default_rng = mcquantile._normal_row_chunks, np.random.default_rng

        def recorded(seed, k, n, step):
            calls.append((seed, k, n, step))
            yield from chunks(seed, k, n, step)

        def recorded_rng(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(mcquantile, "_normal_row_chunks", recorded)
        monkeypatch.setattr(bootstrap, "_normal_row_chunks", recorded)
        monkeypatch.setattr(np.random, "default_rng", recorded_rng)
        # neither step divides its row count
        make_mc_pool([0.5, 1.0, 1.5], 5_000, seed=3)
        assert calls == [(3, 5_000, 3, mcquantile._draw_chunk_rows(3))] and seeds == [3]
        del calls[:], seeds[:]
        sample = CenterSample.from_observations([0.1, 0.2, 0.3], [1.0, 1.0, 1.0])
        bootstrap.RankCounts.draw(sample, bootstrap.BootstrapConfig(n_boot=30_000, seed=4))
        assert calls == [(4, 30_000, 3, bootstrap._chunk_rows(3))] and seeds == [4]


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

    def test_level_the_pool_cannot_resolve_refused(self):
        # ceil((1 - alpha) * N) = N would make the pool maximum the critical value
        values = np.arange(1000.0)
        for alpha in (1e-4, 1e-5):
            with pytest.raises(ValueError, match=r"N=1000 .*--mc-samples"):
                mcquantile.empirical_quantile(values, alpha)
        assert mcquantile.empirical_quantile(values, 0.001) == 998.0  # index 999
        pool = make_mc_pool([1.0, 1.0], 1000, seed=0)
        with pytest.raises(ValueError, match="alpha=1e-05"):
            studentized_range_quantile(pool, 1e-5)

    def test_deterministic(self):
        q1 = studentized_range_quantile(make_mc_pool([1.0, 2.0], 50_000, seed=9), 0.05)
        q2 = studentized_range_quantile(make_mc_pool([1.0, 2.0], 50_000, seed=9), 0.05)
        assert q1 == q2

    def test_equal_sigma_fast_path_matches_pairwise(self):
        # the equal-sigma range shortcut must agree bit for bit with the
        # general pairwise evaluation over the full ordered-pair set
        pool = make_mc_pool([1.5, 1.5, 1.5, 1.5], 20_000, seed=13)
        full = restricted_max_quantile(pool, all_pairs(4), 0.1)
        assert studentized_range_quantile(pool, 0.1) == full

    @pytest.mark.parametrize("sigma", [[1.0] * 4, [0.5, 1.0, 1.5, 2.0]], ids=["equal", "unequal"])
    def test_selected_once_per_pool_and_alpha(self, monkeypatch, sigma):
        selected, select = [], mcquantile.empirical_quantile

        def counted(values, alpha):
            selected.append(alpha)
            return select(values, alpha)

        monkeypatch.setattr("rankci.mcquantile.empirical_quantile", counted)
        pool = make_mc_pool(sigma, 2_000, seed=3)
        first = [studentized_range_quantile(pool, alpha) for alpha in (0.05, 0.1, 0.05, 0.1)]
        assert selected == [0.05, 0.1]
        assert first[:2] == first[2:] == [
            select(row_maxima(pool)[0], alpha) for alpha in (0.05, 0.1)]
        # another pool, even one drawn alike, selects its own
        assert studentized_range_quantile(make_mc_pool(sigma, 2_000, seed=3), 0.05) == first[0]
        assert selected == [0.05, 0.1, 0.05]
        # a refused level is refused on every call; nothing is kept for it
        for _ in range(2):
            with pytest.raises(ValueError, match="alpha=0.0001"):
                studentized_range_quantile(pool, 1e-4)


def exact_range_quantile(n, alpha):
    """The (1-alpha)-quantile of range(Z) / sqrt(2) for n iid N(0, 1), to about 1e-9.

    This is the equal-sigma full-range statistic.  Its CDF is
    ``P(stat <= q) = n * integral phi(z) [Phi(z + q sqrt 2) - Phi(z)]^(n-1) dz``,
    here by 400-node Gauss-Legendre quadrature on [-8.5, 8.5], with Phi from
    ``math.erf``; q is found by bisection.
    """
    nodes, weights = np.polynomial.legendre.leggauss(400)
    z, weights = 8.5 * nodes, 8.5 * weights
    erf = np.frompyfunc(math.erf, 1, 1)

    def big_phi(x):
        return 0.5 + 0.5 * erf(x / math.sqrt(2)).astype(float)

    density, below = np.exp(-z * z / 2) / math.sqrt(2 * math.pi), big_phi(z)
    lo, hi = 0.0, 10.0
    for _ in range(60):
        q = (lo + hi) / 2
        cdf = n * np.sum(weights * density * (big_phi(z + q * math.sqrt(2)) - below) ** (n - 1))
        lo, hi = (q, hi) if cdf < 1 - alpha else (lo, q)
    return (lo + hi) / 2


class TestExactEqualSigmaOracle:
    """The pool's full-range maxima against the exact equal-sigma distribution."""

    def test_oracle_matches_tables(self):
        assert exact_range_quantile(2, 0.05) == pytest.approx(Z_975, abs=1e-6)
        assert exact_range_quantile(3, 0.05) == pytest.approx(SR3_95_OVER_SQRT2, abs=1e-6)
        # studentized-range points for infinite df, divided by sqrt(2)
        assert exact_range_quantile(10, 0.05) == pytest.approx(3.1636836, abs=1e-7)
        assert exact_range_quantile(50, 0.05) == pytest.approx(3.9923433, abs=1e-7)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 50])
    def test_exact_quantile_ranks_within_binomial_band(self, n):
        # the number of pool maxima at or below the exact quantile is
        # Binomial(N, 1 - alpha); on seed 0 it lies within 2.35 sd of the
        # pool quantile's index k at every n and alpha here
        n_samples = 100_000
        full = row_maxima(make_mc_pool(np.ones(n), n_samples, seed=0))[0]
        for alpha in (0.01, 0.05, 0.2, 0.5):
            rank = np.count_nonzero(full <= exact_range_quantile(n, alpha))
            k = math.ceil((1 - alpha) * n_samples)
            assert abs(rank - k) <= 4 * math.sqrt(n_samples * alpha * (1 - alpha))

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_binomial_band_covers_at_its_level_across_seeds(self, alpha):
        # the 1.96-sd band around k holds the exact quantile's rank on about
        # 95% of seeds; the count of seeds where it does is then about
        # Binomial(200, 0.95), and must lie inside that law's central 1 - 1e-4
        n, n_samples, seeds = 10, 1_000, 200
        exact = exact_range_quantile(n, alpha)
        k = math.ceil((1 - alpha) * n_samples)
        half_width = 1.96 * math.sqrt(n_samples * alpha * (1 - alpha))
        covered = sum(
            abs(np.count_nonzero(row_maxima(make_mc_pool(np.ones(n), n_samples, seed=seed))[0]
                                 <= exact) - k) <= half_width
            for seed in range(seeds))
        pmf = [math.comb(seeds, c) * 0.95 ** c * 0.05 ** (seeds - c) for c in range(seeds + 1)]
        assert sum(pmf[:covered + 1]) >= 0.5e-4 and sum(pmf[covered:]) >= 0.5e-4


class TestRestrictedMaxQuantile:
    def test_full_set_equals_studentized_range(self):
        pool = make_mc_pool([0.7, 1.0, 1.3], 50_000, seed=21)
        q_full = restricted_max_quantile(pool, all_pairs(3), 0.05)
        assert q_full == studentized_range_quantile(pool, 0.05)

    def test_single_pair_one_sided_oracle(self):
        pool = make_mc_pool([1.0, 1.0], 200_000, seed=5)
        q = restricted_max_quantile(pool, np.array([[False, True], [False, False]]), 0.05)
        assert abs(q - Z_95) < 0.02

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_pair_set(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        pool = make_mc_pool(0.5 + rng.random(n), 5_000, seed=seed)
        small = all_pairs(n) & (rng.random((n, n)) < 0.3)
        if not small.any():
            small[0, 1] = True
        big = small | (all_pairs(n) & (rng.random((n, n)) < 0.5))
        q_small = restricted_max_quantile(pool, small, 0.05)
        q_big = restricted_max_quantile(pool, big, 0.05)
        assert q_small <= q_big


# 3 spans of 666, 667 and 667 rows; 13 spans, more threads than cores,
# switching threads every microsecond
@pytest.fixture(params=[(3, 600), (13, 100)], ids=["3-spans", "13-spans"])
def row_spans(request, monkeypatch):
    """Split 2000-row pools into the uneven spans of ``request.param``; check the split."""
    cores, min_rows = request.param
    monkeypatch.setattr(mcquantile, "_MIN_SPAN_ROWS", min_rows)
    monkeypatch.setattr(mcquantile, "_usable_cores", lambda: cores)
    calls = []
    over_row_spans = mcquantile._over_row_spans

    def recording(n_rows, kernel):
        seen = []
        calls.append(seen)

        def recorded(start, stop):
            seen.append((start, stop))
            kernel(start, stop)

        over_row_spans(n_rows, recorded)

    monkeypatch.setattr(mcquantile, "_over_row_spans", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
    assert calls
    for seen in calls:
        bounds = sorted(seen)
        assert bounds[0][0] == 0 and bounds[-1][1] == 2_000
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) >= 3 and len({stop - start for start, stop in bounds}) > 1


def _check_cache_against_ordered_pairs(sigma):
    pool = make_mc_pool(sigma, 2_000, seed=17)
    full, negative = row_maxima(pool)
    assert full.dtype == negative.dtype == pool.draws.dtype == np.float32
    assert full.tobytes() == ordered_pair_row_maxima(pool, lambda i, j: True).tobytes()
    assert negative.tobytes() == ordered_pair_row_maxima(pool, lambda i, j: i < j).tobytes()


class TestRowMaximaCache:
    SIGMAS = {
        "unequal": np.random.default_rng(50).uniform(0.5, 1.5, 50),
        "equal": np.full(50, 1.2),
    }

    @pytest.mark.parametrize("sigma", sorted(SIGMAS))
    def test_bit_identical_to_ordered_pair_loop(self, sigma):
        _check_cache_against_ordered_pairs(self.SIGMAS[sigma])

    @pytest.mark.parametrize("sigma", sorted(SIGMAS))
    def test_computed_once_per_pool(self, sigma):
        pool = make_mc_pool(self.SIGMAS[sigma][:6], 1_000, seed=3)
        assert row_maxima(pool)[0] is row_maxima(pool)[0]
        assert row_maxima(pool)[1] is row_maxima(pool)[1]

    @pytest.mark.parametrize("sigma", sorted(SIGMAS))
    def test_cached_vectors_read_only(self, sigma):
        pool = make_mc_pool(self.SIGMAS[sigma][:6], 1_000, seed=3)
        q = studentized_range_quantile(pool, 0.05)
        for values in row_maxima(pool):
            with pytest.raises(ValueError):
                values[0] = np.inf
        assert studentized_range_quantile(pool, 0.05) == q

    def test_single_center_rejected(self):
        pool = make_mc_pool([1.0], 1000, seed=0)
        with pytest.raises(ValueError):
            row_maxima(pool)

    @pytest.mark.parametrize("sigma", sorted(SIGMAS))
    def test_one_fill_serves_both_vectors(self, monkeypatch, sigma):
        calls = []
        over_row_spans = mcquantile._over_row_spans

        def counted(n_rows, kernel):
            calls.append(n_rows)
            over_row_spans(n_rows, kernel)

        monkeypatch.setattr(mcquantile, "_over_row_spans", counted)
        pool = make_mc_pool(self.SIGMAS[sigma][:6], 1_000, seed=3)
        row_maxima(pool)
        row_maxima(pool)
        assert calls == [1_000]


class TestRowSpans:
    """Kernels split over uneven row spans give the bits of one loop."""

    SIGMAS = TestRowMaximaCache.SIGMAS

    @pytest.mark.parametrize("sigma", sorted(SIGMAS))
    def test_cached_maxima(self, row_spans, sigma):
        _check_cache_against_ordered_pairs(self.SIGMAS[sigma])

    @pytest.mark.parametrize("sigma", sorted(SIGMAS))
    def test_pair_row_maxima(self, row_spans, sigma):
        pool = make_mc_pool(self.SIGMAS[sigma], 2_000, seed=23)
        rng = np.random.default_rng(5)
        chosen = {(i, j) for i in range(50) for j in range(50) if i != j and rng.random() < 0.3}
        i_idx, j_idx = (np.array(v) for v in zip(*sorted(chosen)))
        expected = ordered_pair_row_maxima(pool, lambda i, j: (i, j) in chosen)
        assert pair_row_maxima(pool, i_idx, j_idx).tobytes() == expected.tobytes()

    def test_small_pool_runs_in_one_span(self):
        seen = []
        mcquantile._over_row_spans(2_000, lambda start, stop: seen.append((start, stop)))
        assert seen == [(0, 2_000)]

    def test_error_in_a_span_is_raised(self, monkeypatch):
        monkeypatch.setattr(mcquantile, "_MIN_SPAN_ROWS", 600)
        monkeypatch.setattr(mcquantile, "_usable_cores", lambda: 3)

        def kernel(start, stop):
            if start > 0:
                raise RuntimeError(f"span at row {start}")

        with pytest.raises(RuntimeError, match="span at row"):
            mcquantile._over_row_spans(2_000, kernel)

    @staticmethod
    def _spans(n_rows):
        seen = []
        mcquantile._over_row_spans(n_rows, lambda start, stop: seen.append((start, stop)))
        return sorted(seen)

    def test_a_live_helper_thread_takes_no_core(self, monkeypatch):
        monkeypatch.setattr(mcquantile, "_usable_cores", lambda: 2)
        n_rows = 2 * mcquantile._MIN_SPAN_ROWS
        release = threading.Event()
        with mcquantile._in_background(lambda: release.wait(10)):
            try:
                assert self._spans(n_rows) == [(0, n_rows // 2), (n_rows // 2, n_rows)]
            finally:
                release.set()


class TestInBackground:
    def test_join_returns_the_result(self):
        with mcquantile._in_background(lambda: 42) as join:
            assert join() == 42

    def test_join_reraises_the_thread_exception(self):
        def broken():
            raise RuntimeError("in the thread")

        with pytest.raises(RuntimeError, match="in the thread"):
            with mcquantile._in_background(broken) as join:
                join()

    def test_body_exception_wins_and_thread_is_joined(self):
        def slow_broken():
            time.sleep(0.05)
            raise RuntimeError("in the thread")

        threads_before = threading.active_count()
        with pytest.raises(ValueError, match="in the body"):
            with mcquantile._in_background(slow_broken):
                raise ValueError("in the body")
        assert threading.active_count() == threads_before
