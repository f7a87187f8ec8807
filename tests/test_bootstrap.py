import numpy as np
import pytest

from rankci import bootstrap
from rankci.bootstrap import (
    BootstrapConfig,
    _bootstrap_ranks,
    _interval_bounds,
    _rank_rows,
    make_bootstrap_draws,
    quantile_type3,
    spiegelhalter_pointwise,
    zhang_simultaneous,
)
from rankci.core import CenterSample

WELL_SEPARATED = (1.512, 1.764, 1.853, 3.020, 3.154, 4.895, 5.419, 7.468, 10.521, 13.054)
NEAR_TIED = (0.017, 0.020, 0.023, 0.029, 0.036, 0.039, 0.048, 0.077, 0.086, 0.089)


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
    @pytest.mark.parametrize("k", [1, 2, 37, 1000])
    def test_one_column_per_bound_matches_per_row_quantiles(self, k):
        rng = np.random.default_rng(k)
        sorted_ranks = np.sort(rng.integers(1, 9, size=(8, k), dtype=np.int32), axis=1)
        for beta in (1e-12, 1e-4, 0.01, 0.05, 0.2, 0.5, 0.9, 1 - 1e-12):
            lower, upper = _interval_bounds(sorted_ranks, beta)
            assert lower.tolist() == [quantile_type3(row, beta / 2) for row in sorted_ranks]
            assert upper.tolist() == [quantile_type3(row, 1 - beta / 2) for row in sorted_ranks]
        # a beta this small clamps both bounds to the extreme order statistics
        lower, upper = _interval_bounds(sorted_ranks, 1e-12)
        assert np.array_equal(lower, sorted_ranks[:, 0])
        assert np.array_equal(upper, sorted_ranks[:, -1])


class TestChunkedRanks:
    @pytest.mark.parametrize("n, k", [(5, 23), (5, 21), (5, 4), (1, 10), (1, 23)],
                             ids=["partial-last-chunk", "whole-chunks", "below-one-chunk",
                                  "one-center", "one-center-partial-chunk"])
    def test_equals_ranks_of_the_full_draw(self, monkeypatch, n, k):
        monkeypatch.setattr(bootstrap, "_RANK_CHUNK_ROWS", 7)
        rng = np.random.default_rng(n * 100 + k)
        s = CenterSample.from_observations(rng.normal(size=n), rng.uniform(0.5, 1.5, n))
        cfg = BootstrapConfig(n_boot=k, seed=k)
        chunked = _bootstrap_ranks(s, cfg)
        full = _rank_rows(make_bootstrap_draws(s, cfg))
        assert chunked.dtype == full.dtype == np.int32
        assert np.array_equal(chunked, full)

    def test_default_chunk_size_with_a_partial_last_chunk(self):
        s = CenterSample.from_observations(NEAR_TIED, [1.0] * 10)
        cfg = BootstrapConfig(n_boot=bootstrap._RANK_CHUNK_ROWS * 2 + 3, seed=1)
        assert np.array_equal(_bootstrap_ranks(s, cfg), _rank_rows(make_bootstrap_draws(s, cfg)))

    def test_chunk_size_leaves_the_joint_result_unchanged(self, monkeypatch):
        s = CenterSample.from_observations(NEAR_TIED, [1.0] * 10)
        cfg = BootstrapConfig(n_boot=2000, seed=3)
        whole = zhang_simultaneous(s, 0.05, cfg)
        monkeypatch.setattr(bootstrap, "_RANK_CHUNK_ROWS", 7)
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
        s = CenterSample.from_observations(WELL_SEPARATED, [1.0] * 10)
        res = zhang_simultaneous(
            s, 0.05, BootstrapConfig(n_boot=500, precision=1e-12, maxiter=3, seed=5)
        )
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
        with pytest.raises(ValueError):
            BootstrapConfig(precision=0.0)
        with pytest.raises(ValueError):
            BootstrapConfig(maxiter=0)
