import numpy as np
import pytest

from rankci.cli import _rank_model
from rankci.core import CenterSample, RankInterval, SimultaneousRankCIs, true_set_ranks
from rankci.rankability import rankability_estimate, rankability_true


def cis_from_bounds(bounds, alpha=0.05, method="tukey"):
    return SimultaneousRankCIs(
        tuple(RankInterval(lo, up) for lo, up in bounds), alpha, method
    )


class TestRankabilityTrue:
    def test_all_equal_is_zero(self):
        for n in (2, 5, 9):
            assert rankability_true(true_set_ranks([1.0] * n)) == 0.0

    def test_all_distinct_is_one(self):
        assert rankability_true(true_set_ranks([1.0, 2.0, 3.0, 4.0])) == 1.0

    def test_three_tie_blocks_of_20(self):
        # blocks of sizes 3, 6 and 11: total width 3*2 + 6*5 + 11*10 = 146,
        # so rankability is 1 - 146/380 ~= 0.6158 (0.616 rounded)
        mu = [0.0] * 3 + [1.0] * 6 + [2.0] * 11
        value = rankability_true(true_set_ranks(mu))
        assert abs(value - (1.0 - 146.0 / 380.0)) < 1e-12
        assert round(value, 3) == 0.616

    def test_requires_two_centers(self):
        with pytest.raises(ValueError):
            rankability_true(true_set_ranks([1.0]))


class TestRankabilityEstimate:
    def test_full_range_cis_score_zero(self):
        cis = cis_from_bounds([(1, 4)] * 4)
        assert rankability_estimate(cis) == 0.0

    def test_singleton_cis_score_one(self):
        cis = cis_from_bounds([(1, 1), (2, 2), (3, 3)])
        assert rankability_estimate(cis) == 1.0

    def test_three_center_example(self):
        cis = cis_from_bounds([(1, 1), (2, 3), (2, 3)])
        assert rankability_estimate(cis) == pytest.approx(2.0 / 3.0)

    def test_interval_is_value_to_one(self):
        cis = cis_from_bounds([(1, 2), (1, 2), (3, 3)], alpha=0.1)
        sample = CenterSample.from_observations([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        model = _rank_model(sample, {"tukey": [(cis, None, None), (cis, None, None)]})
        est = model["results"]["tukey"]["rankability"]
        assert est["value"] == rankability_estimate(cis)
        assert est["ci"] == [est["value"], 1.0]
        assert est["alpha"] == 0.1

    def test_requires_two_centers(self):
        cis = cis_from_bounds([(1, 1)])
        with pytest.raises(ValueError):
            rankability_estimate(cis)

    def test_one_extra_rank_costs_exactly_one_over_n_n_minus_1(self):
        n = 6
        base = cis_from_bounds([(i, i) for i in range(1, n + 1)])
        widened = cis_from_bounds(
            [(1, 2)] + [(i, i) for i in range(2, n + 1)]
        )
        delta = rankability_estimate(base) - rankability_estimate(widened)
        assert delta == pytest.approx(1.0 / (n * (n - 1)))

    @pytest.mark.parametrize("seed", range(20))
    def test_underestimates_when_cis_contain_set_ranks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        mu = np.round(rng.normal(size=n), rng.integers(0, 2))
        set_ranks = true_set_ranks(np.sort(mu))
        # inflate each set-rank into a containing CI
        bounds = []
        for sr in set_ranks:
            lo = max(1, sr.lower - int(rng.integers(0, 3)))
            up = min(n, sr.upper + int(rng.integers(0, 3)))
            bounds.append((lo, up))
        cis = SimultaneousRankCIs(
            tuple(RankInterval(lo, up) for lo, up in bounds), 0.05, "zhang"
        )
        assert rankability_estimate(cis) <= rankability_true(set_ranks) + 1e-12

    def test_nested_cis_score_at_least_as_high(self):
        outer = cis_from_bounds([(1, 3), (1, 3), (2, 3)])
        inner = cis_from_bounds([(1, 2), (1, 3), (3, 3)], method="seqtukey")
        assert rankability_estimate(inner) >= rankability_estimate(outer)
