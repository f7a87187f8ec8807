import threading

import numpy as np
import pytest

from rankci.bootstrap import BootstrapConfig
from rankci.simharness import (
    PRESET_CENTERS,
    ScenarioConfig,
    _run_replicate,
    comparison_scenario,
    preset_scenario,
    run_coverage,
)


def quick_scenario(mu, *, sigma=None, reps=10, alpha=0.05, seed=0,
                   methods=("tukey", "seqtukey", "zhang"), mc_samples=2_000,
                   n_boot=1_000):
    n = len(mu)
    return ScenarioConfig(
        mu=tuple(mu),
        sigma=tuple(sigma) if sigma is not None else (1.0,) * n,
        alpha=alpha,
        reps=reps,
        seed=seed,
        methods=methods,
        mc_samples=mc_samples,
        boot=BootstrapConfig(n_boot=n_boot, maxiter=10),
        name="test",
    )


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(mu=(), sigma=())
        with pytest.raises(ValueError):
            ScenarioConfig(mu=(1.0,), sigma=(1.0, 1.0))
        with pytest.raises(ValueError):
            ScenarioConfig(mu=(1.0,), sigma=(0.0,))
        with pytest.raises(ValueError):
            ScenarioConfig(mu=(1.0,), sigma=(1.0,), reps=0)
        with pytest.raises(ValueError):
            ScenarioConfig(mu=(1.0,), sigma=(1.0,), alpha=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(mu=(1.0,), sigma=(1.0,), methods=("magic",))

    def test_presets(self):
        for name, centers in PRESET_CENTERS.items():
            cfg = preset_scenario(name, reps=5)
            assert cfg.n == 10
            assert cfg.mu == centers
            assert cfg.sigma == (1.0,) * 10
            assert cfg.boot.maxiter == 10
        with pytest.raises(KeyError):
            preset_scenario("paper9")

    def test_comparison_scenario_frozen_sigma(self):
        a = comparison_scenario(10, seed=4)
        b = comparison_scenario(10, seed=4)
        assert a.sigma == b.sigma
        assert all(0.5 <= s <= 1.5 for s in a.sigma)
        assert a.mu == tuple(float(i) for i in range(1, 11))
        assert comparison_scenario(10, seed=5).sigma != a.sigma


class TestRunCoverage:
    def test_degenerate_scenario_all_methods_cover(self):
        # gaps of 20 sigma: ranking is effectively deterministic
        cfg = quick_scenario([0.0, 20.0, 40.0, 60.0], reps=10)
        report = run_coverage(cfg)
        for stats in report.methods.values():
            assert stats.coverage_rate == 1.0
            assert stats.index_coverage_rate == 1.0

    def test_all_equal_centers_rankability_near_zero(self):
        cfg = quick_scenario([1.0] * 6, methods=("tukey", "seqtukey"), reps=10)
        report = run_coverage(cfg)
        for stats in report.methods.values():
            assert np.nanmean(stats.rankability) <= 0.05
        assert report.true_rankability == 0.0

    def test_two_far_blocks_rankability_near_truth(self):
        # 5 centers at 0 and 5 at 100: true rankability 1 - 40/90
        cfg = quick_scenario([0.0] * 5 + [100.0] * 5,
                             methods=("tukey", "seqtukey"), reps=10)
        report = run_coverage(cfg)
        truth = report.true_rankability
        assert truth == pytest.approx(1.0 - 40.0 / 90.0)
        for stats in report.methods.values():
            assert abs(np.nanmean(stats.rankability) - truth) < 0.06
            # estimate never exceeds the truth on covered replicates
            for covered, est in zip(stats.covered_set_rank, stats.rankability):
                if covered:
                    assert est <= truth + 1e-12

    def test_deterministic_reports(self):
        cfg = quick_scenario([0.0, 1.0, 2.0], reps=5)
        a = run_coverage(cfg)
        b = run_coverage(cfg)
        for m in cfg.methods:
            assert np.array_equal(a.methods[m].covered_set_rank, b.methods[m].covered_set_rank)
            assert np.array_equal(a.methods[m].mean_width, b.methods[m].mean_width)
            assert np.array_equal(a.methods[m].rankability, b.methods[m].rankability)

    def test_criteria_agree_for_distinct_ascending_mu(self):
        cfg = quick_scenario([0.1, 0.9, 2.3, 3.1], reps=10)
        report = run_coverage(cfg)
        for stats in report.methods.values():
            assert np.array_equal(stats.covered_set_rank, stats.covered_index)

    def test_nestedness_counted_and_zero(self):
        cfg = quick_scenario([0.0, 0.5, 1.5, 4.0], reps=10,
                             methods=("tukey", "seqtukey"))
        report = run_coverage(cfg)
        assert report.nestedness_violations == 0

    def test_seq_width_never_exceeds_tukey(self):
        cfg = quick_scenario([0.0, 1.0, 2.0, 3.0, 8.0], reps=10,
                             methods=("tukey", "seqtukey"))
        report = run_coverage(cfg)
        widths_t = report.methods["tukey"].mean_width
        widths_s = report.methods["seqtukey"].mean_width
        assert np.all(widths_s <= widths_t + 1e-12)

    def test_false_rejections_only_for_test_methods(self):
        cfg = quick_scenario([0.0, 2.0], reps=5)
        report = run_coverage(cfg)
        assert report.methods["zhang"].false_rejection is None
        assert report.methods["zhang"].fwer_rate is None
        assert report.methods["tukey"].false_rejection is not None

    def test_all_equal_centers_any_rejection_is_false(self):
        cfg = quick_scenario([0.0] * 5, reps=30, methods=("seqtukey",),
                             mc_samples=2_000)
        report = run_coverage(cfg)
        stats = report.methods["seqtukey"]
        # under a full tie every rejection is false, so the flags must equal
        # "interval family is not the full range"
        narrowed = np.array([w < (5 - 1) for w in stats.mean_width])
        assert np.array_equal(stats.false_rejection, narrowed)

    def test_tukey_false_rejections_same_alone_and_beside_seqtukey(self):
        # alone, Tukey's rejections come from tukey_rejected_pairs; beside
        # seqtukey, from its first round on the same pool
        alone = run_coverage(quick_scenario([0.0] * 5, reps=20, alpha=0.3, methods=("tukey",)))
        both = run_coverage(quick_scenario([0.0] * 5, reps=20, alpha=0.3,
                                           methods=("tukey", "seqtukey")))
        flags = alone.methods["tukey"].false_rejection
        assert flags.any() and not flags.all()
        assert np.array_equal(flags, both.methods["tukey"].false_rejection)

    def test_single_replicate(self):
        cfg = quick_scenario([0.0, 1.0], reps=1)
        report = run_coverage(cfg)
        for stats in report.methods.values():
            assert stats.coverage_rate in (0.0, 1.0)

    def test_bootstrap_failure_reraises(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bootstrap broke")

        monkeypatch.setattr("rankci.simharness.zhang_simultaneous", broken)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="bootstrap broke"):
            run_coverage(quick_scenario([0.0, 1.0, 2.0], reps=2))
        assert threading.active_count() == threads_before

    def test_replicates_do_not_depend_on_call_order(self):
        cfg = quick_scenario([0.0, 0.4, 0.9, 3.0], reps=4)
        forward = [_run_replicate(cfg, r) for r in range(cfg.reps)]
        backward = [_run_replicate(cfg, r) for r in reversed(range(cfg.reps))]
        assert forward == backward[::-1]
        report = run_coverage(cfg)
        for m in cfg.methods:
            assert report.methods[m].mean_width.tolist() == [
                outcomes[m].mean_width for outcomes, _ in forward]


class TestRunComparison:
    def test_small_comparison(self):
        cfg = comparison_scenario(8, reps=5, mc_samples=2_000, seed=3)
        report = run_coverage(cfg)
        r_seq = report.methods["seqtukey"].rankability
        r_tuk = report.methods["tukey"].rankability
        assert np.all(r_seq >= r_tuk - 1e-12)
        assert report.nestedness_violations == 0


class TestReporting:
    def test_format_table(self):
        cfg = quick_scenario([0.0, 5.0], reps=3)
        report = run_coverage(cfg)
        text = report.format_table()
        for m in cfg.methods:
            assert m in text
        assert "coverage%" in text
        assert "criterion=set-rank" in text

    def test_as_dict_round_trips_to_json(self):
        import json

        cfg = quick_scenario([0.0, 5.0], reps=3)
        report = run_coverage(cfg)
        payload = json.dumps(report.as_dict(), sort_keys=True)
        data = json.loads(payload)
        assert data["criterion"] == "set-rank"
        assert set(data["methods"]) == set(cfg.methods)
        for m in cfg.methods:
            assert 0.0 <= data["methods"][m]["coverage_rate"] <= 1.0
