import sys
import threading
import time
import weakref

import numpy as np
import pytest

from rankci import mcquantile
from rankci.bootstrap import BootstrapConfig, zhang_simultaneous
from rankci.core import CenterSample
from rankci.mcquantile import make_mc_pool
from rankci.simharness import (
    _BOOTSTRAP_LEAD,
    _TAG_DATA,
    _TAG_POOL,
    PRESET_CENTERS,
    ScenarioConfig,
    _child_seed,
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


class TestBootstrapThread:
    """run_coverage runs every bootstrap in one helper thread; a lone replicate runs its own."""

    @pytest.fixture
    def bootstraps(self, monkeypatch):
        """The thread and live helper count of each zhang call, and hooks each call runs first.

        A hook is called with the call's index, which is its replicate's.
        """
        calls, hooks = [], []

        def recorded(*args, **kwargs):
            calls.append((threading.current_thread(), mcquantile._live_helpers))
            for hook in hooks:
                hook(len(calls) - 1)
            return zhang_simultaneous(*args, **kwargs)

        monkeypatch.setattr("rankci.simharness.zhang_simultaneous", recorded)
        return calls, hooks

    @pytest.fixture
    def started(self, monkeypatch):
        """Every thread started while the test runs."""
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return started

    @staticmethod
    def replicates(monkeypatch):
        """Indices of the replicates run_coverage enters, in order."""
        entered = []

        def recorded(cfg, r, *args):
            entered.append(r)
            return _run_replicate(cfg, r, *args)

        monkeypatch.setattr("rankci.simharness._run_replicate", recorded)
        return entered

    def test_one_helper_thread_per_run(self, bootstraps, started):
        calls, _ = bootstraps
        # a pool of 2,000 rows runs its kernels in one span, on no thread of its own
        cfg = quick_scenario([0.0, 0.4, 0.9, 3.0], reps=6)
        run_coverage(cfg)
        assert len(started) == 1
        assert [thread for thread, _ in calls] == started * cfg.reps
        assert [live for _, live in calls] == [1] * cfg.reps
        run_coverage(cfg)
        assert len(started) == 2 and started[1] is not started[0]

    def test_no_thread_without_zhang(self, started):
        run_coverage(quick_scenario([0.0, 0.4, 0.9], reps=4, methods=("tukey", "seqtukey")))
        assert started == []

    def test_lone_replicate_bootstraps_inline(self, bootstraps, started):
        calls, _ = bootstraps
        cfg = quick_scenario([0.0, 0.4, 0.9], reps=4)
        _run_replicate(cfg, 2)
        assert started == []
        assert calls == [(threading.current_thread(), 0)]

    def test_main_side_error_stops_the_helper(self, monkeypatch, bootstraps):
        calls, hooks = bootstraps
        raising = threading.Event()
        # the first bootstrap is still running when the main side raises
        hooks.append(lambda r: raising.wait(5) if r == 0 else None)

        def broken(*args, **kwargs):
            raising.set()
            raise RuntimeError("seqtukey broke")

        monkeypatch.setattr("rankci.simharness.sequential_tukey", broken)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="seqtukey broke"):
            run_coverage(quick_scenario([0.0, 1.0, 2.0], reps=50))
        assert len(calls) <= 2
        assert threading.active_count() == threads_before

    def test_helper_runs_a_bounded_lead_ahead(self, monkeypatch, bootstraps):
        calls, _ = bootstraps

        def slow(*args, **kwargs):
            # the main side stalls in replicate 0 long after the lead is run
            deadline = time.monotonic() + 5
            while len(calls) < _BOOTSTRAP_LEAD and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)
            raise RuntimeError("seqtukey stalled")

        monkeypatch.setattr("rankci.simharness.sequential_tukey", slow)
        with pytest.raises(RuntimeError, match="seqtukey stalled"):
            run_coverage(quick_scenario([0.0, 1.0, 2.0], reps=50))
        assert len(calls) == _BOOTSTRAP_LEAD < 50

    def test_later_bootstrap_error_reraises_once(self, monkeypatch, bootstraps):
        calls, hooks = bootstraps

        def broken(r):
            if r == 3:
                raise RuntimeError("bootstrap broke at replicate 3")

        hooks.append(broken)
        entered = self.replicates(monkeypatch)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="replicate 3") as raised:
            run_coverage(quick_scenario([0.0, 1.0, 2.0], reps=6))
        # replicates 0-2 are scored, replicate 3 raises, and the helper
        # stops at the error
        assert entered == [0, 1, 2, 3]
        assert len(calls) == 4
        assert raised.value.__context__ is None
        assert threading.active_count() == threads_before
        assert mcquantile._live_helpers == 0

    def test_concurrent_runs_match_serial_under_contention(self):
        # more runs than cores, each with its own bootstrap thread, and a
        # short switch interval: a lost or misordered hand-over would change
        # a report or leave a thread waiting
        cfgs = [quick_scenario([0.0, 0.3, 0.8, 2.0], reps=8, seed=seed, n_boot=200)
                for seed in range(4)]
        serial = [run_coverage(cfg).methods["zhang"].mean_width.tolist() for cfg in cfgs]
        concurrent = [None] * len(cfgs)

        def run(k):
            concurrent[k] = run_coverage(cfgs[k]).methods["zhang"].mean_width.tolist()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(cfgs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert concurrent == serial
        assert mcquantile._live_helpers == 0


class TestPoolReuse:
    """run_coverage draws a pool only when a replicate's sorted sigmas change."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        """``(sigma, seed)`` of every pool simharness draws; each draw checks no earlier pool lives."""
        drawn, pools = [], []

        def counted(sigma, n_samples, seed):
            assert all(ref() is None for ref in pools), "two pools alive at once"
            pool = make_mc_pool(sigma, n_samples, seed=seed)
            drawn.append((pool.sigma, pool.seed))
            pools.append(weakref.ref(pool))
            return pool

        monkeypatch.setattr("rankci.simharness.make_mc_pool", counted)
        return drawn

    @staticmethod
    def records(monkeypatch, cfg):
        """The per-replicate records run_coverage builds its report from."""
        runs = []

        def recorded(*args):
            runs.append(_run_replicate(*args))
            return runs[-1]

        monkeypatch.setattr("rankci.simharness._run_replicate", recorded)
        run_coverage(cfg)
        return runs

    @staticmethod
    def sorted_sigmas(cfg):
        """Each replicate's sigmas in the order of its sorted sample."""
        mu, sigma = np.asarray(cfg.mu), np.asarray(cfg.sigma)
        out = []
        for r in range(cfg.reps):
            rng = np.random.default_rng(_child_seed(cfg.seed, r, _TAG_DATA))
            out.append(CenterSample.from_observations(mu + sigma * rng.standard_normal(cfg.n),
                                                      sigma).sigma)
        return out

    def test_equal_sigmas_draw_one_pool_per_call(self, drawn):
        cfg = preset_scenario("paper2", reps=6, mc_samples=2_000, n_boot=500)
        run_coverage(cfg)
        assert len(drawn) == 1
        run_coverage(cfg)
        assert len(drawn) == 2

    def test_unequal_sigmas_redraw_only_when_sorted_sigmas_change(self, drawn):
        cfg = comparison_scenario(6, reps=8, mc_samples=2_000)
        sigmas = self.sorted_sigmas(cfg)
        expected = [s for r, s in enumerate(sigmas)
                    if r == 0 or not np.array_equal(s, sigmas[r - 1])]
        run_coverage(cfg)
        # both paths are taken: some replicates reuse the pool, others redraw it
        assert 1 < len(expected) < cfg.reps
        assert len(drawn) == len(expected)
        assert all(np.array_equal(sigma, s) for (sigma, _), s in zip(drawn, expected))
        assert {seed for _, seed in drawn} == {_child_seed(cfg.seed, _TAG_POOL)}

    @pytest.mark.parametrize("cfg", [
        preset_scenario("paper3", reps=6, mc_samples=2_000, n_boot=500),
        comparison_scenario(6, reps=8, mc_samples=2_000),
    ], ids=["equal-sigmas", "unequal-sigmas"])
    def test_shared_pool_records_equal_lone_replicates(self, monkeypatch, cfg):
        shared = self.records(monkeypatch, cfg)
        assert shared == [_run_replicate(cfg, r) for r in range(cfg.reps)]


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
