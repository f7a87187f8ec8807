import sys
import threading
import time
import weakref

import numpy as np
import pytest

from rankci import mcquantile, simharness
from rankci.bootstrap import BootstrapConfig, zhang_simultaneous
from rankci.cli import main
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
    run_methods,
)
from rankci.tukey import tukey_rank_cis, tukey_rejected_pairs


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
    """run_coverage shares the bootstraps between one helper thread and the calling thread.

    A lone replicate runs its own.
    """

    @pytest.fixture
    def bootstraps(self, monkeypatch):
        """``(thread, live helpers, replicate)`` of each bootstrap, and hooks each runs first.

        A hook is called with the bootstrap's replicate index.  The third
        list holds the replicate index of each bootstrap that returned.
        """
        calls, hooks, done = [], [], []
        bootstrap_cis = simharness._bootstrap_cis

        def recorded(cfg, r):
            calls.append((threading.current_thread(), mcquantile._live_helpers, r))
            for hook in hooks:
                hook(r)
            cis = bootstrap_cis(cfg, r)
            done.append(r)
            return cis

        monkeypatch.setattr(simharness, "_bootstrap_cis", recorded)
        return calls, hooks, done

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
        calls, _, _ = bootstraps
        # a pool of 2,000 rows runs its kernels in one span, on no thread of its own
        cfg = quick_scenario([0.0, 0.4, 0.9, 3.0], reps=6)
        run_coverage(cfg)
        assert len(started) == 1
        # the helper or the calling thread runs each bootstrap, once, while the helper lives
        assert {thread for thread, _, _ in calls} <= {started[0], threading.current_thread()}
        assert sorted(r for _, _, r in calls) == list(range(cfg.reps))
        assert [live for _, live, _ in calls] == [1] * cfg.reps
        run_coverage(cfg)
        assert len(started) == 2 and started[1] is not started[0]

    def test_calling_thread_runs_bootstraps_instead_of_waiting(self, bootstraps):
        calls, hooks, _ = bootstraps
        cfg = quick_scenario([0.0, 0.4, 0.9, 3.0], reps=12)
        lone = [_run_replicate(cfg, r)[0]["zhang"] for r in range(cfg.reps)]
        calls.clear()
        main, held = threading.current_thread(), []

        def ran_by_main():
            return sum(thread is main for thread, _, _ in calls)

        def hold_the_helper(r):
            # the helper's first bootstrap lasts until the calling thread,
            # waiting on it in take, has run three of its own
            if threading.current_thread() is not main and not held:
                held.append(r)
                deadline = time.monotonic() + 5
                while ran_by_main() < 3 and time.monotonic() < deadline:
                    time.sleep(0.002)

        hooks.append(hold_the_helper)
        report = run_coverage(cfg)
        assert ran_by_main() >= 3
        assert sorted(r for _, _, r in calls) == list(range(cfg.reps))
        assert report.methods["zhang"].mean_width.tolist() == [o.mean_width for o in lone]
        assert report.methods["zhang"].covered_set_rank.tolist() == [o.covered_set_rank
                                                                     for o in lone]

    def test_no_thread_without_zhang(self, started):
        run_coverage(quick_scenario([0.0, 0.4, 0.9], reps=4, methods=("tukey", "seqtukey")))
        assert started == []

    def test_lone_replicate_bootstraps_inline(self, bootstraps, started):
        calls, _, _ = bootstraps
        cfg = quick_scenario([0.0, 0.4, 0.9], reps=4)
        _run_replicate(cfg, 2)
        assert started == []
        assert calls == [(threading.current_thread(), 0, 2)]

    def test_main_side_error_stops_the_helper(self, monkeypatch, bootstraps):
        calls, hooks, _ = bootstraps
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
        calls, _, _ = bootstraps

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
        calls, hooks, done = bootstraps
        fourth_started = threading.Event()
        in_flight = []

        def broken(r):
            if r == 4:
                # replicate 4 runs on the other thread while replicate 3 raises
                fourth_started.set()
                time.sleep(0.2)
            if r == 3:
                assert fourth_started.wait(5)
                in_flight.extend((thread, r) for thread, _, r in calls if r not in done)
                raise RuntimeError("bootstrap broke at replicate 3")

        hooks.append(broken)
        entered = self.replicates(monkeypatch)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="replicate 3") as raised:
            run_coverage(quick_scenario([0.0, 1.0, 2.0], reps=6))
        # replicates 0-2 are scored, replicate 3 raises; one bootstrap per
        # thread was in flight when it did, and none started after it
        assert entered == [0, 1, 2, 3]
        assert sorted(r for _, r in in_flight) == [3, 4]
        assert len({thread for thread, _ in in_flight}) == 2
        assert sorted(r for _, _, r in calls) == [0, 1, 2, 3, 4]
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


class TestRunMethods:
    """The one runner of rank and simulate."""

    LEVELS = (0.05, 0.5)

    @pytest.mark.parametrize("methods", [("tukey",), ("tukey", "seqtukey")],
                             ids=["tukey-alone", "with-seqtukey"])
    @pytest.mark.parametrize("equal", [True, False], ids=["equal-sigmas", "unequal-sigmas"])
    @pytest.mark.parametrize("n", [1, 2, 12])
    def test_tukey_equals_the_single_step_route(self, n, equal, methods):
        rng = np.random.default_rng(n)
        sigma = np.ones(n) if equal else rng.uniform(0.5, 1.5, n)
        sample = CenterSample.from_observations(
            0.6 * np.arange(n) + 0.2 * rng.standard_normal(n), sigma)
        pool, drawn = make_mc_pool(sample.sigma, 2_000, seed=n), []
        runs = run_methods(sample, methods, self.LEVELS, lambda: drawn.append(pool) or pool, None)
        assert len(drawn) == 1 and list(runs) == list(methods)
        for (cis, rejected, detail), alpha in zip(runs["tukey"], self.LEVELS):
            assert cis == tukey_rank_cis(sample, alpha, pool)
            assert np.array_equal(rejected, tukey_rejected_pairs(sample, alpha, pool))
            assert detail is None
        if n == 12:
            assert all(rejected.any() for _, rejected, _ in runs["tukey"])

    def test_pool_only_for_the_pool_methods_and_the_bootstrap_last(self):
        sample = CenterSample.from_observations([0.0, 0.4, 3.0], [1.0, 0.8, 1.2])
        cfg, calls = BootstrapConfig(n_boot=300, seed=1), []

        def pool():
            calls.append("pool")
            return make_mc_pool(sample.sigma, 2_000, seed=1)

        def zhang():
            calls.append("zhang")
            return [zhang_simultaneous(sample, alpha, cfg) for alpha in self.LEVELS]

        runs = run_methods(sample, ("zhang", "seqtukey", "tukey"), self.LEVELS, pool, zhang)
        assert calls == ["pool", "zhang"] and list(runs) == ["zhang", "seqtukey", "tukey"]
        calls.clear()
        runs = run_methods(sample, ("zhang",), self.LEVELS, pool, zhang)
        assert calls == ["zhang"]
        assert runs["zhang"] == [(res.cis, None, res) for res in zhang()]

    def test_rank_all_takes_tukey_from_seqtukey_round_one(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counted(*args):
            calls.append(args)
            return tukey_rejected_pairs(*args)

        # tukey_rank_cis calls the name in rankci.tukey
        monkeypatch.setattr("rankci.tukey.tukey_rejected_pairs", counted)
        monkeypatch.setattr("rankci.simharness.tukey_rejected_pairs", counted)
        path = tmp_path / "centers.csv"
        path.write_text("id,estimate,std_error\na,0.0,1.0\nb,3.0,0.8\nc,9.0,1.2\n")
        argv = ["rank", "--input", str(path), "--mc-samples", "2000", "--boot-samples", "300"]
        assert main(argv + ["--method", "all"]) == 0
        assert calls == []
        # the counter sees the single-step route when seqtukey does not run
        assert main(argv + ["--method", "tukey"]) == 0
        assert [args[1] for args in calls] == [0.05, 0.5]


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
