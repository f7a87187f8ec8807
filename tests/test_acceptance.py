"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] ... PASS/FAIL` line (run with `-s` to see
them on success).  The statistical criteria use fixed master seeds; their
tolerances absorb binomial noise at the stated replicate counts.
"""

import numpy as np
import pytest

from rankci.core import CenterSample
from rankci.mcquantile import make_mc_pool, studentized_range_quantile
from rankci.seqtukey import sequential_tukey
from rankci.simharness import (
    ScenarioConfig,
    comparison_scenario,
    preset_scenario,
    run_coverage,
)
from rankci.tukey import tukey_difference_cis, tukey_rank_cis

N_SWEEP = 1000
SWEEP_ALPHA = 0.05


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def instance_sweep():
    """Random instances n in 2..30, mu at mixed spreads, sigma in [0.5, 1.5]."""
    results = []
    spreads = (0.2, 1.0, 5.0)
    for k in range(N_SWEEP):
        rng = np.random.default_rng(1_000_000 + k)
        n = int(rng.integers(2, 31))
        mu = rng.normal(scale=spreads[k % len(spreads)], size=n)
        sigma = 0.5 + rng.random(n)
        y = mu + sigma * rng.standard_normal(n)
        sample = CenterSample.from_observations(y, sigma)
        pool = make_mc_pool(sample.sigma, 1_000, seed=k)
        tuk = tukey_rank_cis(sample, SWEEP_ALPHA, pool)
        seq, trace = sequential_tukey(sample, SWEEP_ALPHA, pool)
        diffs = tukey_difference_cis(sample, SWEEP_ALPHA, pool)
        results.append((sample, tuk, seq, trace, diffs))
    return results


@pytest.fixture(scope="module")
def table1_reports():
    reports = {}
    for name in ("paper1", "paper2", "paper3", "paper4"):
        cfg = preset_scenario(name, reps=100, alpha=0.05, seed=20240501,
                              mc_samples=100_000, n_boot=10_000)
        reports[name] = run_coverage(cfg)
    return reports


@pytest.fixture(scope="module")
def comparison_report():
    cfg = comparison_scenario(50, alpha=0.01, reps=10, seed=20240502,
                              mc_samples=100_000)
    report = run_coverage(cfg)
    assert report.nestedness_violations == 0
    return report


@pytest.fixture(scope="module")
def tie_block_report():
    # nontrivial true rankability: blocks of 4 and 6 tied centers
    cfg = ScenarioConfig(
        mu=(0.0,) * 4 + (2.0,) * 6,
        sigma=(1.0,) * 10,
        alpha=0.05,
        reps=50,
        seed=20240503,
        methods=("tukey", "seqtukey"),
        mc_samples=10_000,
        name="tie-blocks",
    )
    return run_coverage(cfg)


def test_criterion_1_table1_reproduction(table1_reports):
    details = []
    ok = True
    zhang_caps = {"paper1": 0.60, "paper2": 0.75, "paper4": 0.97}
    for name, report in table1_reports.items():
        t = report.methods["tukey"].coverage_rate
        s = report.methods["seqtukey"].coverage_rate
        z = report.methods["zhang"].coverage_rate
        details.append(f"{name}: tukey={t:.2f} seq={s:.2f} zhang={z:.2f}")
        ok &= t >= 0.95 and s >= 0.95
        if name in zhang_caps:
            ok &= z <= zhang_caps[name]
    _report(1, "Table-1 coverage reproduction", ok, "; ".join(details))


def test_criterion_2_quantile_oracle():
    pool2 = make_mc_pool([1.0, 1.0], 1_000_000, seed=20240504)
    q2 = studentized_range_quantile(pool2, 0.05)
    pool3 = make_mc_pool([1.0, 1.0, 1.0], 1_000_000, seed=20240505)
    q3 = studentized_range_quantile(pool3, 0.05)
    ok = abs(q2 - 1.95996) <= 0.01 and abs(q3 - 2.344) <= 0.02
    _report(2, "quantile oracle at N=1e6", ok, f"q2={q2:.5f} q3={q3:.5f}")


def test_criterion_3_nestedness_exact(instance_sweep):
    violations = sum(
        0 if seq.is_nested_in(tuk) else 1
        for _, tuk, seq, _, _ in instance_sweep
    )
    _report(3, f"seqtukey within tukey on {len(instance_sweep)} instances",
            violations == 0, f"violations={violations}")


def test_criterion_4_monotone_trace_exact(instance_sweep):
    bad_q = bad_growth = 0
    for _, _, _, trace, _ in instance_sweep:
        qs = trace.critical_values
        if any(qs[k + 1] > qs[k] for k in range(len(qs) - 1)):
            bad_q += 1
        cumulative = [step.rejected_total for step in trace.steps]
        if any(not np.all(~cumulative[k] | cumulative[k + 1])
               for k in range(len(cumulative) - 1)):
            bad_growth += 1
    _report(4, "monotone critical values and growing rejection sets",
            bad_q == 0 and bad_growth == 0,
            f"q violations={bad_q}, growth violations={bad_growth}")


def test_criterion_5_fwer_under_full_tie():
    reps = 1000
    cfg = ScenarioConfig(
        mu=(0.0,) * 10,
        sigma=(1.0,) * 10,
        alpha=0.05,
        reps=reps,
        seed=20240506,
        methods=("seqtukey",),
        mc_samples=10_000,
        name="full-tie",
    )
    report = run_coverage(cfg)
    rate = report.methods["seqtukey"].fwer_rate
    bound = 0.05 + 3 * np.sqrt(0.05 * 0.95 / reps)
    _report(5, f"FWER under all-equal centers (reps={reps})",
            rate <= bound, f"rate={rate:.4f} bound={bound:.4f}")


@pytest.mark.parametrize("mu, seed", [
    ((0.0,) * 10, 20240507),
    ((0.0, 0.0, 0.0, 4.0, 4.0, 4.0, 8.0, 8.0, 12.0, 12.0), 20240508),
], ids=["full-tie", "block-ties"])
def test_criterion_5_fwer_beyond_unit_sigmas(mu, seed):
    # block ties are where seqtukey's later rounds, on the kept rows, can
    # reject a true hypothesis; each replicate's sorted sigmas draw a new pool
    reps = 1000
    cfg = ScenarioConfig(
        mu=mu,
        sigma=np.random.default_rng(seed).uniform(0.5, 1.5, len(mu)),
        alpha=0.05,
        reps=reps,
        seed=seed,
        methods=("tukey", "seqtukey"),
        mc_samples=10_000,
        name="unequal-sigma-ties",
    )
    report = run_coverage(cfg)
    rates = {m: report.methods[m].fwer_rate for m in cfg.methods}
    bound = 0.05 + 3 * np.sqrt(0.05 * 0.95 / reps)
    _report(5, f"FWER with sigma ~ U[0.5, 1.5] (reps={reps})",
            max(rates.values()) <= bound,
            ", ".join(f"{m}={r:.4f}" for m, r in rates.items()) + f" bound={bound:.4f}")


def test_criterion_6_empirical_rank_containment(instance_sweep):
    violations = 0
    for _, tuk, seq, _, _ in instance_sweep:
        for cis in (tuk, seq):
            for k, ci in enumerate(cis.intervals, start=1):
                if not ci.contains_rank(k):
                    violations += 1
    _report(6, "sorted index inside every tukey/seqtukey interval",
            violations == 0, f"violations={violations}")


def test_criterion_7_rankability(table1_reports, comparison_report, tie_block_report):
    # deterministic underestimation on every covered replicate
    undershoot_ok = True
    for report in list(table1_reports.values()) + [comparison_report, tie_block_report]:
        truth = report.true_rankability
        for stats in report.methods.values():
            for covered, est in zip(stats.covered_set_rank, stats.rankability):
                if covered and est > truth + 1e-12:
                    undershoot_ok = False

    r_seq = comparison_report.methods["seqtukey"].rankability
    r_tuk = comparison_report.methods["tukey"].rankability
    mean_seq = float(r_seq.mean())
    mean_tuk = float(r_tuk.mean())
    ballpark_ok = abs(mean_seq - 0.79) <= 0.05 and abs(mean_tuk - 0.79) <= 0.05
    dominance_ok = bool(np.all(r_seq >= r_tuk - 1e-12))
    _report(
        7, "rankability: undershoot, comparison ballpark, seq >= tukey",
        undershoot_ok and ballpark_ok and dominance_ok,
        f"mean seq={mean_seq:.3f} tukey={mean_tuk:.3f}, undershoot_ok={undershoot_ok}, "
        f"dominance_ok={dominance_ok}",
    )


def test_criterion_8_two_route_tukey_equivalence(instance_sweep):
    mismatches = 0
    for sample, tuk, _, _, diffs in instance_sweep:
        n = sample.n
        lower = np.ones(n, dtype=int)
        upper = np.full(n, n, dtype=int)
        for ci in diffs:
            if ci.lower > 0:
                lower[ci.i] += 1
            if ci.upper <= 0:
                upper[ci.i] -= 1
        direct = [(c.lower, c.upper) for c in tuk.intervals]
        if direct != list(zip(lower, upper)):
            mismatches += 1
    _report(8, f"difference-CI route equals counting route on {len(instance_sweep)} instances",
            mismatches == 0, f"mismatches={mismatches}")
