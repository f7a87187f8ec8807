"""Coverage experiments: run the estimators against known truths.

A scenario fixes true centers, standard errors and a master seed; every
replicate draws a fresh Gaussian sample, runs the requested methods and
scores whether each center's *true set-rank* landed inside its interval.
The per-replicate seeds derive deterministically from (master seed,
replicate index), so reports do not depend on execution order.

Two coverage criteria are kept side by side: the normative one scores
containment of the true set-ranks; the legacy index criterion scores
containment of each sorted observation's original input position, which
coincides with the normative one when the configured centers are distinct
and listed in ascending order.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import BootstrapConfig, zhang_simultaneous
from .core import CenterSample, SimultaneousRankCIs, true_set_ranks
from .mcquantile import DEFAULT_MC_SAMPLES, make_mc_pool
from .rankability import rankability_estimate, rankability_true
from .seqtukey import sequential_tukey
from .tukey import tukey_rank_cis, tukey_rejected_pairs

__all__ = [
    "ScenarioConfig",
    "MethodStats",
    "CoverageReport",
    "run_coverage",
    "preset_scenario",
    "comparison_scenario",
    "PRESET_CENTERS",
]

ALL_METHODS = ("tukey", "seqtukey", "zhang")

# Benchmark center configurations: 10 centers, unit standard errors, with
# spreads from near-tied to well separated.
PRESET_CENTERS = {
    "paper1": (0.017, 0.020, 0.023, 0.029, 0.036, 0.039, 0.048, 0.077, 0.086, 0.089),
    "paper2": (0.003, 0.242, 0.444, 0.457, 0.682, 0.691, 0.786, 0.866, 0.920, 0.953),
    "paper3": (0.189, 0.828, 1.969, 1.996, 2.048, 2.184, 2.253, 5.268, 5.739, 6.201),
    "paper4": (1.512, 1.764, 1.853, 3.020, 3.154, 4.895, 5.419, 7.468, 10.521, 13.054),
}

_TAG_DATA, _TAG_POOL, _TAG_BOOT, _TAG_SIGMA = 1, 2, 3, 4


def _child_seed(master: int, *parts: int) -> int:
    """Deterministic child seed from the master seed and integer tags."""
    state = np.random.SeedSequence((int(master),) + tuple(int(p) for p in parts))
    return int(state.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: truths, noise scale and run protocol."""

    mu: tuple
    sigma: tuple
    alpha: float = 0.05
    reps: int = 100
    seed: int = 0
    methods: tuple = ALL_METHODS
    mc_samples: int = DEFAULT_MC_SAMPLES
    boot: BootstrapConfig = BootstrapConfig()
    name: str = "custom"

    def __post_init__(self):
        mu = tuple(float(v) for v in self.mu)
        sigma = tuple(float(v) for v in self.sigma)
        if len(mu) != len(sigma) or len(mu) < 1:
            raise ValueError("mu and sigma must be nonempty and of equal length")
        if any(not np.isfinite(v) for v in mu):
            raise ValueError("mu must be finite")
        if any(not np.isfinite(s) or s <= 0 for s in sigma):
            raise ValueError("sigma must be finite and positive")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        methods = tuple(dict.fromkeys(self.methods))
        unknown = [m for m in methods if m not in ALL_METHODS]
        if unknown or not methods:
            raise ValueError(f"methods must be a nonempty subset of {ALL_METHODS}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "methods", methods)

    @property
    def n(self) -> int:
        return len(self.mu)


@dataclass
class MethodStats:
    """Per-method replicate outcomes and their aggregates."""

    method: str
    covered_set_rank: np.ndarray
    covered_index: np.ndarray
    mean_width: np.ndarray
    rankability: np.ndarray
    false_rejection: np.ndarray | None = None

    @property
    def reps(self) -> int:
        return self.covered_set_rank.size

    @property
    def coverage_rate(self) -> float:
        return float(self.covered_set_rank.mean())

    @property
    def index_coverage_rate(self) -> float:
        return float(self.covered_index.mean())

    @property
    def fwer_rate(self) -> float | None:
        if self.false_rejection is None:
            return None
        return float(self.false_rejection.mean())

    def summary(self) -> dict:
        return {
            "method": self.method,
            "reps": self.reps,
            "coverage_rate": self.coverage_rate,
            "index_coverage_rate": self.index_coverage_rate,
            "mean_width": float(np.nanmean(self.mean_width)),
            "mean_rankability": float(np.nanmean(self.rankability)),
            "fwer_rate": self.fwer_rate,
        }


@dataclass
class CoverageReport:
    """Aggregated outcome of a scenario run."""

    scenario: ScenarioConfig
    criterion: str
    methods: dict = field(default_factory=dict)
    nestedness_violations: int | None = None
    true_rankability: float | None = None

    def as_dict(self) -> dict:
        return {
            "scenario": {
                "name": self.scenario.name,
                "n": self.scenario.n,
                "mu": list(self.scenario.mu),
                "sigma": list(self.scenario.sigma),
                "alpha": self.scenario.alpha,
                "reps": self.scenario.reps,
                "seed": self.scenario.seed,
                "methods": list(self.scenario.methods),
                "mc_samples": self.scenario.mc_samples,
                "n_boot": self.scenario.boot.n_boot,
            },
            "criterion": self.criterion,
            "true_rankability": self.true_rankability,
            "nestedness_violations": self.nestedness_violations,
            "methods": {m: s.summary() for m, s in self.methods.items()},
        }

    def format_table(self) -> str:
        head = (
            f"scenario {self.scenario.name}: n={self.scenario.n}, "
            f"alpha={self.scenario.alpha:g}, reps={self.scenario.reps}, "
            f"criterion={self.criterion}"
        )
        if self.true_rankability is not None:
            head += f", true rankability={self.true_rankability:.3f}"
        lines = [head]
        lines.append(
            f"{'method':<10} {'coverage%':>10} {'index-cov%':>11} "
            f"{'mean width':>11} {'rankability':>12} {'fwer%':>7}"
        )
        for s in (stats.summary() for stats in self.methods.values()):
            fwer = "-" if s["fwer_rate"] is None else f"{100 * s['fwer_rate']:.1f}"
            lines.append(
                f"{s['method']:<10} {100 * s['coverage_rate']:>10.1f} "
                f"{100 * s['index_coverage_rate']:>11.1f} "
                f"{s['mean_width']:>11.3f} {s['mean_rankability']:>12.3f} {fwer:>7}"
            )
        if self.nestedness_violations is not None:
            lines.append(f"nestedness violations: {self.nestedness_violations}")
        return "\n".join(lines)


def _covered(cis: SimultaneousRankCIs, sorted_set_ranks) -> bool:
    return all(ci.contains_set_rank(sr) for ci, sr in zip(cis.intervals, sorted_set_ranks))


def _covered_index(cis: SimultaneousRankCIs, index_targets: np.ndarray) -> bool:
    return all(ci.contains_rank(int(t)) for ci, t in zip(cis.intervals, index_targets))


def _any_false_rejection(rejected, mu_sorted: np.ndarray) -> bool:
    # a rejected positive pair (i, j) claims mu_i > mu_j; it is a false
    # rejection when the one-sided hypothesis mu_i <= mu_j was true
    return any(mu_sorted[i] <= mu_sorted[j] for i, j in rejected)


def run_coverage(cfg: ScenarioConfig) -> CoverageReport:
    """Run a scenario and score simultaneous coverage per method.

    A replicate counts as covered when every center's true set-rank is a
    subset of its interval.  For tukey/seqtukey the report also tracks the
    rate of replicates with at least one falsely rejected pair, and when
    both run, counts seqtukey intervals not nested in Tukey's (exactly zero
    by construction).
    """
    n = cfg.n
    mu = np.asarray(cfg.mu)
    sigma = np.asarray(cfg.sigma)
    input_set_ranks = true_set_ranks(mu) if n >= 2 else None
    reps = cfg.reps

    per_method = {
        m: {
            "covered": np.zeros(reps, dtype=bool),
            "covered_index": np.zeros(reps, dtype=bool),
            "mean_width": np.full(reps, np.nan),
            "rankability": np.full(reps, np.nan),
            "false_rejection": np.zeros(reps, dtype=bool) if m != "zhang" else None,
        }
        for m in cfg.methods
    }
    both_tested = "tukey" in cfg.methods and "seqtukey" in cfg.methods
    nested_violations = 0 if both_tested else None

    for r in range(reps):
        data_rng = np.random.default_rng(_child_seed(cfg.seed, r, _TAG_DATA))
        y = mu + sigma * data_rng.standard_normal(n)
        sample = CenterSample.from_observations(y, sigma)
        mu_sorted = mu[sample.order]
        sorted_set_ranks = (
            [input_set_ranks[k] for k in sample.order] if input_set_ranks else None
        )
        index_targets = sample.order + 1

        pool = None
        if "tukey" in cfg.methods or "seqtukey" in cfg.methods:
            pool = make_mc_pool(
                sample.sigma, cfg.mc_samples, seed=_child_seed(cfg.seed, r, _TAG_POOL)
            )

        results: dict[str, SimultaneousRankCIs] = {}
        rejections: dict[str, object] = {}
        if "seqtukey" in cfg.methods:
            cis_s, trace = sequential_tukey(sample, cfg.alpha, pool)
            results["seqtukey"] = cis_s
            rejections["seqtukey"] = trace.final_rejected
            if "tukey" in cfg.methods:
                results["tukey"] = tukey_rank_cis(sample, cfg.alpha, pool)
                # round one of the sequential procedure makes exactly the
                # single-step rejections on a shared pool
                rejections["tukey"] = (
                    trace.steps[0].newly_rejected if trace.steps else None
                )
        elif "tukey" in cfg.methods:
            results["tukey"] = tukey_rank_cis(sample, cfg.alpha, pool)
            rejections["tukey"] = tukey_rejected_pairs(sample, cfg.alpha, pool)
        if "zhang" in cfg.methods:
            bcfg = dataclasses.replace(cfg.boot, seed=_child_seed(cfg.seed, r, _TAG_BOOT))
            results["zhang"] = zhang_simultaneous(sample, cfg.alpha, bcfg).cis

        if both_tested and not results["seqtukey"].is_nested_in(results["tukey"]):
            nested_violations += 1

        for m in cfg.methods:
            cis = results[m]
            rec = per_method[m]
            if sorted_set_ranks is not None:
                rec["covered"][r] = _covered(cis, sorted_set_ranks)
            else:
                rec["covered"][r] = True
            rec["covered_index"][r] = _covered_index(cis, index_targets)
            rec["mean_width"][r] = float(cis.widths().mean())
            if n >= 2:
                rec["rankability"][r] = rankability_estimate(cis).value
            if rec["false_rejection"] is not None:
                rejected = rejections.get(m)
                if rejected is not None:
                    rec["false_rejection"][r] = _any_false_rejection(rejected, mu_sorted)

    report = CoverageReport(
        scenario=cfg,
        criterion="set-rank",
        nestedness_violations=nested_violations,
        true_rankability=(
            rankability_true(input_set_ranks) if input_set_ranks else None
        ),
    )
    for m in cfg.methods:
        rec = per_method[m]
        report.methods[m] = MethodStats(
            method=m,
            covered_set_rank=rec["covered"],
            covered_index=rec["covered_index"],
            mean_width=rec["mean_width"],
            rankability=rec["rankability"],
            false_rejection=rec["false_rejection"],
        )
    return report


def preset_scenario(name: str, *, reps: int = 100, alpha: float = 0.05,
                    seed: int = 0, methods: tuple = ALL_METHODS,
                    mc_samples: int = DEFAULT_MC_SAMPLES,
                    n_boot: int = 10_000) -> ScenarioConfig:
    """One of the built-in 10-center benchmark scenarios (paper1..paper4).

    Unit standard errors; the bootstrap runs with the benchmark protocol's
    bisection cap of 10 iterations.
    """
    if name not in PRESET_CENTERS:
        raise KeyError(f"unknown scenario {name!r}; choose from {sorted(PRESET_CENTERS)}")
    mu = PRESET_CENTERS[name]
    return ScenarioConfig(
        mu=mu,
        sigma=(1.0,) * len(mu),
        alpha=alpha,
        reps=reps,
        seed=seed,
        methods=methods,
        mc_samples=mc_samples,
        boot=BootstrapConfig(n_boot=n_boot, maxiter=10),
        name=name,
    )


def comparison_scenario(n: int = 50, *, alpha: float = 0.01, reps: int = 20,
                        seed: int = 0, mc_samples: int = DEFAULT_MC_SAMPLES) -> ScenarioConfig:
    """Integer-spaced centers with heterogeneous noise, for method comparison.

    mu_i = i for i = 1..n; each sigma_i is drawn once, uniformly from
    [0.5, 1.5], from the scenario seed, then frozen into the config.
    """
    rng = np.random.default_rng(_child_seed(seed, _TAG_SIGMA))
    sigma = 0.5 + rng.random(n)
    return ScenarioConfig(
        mu=tuple(float(i) for i in range(1, n + 1)),
        sigma=tuple(float(s) for s in sigma),
        alpha=alpha,
        reps=reps,
        seed=seed,
        methods=("tukey", "seqtukey"),
        mc_samples=mc_samples,
        name=f"comparison-{n}",
    )
