"""Coverage experiments: run the estimators against known truths.

A scenario fixes true centers, standard errors and a master seed; every
replicate draws a fresh Gaussian sample, runs the requested methods and
scores whether each center's *true set-rank* landed inside its interval.
A replicate's data and bootstrap seeds derive from (master seed, replicate
index, tag).  The Monte-Carlo pool seeds from (master seed, tag) alone, so
one pool serves every replicate whose sorted sigmas it was drawn for: one
pool per run with equal sigmas, and with unequal sigmas a pool drawn anew,
from the same seed, when a replicate's sorted sigmas differ from the live
pool's.  A replicate's pool depends on the scenario and its sorted sigmas
only, so reports do not depend on execution order.

The bootstrap never reads the pool.  A run with zhang starts one helper
thread that draws replicates' samples again and bootstraps them, in
replicate order, while the calling thread runs the pool methods replicate
after replicate and takes each replicate's bootstrap intervals as it scores
it.  Where it would wait for a bootstrap in progress, the calling thread
runs the next unclaimed bootstrap itself, so each replicate is bootstrapped
once, by one of the two threads.  No bootstrap starts more than eight
replicates past those taken, none starts once one has raised or the calling
side has, and a bootstrap's error is re-raised once, in the calling thread.

Coverage is thus estimated conditionally on one pool.  The exceedance
probability of the pool's empirical quantile has standard deviation about
sqrt(alpha (1 - alpha) / N), about 0.0007 at alpha = 0.05 and N = 1e5, far
below the binomial noise of a coverage rate over 100 replicates (about
0.022).

Two coverage criteria are kept side by side: the normative one scores
containment of the true set-ranks; the legacy index criterion scores
containment of each sorted observation's original input position, which
coincides with the normative one when the configured centers are distinct
and listed in ascending order.
"""

import contextlib
import dataclasses
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bootstrap import BootstrapConfig, _check_bootstraps_fit, zhang_simultaneous
from .core import KNOWN_METHODS, CenterSample, true_set_ranks, truth_partition
from .mcquantile import (
    DEFAULT_MC_SAMPLES,
    McPool,
    _in_background,
    make_mc_pool,
)
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
    """Deterministic child seed from the master seed and integer tags.

    Every seed of a run passes through here, so a negative master seed is
    refused here, by name, before any work.
    """
    if int(master) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {master}")
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
    methods: tuple = KNOWN_METHODS
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
        unknown = [m for m in methods if m not in KNOWN_METHODS]
        if unknown or not methods:
            raise ValueError(f"methods must be a nonempty subset of {KNOWN_METHODS}")
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
            "mean_width": _nanmean(self.mean_width),
            "mean_rankability": _nanmean(self.rankability),
            "fwer_rate": self.fwer_rate,
        }


def _nanmean(values: np.ndarray) -> float:
    """Mean over the non-NaN entries; NaN, with no warning, if every entry is NaN."""
    return float("nan") if np.isnan(values).all() else float(np.nanmean(values))


def _nan_to_none(summary: dict) -> dict:
    """The summary with NaN means as None, which JSON writes as null."""
    return {k: None if isinstance(v, float) and np.isnan(v) else v for k, v in summary.items()}


@dataclass
class CoverageReport:
    """Aggregated outcome of a scenario run."""

    scenario: ScenarioConfig
    methods: dict
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
            "criterion": "set-rank",
            "true_rankability": self.true_rankability,
            "nestedness_violations": self.nestedness_violations,
            "methods": {m: _nan_to_none(s.summary()) for m, s in self.methods.items()},
        }

    def format_table(self) -> str:
        head = (
            f"scenario {self.scenario.name}: n={self.scenario.n}, "
            f"alpha={self.scenario.alpha:g}, reps={self.scenario.reps}, "
            "criterion=set-rank"
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


class _Outcome(NamedTuple):
    """One method's score on one replicate, in the field order of MethodStats."""

    covered_set_rank: bool
    covered_index: bool
    mean_width: float
    rankability: float
    false_rejection: bool | None


class _LivePool:
    """The one Monte-Carlo pool a scenario run keeps alive.

    It is drawn from the seed ``(cfg.seed, _TAG_POOL)`` for the sorted sigmas
    that last asked for a different pool, so it depends on
    ``(cfg, sorted sigma)`` alone.
    """

    def __init__(self, cfg: ScenarioConfig):
        self._cfg = cfg
        self._pool = None

    def for_sigma(self, sigma) -> McPool:
        """The live pool when it matches ``sigma``, else a new one that replaces it."""
        if self._pool is None or not self._pool.matches_sigma(sigma):
            self._pool = None  # let the old pool go before its successor is drawn
            self._pool = make_mc_pool(sigma, self._cfg.mc_samples,
                                      seed=_child_seed(self._cfg.seed, _TAG_POOL))
        return self._pool


def _replicate_sample(cfg: ScenarioConfig, r: int) -> CenterSample:
    """Replicate r's sample, drawn from the seed ``(cfg.seed, r, _TAG_DATA)``."""
    mu, sigma = np.asarray(cfg.mu), np.asarray(cfg.sigma)
    data_rng = np.random.default_rng(_child_seed(cfg.seed, r, _TAG_DATA))
    return CenterSample.from_observations(mu + sigma * data_rng.standard_normal(cfg.n), sigma)


def _bootstrap_cis(cfg: ScenarioConfig, r: int):
    """Replicate r's zhang CIs: its sample, bootstrapped from ``(cfg.seed, r, _TAG_BOOT)``."""
    bcfg = dataclasses.replace(cfg.boot, seed=_child_seed(cfg.seed, r, _TAG_BOOT))
    return zhang_simultaneous(_replicate_sample(cfg, r), cfg.alpha, bcfg).cis


#: Replicates whose bootstraps may start ahead of those taken.  Replicate 0
#: also draws the pool: at N = 1e5, n = 10 that takes about as long as five
#: or six bootstraps, which the helper thread runs meanwhile.
_BOOTSTRAP_LEAD = 8


@contextlib.contextmanager
def _bootstraps_ahead(cfg: ScenarioConfig):
    """Share every replicate's bootstrap between one helper thread and the calling thread.

    Yields ``take(r)``, which returns replicate r's zhang CIs; replicates are
    taken in order.  Both threads claim bootstraps in replicate order, from
    one counter, each no more than ``_BOOTSTRAP_LEAD`` replicates past those
    taken, so each replicate is bootstrapped exactly once: the helper runs
    ahead of the pool work, and ``take(r)``, rather than wait for a
    bootstrap in progress, runs the next unclaimed one itself.  Two
    bootstraps can thus be in memory at once, and both are checked to fit
    before the helper starts.  Once a bootstrap raises, neither thread
    starts another; the error of the first failing replicate is re-raised
    by its ``take``, once.  On leaving the block the helper finishes the
    bootstrap in progress and is joined.
    """
    _check_bootstraps_fit(cfg.n, cfg.boot.n_boot, copies=min(cfg.reps, 2))
    ready = threading.Condition()
    done = {}  # replicate -> (cis, error); an error stays, so no bootstrap starts after it
    state = {"claimed": 0, "taken": 0, "stop": False}

    def work(until):
        # claim and run bootstraps in replicate order until until(); wait while none may start
        while True:
            with ready:
                ready.wait_for(lambda: until() or (
                    not state["stop"] and all(error is None for _, error in done.values())
                    and state["claimed"] < min(cfg.reps, state["taken"] + _BOOTSTRAP_LEAD)))
                if until():
                    return
                r = state["claimed"]
                state["claimed"] = r + 1
            try:
                outcome = _bootstrap_cis(cfg, r), None
            except Exception as exc:  # re-raised by take(r)
                outcome = None, exc
            with ready:
                done[r] = outcome
                ready.notify_all()

    def take(r):
        work(lambda: r in done)
        with ready:
            cis, error = done[r]
            if error is None:
                del done[r]
                state["taken"] = r + 1
                ready.notify_all()
        if error is not None:
            raise error
        return cis

    with _in_background(lambda: work(lambda: state["stop"] or state["claimed"] == cfg.reps)):
        try:
            yield take
        finally:
            with ready:
                state["stop"] = True
                ready.notify_all()


def _run_replicate(cfg: ScenarioConfig, r: int, live_pool=None, zhang_cis=None):
    """Draw replicate r's sample, run the requested methods and score each.

    Returns ``({method: _Outcome}, nested)``, where ``nested`` is False only
    when seqtukey's intervals are not nested in Tukey's.  The result depends
    on ``(cfg, r)`` alone: the sample and the bootstrap seed from
    ``(cfg.seed, r, tag)``, and the pool, taken from ``live_pool`` (a
    ``_LivePool``; a fresh one when not given), depends on ``cfg`` and the
    sample's sorted sigmas only; the pool's memo holds only what depends on
    it alone, so earlier replicates leave it as they found it.  Coverage is
    scored against the true set-ranks of ``cfg.mu``, computed here, O(n^2)
    and small beside the methods.  The bootstrap never reads the pool: its
    CIs come from ``zhang_cis(r)`` when given (``run_coverage`` passes the
    ``take`` of :func:`_bootstraps_ahead`, whose helper thread computes most
    of them ahead), and are otherwise computed here, after the pool work, in
    the calling thread.
    """
    mu = np.asarray(cfg.mu)
    set_ranks = true_set_ranks(mu)
    if live_pool is None:
        live_pool = _LivePool(cfg)
    sample = _replicate_sample(cfg, r)

    results, rejections = {}, {}
    if "tukey" in cfg.methods or "seqtukey" in cfg.methods:
        pool = live_pool.for_sigma(sample.sigma)
    if "seqtukey" in cfg.methods:
        results["seqtukey"], trace = sequential_tukey(sample, cfg.alpha, pool)
        rejections["seqtukey"] = trace.final_rejected
    if "tukey" in cfg.methods:
        results["tukey"] = tukey_rank_cis(sample, cfg.alpha, pool)
        if "seqtukey" in cfg.methods:
            # round one of the sequential procedure makes exactly the
            # single-step rejections on a shared pool
            rejections["tukey"] = trace.steps[0].newly_rejected if trace.steps else None
        else:
            rejections["tukey"] = tukey_rejected_pairs(sample, cfg.alpha, pool)
    if "zhang" in cfg.methods:
        results["zhang"] = zhang_cis(r) if zhang_cis is not None else _bootstrap_cis(cfg, r)

    # a rejected pair (i, j) claims mu_i > mu_j; it is a false rejection
    # when the one-sided hypothesis mu_i <= mu_j was true
    true_mask, _ = truth_partition(mu[sample.order])
    outcomes = {}
    for m in cfg.methods:
        cis = results[m]
        intervals = list(zip(cis.intervals, sample.order.tolist()))
        rejected = rejections.get(m)
        outcomes[m] = _Outcome(
            covered_set_rank=all(ci.contains_set_rank(set_ranks[k]) for ci, k in intervals),
            covered_index=all(ci.contains_rank(k + 1) for ci, k in intervals),
            mean_width=float(cis.widths().mean()),
            rankability=rankability_estimate(cis).value if cfg.n >= 2 else np.nan,
            false_rejection=(None if m == "zhang"
                             else rejected is not None and bool(np.any(rejected & true_mask))),
        )
    both_tested = "tukey" in results and "seqtukey" in results
    return outcomes, not both_tested or results["seqtukey"].is_nested_in(results["tukey"])


def run_coverage(cfg: ScenarioConfig) -> CoverageReport:
    """Run a scenario and score simultaneous coverage per method.

    A replicate counts as covered when every center's true set-rank is a
    subset of its interval.  For tukey/seqtukey the report also tracks the
    rate of replicates with at least one falsely rejected pair, and when
    both run, counts seqtukey intervals not nested in Tukey's (exactly zero
    by construction).  Replicates run one at a time, in order, and share one
    live pool (see ``_LivePool``), so with equal sigmas the pool is drawn
    and its full-range and negative-pair row maxima computed once per call.
    With zhang, one helper thread runs the replicates' bootstraps, in
    order, ahead of the pool work, and the calling thread runs the next
    ones itself where it would wait (see :func:`_bootstraps_ahead`).
    """
    live_pool = _LivePool(cfg)
    bootstraps = _bootstraps_ahead(cfg) if "zhang" in cfg.methods else contextlib.nullcontext()
    with bootstraps as zhang_cis:
        runs = [_run_replicate(cfg, r, live_pool, zhang_cis) for r in range(cfg.reps)]
    methods = {}
    for m in cfg.methods:
        columns = zip(*(outcomes[m] for outcomes, _ in runs))
        methods[m] = MethodStats(m, *(None if col[0] is None else np.array(col)
                                      for col in columns))
    both_tested = "tukey" in cfg.methods and "seqtukey" in cfg.methods
    return CoverageReport(
        scenario=cfg,
        methods=methods,
        nestedness_violations=sum(not nested for _, nested in runs) if both_tested else None,
        true_rankability=rankability_true(true_set_ranks(cfg.mu)) if cfg.n >= 2 else None,
    )


def preset_scenario(name: str, *, reps: int = 100, alpha: float = 0.05,
                    seed: int = 0, methods: tuple = KNOWN_METHODS,
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
