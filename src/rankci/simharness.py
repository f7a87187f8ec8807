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

Coverage is thus estimated conditionally on one pool.  The exceedance
probability of the pool's empirical quantile has standard deviation about
sqrt(alpha (1 - alpha) / N), about 0.0007 at alpha = 0.05 and N = 1e5, far
below the binomial noise of a coverage rate over 100 replicates (about
0.022).

The bootstrap never reads the pool.  With zhang, one helper thread and the
calling thread, once its pool work is done, claim replicates in order from
one shared iterator; the claiming thread draws the replicate's sample again,
bootstraps and scores it, so each replicate is bootstrapped once.  An error
is raised once, in the calling thread.

``rank`` and ``simulate`` run their methods through :func:`run_methods`.
When seqtukey runs, Tukey's rejections are those of its round one, which
on a shared pool are exactly the single-step ones.

Two coverage criteria are kept side by side: the normative one scores
containment of the true set-ranks; the legacy index criterion scores
containment of each sorted observation's original input position, which
coincides with the normative one when the configured centers are distinct
and listed in ascending order.
"""

import dataclasses
import json
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bootstrap import BootstrapConfig, _check_bootstraps_fit, zhang_simultaneous
from .core import (
    KNOWN_METHODS,
    CenterSample,
    SimultaneousRankCIs,
    _as_float_vector,
    _as_sigma_vector,
    _is_real,
    _whole_number,
    rank_bounds_from_rejections,
    true_set_ranks,
    truth_partition,
)
from .mcquantile import (
    DEFAULT_MC_SAMPLES,
    MC_SAMPLES_FLOOR,
    McPool,
    _in_background,
    make_mc_pool,
)
from .rankability import rankability_estimate, rankability_true
from .seqtukey import sequential_tukey
# tukey_rank_cis is uncalled here; perfbench/tracer.py patches it by this name
from .tukey import tukey_rank_cis, tukey_rejected_pairs  # noqa: F401

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


def _reals(values, key: str) -> tuple:
    """``values``, a nonempty list, tuple or 1-d array of finite reals (no bools), as floats."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    if not (isinstance(values, (list, tuple)) and all(map(_is_real, values))):
        raise ValueError(f"{key!r} must be a list of real numbers")
    return tuple(_as_float_vector(values, key).tolist())


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: truths, noise scale and run protocol.

    ``mu`` and ``sigma`` are lists of reals (a real ``sigma`` is every center's)
    and ``reps``, ``seed``, ``mc_samples`` whole numbers; a bool is neither.
    """

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
        mu = _reals(self.mu, "mu")
        sigma = _reals((self.sigma,) * len(mu) if _is_real(self.sigma) else self.sigma, "sigma")
        if len(mu) != len(sigma):
            raise ValueError("mu and sigma must be of equal length")
        _as_sigma_vector(sigma)
        if not (_is_real(self.alpha) and 0 < self.alpha < 1):
            raise ValueError("'alpha' must be a real number in (0, 1)")
        counts = {key: _whole_number(getattr(self, key), key)
                  for key in ("reps", "seed", "mc_samples")}
        for key, floor in (("reps", 1), ("mc_samples", MC_SAMPLES_FLOOR)):
            if counts[key] < floor:
                raise ValueError(f"{key} must be at least {floor}")
        if not (isinstance(self.methods, (list, tuple))
                and all(isinstance(m, str) for m in self.methods)):
            raise ValueError("'methods' must be a list of method names")
        methods = tuple(dict.fromkeys(self.methods))
        if not methods or not set(methods) <= set(KNOWN_METHODS):
            raise ValueError(f"methods must be a nonempty subset of {KNOWN_METHODS}")
        if not isinstance(self.name, str):
            raise ValueError(f"'name' must be a string, got {json.dumps(self.name, default=repr)}")
        for key, value in dict(mu=mu, sigma=sigma, alpha=float(self.alpha), methods=methods,
                               **counts).items():
            object.__setattr__(self, key, value)

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


def run_methods(sample: CenterSample, methods, levels, pool, zhang) -> dict:
    """The one method runner of ``rank`` and ``simulate``: ``methods`` at each of ``levels``.

    Returns ``{method: [(cis, rejected, detail) per level]}`` in the order of
    ``methods``: the mask of rejected pairs (None for zhang, and for
    seqtukey on one center), and seqtukey's trace or zhang's
    :class:`ZhangResult` (None for tukey).  ``pool()`` is called once, only
    when tukey or seqtukey runs; ``zhang()``, which returns one result per
    level, is called last, so a bootstrap running beside the pool work is
    joined once that work is done.
    """
    runs = {}
    if "tukey" in methods or "seqtukey" in methods:
        shared = pool()
    if "seqtukey" in methods:
        runs["seqtukey"] = [(cis, trace.final_rejected, trace) for cis, trace in
                            (sequential_tukey(sample, level, shared) for level in levels)]
    if "tukey" in methods:
        runs["tukey"] = []
        for k, level in enumerate(levels):
            steps = runs["seqtukey"][k][2].steps if "seqtukey" in runs else ()
            # round one of seqtukey makes exactly Tukey's rejections on the shared pool
            rejected = (steps[0].newly_rejected if steps
                        else tukey_rejected_pairs(sample, level, shared))
            cis = SimultaneousRankCIs(tuple(rank_bounds_from_rejections(rejected)), level, "tukey")
            runs["tukey"].append((cis, rejected, None))
    if "zhang" in methods:
        runs["zhang"] = [(res.cis, None, res) for res in zhang()]
    return {m: runs[m] for m in methods}


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


def _score(set_ranks, sample: CenterSample, cis, false_rejection) -> _Outcome:
    """``cis`` of one method on a replicate's ``sample``, scored against the true ``set_ranks``."""
    intervals = list(zip(cis.intervals, sample.order.tolist()))
    return _Outcome(
        covered_set_rank=all(set_ranks[k].is_subset_of(ci) for ci, k in intervals),
        covered_index=all(ci.contains_rank(k + 1) for ci, k in intervals),
        mean_width=float(cis.widths().mean()),
        rankability=rankability_estimate(cis) if sample.n >= 2 else np.nan,
        false_rejection=false_rejection,
    )


def _bootstrap_outcome(cfg: ScenarioConfig, r: int) -> _Outcome:
    """Replicate r's zhang outcome: its sample, bootstrapped from ``(cfg.seed, r, _TAG_BOOT)``."""
    sample = _replicate_sample(cfg, r)
    bcfg = dataclasses.replace(cfg.boot, seed=_child_seed(cfg.seed, r, _TAG_BOOT))
    return _score(true_set_ranks(cfg.mu), sample,
                  zhang_simultaneous(sample, cfg.alpha, bcfg).cis, None)


def _pool_outcomes(cfg: ScenarioConfig, r: int, live_pool: _LivePool):
    """Replicate r's methods but zhang, on ``live_pool``, scored as :func:`_run_replicate` says."""
    sample = _replicate_sample(cfg, r)
    runs = run_methods(sample, [m for m in cfg.methods if m != "zhang"], (cfg.alpha,),
                       lambda: live_pool.for_sigma(sample.sigma), None)
    # a rejected pair (i, j) claims mu_i > mu_j; it is a false rejection
    # when the one-sided hypothesis mu_i <= mu_j was true
    true_mask, _ = truth_partition(np.asarray(cfg.mu)[sample.order])
    set_ranks = true_set_ranks(cfg.mu)
    outcomes = {m: _score(set_ranks, sample, cis,
                          rejected is not None and bool(np.any(rejected & true_mask)))
                for m, [(cis, rejected, _)] in runs.items()}
    both_tested = "tukey" in runs and "seqtukey" in runs
    return outcomes, not both_tested or runs["seqtukey"][0][0].is_nested_in(runs["tukey"][0][0])


def _run_replicate(cfg: ScenarioConfig, r: int):
    """Replicate r alone, bootstrapped last in this thread: what ``run_coverage`` reports for r.

    Returns ``({method: _Outcome}, nested)``; ``nested`` is False if seqtukey's CIs leave Tukey's.
    """
    outcomes, nested = _pool_outcomes(cfg, r, _LivePool(cfg))
    if "zhang" in cfg.methods:
        outcomes["zhang"] = _bootstrap_outcome(cfg, r)
    return {m: outcomes[m] for m in cfg.methods}, nested


def _beside_bootstraps(cfg: ScenarioConfig, pool_runs):
    """The list of ``pool_runs``, each with its zhang outcome, scored beside the pool work.

    One helper thread and, once ``pool_runs`` is consumed, the calling thread
    claim replicates in order from one iterator, one bootstrap at a time
    each, and none once either side has raised.  After the join, the lowest
    failing replicate's error is raised: claims in order fix which it is.
    """
    _check_bootstraps_fit(cfg.n, cfg.boot.n_boot, copies=min(cfg.reps, 2))
    claims, lock, stop = iter(range(cfg.reps)), threading.Lock(), threading.Event()
    zhang, errors = [None] * cfg.reps, {}  # errors: replicate -> what its bootstrap raised

    def claim_rest():
        while True:
            with lock:
                r = None if errors or stop.is_set() else next(claims, None)
            if r is None:
                return
            try:
                zhang[r] = _bootstrap_outcome(cfg, r)
            except Exception as exc:
                with lock:
                    errors[r] = exc

    with _in_background(claim_rest):
        try:
            runs = list(pool_runs)
            claim_rest()
        finally:
            stop.set()
    if errors:
        raise errors[min(errors)]
    for (outcomes, _), outcome in zip(runs, zhang):
        outcomes["zhang"] = outcome
    return runs


def run_coverage(cfg: ScenarioConfig) -> CoverageReport:
    """Run a scenario and score simultaneous coverage per method.

    A replicate counts as covered when every center's true set-rank is a
    subset of its interval.  For tukey/seqtukey the report also tracks the
    rate of replicates with at least one falsely rejected pair, and when
    both run, counts seqtukey intervals not nested in Tukey's (exactly zero
    by construction).  Replicates share one live pool (see ``_LivePool``),
    so with equal sigmas the pool and its memo are made once per call; the
    bootstraps run beside the pool work (see :func:`_beside_bootstraps`).
    """
    live_pool = _LivePool(cfg)
    runs = (_pool_outcomes(cfg, r, live_pool) for r in range(cfg.reps))
    runs = _beside_bootstraps(cfg, runs) if "zhang" in cfg.methods else list(runs)
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
    return ScenarioConfig(mu=PRESET_CENTERS[name], sigma=1.0, alpha=alpha, reps=reps, seed=seed,
                          methods=methods, mc_samples=mc_samples,
                          boot=BootstrapConfig(n_boot=n_boot, maxiter=10), name=name)


def comparison_scenario(n: int = 50, *, alpha: float = 0.01, reps: int = 20,
                        seed: int = 0, mc_samples: int = DEFAULT_MC_SAMPLES) -> ScenarioConfig:
    """Integer-spaced centers with heterogeneous noise, for method comparison.

    mu_i = i for i = 1..n; each sigma_i is drawn once, uniformly from
    [0.5, 1.5], from the scenario seed, then frozen into the config.
    """
    rng = np.random.default_rng(_child_seed(seed, _TAG_SIGMA))
    return ScenarioConfig(mu=np.arange(1.0, n + 1), sigma=0.5 + rng.random(n), alpha=alpha,
                          reps=reps, seed=seed, methods=("tukey", "seqtukey"),
                          mc_samples=mc_samples, name=f"comparison-{n}")
