"""Workload inputs, the rankci command lines that use them, and output checks.

Every input, and every rankci ``--seed``, derives from the workload seed
alone, so a seed reproduces the inputs exactly.  Paths handed to rankci are relative to the checkout root,
so the JSON manifests, and therefore the output digests, do not depend on
where the checkout lives.
"""

import functools
import json
import math
import os
from typing import NamedTuple

import numpy as np

ALPHA = 0.05

#: Replicates per ``rankci simulate`` call on simulate-presets.
SIM_REPS = 12
SIM_PRESETS = ("paper1", "paper2", "paper3", "paper4")

#: A method's coverage check fails only when its miss count over the run is
#: this unlikely under Binomial(reps, alpha), i.e. under exactly nominal
#: coverage.
COVERAGE_TAIL = 1e-6

WORKLOADS = {
    # The unequal-sigma pair kernel does most of the work: four full-range
    # quantiles (tukey and seqtukey, each at alpha and 0.5) plus seqtukey's
    # restricted row maxima, on a 100k-row pool.
    "rank-all-hetero": dict(n=50, method="all", mc_samples=100_000),
    # Many pairs, few pool rows: PairSet construction, seqtukey's set work and
    # rendering 500 rows dominate, not the kernel.  Not gated: this Python-
    # object work swings too much with host contention (see README.md).
    "rank-seq-wide": dict(n=500, method="seqtukey", mc_samples=1_000),
    # The Table-1 scenarios: a fresh pool per replicate, the equal-sigma fast
    # path, the bootstrap and per-replicate orchestration.
    "simulate-presets": dict(methods="tukey,seqtukey,zhang", mc_samples=100_000),
}


class CheckError(Exception):
    """A rankci output failed one of the benchmark's correctness checks."""


class Call(NamedTuple):
    """One rankci invocation of a workload cycle."""

    label: str
    argv: list
    out_path: str
    tables: int  # league tables it computes: 1 per rank call, --reps per simulate call


def hetero_observations(n, seed):
    """(y, sigma) with mu_i = i, sigma_i ~ U[0.5, 1.5], y_i ~ N(mu_i, sigma_i^2)."""
    rng = np.random.default_rng([seed, n])
    mu = np.arange(1, n + 1, dtype=float)
    sigma = rng.uniform(0.5, 1.5, n)
    return mu + sigma * rng.standard_normal(n), sigma


def hetero_table(n, seed):
    """hetero_observations as an estimates file: id, estimate, std_error."""
    y, sigma = hetero_observations(n, seed)
    rows = ["id,estimate,std_error"]
    rows += [f"c{i + 1:04d},{float(y[i])!r},{float(sigma[i])!r}" for i in range(n)]
    return "\n".join(rows) + "\n"


def cycle_seed(seed, cycle):
    """rankci ``--seed`` of a cycle.

    Cycles 2m and 2m+1 share a seed, so every odd cycle repeats the one
    before it byte for byte, while a run still averages over several seeds.
    """
    return int(np.random.SeedSequence([seed, cycle // 2]).generate_state(1)[0])


def prepare(workload, seed, run_dir):
    """Write the workload's inputs under ``run_dir``; return ``calls(cycle)``.

    ``calls(cycle)`` lists the Calls the closed loop issues, in order, in
    that cycle.
    """
    spec = WORKLOADS[workload]
    os.makedirs(run_dir, exist_ok=True)
    if workload.startswith("rank-"):
        input_path = os.path.join(run_dir, "input.csv")
        with open(input_path, "w", encoding="utf-8") as fh:
            fh.write(hetero_table(spec["n"], seed))
        out_path = os.path.join(run_dir, "rank.json")

        def calls(cycle):
            argv = ["rank", "--input", input_path, "--method", spec["method"],
                    "--alpha", str(ALPHA), "--mc-samples", str(spec["mc_samples"]),
                    "--boot-samples", "10000", "--seed", str(cycle_seed(seed, cycle)),
                    "--out", "json", "--out-file", out_path]
            return [Call("rank", argv, out_path, 1)]
        return calls

    def calls(cycle):
        out = []
        for preset in SIM_PRESETS:
            out_path = os.path.join(run_dir, f"{preset}.json")
            argv = ["simulate", "--scenario", preset, "--reps", str(SIM_REPS),
                    "--alpha", str(ALPHA), "--seed", str(cycle_seed(seed, cycle)),
                    "--methods", spec["methods"], "--mc-samples", str(spec["mc_samples"]),
                    "--boot-samples", "10000", "--out", "json", "--out-file", out_path]
            out.append(Call(preset, argv, out_path, SIM_REPS))
        return out
    return calls


def _require(condition, message):
    if not condition:
        raise CheckError(message)


@functools.lru_cache(maxsize=None)
def max_misses(reps, alpha, tail=COVERAGE_TAIL):
    """Largest miss count k with P(Binomial(reps, alpha) > k) above ``tail``."""
    for k in range(reps + 1):
        upper = sum(math.comb(reps, m) * alpha ** m * (1 - alpha) ** (reps - m)
                    for m in range(k + 1, reps + 1))
        if upper <= tail:
            return k
    return reps


def _check_rankability(block, where):
    rb = block.get("rankability")
    _require(rb is not None, f"{where}: no rankability")
    for key in ("value", "midlevel_point_estimate"):
        _require(0.0 <= rb[key] <= 1.0, f"{where}: rankability {key}={rb[key]} outside [0, 1]")


def check_rank(payload):
    """Containment of the empirical rank, seqtukey-in-tukey nesting, rankability."""
    centers = payload["centers"]
    results = payload["results"]
    _require(results, "no method results")
    bounds = {}
    for method, block in results.items():
        intervals = block["intervals"]
        _require(len(intervals) == len(centers), f"{method}: {len(intervals)} intervals "
                 f"for {len(centers)} centers")
        _check_rankability(block, method)
        bounds[method] = [(iv["lower"], iv["upper"]) for iv in intervals]
        for center, iv in zip(centers, intervals):
            _require(center["id"] == iv["id"], f"{method}: id order differs from centers")
            if method in ("tukey", "seqtukey"):
                _require(iv["lower"] <= center["rank"] <= iv["upper"],
                         f"{method}: {iv['id']} interval [{iv['lower']}, {iv['upper']}] "
                         f"misses empirical rank {center['rank']}")
    if "tukey" in bounds and "seqtukey" in bounds:
        for (sl, su), (tl, tu), center in zip(bounds["seqtukey"], bounds["tukey"], centers):
            _require(tl <= sl and su <= tu,
                     f"seqtukey [{sl}, {su}] not nested in tukey [{tl}, {tu}] "
                     f"for {center['id']}")


def check_simulate(payload, tally):
    """Nesting count, rankability range and tukey/seqtukey set-rank coverage.

    ``tally`` maps (scenario, method) to [misses, reps] summed over the
    run's distinct calls so far, so coverage is judged at the run's
    replicate count; it is None for a repeat, which is not counted twice.
    """
    report = payload["report"]
    alpha = report["scenario"]["alpha"]
    _require(report["nestedness_violations"] == 0,
             f"nestedness_violations = {report['nestedness_violations']}")
    for method, stats in report["methods"].items():
        _require(0.0 <= stats["mean_rankability"] <= 1.0,
                 f"{method}: mean rankability {stats['mean_rankability']} outside [0, 1]")
        if method in ("tukey", "seqtukey") and tally is not None:
            counts = tally.setdefault((report["scenario"]["name"], method), [0, 0])
            counts[0] += round((1.0 - stats["coverage_rate"]) * stats["reps"])
            counts[1] += stats["reps"]
            misses, reps = counts
            allowed = max_misses(reps, alpha)
            _require(misses <= allowed,
                     f"{method}: {misses} of {reps} replicates in this run uncovered, "
                     f"more than the {allowed} a {1 - alpha:g} coverage allows")


def check_output(call, raw, reference, tally):
    """Raise CheckError unless ``raw`` is valid, repeatable output of ``call``.

    Output of the wrong shape (a missing key, a null bound, a list where an
    object belongs) is a CheckError too, so it is counted as a failed call.

    ``reference`` is the first output of a call with the same arguments in
    this run (None if there was none); a rerun with the same seed must match
    it byte for byte.  ``tally`` accumulates coverage, see check_simulate.
    """
    if reference is not None:
        _require(raw == reference, "output differs from the first call with the same seed")
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    try:
        if call.argv[0] == "rank":
            check_rank(payload)
        else:
            check_simulate(payload, tally if reference is None else None)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
        # a missing key, a null or a wrongly typed value: the output is wrong
        raise CheckError(f"output has the wrong shape: {type(exc).__name__}: {exc}") from None
