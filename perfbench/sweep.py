"""One-off traced size sweep of rankci's layer functions.

Run from the root of a checkout:

    python3 perfbench/sweep.py --out perfbench/recorded/sweep.json

It times make_mc_pool, studentized_range_quantile, tukey_rank_cis,
sequential_tukey and zhang_simultaneous at n in {10, 50, 200} with
N = 100k pool rows (K = 10k bootstrap draws), plus sequential_tukey at
n = 1000 with N = 1000, on the heterogeneous table of the rank workloads
(mu_i = i, sigma_i ~ U[0.5, 1.5]).  These sizes are kept out of the gated
workloads because one n = 200 or n = 1000 call takes tens of seconds.
Each row holds the median wall time of its repeats and the per-layer self
times and counters from the tracer.  Takes a few minutes and ~0.5 GB.
"""

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, import_cli, machine_block  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402
from workloads import ALPHA, hetero_observations  # noqa: E402

#: Repeat a measurement until this much time is spent, at most MAX_REPEATS.
REPEAT_SECONDS = 2.0
MAX_REPEATS = 5
#: Seed of the input tables, the pools and the bootstrap draws.
SEED = 0

# (function, n, pool rows N or, for zhang_simultaneous, bootstrap draws K)
GRID = [(fn, n, 100_000) for n in (10, 50, 200)
        for fn in ("make_mc_pool", "studentized_range_quantile", "tukey_rank_cis",
                   "sequential_tukey")]
GRID += [("zhang_simultaneous", n, 10_000) for n in (10, 50, 200)]
GRID.append(("sequential_tukey", 1000, 1_000))


def measure(rankci, fn_name, n, size):
    sample = rankci.CenterSample.from_observations(*hetero_observations(n, SEED))
    pool = None
    if fn_name in ("studentized_range_quantile", "tukey_rank_cis", "sequential_tukey"):
        pool = rankci.make_mc_pool(sample.sigma, size, seed=SEED)
    calls = {
        "make_mc_pool": ("mcquantile.pool",
                         lambda: rankci.make_mc_pool(sample.sigma, size, seed=SEED)),
        "studentized_range_quantile": ("mcquantile.fullrange",
                                       lambda: rankci.studentized_range_quantile(pool, ALPHA)),
        "tukey_rank_cis": ("tukey", lambda: rankci.tukey_rank_cis(sample, ALPHA, pool)),
        "sequential_tukey": ("seqtukey", lambda: rankci.sequential_tukey(sample, ALPHA, pool)),
        "zhang_simultaneous": ("bootstrap", lambda: rankci.zhang_simultaneous(
            sample, ALPHA, rankci.BootstrapConfig(n_boot=size, seed=SEED))),
    }
    layer, call = calls[fn_name]
    tracer = Tracer()
    traced = tracer.wrap(layer, call)
    times = []
    with tracer.installed():
        while not times or (sum(times) < REPEAT_SECONDS and len(times) < MAX_REPEATS):
            with tracer.span(ROOT_SPAN) as record:
                traced()
            times.append((record[2] - record[1]) * 1e-9)
    _, self_ns = tracer.layer_times()
    repeats = len(times)
    return {
        "function": fn_name,
        "n": n,
        "pool_rows" if fn_name != "zhang_simultaneous" else "boot_draws": size,
        "repeats": repeats,
        "median_s": statistics.median(times),
        "self_s": {k: v * 1e-9 / repeats for k, v in sorted(self_ns.items()) if k != ROOT_SPAN},
        "counts": {k: v / repeats for k, v in sorted(tracer.counts.items())},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=".perfbench_out/sweep.json")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    import_cli()
    import rankci

    rows = []
    for fn_name, n, size in GRID:
        row = measure(rankci, fn_name, n, size)
        rows.append(row)
        print(f"{fn_name:28s} n={n:<5d} N|K={size:<7d} {row['median_s']:9.4f} s "
              f"({row['repeats']} repeats)", flush=True)
    result = {
        "machine": machine_block(),
        "seed": SEED,
        "alpha": ALPHA,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
