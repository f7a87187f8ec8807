"""Run one workload on ten seeds and record each metric's spread.

Run from the root of a checkout:

    python3 perfbench/series.py --workload rank-all-hetero --first-seed 1001 \
        --out perfbench/recorded/series-1001-rank-all-hetero.json

It runs ``run.py --trace 0`` once for each of the seeds first-seed ...
first-seed + 9, one after another, for BENCHMARK.json's ``run_seconds``
each.  It writes every run's result line, and for each end-to-end metric the
median and the quartile distance (``statistics.quantiles(values, n=4)``)
over the median, which is the spread BENCHMARK.json's bounds are set
against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def spread(values):
    """Median and quartile distance over the median of ``values``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "iqr_over_median": (q3 - q1) / median}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "result": result})
        print(seed, json.dumps(result), flush=True)

    names = runs[0]["result"]["metrics"]
    spreads = {name: spread([r["result"]["metrics"][name]["value"] for r in runs])
               for name in names}
    for name, s in spreads.items():
        print(f"{name:14s} median={s['median']:.5g} iqr/median={s['iqr_over_median']:.4f}")
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                   "spread": spreads}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
