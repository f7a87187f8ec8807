"""Closed-loop benchmark of the rankci command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rank-all-hetero --seed 1 --seconds 45 --trace 0

The benchmark imports rankci from the checkout's ``src`` directory and calls
``rankci.cli.main([...])`` in this process, one call at a time (a closed loop
with a single client), with stdout sent to /dev/null so the human table is
still rendered.  It writes inputs, outputs and a results file under
``.perfbench_out/<workload>-s<seed>/`` and prints one JSON line last.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``rank_s``: median wall seconds per league table: per ``rank`` call, or
  per replicate of a ``simulate`` call.  The median is over cycles, one
  cycle being one call on the rank workloads and one call per preset on
  simulate-presets;
* ``setup_s``: median, over several fresh processes, of the time from
  process start through ``import rankci`` and input generation up to the
  point of the first timed call;
* ``peak_rss_mb``: peak resident memory of this process.

It also prints, and writes to the results file, two figures that are not
gated: ``reps_per_s``, league tables (``rank`` calls, or ``simulate``
replicates) divided by the summed seconds of the calls, which is close to
1 / ``rank_s`` and so adds no gate of its own; and ``error_rate``, failed
calls over attempted calls, which is 0 when rankci is correct.
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics of tracer.LAYER_METRICS from the traced cycles, plus
the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import LAYER_METRICS, ROOT_SPAN, Tracer, layer_metrics  # noqa: E402

OUT_DIR = ".perfbench_out"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 9
#: Cycles every run completes, whatever --seconds says: the second cycle
#: is the first byte-for-byte repeat (and, with --trace 1, the first traced one).
MIN_CYCLES = 2
PROBE_TIMEOUT_S = 60

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
              "NUMBA_NUM_THREADS", "PYTHONHASHSEED")

END_TO_END = {
    "rank_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="stop when ready for the first call; print the monotonic clock")
    return parser.parse_args(argv)


def import_cli():
    """rankci.cli from this checkout's src/; exit with status 1 if it is not there."""
    try:
        import rankci.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rankci from {ROOT / 'src'}: {exc}")
    src = (ROOT / "src").resolve()
    if src not in Path(rankci.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: rankci was imported from {rankci.cli.__file__}, "
                 f"not from {src}")
    return rankci.cli


def machine_block():
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def measure_setup(args, probes):
    """Seconds from spawning each of ``probes`` fresh workload processes to its first call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(probes):
        start = time.monotonic_ns()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        ready = int(done.stdout.strip().splitlines()[-1])
        samples.append((ready - start) * 1e-9)
    return samples


def timed_call(main, call, tracer):
    """One rankci call: (seconds, return code or exception text, output bytes)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(call.out_path)
    with open(os.devnull, "w", encoding="utf-8") as devnull, \
            contextlib.redirect_stdout(devnull), \
            (tracer.installed() if tracer else contextlib.nullcontext()):
        start = time.perf_counter()
        try:
            with (tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext()):
                status = main(call.argv)
        except (Exception, SystemExit) as exc:  # a failed call is counted, not fatal
            status = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    raw = None
    if status == 0:
        try:
            with open(call.out_path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            status = f"no output file: {exc}"
    return elapsed, status, raw


def run_loop(main, calls, seconds, tracer):
    """Closed loop over whole cycles of ``calls`` for at least ``seconds``.

    With a tracer, odd cycles are traced and even cycles are not, so both
    kinds see the same drift in machine speed, and every cycle repeats the
    first one, so the per-call counts do not depend on the run length.
    """
    records = []
    failures = []
    references = {}
    tally = {}
    cycle = 0
    start = time.perf_counter()
    while cycle < MIN_CYCLES or time.perf_counter() - start < seconds:
        traced = tracer is not None and cycle % 2 == 1
        for call in calls(0 if tracer else cycle):
            elapsed, status, raw = timed_call(main, call, tracer if traced else None)
            ok = status == 0
            if ok:
                try:
                    workloads.check_output(call, raw, references.get(tuple(call.argv)), tally)
                except workloads.CheckError as exc:
                    ok, status = False, f"check failed: {exc}"
                references.setdefault(tuple(call.argv), raw)
            if not ok:
                failures.append({"cycle": cycle, "call": call.label, "error": str(status)})
            records.append({"call": call.label, "cycle": cycle, "traced": traced,
                            "seconds": elapsed, "tables": call.tables, "ok": ok})
        cycle += 1
    # digests of the first cycle only, so that runs of any length compare
    digests = {call.label: hashlib.sha256(references[tuple(call.argv)]).hexdigest()
               for call in calls(0) if tuple(call.argv) in references}
    return records, failures, digests


def per_table(records):
    """Seconds per league table of each cycle, so that every value covers
    the same calls (all four presets on simulate-presets)."""
    seconds, tables = {}, {}
    for r in records:
        seconds[r["cycle"]] = seconds.get(r["cycle"], 0.0) + r["seconds"]
        tables[r["cycle"]] = tables.get(r["cycle"], 0) + r["tables"]
    return [seconds[c] / tables[c] for c in sorted(seconds)]


def end_to_end_metrics(records, setup_s):
    return {
        "rank_s": statistics.median(per_table(records)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def reps_per_s(records):
    """League tables per second of summed call time."""
    return sum(r["tables"] for r in records) / sum(r["seconds"] for r in records)


def traced_metrics(tracer, records):
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    total_ns, self_ns = tracer.layer_times()
    metrics = layer_metrics(total_ns, self_ns, tracer.counts, len(traced))
    metrics["trace.overhead_s"] = (statistics.median(per_table(traced))
                                   - statistics.median(per_table(plain)))
    metrics["trace.unclaimed_share"] = self_ns[ROOT_SPAN] / total_ns[ROOT_SPAN]
    shares = {layer: self_ns[layer] / total_ns[ROOT_SPAN] for layer in sorted(self_ns)}
    return metrics, shares


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    seed = args.seed % 2 ** 32
    cli = import_cli()
    run_dir = os.path.join(OUT_DIR, f"{args.workload}-s{seed}")
    calls = workloads.prepare(args.workload, seed, run_dir)
    if args.setup_probe:
        print(time.monotonic_ns())
        return 0

    # setup probes before and after the loop, so they see the same machine
    # speed as the calls in between
    setup_samples = [] if args.trace else measure_setup(args, SETUP_PROBES // 2)
    tracer = Tracer() if args.trace else None
    records, failures, digests = run_loop(cli.main, calls, args.seconds, tracer)
    if not args.trace:
        setup_samples += measure_setup(args, SETUP_PROBES - len(setup_samples))

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(),
        "calls": records,
        "attempted": len(records),
        "failed": len(failures),
        "error_rate": len(failures) / len(records),
        "failures": failures,
        "reps_per_s": reps_per_s([r for r in records if not r["traced"]]),
        "output_sha256": digests,
    }
    if args.trace:
        values, results["layer_self_share"] = traced_metrics(tracer, records)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        with open(os.path.join(run_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start_ns", "end_ns", "parent"],
                       "spans": tracer.spans}, fh)
    else:
        values = end_to_end_metrics(records, statistics.median(setup_samples))
        results["setup_samples_s"] = setup_samples
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    results["metrics"] = metrics
    results_path = os.path.join(run_dir, f"results-trace{args.trace}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")

    print(f"perfbench: {args.workload} seed={args.seed}: {len(records)} calls, "
          f"{len(failures)} failed, error_rate={results['error_rate']:g}, "
          f"reps_per_s={results['reps_per_s']:.4g} 1/s; results in {results_path}")
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
