"""Batch front door: ingest estimate files, run estimators, emit results.

Input files are delimited text (comma or tab, autodetected) with header
columns ``id``, ``estimate``, ``std_error``; extra columns are ignored, and a
header that looks semicolon-delimited is refused as such.  A quoted id may
hold a comma but not a tab, LF or CR, which would split a row of the TSV or
plot-data output.  Each rule on a value has one owner outside this module:
every std_error must lie in :mod:`rankci.core`'s ``[SIGMA_MIN, SIGMA_MAX]``,
where sigma^2 and a sum of two are normal floats, and a scenario file's keys
go straight to :class:`~rankci.simharness.ScenarioConfig` and
:class:`~rankci.bootstrap.BootstrapConfig`, which refuse what the file may not
hold; a key neither knows is refused here.  Their errors reach the user
naming the row or the scenario file.
``rank`` runs its methods at alpha and 0.5 through the runner ``simulate``
uses too (:func:`rankci.simharness.run_methods`); its table, JSON, TSV and
plot data all render one output model built once from the result.
Human-readable tables go to stdout, headed by the run's start time;
machine-readable JSON/TSV goes to files and embeds the run manifest, which
holds no time, so a rerun with the same flags and seed reproduces the bytes
exactly.  An unwritable output path or one naming the input or the other
output, a negative seed, ``--mc-samples`` below ``MC_SAMPLES_FLOOR`` or
``--boot-samples`` below 1 (whatever the methods), ``--out json|tsv`` and
``--out-file`` given one without the other, or ``rank`` with ``--trace``
without seqtukey among the methods or with ``--alpha`` outside (0, 0.5]
ends the run with one ``error:`` line and exit status 2.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .bootstrap import BootstrapConfig, RankCounts, zhang_simultaneous
from .core import KNOWN_METHODS, CenterSample, _as_float_vector, _as_sigma_vector
from .mcquantile import DEFAULT_MC_SAMPLES, MC_SAMPLES_FLOOR, _in_background, make_mc_pool
from .rankability import rankability_estimate
from .seqtukey import sequential_tukey  # noqa: F401  (uncalled; perfbench/tracer.py patches it)
from .simharness import (
    PRESET_CENTERS,
    _TAG_BOOT,
    _TAG_POOL,
    ScenarioConfig,
    _child_seed,
    preset_scenario,
    run_coverage,
    run_methods,
)
from .tukey import tukey_rank_cis  # noqa: F401  (uncalled; perfbench/tracer.py patches it)

__all__ = ["IngestError", "RunManifest", "ingest_estimates", "cmd_rank", "cmd_simulate", "main"]

SCHEMA_VERSION = 1
_REQUIRED_COLUMNS = ("id", "estimate", "std_error")


class IngestError(Exception):
    """Malformed estimates file."""


@dataclass(frozen=True)
class RunManifest:
    """What produced an output; embedded in every machine-readable file.

    It holds no time: the run's start time is printed in the human header
    only, so a rerun with identical flags and seed reproduces every output
    file byte for byte.
    """

    input: str
    method: str
    alpha: float
    mc_samples: int
    boot_samples: int
    seed: int
    out_format: str

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def ingest_estimates(path: str) -> CenterSample:
    """Read and validate an estimates file into a sorted CenterSample.

    Cells follow CSV quoting, so a quoted id may hold a comma.  Raises
    :class:`IngestError` naming the path for a file that cannot be read or
    decoded as UTF-8 and for a required column missing from the header or
    named twice or a header that looks semicolon-delimited, and naming the
    offending data row for a non-numeric or non-finite cell, a standard
    error outside :mod:`rankci.core`'s ``[SIGMA_MIN, SIGMA_MAX]``, an id
    holding a tab, LF or CR, a duplicate id and a non-empty cell past the
    header's columns.
    """
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
        with open(path, encoding="utf-8-sig", newline="") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    first = next((ln for ln in lines if ln.strip()), "")
    try:
        rows = [[cell.strip() for cell in row]
                for row in csv.reader(lines, delimiter="\t" if "\t" in first else ",")]
    except csv.Error as exc:
        raise IngestError(f"{path}: {exc}") from None
    rows = [row for row in rows if any(row)]
    if not rows:
        raise IngestError(f"{path}: file is empty")
    header, *rows = rows
    if len(header) == 1 and ";" in header[0]:
        raise IngestError(f"{path}: the header looks semicolon-delimited; use comma or tab")
    positions = {}
    for col in _REQUIRED_COLUMNS:
        if col not in header:
            raise IngestError(f"{path}: missing required column {col!r}")
        if header.count(col) > 1:
            raise IngestError(f"{path}: column {col!r} is named more than once in the header")
        positions[col] = header.index(col)

    table = {}  # id -> (estimate, std_error), in row order
    for row_no, cells in enumerate(rows, start=1):
        if len(cells) < len(header) or any(cells[len(header):]):
            raise IngestError(f"{path}: row {row_no}: expected {len(header)} columns, "
                              f"got {len(cells)}")
        ident = cells[positions["id"]]
        if any(ch in ident for ch in "\t\n\r"):
            raise IngestError(f"{path}: row {row_no}: id {ident!r} holds a tab or line break")
        try:
            est, se = float(cells[positions["estimate"]]), float(cells[positions["std_error"]])
            _as_float_vector([est], "estimate")
            _as_sigma_vector([se], "std_error")
        except ValueError as exc:
            raise IngestError(f"{path}: row {row_no}: {exc}") from None
        if ident in table:
            raise IngestError(f"{path}: row {row_no}: duplicate id {ident!r}")
        table[ident] = (est, se)
    if not table:
        raise IngestError(f"{path}: no data rows")
    estimates, errors = zip(*table.values())
    return CenterSample.from_observations(estimates, errors, ids=list(table))


def _run_methods(sample: CenterSample, methods, alpha, mc_samples, boot_samples, seed):
    """:func:`rankci.simharness.run_methods` on the requested estimators at alpha and 0.5.

    The bootstrap never reads the Monte-Carlo pool, so both of its levels
    run in a thread of their own, started before the pool fill and joined
    after the pool methods.  Both are bisected on one ranked draw.
    """
    bootstrap = contextlib.nullcontext()
    if "zhang" in methods:
        bcfg = BootstrapConfig(n_boot=boot_samples, seed=_child_seed(seed, _TAG_BOOT))

        def both_levels():
            ranked = RankCounts.draw(sample, bcfg)
            return (zhang_simultaneous(sample, alpha, bcfg, ranked),
                    zhang_simultaneous(sample, 0.5, bcfg, ranked))

        bootstrap = _in_background(both_levels)
    with bootstrap as join_bootstrap:
        return run_methods(
            sample, methods, (alpha, 0.5),
            lambda: make_mc_pool(sample.sigma, mc_samples, seed=_child_seed(seed, _TAG_POOL)),
            join_bootstrap)


def _fmt(value: float) -> str:
    return format(float(value), ".10g")


def _rank_model(sample: CenterSample, runs) -> dict:
    """The one output model of ``rank``, built once per run in input order.

    ``centers`` holds one ``{"id", "estimate", "std_error", "rank"}`` dict per
    center, where rank is the sorted position + 1.  ``results[method]``
    holds the matching ``intervals`` and what else the method reports:
    rankability (with two or more centers, its one-sided CI ``[value, 1]`` at
    the CIs' alpha), seqtukey's iterations from its trace, zhang's bisection
    outcome.  The table, JSON, TSV and plot data all read it.
    """
    centers = sample.to_input_order(
        {"id": str(ident), "estimate": float(est), "std_error": float(se), "rank": k + 1}
        for k, (ident, est, se) in enumerate(zip(sample.ids, sample.y, sample.sigma))
    )
    results = {}
    for method, [(cis, _, detail), (cis_half, _, _)] in runs.items():
        bounds = sample.to_input_order((ci.lower, ci.upper) for ci in cis.intervals)
        block = {"intervals": [{"id": row["id"], "lower": int(lower), "upper": int(upper)}
                               for row, (lower, upper) in zip(centers, bounds)]}
        if sample.n >= 2:
            value = rankability_estimate(cis)
            block["rankability"] = {
                "value": value, "alpha": cis.alpha, "ci": [value, 1.0],
                "midlevel_point_estimate": rankability_estimate(cis_half)}
        if method == "seqtukey":
            block["iterations"] = detail.iterations
        elif method == "zhang":
            block.update(achieved_coverage=detail.achieved_coverage,
                         beta_final=detail.beta_final, converged=detail.converged)
        results[method] = block
    return {"centers": centers, "results": results}


def _print_rank_table(manifest: RunManifest, started: str, model: dict) -> None:
    print(f"# {manifest.input}  alpha={manifest.alpha:g}  seed={manifest.seed}  "
          f"run at {started}")
    for method, block in model["results"].items():
        print(f"\nmethod: {method}")
        print(f"{'id':<12} {'estimate':>12} {'std_error':>10} {'rank':>5} {'L':>4} {'U':>4}")
        for row, ci in zip(model["centers"], block["intervals"]):
            print(f"{row['id']:<12} {row['estimate']:>12.6g} {row['std_error']:>10.6g} "
                  f"{row['rank']:>5} {ci['lower']:>4} {ci['upper']:>4}")
        if "rankability" in block:
            est = block["rankability"]
            print(f"rankability: {est['value']:.4f}, {100 * (1 - est['alpha']):g}% CI "
                  f"[{est['ci'][0]:.4f}, 1]; point estimate at level 0.5: "
                  f"{est['midlevel_point_estimate']:.4f}")
        if "iterations" in block:
            print(f"iterations: {block['iterations']}")


def _print_trace(trace) -> None:
    print("\nsequential trace:")
    for k, step in enumerate(trace.steps, start=1):
        print(f"iter {k}: q={step.critical_value:.6g}, "
              f"newly rejected {np.count_nonzero(step.newly_rejected)}, "
              f"total {np.count_nonzero(step.rejected_total)}")


def _center_cells(row) -> str:
    return f"{row['id']}\t{_fmt(row['estimate'])}\t{_fmt(row['std_error'])}"


def _write_lines(path: str, lines) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IngestError(f"cannot write {path}: {exc}") from exc


def _emit(args, manifest: RunManifest, body: dict, tsv_header: str, tsv_rows) -> None:
    """Write the ``--out json|tsv`` file: the manifest envelope around ``body``.

    JSON gets ``schema_version``, ``manifest`` and the keys of ``body``; TSV
    gets one ``# key<TAB>value`` line per manifest field, then the header and
    rows.  Nothing is written for ``--out table``.
    """
    if args.out == "json":
        payload = {"schema_version": SCHEMA_VERSION, "manifest": manifest.as_dict(), **body}
        _write_lines(args.out_file, [json.dumps(payload, sort_keys=True, indent=2)])
    elif args.out == "tsv":
        meta = [f"# {k}\t{v}" for k, v in sorted(manifest.as_dict().items())]
        _write_lines(args.out_file, meta + [tsv_header] + list(tsv_rows))


def cmd_rank(args) -> int:
    sample = ingest_estimates(args.input)
    methods = KNOWN_METHODS if args.method == "all" else (args.method,)
    started = datetime.now(timezone.utc).isoformat()
    manifest = RunManifest(
        input=args.input, method=args.method, alpha=args.alpha,
        mc_samples=args.mc_samples, boot_samples=args.boot_samples,
        seed=args.seed, out_format=args.out,
    )
    runs = _run_methods(sample, methods, args.alpha,
                        args.mc_samples, args.boot_samples, args.seed)
    model = _rank_model(sample, runs)
    _print_rank_table(manifest, started, model)
    if args.trace:
        _print_trace(runs["seqtukey"][0][2])
    centers, results = model["centers"], model["results"]
    _emit(args, manifest, model,
          "id\testimate\tstd_error\trank\tmethod\tlower\tupper",
          (f"{_center_cells(row)}\t{row['rank']}\t{method}\t{ci['lower']}\t{ci['upper']}"
           for method, block in results.items()
           for row, ci in zip(centers, block["intervals"])))
    if args.plot_data:
        # band-chart-ready: one row per center per method, in rank order
        by_rank = sorted(range(sample.n), key=lambda i: centers[i]["rank"])
        _write_lines(args.plot_data,
                     ["position\tid\testimate\tstd_error\tmethod\tlower\tupper"]
                     + [f"{centers[i]['rank']}\t{_center_cells(centers[i])}\t{method}"
                        f"\t{block['intervals'][i]['lower']}\t{block['intervals'][i]['upper']}"
                        for method, block in results.items() for i in by_rank])
    return 0


def _load_scenario(args) -> ScenarioConfig:
    """The preset, or the scenario file's keys over the flags; a file's errors name it."""
    methods = KNOWN_METHODS if args.methods is None else tuple(args.methods.split(","))
    counts = {"reps": args.reps, "seed": args.seed, "mc_samples": args.mc_samples}
    if args.scenario in PRESET_CENTERS:
        return preset_scenario(args.scenario, alpha=args.alpha, methods=methods,
                               n_boot=args.boot_samples, **counts)
    if not args.scenario.startswith("file:"):
        raise IngestError(f"unknown scenario {args.scenario!r}; use one of "
                          f"{sorted(PRESET_CENTERS)} or file:<path>")
    path = args.scenario[len("file:"):]
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError("must hold a JSON object defining 'mu'")
        defaults = dict(mu=None, sigma=1.0, alpha=args.alpha, methods=methods, name=path,
                        n_boot=args.boot_samples, **counts)
        unknown = [key for key in spec if key not in defaults]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
        spec = {**defaults, **spec}
        return ScenarioConfig(boot=BootstrapConfig(n_boot=spec.pop("n_boot")), **spec)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise IngestError(f"scenario file {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    started = datetime.now(timezone.utc).isoformat()
    manifest = RunManifest(
        input=cfg.name, method=",".join(cfg.methods), alpha=cfg.alpha,
        mc_samples=cfg.mc_samples, boot_samples=cfg.boot.n_boot,
        seed=cfg.seed, out_format=args.out,
    )
    report = run_coverage(cfg)
    print(f"# run at {started}")
    print(report.format_table())
    summaries = [stats.summary() for stats in report.methods.values()]
    _emit(args, manifest, {"report": report.as_dict()},
          "method\treps\tcoverage_rate\tindex_coverage_rate\tmean_width\tmean_rankability",
          (f"{s['method']}\t{s['reps']}\t{_fmt(s['coverage_rate'])}"
           f"\t{_fmt(s['index_coverage_rate'])}\t{_fmt(s['mean_width'])}"
           f"\t{_fmt(s['mean_rankability'])}" for s in summaries))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankci",
        description="Simultaneous confidence intervals for ranks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--alpha", type=float, default=0.05)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES)
    shared.add_argument("--boot-samples", type=int, default=10_000)
    shared.add_argument("--out", choices=["table", "json", "tsv"], default="table")
    shared.add_argument("--out-file", default=None)

    p_rank = sub.add_parser("rank", parents=[shared], help="rank centers from an estimates file")
    p_rank.add_argument("--input", required=True, help="delimited file: id, estimate, std_error")
    p_rank.add_argument("--method", choices=[*KNOWN_METHODS, "all"], default="seqtukey")
    p_rank.add_argument("--plot-data", default=None, help="write band-chart data to this path")
    p_rank.add_argument("--trace", action="store_true", help="print the sequential trace")
    p_rank.set_defaults(func=cmd_rank)

    p_sim = sub.add_parser("simulate", parents=[shared],
                           help="coverage simulation under known truths")
    p_sim.add_argument("--scenario", required=True,
                       help="paper1|paper2|paper3|paper4 or file:<path>")
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--methods", default=None, help="comma-separated subset of methods")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _check_paths_distinct(args) -> None:
    """Refuse an output path that names the input or the other output, after ``realpath``."""
    scenario = getattr(args, "scenario", "")
    named = {"--input": getattr(args, "input", None),
             "--scenario": scenario[len("file:"):] if scenario.startswith("file:") else None,
             "--out-file": args.out_file, "--plot-data": getattr(args, "plot_data", None)}
    seen = {}
    for flag, path in named.items():
        if path is not None:
            first = seen.setdefault(os.path.realpath(path), flag)
            if first != flag:
                raise IngestError(f"{flag} {path} names the same file as {first}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # checked before any work, so a missing or unused path costs no run
        if (args.out != "table") != bool(args.out_file):
            raise IngestError("--out json/tsv and --out-file must be given together")
        if getattr(args, "trace", False) and args.method not in ("seqtukey", "all"):
            raise IngestError("--trace prints seqtukey's rounds; use --method seqtukey or all")
        if args.command == "rank" and not 0 < args.alpha <= 0.5:
            # a CI at a level above 0.5 would lie wholly above the level-0.5 point estimate
            raise IngestError("rank's --alpha must be at most 0.5, the level of its rankability "
                              "point estimate" if args.alpha > 0.5
                              else f"alpha must be in (0, 1), got {args.alpha}")
        _check_paths_distinct(args)
        if args.mc_samples < MC_SAMPLES_FLOOR:
            raise IngestError(f"--mc-samples must be at least {MC_SAMPLES_FLOOR}")
        if args.boot_samples < 1:
            raise IngestError("--boot-samples must be at least 1")
        return args.func(args)
    except (IngestError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
