"""Batch front door: ingest estimate files, run estimators, emit results.

Input files are delimited text (comma or tab, autodetected) with header
columns ``id``, ``estimate``, ``std_error``; extra columns are ignored.
Human-readable tables go to stdout; machine-readable JSON/TSV goes to files
and embeds the run manifest, minus the timestamp, so a rerun with the same
flags and seed reproduces the bytes exactly.
"""

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .bootstrap import BootstrapConfig, zhang_simultaneous
from .core import CenterSample
from .mcquantile import DEFAULT_MC_SAMPLES, make_mc_pool
from .rankability import rankability_estimate
from .seqtukey import sequential_tukey
from .simharness import (
    PRESET_CENTERS,
    ScenarioConfig,
    _child_seed,
    preset_scenario,
    run_coverage,
)
from .tukey import tukey_rank_cis

__all__ = ["IngestError", "RunManifest", "ingest_estimates", "cmd_rank", "cmd_simulate", "main"]

SCHEMA_VERSION = 1
_REQUIRED_COLUMNS = ("id", "estimate", "std_error")


class IngestError(Exception):
    """Malformed estimates file."""


@dataclass(frozen=True)
class RunManifest:
    """What produced an output; embedded in every machine-readable file."""

    input: str
    method: str
    alpha: float
    mc_samples: int
    boot_samples: int
    seed: int
    out_format: str
    timestamp: str

    @classmethod
    def create(cls, **kwargs) -> "RunManifest":
        return cls(timestamp=datetime.now(timezone.utc).isoformat(), **kwargs)

    def as_dict(self, with_timestamp: bool = False) -> dict:
        d = dataclasses.asdict(self)
        if not with_timestamp:
            # deterministic outputs: a rerun with identical flags and seed
            # must reproduce the file byte for byte
            del d["timestamp"]
        return d


def ingest_estimates(path: str) -> CenterSample:
    """Read and validate an estimates file into a sorted CenterSample.

    Raises :class:`IngestError` naming the offending data row for
    non-numeric cells, non-positive standard errors and duplicate ids.
    """
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
        with open(path, encoding="utf-8-sig") as fh:
            lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise IngestError(f"{path}: file is empty")
    delimiter = "\t" if "\t" in lines[0] else ","
    header = [cell.strip() for cell in lines[0].split(delimiter)]
    positions = {}
    for col in _REQUIRED_COLUMNS:
        if col not in header:
            raise IngestError(f"{path}: missing required column {col!r}")
        positions[col] = header.index(col)

    ids, estimates, errors = [], [], []
    for row_no, line in enumerate(lines[1:], start=1):
        cells = [cell.strip() for cell in line.split(delimiter)]
        if len(cells) < len(header):
            raise IngestError(f"{path}: row {row_no}: expected {len(header)} columns")
        ident = cells[positions["id"]]
        try:
            est = float(cells[positions["estimate"]])
            se = float(cells[positions["std_error"]])
        except ValueError:
            raise IngestError(f"{path}: row {row_no}: non-numeric cell") from None
        if not np.isfinite(est) or not np.isfinite(se):
            raise IngestError(f"{path}: row {row_no}: non-finite value")
        if se <= 0:
            raise IngestError(f"{path}: row {row_no}: std_error must be positive")
        if ident in ids:
            raise IngestError(f"{path}: row {row_no}: duplicate id {ident!r}")
        ids.append(ident)
        estimates.append(est)
        errors.append(se)
    if not ids:
        raise IngestError(f"{path}: no data rows")
    return CenterSample.from_observations(estimates, errors, ids=ids)


def _run_methods(sample: CenterSample, methods, alpha, mc_samples, boot_samples, seed):
    """Run the requested estimators; rankability at alpha and at 0.5."""
    pool = None
    if "tukey" in methods or "seqtukey" in methods:
        pool = make_mc_pool(sample.sigma, mc_samples, seed=_child_seed(seed, 2))
    out = {}
    for m in methods:
        entry = {}
        if m == "tukey":
            cis = tukey_rank_cis(sample, alpha, pool)
            cis_half = tukey_rank_cis(sample, 0.5, pool)
        elif m == "seqtukey":
            cis, trace = sequential_tukey(sample, alpha, pool)
            cis_half, _ = sequential_tukey(sample, 0.5, pool)
            entry["iterations"] = cis.iterations
            entry["trace"] = trace
        elif m == "zhang":
            bcfg = BootstrapConfig(n_boot=boot_samples, seed=_child_seed(seed, 3))
            res = zhang_simultaneous(sample, alpha, bcfg)
            cis = res.cis
            cis_half = zhang_simultaneous(sample, 0.5, bcfg).cis
            entry["achieved_coverage"] = res.achieved_coverage
            entry["beta_final"] = res.beta_final
            entry["converged"] = res.converged
        else:
            raise ValueError(f"unknown method {m!r}")
        entry["cis"] = cis
        if sample.n >= 2:
            entry["rankability"] = rankability_estimate(cis)
            entry["rankability_midlevel"] = rankability_estimate(cis_half).value
        out[m] = entry
    return out


def _fmt(value: float) -> str:
    return format(float(value), ".10g")


def _print_rank_table(sample: CenterSample, results, manifest: RunManifest) -> None:
    ranks = sample.to_input_order(range(1, sample.n + 1))
    print(f"# {manifest.input}  alpha={manifest.alpha:g}  seed={manifest.seed}  "
          f"run at {manifest.timestamp}")
    for method, entry in results.items():
        cis = entry["cis"]
        lowers = sample.to_input_order([ci.lower for ci in cis.intervals])
        uppers = sample.to_input_order([ci.upper for ci in cis.intervals])
        ids_in = sample.to_input_order(sample.ids)
        y_in = sample.to_input_order(sample.y)
        se_in = sample.to_input_order(sample.sigma)
        print(f"\nmethod: {method}")
        print(f"{'id':<12} {'estimate':>12} {'std_error':>10} {'rank':>5} {'L':>4} {'U':>4}")
        for i in range(sample.n):
            print(f"{str(ids_in[i]):<12} {y_in[i]:>12.6g} {se_in[i]:>10.6g} "
                  f"{ranks[i]:>5} {lowers[i]:>4} {uppers[i]:>4}")
        if "rankability" in entry:
            est = entry["rankability"]
            print(f"rankability: {est.value:.4f}, {100 * (1 - est.alpha):g}% CI "
                  f"[{est.ci_lower:.4f}, 1]; point estimate at level 0.5: "
                  f"{entry['rankability_midlevel']:.4f}")
        if "iterations" in entry:
            print(f"iterations: {entry['iterations']}")


def _print_trace(results) -> None:
    entry = results.get("seqtukey")
    if entry is None:
        return
    print("\nsequential trace:")
    for k, step in enumerate(entry["trace"].steps, start=1):
        print(f"iter {k}: q={step.critical_value:.6g}, "
              f"newly rejected {len(step.newly_rejected)}, "
              f"total {len(step.rejected_total)}")


def _rank_results_dict(sample: CenterSample, results, manifest: RunManifest) -> dict:
    ranks = sample.to_input_order(range(1, sample.n + 1))
    ids_in = sample.to_input_order(sample.ids)
    y_in = sample.to_input_order(sample.y)
    se_in = sample.to_input_order(sample.sigma)
    centers = [
        {"id": str(ids_in[i]), "estimate": float(y_in[i]),
         "std_error": float(se_in[i]), "rank": int(ranks[i])}
        for i in range(sample.n)
    ]
    methods = {}
    for method, entry in results.items():
        cis = entry["cis"]
        lowers = sample.to_input_order([ci.lower for ci in cis.intervals])
        uppers = sample.to_input_order([ci.upper for ci in cis.intervals])
        block = {
            "intervals": [
                {"id": str(ids_in[i]), "lower": int(lowers[i]), "upper": int(uppers[i])}
                for i in range(sample.n)
            ],
        }
        if "rankability" in entry:
            est = entry["rankability"]
            block["rankability"] = {
                "value": est.value,
                "alpha": est.alpha,
                "ci": [est.ci_lower, est.ci_upper],
                "midlevel_point_estimate": entry["rankability_midlevel"],
            }
        for key in ("iterations", "achieved_coverage", "beta_final", "converged"):
            if key in entry:
                block[key] = entry[key]
        methods[method] = block
    return {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest.as_dict(),
        "centers": centers,
        "results": methods,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_rank_tsv(path: str, sample: CenterSample, results, manifest: RunManifest) -> None:
    ranks = sample.to_input_order(range(1, sample.n + 1))
    ids_in = sample.to_input_order(sample.ids)
    y_in = sample.to_input_order(sample.y)
    se_in = sample.to_input_order(sample.sigma)
    lines = [f"# {k}\t{v}" for k, v in sorted(manifest.as_dict().items())]
    lines.append("id\testimate\tstd_error\trank\tmethod\tlower\tupper")
    for method, entry in results.items():
        cis = entry["cis"]
        lowers = sample.to_input_order([ci.lower for ci in cis.intervals])
        uppers = sample.to_input_order([ci.upper for ci in cis.intervals])
        for i in range(sample.n):
            lines.append(
                f"{ids_in[i]}\t{_fmt(y_in[i])}\t{_fmt(se_in[i])}\t{ranks[i]}"
                f"\t{method}\t{lowers[i]}\t{uppers[i]}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_plot_data(path: str, sample: CenterSample, results) -> None:
    """Band-chart-ready table, one row per center per method, sorted order."""
    lines = ["position\tid\testimate\tstd_error\tmethod\tlower\tupper"]
    for method, entry in results.items():
        cis = entry["cis"]
        for k in range(sample.n):
            lines.append(
                f"{k + 1}\t{sample.ids[k]}\t{_fmt(sample.y[k])}\t{_fmt(sample.sigma[k])}"
                f"\t{method}\t{cis.intervals[k].lower}\t{cis.intervals[k].upper}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_rank(args) -> int:
    sample = ingest_estimates(args.input)
    methods = ("tukey", "seqtukey", "zhang") if args.method == "all" else (args.method,)
    manifest = RunManifest.create(
        input=args.input, method=args.method, alpha=args.alpha,
        mc_samples=args.mc_samples, boot_samples=args.boot_samples,
        seed=args.seed, out_format=args.out,
    )
    results = _run_methods(sample, methods, args.alpha,
                           args.mc_samples, args.boot_samples, args.seed)
    _print_rank_table(sample, results, manifest)
    if args.trace:
        _print_trace(results)
    if args.out != "table":
        if not args.out_file:
            raise IngestError("--out-file is required with --out json/tsv")
        if args.out == "json":
            _write_json(args.out_file, _rank_results_dict(sample, results, manifest))
        else:
            _write_rank_tsv(args.out_file, sample, results, manifest)
    if args.plot_data:
        _write_plot_data(args.plot_data, sample, results)
    return 0


def _load_scenario(args) -> ScenarioConfig:
    methods = tuple(args.methods.split(",")) if args.methods else ("tukey", "seqtukey", "zhang")
    if args.scenario in PRESET_CENTERS:
        return preset_scenario(
            args.scenario, reps=args.reps, alpha=args.alpha, seed=args.seed,
            methods=methods, mc_samples=args.mc_samples, n_boot=args.boot_samples,
        )
    if args.scenario.startswith("file:"):
        path = args.scenario[len("file:"):]
        try:
            with open(path, encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise IngestError(f"cannot load scenario file {path}: {exc}") from exc
        if "mu" not in spec:
            raise IngestError(f"scenario file {path} must define 'mu'")
        mu = [float(v) for v in spec["mu"]]
        sigma = spec.get("sigma", 1.0)
        if np.isscalar(sigma):
            sigma = [float(sigma)] * len(mu)
        return ScenarioConfig(
            mu=tuple(mu),
            sigma=tuple(float(s) for s in sigma),
            alpha=float(spec.get("alpha", args.alpha)),
            reps=int(spec.get("reps", args.reps)),
            seed=int(spec.get("seed", args.seed)),
            methods=tuple(spec.get("methods", methods)),
            mc_samples=int(spec.get("mc_samples", args.mc_samples)),
            boot=BootstrapConfig(n_boot=int(spec.get("n_boot", args.boot_samples))),
            name=spec.get("name", path),
        )
    raise IngestError(
        f"unknown scenario {args.scenario!r}; use one of "
        f"{sorted(PRESET_CENTERS)} or file:<path>"
    )


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    manifest = RunManifest.create(
        input=cfg.name, method=",".join(cfg.methods), alpha=cfg.alpha,
        mc_samples=cfg.mc_samples, boot_samples=cfg.boot.n_boot,
        seed=cfg.seed, out_format=args.out,
    )
    report = run_coverage(cfg)
    print(f"# run at {manifest.timestamp}")
    print(report.format_table())
    if args.out != "table":
        if not args.out_file:
            raise IngestError("--out-file is required with --out json/tsv")
        if args.out == "json":
            payload = {
                "schema_version": SCHEMA_VERSION,
                "manifest": manifest.as_dict(),
                "report": report.as_dict(),
            }
            _write_json(args.out_file, payload)
        else:
            lines = [f"# {k}\t{v}" for k, v in sorted(manifest.as_dict().items())]
            lines.append("method\treps\tcoverage_rate\tindex_coverage_rate"
                         "\tmean_width\tmean_rankability")
            for m, stats in report.methods.items():
                s = stats.summary()
                lines.append(
                    f"{m}\t{s['reps']}\t{_fmt(s['coverage_rate'])}"
                    f"\t{_fmt(s['index_coverage_rate'])}\t{_fmt(s['mean_width'])}"
                    f"\t{_fmt(s['mean_rankability'])}"
                )
            with open(args.out_file, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankci",
        description="Simultaneous confidence intervals for ranks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="rank centers from an estimates file")
    p_rank.add_argument("--input", required=True, help="delimited file: id, estimate, std_error")
    p_rank.add_argument("--alpha", type=float, default=0.05)
    p_rank.add_argument("--method", choices=["tukey", "seqtukey", "zhang", "all"],
                        default="seqtukey")
    p_rank.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES)
    p_rank.add_argument("--boot-samples", type=int, default=10_000)
    p_rank.add_argument("--seed", type=int, default=0)
    p_rank.add_argument("--out", choices=["table", "json", "tsv"], default="table")
    p_rank.add_argument("--out-file", default=None)
    p_rank.add_argument("--plot-data", default=None, help="write band-chart data to this path")
    p_rank.add_argument("--trace", action="store_true", help="print the sequential trace")
    p_rank.set_defaults(func=cmd_rank)

    p_sim = sub.add_parser("simulate", help="coverage simulation under known truths")
    p_sim.add_argument("--scenario", required=True,
                       help="paper1|paper2|paper3|paper4 or file:<path>")
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--methods", default=None, help="comma-separated subset of methods")
    p_sim.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES)
    p_sim.add_argument("--boot-samples", type=int, default=10_000)
    p_sim.add_argument("--out", choices=["table", "json", "tsv"], default="table")
    p_sim.add_argument("--out-file", default=None)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IngestError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
