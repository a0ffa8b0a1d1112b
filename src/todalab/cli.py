"""Batch verification driver.

Subcommands:
  verify       run verification suites, write JSON summary + per-suite CSV
  plot-data    reshape suite detail CSVs into plot-ready tables
  show-params  print normalized parameter sets for a config

Exit codes: 0 all cases pass, 1 any case fails, 2 configuration error or
numerical breakdown (a non-positive Gram determinant or mass integral).
Reports are byte-identical across reruns of the same config; timestamps
and runtimes live in a separate metadata file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import sys
from pathlib import Path

from .solution import PositivityError, params_to_json
from .suites import KNOWN_SUITES, RunConfig, build_param_sets, run_suites

__all__ = ["main", "run", "emit_plot_data"]


def _config_from_args(args) -> RunConfig:
    """RunConfig defaults, overlaid by the --config file, then by the CLI options set."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    settings = {}
    if args.config:
        with open(args.config) as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
        unknown = sorted(set(settings) - fields)
        if unknown:
            raise ValueError(f"unknown key(s) in {args.config}: {', '.join(unknown)}")
    options = {**vars(args), "suites": args.suite, "out_dir": args.out}
    settings.update(
        {name: value for name, value in options.items() if name in fields and value is not None}
    )
    return RunConfig(**settings)


def run(cfg: RunConfig) -> int:
    """Run suites per config; write reports; return process exit code."""
    cases, details = run_suites(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "config": cfg.to_json(),
        "cases": [
            {
                "suite": c.suite,
                "case_id": c.case_id,
                "measured": c.measured,
                "expected": c.expected,
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            for c in cases
        ],
        "total": len(cases),
        "failed": sum(not c.passed for c in cases),
        "all_pass": all(c.passed for c in cases),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    metadata = {
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "runtimes": {c.case_id: c.runtime for c in cases},
    }
    (out / "metadata.json").write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    for suite, rows in details.items():
        path = out / f"{suite}_detail.csv"
        with path.open("w", newline="") as fh:
            if rows:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
            else:
                fh.write("")
    for c in cases:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.suite}: {c.case_id} measured={c.measured:.6g} "
              f"expected={c.expected:.6g} tol={c.tolerance}")
    print(f"{summary['total'] - summary['failed']}/{summary['total']} cases passed")
    return 0 if summary["all_pass"] else 1


def emit_plot_data(report_dir) -> list:
    """Tidy CSVs for plotting: error vs radius and residual vs h."""
    report_dir = Path(report_dir)
    plots = report_dir / "plots"
    plots.mkdir(exist_ok=True)
    written = []

    asym = report_dir / "asymptotics_detail.csv"
    out_path = plots / "error_vs_radius.csv"
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        columns = ["label", "check", "m", "which", "r", "measured", "predicted", "rel_err"]
        writer.writerow(columns)
        if asym.exists() and asym.stat().st_size:
            with asym.open() as src:
                for row in csv.DictReader(src):
                    writer.writerow([row[name] for name in columns])
    written.append(out_path)

    out_path = plots / "residual_vs_h.csv"
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "label", "h", "max_residual"])
        for suite in ("pde", "linearized"):
            detail = report_dir / f"{suite}_detail.csv"
            if detail.exists() and detail.stat().st_size:
                with detail.open() as src:
                    for row in csv.DictReader(src):
                        writer.writerow([suite, row["label"], row["h"],
                                         row["max_residual"]])
    written.append(out_path)
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="todalab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--suite", action="append", choices=KNOWN_SUITES,
                       help="suite to run (repeatable); default: all")
        p.add_argument("--params-file", dest="params_file",
                       help="JSON parameter file (overrides seeded sampling)")
        p.add_argument("--n", type=int)
        p.add_argument("--count", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--magnitude", type=float)
        p.add_argument("--dilation", type=float)
        p.add_argument("--radius", type=float)
        p.add_argument("--grid-h", dest="grid_h", type=float)
        p.add_argument("--out")

    add_common(sub.add_parser("verify", help="run verification suites"))
    p_plot = sub.add_parser("plot-data", help="emit plot-ready CSV from reports")
    p_plot.add_argument("--out", default="reports", help="report directory to read")
    p_show = sub.add_parser("show-params", help="print normalized parameter sets")
    add_common(p_show)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "plot-data":
        report_dir = Path(args.out)
        if not report_dir.exists():
            print(f"report directory {report_dir} not found", file=sys.stderr)
            return 2
        for path in emit_plot_data(report_dir):
            print(path)
        return 0
    try:
        cfg = _config_from_args(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "show-params":
            for label, sp in build_param_sets(cfg):
                print(label)
                print(json.dumps(params_to_json(sp), indent=2, sort_keys=True))
            return 0
        return run(cfg)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PositivityError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
