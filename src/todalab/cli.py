"""Batch verification driver.

Subcommands:
  verify       run verification suites, write JSON summary + per-suite CSV
  plot-data    reshape the grid suites' detail CSVs into a plot-ready table
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
    cases, details, seconds = run_suites(cfg)
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
        "runtimes": seconds,
    }
    (out / "metadata.json").write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    for suite, rows in details.items():
        path = out / f"{suite}_detail.csv"
        with path.open("w", newline="") as fh:
            if rows:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
    for c in cases:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.suite}: {c.case_id} measured={c.measured:.6g} "
              f"expected={c.expected:.6g} tol={c.tolerance}")
    print(f"{summary['total'] - summary['failed']}/{summary['total']} cases passed")
    return 0 if summary["all_pass"] else 1


def _detail_rows(path: Path, columns) -> list:
    """The named columns of each row of a detail CSV; none when it is missing or empty.

    A CSV that lacks one of the columns raises ValueError.
    """
    if not path.exists() or not path.stat().st_size:
        return []
    with path.open(newline="") as src:
        reader = csv.DictReader(src)
        missing = [name for name in columns if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} has no column(s) {', '.join(missing)}")
        return [[row[name] for name in columns] for row in reader]


def emit_plot_data(report_dir) -> list:
    """plots/residual_vs_h.csv from the pde and linearized details; returns [its path].

    The far-field errors need no reshaping: asymptotics_detail.csv holds them, each at its R.
    """
    report_dir = Path(report_dir)
    rows = [["suite", "label", "h", "max_residual"]] + [
        [suite] + row for suite in ("pde", "linearized")
        for row in _detail_rows(report_dir / f"{suite}_detail.csv", ["label", "h", "max_residual"])
    ]
    plots = report_dir / "plots"
    plots.mkdir(exist_ok=True)
    path = plots / "residual_vs_h.csv"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return [path]


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise ValueError instead of printing usage and exiting."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="todalab")
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
        p.add_argument("--grid-h", dest="grid_h", type=float)
        p.add_argument("--out")

    add_common(sub.add_parser("verify", help="run verification suites"))
    p_plot = sub.add_parser("plot-data", help="emit plot-ready CSV from reports")
    p_plot.add_argument("--out", default="reports", help="report directory to read")
    p_show = sub.add_parser("show-params", help="print normalized parameter sets")
    add_common(p_show)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = None if args.command == "plot-data" else _config_from_args(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if cfg is None:
        report_dir = Path(args.out)
        if not report_dir.is_dir():
            print(f"no report directory at {report_dir}", file=sys.stderr)
            return 2
        try:
            written = emit_plot_data(report_dir)
        except (ValueError, OSError, csv.Error) as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
        for path in written:
            print(path)
        return 0
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
