"""todalab benchmark: end-to-end and per-layer measurements of `todalab verify`.

Run from the root of a todalab checkout (the directory holding `src/`):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Every workload pass is a fresh process that imports `todalab` from `src/`
and calls `todalab.cli.main(["verify", ...])` with the workload's options
and `--seed N`.  Passes repeat until the next one would end after S
seconds (at least two passes).  With --trace 0 the last stdout line is a
JSON object with the end-to-end metrics; with --trace 1 untraced and
traced passes alternate and it carries the per-layer metrics.  Human-
readable lines go to stderr.  See perfbench/README.md for the workloads,
the metrics and the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

COUNT = 2  # parameter sets per workload, seeds N and N+1
SETUPS_PER_ROUND = 2  # set-up-only processes before each round of passes
RUN_DEADLINE_S = 170.0  # a workload's run must end within 180 s
LOGDET_TOL = 1e-10  # gate on max |log det_k - oracle|
LOGDET_FLOOR = 1e-20  # logdet_digits of an exact match
THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    suites: tuple  # empty: every suite, as plain `todalab verify`
    n: int
    verdicts: int  # expected number of cases in summary.json

    def argv(self, seed: int, out: Path) -> list:
        args = ["verify", "--seed", str(seed), "--out", str(out)]
        for suite in self.suites:
            args += ["--suite", suite]
        if self.suites:
            args += ["--n", str(self.n), "--count", str(COUNT)]
        return args

    def config(self, seed: int) -> dict:
        """RunConfig fields whose parameter sets the run uses."""
        cfg = {"seed": seed, "n": self.n, "count": COUNT}
        if self.suites:
            cfg["suites"] = list(self.suites)
        return cfg


WORKLOADS = {
    "verify-default": Workload(suites=(), n=2, verdicts=67),
    "farfield-n5": Workload(suites=("asymptotics", "mass", "t-integrals"), n=5, verdicts=166),
    "grid-n4": Workload(suites=("pde",), n=4, verdicts=2),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "logdet_digits": "digits",
}

# (span name, field) pairs reported from the traced passes.
LAYER_FIELDS = (
    ("cpoly.poly_det", ("calls", "self_s")),
    ("cpoly.log_abs_eval", ("calls", "points", "self_s")),
    ("solution.log_det_k", ("calls", "points", "terms", "self_s")),
    ("solution.upper_components", ("calls", "self_s")),
    ("solution.lower_components", ("calls", "points", "self_s")),
    ("residual.param_derivative_field", ("calls",)),
    ("residual.linearized_residual", ("self_s",)),
    ("residual.pde_residual", ("self_s",)),
    ("asymptotics.fourier_coeffs", ("calls", "self_s")),
    ("asymptotics.kernel_signature_check", ("self_s",)),
    ("asymptotics.t_integral", ("self_s",)),
    ("mass.mass_flux", ("self_s",)),
    ("mass.mass_quadrature", ("self_s",)),
    ("identities.verify_identity_sweep", ("self_s",)),
    ("suites.run_suites", ("self_s",)),
    ("cli.run", ("self_s",)),
)
PER_LAYER = {
    f"{span}.{field}": ("s" if field == "self_s" else "count")
    for span, fields in LAYER_FIELDS
    for field in fields
}
PER_LAYER.update(
    {
        "solution.minor_cache.hit_ratio": "ratio",
        "process.cpu_s": "s",
        "trace.overhead_s": "s",
    }
)


class GateError(Exception):
    """A pass failed the correctness gate (not a failed verdict)."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: THREADS for var in THREAD_VARS},
    }


class Runner:
    """Starts workload processes for one checkout and collects their results."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.src = root / "src"
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONHASHSEED="0")
        self.env.update({var: THREADS for var in THREAD_VARS})
        self._serial = 0
        self.passes_started = 0
        self.deadline = math.inf  # time.monotonic() by which processes must end

    def child(self, config: dict, argv: list, setup_only: bool, trace: bool) -> dict:
        self._serial += 1
        result_path = self.scratch / f"result-{self._serial}.json"
        spec = {
            "src": str(self.src),
            "config": config,
            "argv": argv,
            "setup_only": setup_only,
            "trace": trace,
            "result": str(result_path),
        }
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise GateError(f"run exceeded {RUN_DEADLINE_S} s")
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(spec)],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise GateError(f"run exceeded {RUN_DEADLINE_S} s") from None
        if proc.returncode != 0 or not result_path.is_file():
            raise GateError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        if "error" in result:
            raise GateError(result["error"])
        return result

    def setup(self, workload: Workload, seed: int) -> float:
        return self.child(workload.config(seed), [], True, False)["setup_s"]

    def workload_pass(self, workload: Workload, seed: int, trace: bool) -> dict:
        """One gated workload pass; adds the summary bytes and verdict counts."""
        self.passes_started += 1
        out = self.scratch / f"reports-{self.passes_started}"
        result = self.child(workload.config(seed), workload.argv(seed, out), False, trace)
        code = result["exit_code"]
        if code not in (0, 1):
            raise GateError(f"todalab verify exited {code}")
        try:
            raw = (out / "summary.json").read_bytes()
            summary = json.loads(raw)
            total, cases = summary["total"], summary["cases"]
            failed = sum(not case["pass"] for case in cases)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise GateError(f"unreadable summary.json: {exc!r}") from None
        if total != workload.verdicts or len(cases) != workload.verdicts:
            raise GateError(
                f"summary.json has {len(cases)} cases (total {total}), "
                f"expected {workload.verdicts}"
            )
        if failed != summary.get("failed") or (failed > 0) != (code == 1):
            raise GateError(f"exit code {code} disagrees with {failed} failed verdicts")
        shutil.rmtree(out)
        result.update(summary_bytes=raw, verdicts=total, failed=failed)
        result["failed_cases"] = [c.get("case_id") for c in cases if not c["pass"]]
        return result

    def logdet_error(self, workload: Workload, seed: int) -> float:
        """Oracle check of the workload's base parameter sets, in this process."""
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        import todalab.solution
        from todalab.suites import RunConfig, build_param_sets

        from oracle import logdet_error

        package = Path(todalab.solution.__file__).resolve().parent
        if not package.is_relative_to(self.src.resolve()):
            raise GateError(f"imported todalab from {package}, not from {self.src}")
        param_sets = build_param_sets(RunConfig(**workload.config(seed)))
        return logdet_error(param_sets, todalab.solution.log_det_k)


def measure(runner: Runner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for `seconds`; returns passes, set-up samples and oracle error."""
    workload = WORKLOADS[name]
    runner.deadline = time.monotonic() + RUN_DEADLINE_S
    runner.setup(workload, seed)  # warm-up: byte-compilation, file cache
    setups = []
    round_kinds = (False, True) if trace else (False,)
    min_rounds = 1 if trace else 2
    passes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        setups += [runner.setup(workload, seed) for _ in range(SETUPS_PER_ROUND)]
        for traced in round_kinds:
            result = runner.workload_pass(workload, seed, traced)
            result["traced"] = traced
            passes.append(result)
            setups.append(result["setup_s"])
        rounds += 1
        now = time.perf_counter()
        round_s = now - round_start
        out_of_time = now - start + round_s > seconds
        if rounds >= min_rounds and (out_of_time or time.monotonic() + round_s > runner.deadline):
            break
    if len({p["summary_bytes"] for p in passes}) != 1:
        raise GateError("summary.json differs between passes with the same seed")
    err = runner.logdet_error(workload, seed)
    if not err <= LOGDET_TOL:
        raise GateError(f"max |log det_k - oracle| = {err:.3g} exceeds {LOGDET_TOL:g}")
    return {"passes": passes, "setups": setups, "logdet_err": err}


def end_to_end(m: dict) -> dict:
    plain = [p for p in m["passes"] if not p["traced"]]
    first = m["passes"][0]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "pass_frac": 1.0 - first["failed"] / first["verdicts"],
        "logdet_digits": -math.log10(max(m["logdet_err"], LOGDET_FLOOR)),
    }


def per_layer(m: dict) -> dict:
    from tracing import aggregate

    plain = [p for p in m["passes"] if not p["traced"]]
    traced = [p for p in m["passes"] if p["traced"]]
    rows = []
    for p in traced:
        layers = aggregate(p["spans"])
        row = {
            f"{span}.{field}": layers.get(span, {}).get(field, 0)
            for span, fields in LAYER_FIELDS
            for field in fields
        }
        cache = p.get("minor_cache", {"hits": 0, "misses": 0})
        lookups = cache["hits"] + cache["misses"]
        row["solution.minor_cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
        rows.append(row)
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    out["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    out["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    missing = sorted({site for p in traced for site in p["missing_sites"]})
    if missing:
        log(f"trace sites missing (their metrics read 0): {', '.join(missing)}")
    return out


def describe(name: str, seed: int, m: dict) -> None:
    passes = m["passes"]
    first = passes[0]
    log(f"workload {name} seed {seed}: {len(passes)} passes, "
        f"{len(m['setups'])} set-up samples")
    log(f"  verdicts {first['verdicts'] - first['failed']}/{first['verdicts']} passed, "
        f"fail_frac {first['failed'] / first['verdicts']:.6g}"
        + (f" (failed: {', '.join(first['failed_cases'])})" if first["failed"] else ""))
    log(f"  logdet_err {m['logdet_err']:.3g} (gate <= {LOGDET_TOL:g})")
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    log(f"  pass walls (s): {walls}")


def run_one(runner: Runner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    m = measure(runner, name, seed, seconds, trace)
    describe(name, seed, m)
    values, units = (per_layer(m), PER_LAYER) if trace else (end_to_end(m), END_TO_END)
    for key, unit in units.items():
        log(f"  {key} = {values[key]:.6g} {unit}")
    return {
        "correct": True,
        "attempted": len(m["passes"]),
        "failed": 0,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "todalab" / "__init__.py").is_file():
        log(f"no todalab sources under {root / 'src'}; run from a checkout root")
        return 2
    log(f"environment: {json.dumps(environment(), sort_keys=True)}")
    scratch = root / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    runner = Runner(root, scratch)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_one(runner, name, args.seed, args.seconds, bool(args.trace))
    except GateError as exc:
        log(f"correctness gate failed: {exc}")
        attempted = max(runner.passes_started, 1)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if args.workload == "all":
        for name, result in results.items():
            print(f"{name}: correct={result['correct']}")
            for key, metric in result["metrics"].items():
                print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(results[names[-1]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
