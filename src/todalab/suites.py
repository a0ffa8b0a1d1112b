"""Verification suites: each runs a family of checks and yields report rows.

A suite produces Case records (pass/fail against a pinned tolerance) plus
tidy detail rows for plotting.  Everything is deterministic given the
RunConfig: parameter sets come either from a JSON file or from seeded
sampling.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import asdict, dataclass, field

from .asymptotics import far_field_checks, t_integral
from .cartan import cartan_apply
from .identities import LARGEST_M, verify_identity_sweep
from .mass import flux_tail, mass_quadrature, predicted_mass
from .residual import GridSpec, grid_residuals
from .solution import (_coefficient_slot, frequency_directions, kernel_directions, load_params,
                       sample_params)

__all__ = ["Case", "RunConfig", "SUITES", "build_param_sets", "run_suites"]

# Pinned verdict tolerances; no configuration changes them.
PDE_ORDER_CENTER = 2.0
PDE_ORDER_SLACK = 0.5
LINEARIZED_MAX_RESIDUAL = 1e-3
MASS_REL = 1e-5  # flux plus tail is off by O(R_FAR^-4); the sphere rule needs 1e-5
FIRST_FREQUENCY_REL = 1e-7  # every far-field check is read at R = R_FAR L, L = outer_scale()
KERNEL_SIGNATURE_REL = 1e-7
LEADING_COEFFICIENT_REL = 1e-7
CONSTANT_TERM_REL = 1e-7  # of U_i + 4 log r at R_FAR L
T_INTEGRAL_REL = 1e-12  # of the T-integral's two sphere rules, relative to the rule on |field|


@dataclass(frozen=True)
class Case:
    suite: str
    case_id: str
    measured: float
    expected: float
    tolerance: float
    passed: bool


@dataclass
class RunConfig:
    suites: list = field(default_factory=lambda: list(KNOWN_SUITES))
    params_file: str | None = None
    n: int = 2
    count: int = 2
    seed: int = 0
    magnitude: float = 0.3
    dilation: float = 3.0
    grid_h: float = 1e-2
    out_dir: str = "reports"

    def __post_init__(self):
        if not isinstance(self.suites, list):
            raise ValueError(f"suites must be a list, got {type(self.suites).__name__}")
        unknown = [s for s in self.suites if s not in KNOWN_SUITES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}; known: {list(KNOWN_SUITES)}")
        repeated = sorted({s for s in self.suites if self.suites.count(s) > 1})
        if repeated:
            raise ValueError(f"suites given more than once: {repeated}")
        for name in ("n", "count", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            least = 1 if name == "n" else 0
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        for name in ("grid_h", "dilation"):
            value = getattr(self, name)
            _check_real(name, value)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        GridSpec.from_h(self.grid_h)
        _check_real("magnitude", self.magnitude)
        if self.magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude}")
        for name, types in (("params_file", (str, type(None))), ("out_dir", str)):
            if not isinstance(getattr(self, name), types):
                raise ValueError(f"{name} must be a path string, got {getattr(self, name)!r}")

    def to_json(self) -> dict:
        """Every field except out_dir, which does not change any result."""
        doc = asdict(self)
        del doc["out_dir"]
        return doc


def _check_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    # An exact comparison: NaN, infinities and integers past float range fail it.
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite float, got {value}")


def build_param_sets(cfg: RunConfig) -> list:
    """[(label, SolutionParams)] from the config's parameter source."""
    if cfg.params_file is not None:
        sp = load_params(cfg.params_file)
        return [(f"file-n{sp.n}", sp)]
    return [
        (
            f"n{cfg.n}-seed{cfg.seed + k}",
            sample_params(cfg.n, cfg.seed + k, cfg.magnitude, dilation=cfg.dilation),
        )
        for k in range(cfg.count)
    ]


# -- individual suites -----------------------------------------------------


def suite_identities(cfg: RunConfig, param_sets) -> dict:
    rows = verify_identity_sweep()
    failed = sum(not c["pass"] for c in rows)
    cases = [Case("identities", f"F-and-G-sweep-m<={LARGEST_M}", float(failed), 0.0, 0.0,
                  not failed)]
    details = [{**c, "det": str(c["det"]), "expected": str(c["expected"])} for c in rows]
    return {"identities": (cases, details)}


def _order_case(suite: str, case_id: str, rep) -> Case:
    order = rep.convergence_order
    return Case(suite, case_id, order, PDE_ORDER_CENTER, PDE_ORDER_SLACK,
                abs(order - PDE_ORDER_CENTER) <= PDE_ORDER_SLACK)


def _residual_rows(rep, **key) -> list:
    """Detail rows of one residual report: its peak at h, then at h/2."""
    return [{**key, "h": rep.h, "max_residual": rep.max_residual,
             "worst_component": rep.worst_component, "worst_x": rep.worst_z.real,
             "worst_y": rep.worst_z.imag},
            {**key, "h": rep.h / 2, "max_residual": max(rep.max_abs_residual_refined)}]


def _grid_suites(cfg: RunConfig, param_sets) -> dict:
    """{suite: (cases, detail rows)} of pde and linearized, from one grid walk per set.

    The walk takes every kernel direction if and only if the run selects linearized.
    """
    grid = GridSpec.from_h(cfg.grid_h)
    (pde, pde_rows), (linear, linear_rows) = suites = ([], []), ([], [])
    for label, sp in param_sets:
        directions = kernel_directions(sp.n) if "linearized" in cfg.suites else ()
        rep, reports = grid_residuals(sp, grid, directions)
        pde.append(_order_case("pde", f"{label}-order", rep))
        pde_rows += _residual_rows(rep, label=label, n=sp.n)
        for which, rep in reports.items():
            case, peak, tol = f"{label}-{which}", rep.max_residual, LINEARIZED_MAX_RESIDUAL
            linear.append(Case("linearized", f"{case}-residual", peak, 0.0, tol, peak <= tol))
            linear.append(_order_case("linearized", f"{case}-order", rep))
            linear_rows += _residual_rows(rep, label=label, which=which)
    return dict(zip(("pde", "linearized"), suites))


def _expansion_cases(label: str, checks: dict, cases: list, details: list) -> None:
    """Append one probe's asymptotics cases and detail rows."""
    def add(case_id, check, m, which, ck, tol):
        cases.append(Case("asymptotics", f"{label}-{case_id}", ck.measured, ck.predicted, tol,
                          ck.rel_error <= tol))
        details.append({"label": label, "check": check, "m": m, "which": which, "r": ck.r,
                        "measured": ck.measured, "predicted": ck.predicted,
                        "rel_err": ck.rel_error})

    for m, ck in enumerate(checks["leading"], start=1):
        add(f"leading-m{m}", "leading", m, "", ck, LEADING_COEFFICIENT_REL)
        for check, tol in (("freq1", FIRST_FREQUENCY_REL), ("freq2", KERNEL_SIGNATURE_REL)):
            for which, ck in checks[check][m - 1].items():
                add(f"{check}-{which}-m{m}", check, m, which, ck, tol)
    for i, ck in enumerate(checks["const-term"], start=1):
        add(f"const-term-i{i}", "const-term", i, "", ck, CONSTANT_TERM_REL)


def _mass_cases(label: str, sp, checks: dict, cases: list, details: list) -> None:
    """Append flux plus tail at the probe's R against 4 pi i(n+1-i), the sphere and sum rules."""
    n, R, fluxes = sp.n, checks["R"], checks["flux"]
    tails, quads = flux_tail(sp, R), mass_quadrature(sp)
    masses = [flux + tail for flux, tail in zip(fluxes, tails)]
    for i, (mass, quad) in enumerate(zip(masses, quads), start=1):
        pred = predicted_mass(n, i)
        rel = abs(mass / pred - 1.0)
        agree = abs(mass / quad - 1.0)
        cases.append(Case("mass", f"{label}-flux-i{i}", mass, pred, MASS_REL, rel <= MASS_REL))
        cases.append(Case("mass", f"{label}-routes-i{i}", agree, 0.0,
                          MASS_REL, agree <= MASS_REL))
        details.append({"label": label, "i": i, "R": R, "flux": fluxes[i - 1],
                        "tail": tails[i - 1], "quadrature": quad, "predicted": pred})
    for i, s in enumerate(cartan_apply(masses).tolist(), start=1):
        rel = abs(s / (8.0 * math.pi) - 1.0)
        cases.append(Case("mass", f"{label}-sum-rule-i{i}", s, 8.0 * math.pi,
                          MASS_REL, rel <= MASS_REL))


def _t_integral_cases(label: str, sp, cases: list, details: list) -> None:
    """Append T on 2N sphere nodes against N, within T_INTEGRAL_REL of a positive scale."""
    for which, res in t_integral(sp).items():
        (_, j), unit = _coefficient_slot(sp.n, which)
        l, part = sp.n - j, "alpha" if unit == 1 else "beta"
        passed = 0 < res.scale and abs(res.value - res.coarse) <= T_INTEGRAL_REL * res.scale
        cases.append(Case("t-integrals", f"{label}-l{l}-{part}", res.value, res.coarse,
                          T_INTEGRAL_REL, passed))
        details.append({"label": label, "l": l, "which": part, "value": res.value,
                        "coarse": res.coarse, "scale": res.scale})


def _probe_suites(cfg: RunConfig, param_sets) -> dict:
    """{suite: (cases, detail rows)} of asymptotics, mass and t-integrals, one set at a time.

    A set's one far-field probe takes the frequency-2 directions if and only if the run
    selects asymptotics, and "radial" if and only if it selects mass.
    """
    out = {name: ([], []) for name in ("asymptotics", "mass", "t-integrals")}
    asymptotics, mass, t_integrals = (name in cfg.suites for name in out)
    for label, sp in param_sets:
        if asymptotics or mass:
            second = [which for pair in frequency_directions(sp.n, 2).values() for which in pair]
            checks = far_field_checks(sp, second * asymptotics + ["radial"] * mass)
        if asymptotics:
            _expansion_cases(label, checks, *out["asymptotics"])
        if mass:
            _mass_cases(label, sp, checks, *out["mass"])
        if t_integrals:
            _t_integral_cases(label, sp, *out["t-integrals"])
    return out


# Every suite in default run order, mapped to the function that computes it; a
# function returns {suite: (cases, detail rows)} for each suite it serves.
SUITES = {
    "pde": _grid_suites,
    "linearized": _grid_suites,
    "identities": suite_identities,
    "asymptotics": _probe_suites,
    "mass": _probe_suites,
    "t-integrals": _probe_suites,
}
KNOWN_SUITES = tuple(SUITES)


def run_suites(cfg: RunConfig) -> tuple[list, dict, dict]:
    """Run the configured suites; returns (cases, {suite: detail rows}, {suite: seconds}).

    A function of SUITES that serves several selected suites runs once, timed with the
    first of them to run: pde and linearized share one grid walk per parameter set, and
    asymptotics, mass and t-integrals one pass over the sets.  Each suite's seconds are
    its wall time, sets excluded.  Raises ValueError when no case is selected at all.
    """
    param_sets = build_param_sets(cfg)
    results, cases, details, seconds = {}, [], {}, {}
    for name in cfg.suites:
        t0 = time.perf_counter()
        compute = SUITES[name]
        if compute not in results:
            results[compute] = compute(cfg, param_sets)
        suite_cases, details[name] = results[compute][name]
        seconds[name] = time.perf_counter() - t0
        cases.extend(suite_cases)
    if not cases:
        raise ValueError(
            f"suites {cfg.suites} select no case for {len(param_sets)} parameter set(s)"
        )
    return cases, details, seconds
