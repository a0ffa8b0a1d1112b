"""In-memory span tracing of todalab's layers, installed from outside the package.

Each layer's public function is wrapped at the module attribute its callers
look up (for example `todalab.solution.log_abs_eval` is the name through
which `log_det_k` reaches `cpoly.log_abs_eval`).  A wrapper records one span
per call: (name, start, end, parent index, points, terms).  Nothing is
written until the workload ends; `aggregate` turns spans into per-layer
calls, work counts and self time (span time minus child-span time).
"""

from __future__ import annotations

import functools
import importlib
import math
import time

import numpy as np


def _points(z) -> int:
    return int(np.size(z))


def _args_points(*args, **kwargs) -> tuple[int, int]:
    """(points, 0) for f(p_or_sp, z, ...)."""
    return _points(args[1]), 0


def _log_det_k_work(sp, k, z, *args, **kwargs) -> tuple[int, int]:
    """(points, points x minors); det_k sums C(n+1, k) Wronskian minors."""
    points = _points(z)
    return points, points * math.comb(sp.n + 1, k)


# (module, attribute) -> (span name, work counter or None).  Where several
# modules import one function, each binding is wrapped under one span name.
SITES = {
    ("todalab.cli", "run"): ("cli.run", None),
    ("todalab.cli", "run_suites"): ("suites.run_suites", None),
    ("todalab.suites", "verify_identity_sweep"): ("identities.verify_identity_sweep", None),
    ("todalab.suites", "pde_residual"): ("residual.pde_residual", None),
    ("todalab.suites", "linearized_residual"): ("residual.linearized_residual", None),
    ("todalab.residual", "param_derivative_field"): ("residual.param_derivative_field", None),
    ("todalab.asymptotics", "param_derivative_field"): ("residual.param_derivative_field", None),
    ("todalab.suites", "leading_coefficient_check"): ("asymptotics.leading_coefficient_check", None),
    ("todalab.suites", "first_frequency_check"): ("asymptotics.first_frequency_check", None),
    ("todalab.suites", "kernel_signature_check"): ("asymptotics.kernel_signature_check", None),
    ("todalab.suites", "constant_term_probe"): ("asymptotics.constant_term_probe", None),
    ("todalab.suites", "t_integral"): ("asymptotics.t_integral", None),
    ("todalab.asymptotics", "fourier_coeffs"): ("asymptotics.fourier_coeffs", None),
    ("todalab.suites", "mass_flux"): ("mass.mass_flux", None),
    ("todalab.suites", "mass_quadrature"): ("mass.mass_quadrature", None),
    ("todalab.residual", "lower_components"): ("solution.lower_components", _args_points),
    ("todalab.asymptotics", "lower_components"): ("solution.lower_components", _args_points),
    ("todalab.mass", "lower_components"): ("solution.lower_components", _args_points),
    ("todalab.solution", "upper_components"): ("solution.upper_components", _args_points),
    ("todalab.residual", "upper_components"): ("solution.upper_components", _args_points),
    ("todalab.asymptotics", "upper_components"): ("solution.upper_components", _args_points),
    ("todalab.mass", "upper_components"): ("solution.upper_components", _args_points),
    ("todalab.solution", "log_det_k"): ("solution.log_det_k", _log_det_k_work),
    ("todalab.solution", "log_abs_eval"): ("cpoly.log_abs_eval", _args_points),
    ("todalab.solution", "poly_det"): ("cpoly.poly_det", None),
}


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                points, terms = work(*args, **kwargs) if work else (0, 0)
                spans[index] = (name, start, end, parent, points, terms)

        return traced

    def install(self) -> list:
        """Wrap every site that exists; returns the sites that were missing."""
        missing = []
        for (module_name, attr), (name, work) in SITES.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, work))
        return missing


def aggregate(spans) -> dict:
    """{span name: {"calls", "points", "terms", "total_s", "self_s"}}."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict = {}
    for index, (name, start, end, _, points, terms) in enumerate(spans):
        row = out.setdefault(
            name, {"calls": 0, "points": 0, "terms": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["points"] += points
        row["terms"] += terms
        row["total_s"] += end - start
        row["self_s"] += end - start - child_s[index]
    return out

