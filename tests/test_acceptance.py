"""Acceptance suite: one test per headline verification contract.

Each test prints a single pass/fail line naming the contract it checks,
then asserts.  Tolerances are pinned here and are not configurable; the
point is that every contract holds at these exact levels.

Contract 7 (linearized kernel) uses dilation-3 parameter sets: the
parameter family is dilation covariant, so widening the bubble core is a
gauge choice inside the classified family, and it keeps the fourth
derivatives that drive the 5-point stencil error within reach of
h = 1e-2.  The parameter-derivative fields are exact, so every direction
must also show second-order decay.
"""

import math
import time

import numpy as np
from gram_oracle import cartan_dense

from todalab import suites
from todalab.asymptotics import R_FAR, far_field_checks, t_integral
from todalab.cli import main as cli_main
from todalab.cpoly import ComplexPoly
from todalab.identities import verify_identity_sweep
from todalab.mass import flux_tail, mass_quadrature, predicted_mass
from todalab.residual import GridSpec, grid_residuals
from todalab.solution import SolutionParams, frequency_directions, kernel_directions, sample_params

GRID = GridSpec.from_h(1e-2)


def _report(name: str, passed: bool, detail: str) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return passed


def test_01_exact_determinant_identities():
    t0 = time.perf_counter()
    cases = verify_identity_sweep()
    elapsed = time.perf_counter() - t0
    ns = {}
    for c in cases:
        ns.setdefault((c["kind"], c["m"]), set()).add(c["n"])
    # Each determinant is a polynomial in n of degree <= m(m-1)/2, so more
    # distinct n than that (and at least 10) make the sweep a proof.
    layouts = {("F", m) for m in range(1, 11)} | {("G", m) for m in range(2, 11)}
    enough_n = set(ns) == layouts and all(
        len(values) > max(m * (m - 1) // 2, 9) for (_, m), values in ns.items()
    )
    ok = all(c["pass"] for c in cases) and enough_n and elapsed < 10.0
    assert _report(
        "exact-determinant-identities",
        ok,
        f"{len(cases)} exact cases, m<=10, {elapsed:.2f}s",
    )


def test_02_closed_form_reference_residual():
    sp = SolutionParams(
        n=1, lambdas=(0.5, 0.5), polys=(ComplexPoly((0j, 1 + 0j)),)
    )
    rep = grid_residuals(sp, GRID)[0]
    ratio = rep.max_residual / max(rep.max_abs_residual_refined)
    ok = rep.max_residual <= 1e-3 and 3.5 <= ratio <= 4.5
    assert _report(
        "closed-form-reference-residual",
        ok,
        f"max residual {rep.max_residual:.2e} at h=1e-2, h/(h/2) ratio {ratio:.2f}",
    )


def test_03_random_parameter_pde_order():
    orders = []
    for n in (2, 3):
        for seed in range(5):
            sp = sample_params(n, seed, 0.3)
            rep = grid_residuals(sp, GRID)[0]
            orders.append(rep.convergence_order)
    ok = all(1.5 <= o <= 2.5 for o in orders)
    assert _report(
        "random-parameter-pde-order",
        ok,
        f"10 parameter sets, order range [{min(orders):.2f}, {max(orders):.2f}]",
    )


def test_04_mass_quantization():
    # The flux through |z| = R plus its closed-form tail pi C_i / R^2, at the
    # suite's R = R_FAR L, against the quantized mass, the sphere rule,
    # and the Cartan sum rule.
    tol = suites.MASS_REL
    worst_flux, worst_route, worst_sum, worst_time = 0.0, 0.0, 0.0, 0.0
    for n in (1, 2, 3):
        for seed in range(5):
            sp = sample_params(n, seed, 0.3)
            t0 = time.perf_counter()
            probe = far_field_checks(sp, ("radial",))
            R = probe["R"]
            assert R == R_FAR * sp.outer_scale()
            masses = [flux + tail for flux, tail in zip(probe["flux"], flux_tail(sp, R=R))]
            quads = mass_quadrature(sp)
            for i, (mass, quad) in enumerate(zip(masses, quads, strict=True), 1):
                worst_flux = max(worst_flux, abs(mass / predicted_mass(n, i) - 1.0))
                worst_route = max(worst_route, abs(mass / quad - 1.0))
            a = cartan_dense(sp.n)
            for i in range(n):
                s = sum(a[i][j] * masses[j] for j in range(n))
                worst_sum = max(worst_sum, abs(s / (8.0 * math.pi) - 1.0))
            worst_time = max(worst_time, time.perf_counter() - t0)
    ok = worst_flux < tol and worst_route < tol and worst_sum < tol and worst_time < 60.0
    assert _report(
        "mass-quantization",
        ok,
        f"flux err {worst_flux:.1e}, route gap {worst_route:.1e}, "
        f"sum-rule err {worst_sum:.1e}, slowest set {worst_time:.1f}s",
    )


def test_05_first_frequency_expansion():
    worst = 0.0
    for n in (1, 2, 3):
        for seed in range(3):
            sp = sample_params(n, seed, 0.5)
            for out in far_field_checks(sp)["freq1"]:
                worst = max(worst, out["alpha"].rel_error, out["beta"].rel_error)
    ok = worst <= suites.FIRST_FREQUENCY_REL
    assert _report(
        "first-frequency-expansion",
        ok,
        f"worst relative error {worst:.1e} over n=1..3, |c| <= 0.5",
    )


def test_06_second_frequency_kernel_signatures():
    worst = 0.0
    for n in (2, 3):
        sp = sample_params(n, 0, 0.3)
        second = [which for pair in frequency_directions(n, 2).values() for which in pair]
        checks = far_field_checks(sp, second)["freq2"]
        assert all(len(per_which) == 2 * (n - 1) for per_which in checks)
        for m, per_which in enumerate(checks, start=1):
            for ck in per_which.values():
                denom = abs(ck.predicted) if ck.predicted else m * (m + 1)
                worst = max(worst, abs(ck.measured - ck.predicted) / denom)
    ok = worst <= suites.KERNEL_SIGNATURE_REL
    assert _report(
        "second-frequency-kernel-signatures",
        ok,
        f"worst signature error {worst:.1e} at r={R_FAR:.0e} L, exact fields",
    )


def test_07_linearized_kernel():
    worst_res = 0.0
    bad_orders = []
    for n in (1, 2, 3):
        for seed in range(2):
            sp = sample_params(n, seed, 0.3, dilation=3.0)
            reports = grid_residuals(sp, GRID, kernel_directions(n))[1]
            assert list(reports) == kernel_directions(n)
            for which, rep in reports.items():
                worst_res = max(worst_res, rep.max_residual)
                if not 1.5 <= rep.convergence_order <= 2.5:
                    bad_orders.append((n, seed, which, rep.convergence_order))
    ok = worst_res <= 1e-3 and not bad_orders
    assert _report(
        "linearized-kernel",
        ok,
        f"worst residual {worst_res:.1e} at h=1e-2, "
        f"{len(bad_orders)} directions off second order",
    )


def test_08_leading_coefficient_and_exponent():
    worst, weakest_gap = 0.0, math.inf
    for n in (1, 2, 3):
        sp = sample_params(n, 0, 0.0)
        for m, ck in enumerate(far_field_checks(sp)["leading"], start=1):
            worst = max(worst, ck.rel_error)
            # The competing exponent 2m(n+2-m) overshoots by r^{2m} = (1e6 L)^{2m} at
            # R_FAR L: the same circle mean for it, measured r^{-2m}, must miss the
            # prediction by orders of magnitude.
            gap = ck.predicted / max(ck.measured * ck.r ** (-2 * m), 1e-300)
            weakest_gap = min(weakest_gap, gap)
    ok = worst < 1e-7 and weakest_gap > 1e11
    assert _report(
        "leading-coefficient-and-exponent",
        ok,
        f"worst relative error {worst:.1e}; competing exponent off by >= {weakest_gap:.1e}x",
    )


def test_09_t_integral_finiteness():
    # Each plane integral on 128 sphere nodes must meet the same rule on 64
    # within T_INTEGRAL_REL of the rule on |field|, a positive scale.
    all_ok, values, worst = True, [], 0.0
    for n in (2, 3):
        sp = sample_params(n, 0, 0.3)
        results = t_integral(sp)
        assert len(results) == 2 * (n - 1)
        for res in results.values():
            gap = abs(res.value - res.coarse)
            all_ok = (all_ok and res.scale > 0 and gap <= suites.T_INTEGRAL_REL * res.scale
                      and np.isfinite(res.value))
            worst = max(worst, gap / res.scale)
            values.append(res.value)
    assert _report(
        "t-integral-finiteness",
        all_ok,
        f"{len(values)} integrals agree on 64 and 128 sphere nodes within {worst:.1e} "
        f"of the rule on |field|, values bounded by {max(abs(v) for v in values):.2f}",
    )


def test_10_determinism(tmp_path):
    args = ["verify", "--suite", "identities", "--suite", "mass",
            "--suite", "asymptotics", "--n", "2", "--count", "1", "--seed", "0"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    names = ["summary.json"] + [p.name for p in out1.glob("*_detail.csv")]
    identical = all((out1 / f).read_bytes() == (out2 / f).read_bytes() for f in names)
    ok = code1 == code2 == 0 and identical
    assert _report(
        "deterministic-reports",
        ok,
        f"{len(names)} report files byte-identical across reruns",
    )
