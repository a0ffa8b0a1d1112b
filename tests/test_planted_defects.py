"""Planted defects: each small, named error must fail at least one verdict.

Every row plants one small, named mistake (a factor at most 2% off, one
entry, sample, index or degree moved, one term or factor left out, an
integrand shifted by 1e-9 or zeroed), runs one `todalab verify`
on the cheapest suite that catches it and names the verdict kind that must
fail.
The unpatched run passes every verdict, so a failure is the defect's alone.
The memoized minor tables are cleared around each row, so a patch
neither reads entries built without it nor leaves its own behind.
"""

import dataclasses
import inspect
import json
import math
import textwrap

import numpy as np
import pytest

from todalab import asymptotics, cartan, mass, residual, solution, suites
from todalab.cli import main
from todalab.residual import GridSpec
from todalab.suites import RunConfig

MASS_ARGS = ["verify", "--suite", "mass", "--n", "2", "--count", "2", "--seed", "3"]
FAR_FIELD_ARGS = ["verify", "--suite", "asymptotics", "--n", "2", "--count", "2", "--seed", "3"]
GRID_ARGS = ["verify", "--suite", "pde", "--suite", "linearized", "--n", "2", "--count", "1",
             "--seed", "3"]
T_INTEGRAL_ARGS = ["verify", "--suite", "t-integrals", "--n", "3", "--count", "2", "--seed", "3"]


@pytest.fixture(autouse=True)
def fresh_caches():
    def clear():
        solution._memo.clear()
        solution._monomial_wronskian.cache_clear()

    clear()
    yield
    clear()


def scale_last_exp_u(factor):
    """e^{U_n} times `factor` in the sphere quadrature."""
    original = mass.lower_components

    def patched(sp, z):
        u = original(sp, z)
        u[-1] += math.log(factor)
        return u

    return [(mass, "lower_components", patched)]


def scale_radial_tangent(factor):
    """r d/dr log det_k times `factor` in the flux, which the far-field call reads."""
    original = asymptotics.log_det_k_tangent

    def patched(sp, directions, z, **kwargs):
        log_dets, tangents = original(sp, directions, z, **kwargs)
        tangents[list(directions).index("radial")] *= factor
        return log_dets, tangents

    return [(asymptotics, "log_det_k_tangent", patched)]


def perturb_far_field_call(shift=0.0, factor=1.0, tangent_shift=0.0):
    """Every U^m plus `shift`, every parameter tangent times `factor` plus `tangent_shift`.

    The patch covers every kernel call of asymptotics: the far-field circle
    and the T-integrals' sphere rules.
    """
    original = asymptotics.log_det_k_tangent

    def patched(*args, **kwargs):
        upper, tangents = original(*args, **kwargs)
        return upper + shift, factor * tangents + tangent_shift

    return [(asymptotics, "log_det_k_tangent", patched)]


def drop_outer_sphere_ring():
    """The weight of the T-integral sphere rule's outermost ring, the largest |z|, set to 0."""
    original = asymptotics.sphere_rule

    def patched(t, nodes, samples):
        z, log_area, w = original(t, nodes, samples)
        return z, log_area, np.where(np.arange(nodes) == nodes - 1, 0.0, w)

    return [(asymptotics, "sphere_rule", patched)]


def scale_fourier_normalisation(factor):
    """The circle DFT's 2 / (sample count) normalisation times `factor`."""
    original = asymptotics.fourier_coeffs

    def patched(vals):
        return factor * original(vals)

    return [(asymptotics, "fourier_coeffs", patched)]


def stretch_h_stencil(factor):
    """The stencil at the default grid's h, not at h/2, with spacing `factor` * h."""
    original = residual._laplacian
    h = GridSpec.from_h(RunConfig().grid_h).h

    def patched(field, spacing, out=None, centre=None):
        return original(field, factor * spacing if spacing == h else spacing, out, centre)

    return [(residual, "_laplacian", patched)]


def scale_lambda_product_target(factor):
    """The normalisation's target for lambda_0 ... lambda_n times `factor`."""
    original = solution.lambda_product_target
    return [(solution, "lambda_product_target", lambda n: factor * original(n))]


def drop_last_minor_of_det_n():
    """The last non-constant minor of det_n left out of the kernel's sum: its row of
    coefficients zeroed, so it adds nothing to det_n or to a tangent's numerator."""
    original = solution._wronskian_minors

    def patched(sp):
        rows, table = original(sp)
        minors, degree, const, scaled = rows[sp.n - 1]
        scaled = scaled.copy()
        scaled[-1] = 0.0
        return (*rows[: sp.n - 1], (minors, degree, const, scaled), *rows[sp.n :]), table

    return [(solution, "_wronskian_minors", patched)]


def vandermonde_factor_off_by_one():
    """The factor a_1 - a_0 of V(A) = prod_{a < b in A} (b - a) taken as a_1 - a_0 + 1."""
    original = solution._monomial_wronskian

    def patched(exponents):
        value = original(exponents)
        if len(exponents) > 1:
            gap = exponents[1] - exponents[0]
            value = value // gap * (gap + 1)
        return value

    return [(solution, "_monomial_wronskian", patched)]


def tangent_minor_sign_dropped():
    """Every term of dW_S / dc_ij added with sign +1, not its cofactor's sign.

    The patch is the package's own Cauchy-Binet assembly with that one factor
    taken out of its source.
    """
    source = textwrap.dedent(inspect.getsource(solution._cauchy_binet))
    signed = "sign * _monomial_wronskian"
    assert source.count(signed) == 1
    namespace = dict(vars(solution))
    exec(source.replace(signed, "_monomial_wronskian"), namespace)
    return [(solution, "_cauchy_binet", namespace["_cauchy_binet"])]


def edit_scale_exponents(new):
    """The exponents (j - D_k) e_r of the kernel's power-of-two factors of c_j written as `new`.

    The patch is the package's own det_k kernel with that one expression
    replaced in its source.
    """
    source = textwrap.dedent(inspect.getsource(solution._log_dets))
    factor = "(np.arange(degree + 1) - degree) * e[rows, None]"
    assert source.count(factor) == 1
    namespace = dict(vars(solution))
    exec(source.replace(factor, new), namespace)
    return [(solution, "_log_dets", namespace["_log_dets"])]


def perturb_cartan_entry(value):
    """a_12 of the Cartan matrix set to `value` wherever the operator is applied."""
    original = cartan.cartan_apply

    def patched(x, out=None):
        x = np.asarray(x, dtype=float)
        shift = (value + 1.0) * x[1] if len(x) > 1 else 0.0  # before an in-place apply
        y = original(x, out=out)
        y[0] += shift
        return y

    return [(module, "cartan_apply", patched) for module in (solution, asymptotics, residual, suites)]


def log2_term_one_k_up():
    """U^k's k(k-1) log 2 taken at k + 1, as (k+1) k log 2, wherever U^k is formed."""
    original = solution.log_det_k_tangent

    def patched(sp, directions, z, k=None, **kwargs):
        upper, tangents = original(sp, directions, z, k=k, **kwargs)
        for k_row, row in zip(range(1, sp.n + 1), upper) if k is None else [(k, upper)]:
            row -= 2 * k_row * math.log(2.0)
        return upper, tangents

    return [(module, "log_det_k_tangent", patched) for module in (solution, asymptotics, residual)]


def shift_circle_samples(fraction):
    """Every circle's samples turned by `fraction` of the angular step."""
    original = asymptotics.circle

    def patched(r, M):
        rings = original(r, M)
        return dataclasses.replace(rings, angles=rings.angles + 2.0 * np.pi * fraction / M)

    return [(asymptotics, "circle", patched)]


# (defect, verdict kind that must fail)
DEFECTS = [
    pytest.param(scale_last_exp_u(1.004), "-routes-i2", id="exp-u-n-in-quadrature-x1.004"),
    pytest.param(scale_radial_tangent(1.004), "-flux-i", id="radial-tangent-x1.004"),
    pytest.param(scale_lambda_product_target(1 + 1e-3), "-routes-i",
                 id="lambda-product-target-x1.001"),
    # Unscaled c_j at z / 2^e fail all 12 mass verdicts.  One degree up fails the
    # 4 routes verdicts: it multiplies each non-constant |q_S|^2 by 2^(2e), which
    # the flux's ratio cancels but for the constant minors' share.
    pytest.param(edit_scale_exponents("0 * np.arange(degree + 1) * e[rows, None]"), "-routes-i",
                 id="horner-factors-ignored"),
    pytest.param(edit_scale_exponents("(np.arange(degree + 1) + 1 - degree) * e[rows, None]"),
                 "-routes-i", id="horner-factors-one-degree-up"),
]
FAR_FIELD_DEFECTS = [
    pytest.param(perturb_far_field_call(factor=1.02), "-freq2-", id="parameter-tangents-x1.02"),
    pytest.param(perturb_far_field_call(shift=1e-4), "-leading-", id="upper-components-plus-1e-4"),
    pytest.param(scale_fourier_normalisation(1.01), "-freq1-", id="dft-normalisation-x1.01"),
    pytest.param(drop_last_minor_of_det_n(), "-leading-m2", id="last-minor-of-det-n-dropped"),
    pytest.param(vandermonde_factor_off_by_one(), "-leading-m2",
                 id="vandermonde-factor-off-by-one"),
    pytest.param(tangent_minor_sign_dropped(), "-freq2-", id="tangent-minor-sign-dropped"),
    pytest.param(perturb_cartan_entry(-1.01), "-const-term-i1", id="cartan-a12-is-minus-1.01"),
    pytest.param(shift_circle_samples(0.5), "-freq1-", id="circle-samples-shifted-half-a-step"),
    pytest.param(log2_term_one_k_up(), "-const-term-i2", id="k-k-minus-1-log-2-one-k-up"),
]
# Each fails every T-integral verdict: the ring by 1.5e-9 of the rule on |field|
# and the shift by 5.8e-6, against 1e-12; the zeroed integrand has no scale.
T_INTEGRAL_DEFECTS = [
    pytest.param(drop_outer_sphere_ring(), id="outer-sphere-ring-dropped"),
    pytest.param(perturb_far_field_call(tangent_shift=1e-9), id="t-integrand-plus-1e-9"),
    pytest.param(perturb_far_field_call(factor=0.0), id="t-integrand-x0"),
]


def failed_cases(tmp_path, args) -> list:
    """Each failed case as "suite:case_id"."""
    out = tmp_path / "rep"
    code = main([*args, "--out", str(out)])
    cases = json.loads((out / "summary.json").read_text())["cases"]
    failed = [f"{c['suite']}:{c['case_id']}" for c in cases if not c["pass"]]
    assert code == (1 if failed else 0)
    return failed


def test_unpatched_run_passes(tmp_path):
    assert failed_cases(tmp_path / "mass", MASS_ARGS) == []
    assert failed_cases(tmp_path / "far", FAR_FIELD_ARGS) == []
    assert failed_cases(tmp_path / "grid", GRID_ARGS) == []
    assert failed_cases(tmp_path / "t", T_INTEGRAL_ARGS) == []


@pytest.mark.parametrize("patch,verdict", DEFECTS)
def test_mass_defect_fails_a_verdict(tmp_path, monkeypatch, patch, verdict):
    for target in patch:
        monkeypatch.setattr(*target)
    assert any(verdict in case_id for case_id in failed_cases(tmp_path, MASS_ARGS))


@pytest.mark.parametrize("patch,verdict", FAR_FIELD_DEFECTS)
def test_far_field_defect_fails_a_verdict(tmp_path, monkeypatch, patch, verdict):
    for target in patch:
        monkeypatch.setattr(*target)
    assert any(verdict in case_id for case_id in failed_cases(tmp_path, FAR_FIELD_ARGS))


def test_h_stencil_at_the_wrong_spacing_fails_both_order_verdicts(tmp_path, monkeypatch):
    # Both stencils read one walk over the h/2 grid; one that took the h
    # grid's spacing 1% off must fail the order of the PDE and of the fields.
    monkeypatch.setattr(*stretch_h_stencil(1.01)[0])
    failed = failed_cases(tmp_path, GRID_ARGS)
    for suite in ("pde", "linearized"):
        assert any(case.startswith(f"{suite}:") and case.endswith("-order") for case in failed)


@pytest.mark.parametrize("patch", T_INTEGRAL_DEFECTS)
def test_t_integral_defect_fails_every_verdict(tmp_path, monkeypatch, patch):
    for target in patch:
        monkeypatch.setattr(*target)
    failed = failed_cases(tmp_path, T_INTEGRAL_ARGS)
    assert len(failed) == 8 and all(case.startswith("t-integrals:") for case in failed)


def test_scaled_t_integrand_passes_every_verdict(tmp_path, monkeypatch):
    # A known blind spot: contract 9 compares two resolutions of one rule,
    # and a uniform scale moves both alike, so an integrand 1% off passes.
    # Only a closed-form value of the integral would see it.
    monkeypatch.setattr(*perturb_far_field_call(factor=1.01)[0])
    assert failed_cases(tmp_path, T_INTEGRAL_ARGS) == []
