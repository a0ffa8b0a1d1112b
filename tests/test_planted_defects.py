"""Planted defects: each small, named error must fail at least one verdict.

Every row patches one function with a mistake of at most 2%, runs one
`todalab verify` and names the verdict kind that must catch it.  The
unpatched run passes every verdict, so a failure is the defect's alone.
"""

import json
import math

import pytest

from todalab import asymptotics, mass, residual
from todalab.cli import main
from todalab.residual import GridSpec
from todalab.suites import RunConfig

MASS_ARGS = ["verify", "--suite", "mass", "--n", "2", "--count", "2", "--seed", "3"]
FAR_FIELD_ARGS = ["verify", "--suite", "asymptotics", "--n", "2", "--count", "2", "--seed", "3"]
GRID_ARGS = ["verify", "--suite", "pde", "--suite", "linearized", "--n", "2", "--count", "1",
             "--seed", "3"]


def scale_last_exp_u(factor):
    """e^{U_n} times `factor` in the sphere quadrature."""
    original = mass.lower_components

    def patched(sp, z):
        u = original(sp, z)
        u[-1] += math.log(factor)
        return u

    return mass, "lower_components", patched


def scale_radial_tangent(factor):
    """r d/dr log det_k times `factor` in the flux."""
    original = mass.log_det_k_tangent

    def patched(*args, **kwargs):
        log_dets, tangents = original(*args, **kwargs)
        return log_dets, [factor * t for t in tangents]

    return mass, "log_det_k_tangent", patched


def perturb_far_field_call(shift=0.0, factor=1.0):
    """Every U^m plus `shift` and every parameter tangent times `factor` in the far-field call."""
    original = asymptotics.log_det_k_tangent

    def patched(*args, **kwargs):
        upper, tangents = original(*args, **kwargs)
        return upper + shift, factor * tangents

    return asymptotics, "log_det_k_tangent", patched


def scale_fourier_normalisation(factor):
    """The circle DFT's 2 / (sample count) normalisation times `factor`."""
    original = asymptotics.fourier_coeffs

    def patched(vals):
        return factor * original(vals)

    return asymptotics, "fourier_coeffs", patched


def stretch_h_stencil(factor):
    """The stencil at the default grid's h, not at h/2, with spacing `factor` * h."""
    original = residual._laplacian
    h = GridSpec.from_h(RunConfig().grid_h).h

    def patched(field, spacing, out=None, centre=None):
        return original(field, factor * spacing if spacing == h else spacing, out, centre)

    return residual, "_laplacian", patched


# (defect, verdict kind that must fail)
DEFECTS = [
    pytest.param(scale_last_exp_u(1.004), "-routes-i2", id="exp-u-n-in-quadrature-x1.004"),
    pytest.param(scale_radial_tangent(1.004), "-flux-i", id="radial-tangent-x1.004"),
]
FAR_FIELD_DEFECTS = [
    pytest.param(perturb_far_field_call(factor=1.02), "-freq2-", id="parameter-tangents-x1.02"),
    pytest.param(perturb_far_field_call(shift=1e-4), "-leading-", id="upper-components-plus-1e-4"),
    pytest.param(scale_fourier_normalisation(1.01), "-freq1-", id="dft-normalisation-x1.01"),
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


@pytest.mark.parametrize("patch,verdict", DEFECTS)
def test_mass_defect_fails_a_verdict(tmp_path, monkeypatch, patch, verdict):
    monkeypatch.setattr(*patch)
    assert any(verdict in case_id for case_id in failed_cases(tmp_path, MASS_ARGS))


@pytest.mark.parametrize("patch,verdict", FAR_FIELD_DEFECTS)
def test_far_field_defect_fails_a_verdict(tmp_path, monkeypatch, patch, verdict):
    monkeypatch.setattr(*patch)
    assert any(verdict in case_id for case_id in failed_cases(tmp_path, FAR_FIELD_ARGS))


def test_h_stencil_at_the_wrong_spacing_fails_both_order_verdicts(tmp_path, monkeypatch):
    # Both stencils read one walk over the h/2 grid; one that took the h
    # grid's spacing 1% off must fail the order of the PDE and of the fields.
    monkeypatch.setattr(*stretch_h_stencil(1.01))
    failed = failed_cases(tmp_path, GRID_ARGS)
    for suite in ("pde", "linearized"):
        assert any(case.startswith(f"{suite}:") and case.endswith("-order") for case in failed)
