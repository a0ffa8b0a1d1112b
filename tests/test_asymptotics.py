"""Large-radius Fourier probes and plane integrals."""

import math

import numpy as np
import pytest

from todalab import solution
from todalab.asymptotics import (
    CONSTANT_TERM_REL,
    constant_term_probe,
    first_frequency_check,
    fourier_coeffs,
    kernel_signature_check,
    leading_coefficient_check,
    second_frequency_prediction,
    t_integral,
)
from todalab.mass import mass_flux, mass_quadrature
from todalab.solution import sample_params


def test_fourier_coeffs_exact_on_trig_polynomial():
    def component(z):
        theta = np.angle(z)
        return 1.5 + 2.0 * np.cos(theta) - 0.5 * np.sin(theta) + 0.25 * np.sin(2 * theta)

    fc = fourier_coeffs(component, r=10.0)
    assert fc.a0 == pytest.approx(1.5, abs=1e-12)
    assert fc.a_cos[0] == pytest.approx(2.0, abs=1e-12)
    assert fc.b_sin[0] == pytest.approx(-0.5, abs=1e-12)
    assert fc.a_cos[1] == pytest.approx(0.0, abs=1e-12)
    assert fc.b_sin[1] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_leading_coefficient_radial_case(n):
    sp = sample_params(n, 0, 0.0)
    checks = leading_coefficient_check(sp, r=1e3)
    assert len(checks) == n
    for ck in checks:
        assert ck.rel_error < 0.01
        # The competing exponent 2m(n+2-m) misses by the factor r^{2m}.
        assert ck.notes["variant_rel_error"] > 0.99


def test_leading_coefficient_prediction_value():
    # n=1 radial: e^{-U^1} = f = lambda_0 + lambda_1 r^2, so
    # mean(f r^{-2}) -> lambda_1 directly.
    sp = sample_params(1, 0, 0.0)
    (ck,) = leading_coefficient_check(sp, r=1e3)
    assert ck.predicted == pytest.approx(sp.lambdas[1])


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 0), (3, 1)])
def test_first_frequency_both_projections(n, seed):
    sp = sample_params(n, seed, 0.4)
    checks = first_frequency_check(sp)
    assert len(checks) == n
    for m, out in enumerate(checks, start=1):
        c = sp.first_frequency_coeff(m)
        assert out["alpha"].predicted == pytest.approx(2.0 * m * c.real)
        assert out["beta"].predicted == pytest.approx(2.0 * m * c.imag)
        assert out["alpha"].rel_error < 0.02
        assert out["beta"].rel_error < 0.02


def test_second_frequency_prediction_table():
    assert second_frequency_prediction(2, 2) == -2.0
    assert second_frequency_prediction(1, 2) == 2.0
    assert second_frequency_prediction(2, 3) == 6.0
    assert second_frequency_prediction(3, 2) == 0.0
    assert second_frequency_prediction(1, 3) == 0.0


def test_kernel_signature_check_n2():
    sp = sample_params(2, 0, 0.3)
    checks = kernel_signature_check(sp)
    assert list(checks) == ["alpha2_2", "beta2_2"]
    for which, per_m in checks.items():
        assert len(per_m) == 2
        for m, ck in enumerate(per_m, start=1):
            assert ck.notes == {"m": m, "j": 2, "kind": which[:-2]}
            assert ck.rel_error < 0.03


def test_second_frequency_probes_have_nothing_to_check_at_n1():
    sp = sample_params(1, 0, 0.3)
    assert kernel_signature_check(sp) == {}
    assert t_integral(sp, ratio=1.5) == {}


def test_constant_term_probe_measures_sums_not_table():
    # The direct Cartan row sums predict the measured constant.
    sp = sample_params(2, 0, 0.2)
    checks = constant_term_probe(sp)
    assert len(checks) == 2
    for ck in checks:
        bound = CONSTANT_TERM_REL * max(abs(ck.predicted), 1.0)
        assert abs(ck.measured - ck.predicted) <= bound


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_far_field_coefficients_at_rounding_level(n):
    # One circle at R_FAR leaves an O(R_FAR^-2) truncation error; the
    # C/r extrapolation this replaced was off by 1e-3 to 1e-2.
    for seed in range(4):
        sp = sample_params(n, seed, 0.3, dilation=3.0)
        checks = [ck for out in first_frequency_check(sp) for ck in out.values()]
        checks += [ck for per_m in kernel_signature_check(sp).values() for ck in per_m]
        assert max(ck.rel_error for ck in checks) <= 1e-6
        assert max(ck.rel_error for ck in constant_term_probe(sp)) <= CONSTANT_TERM_REL


def test_t_integral_converges_n2():
    sp = sample_params(2, 0, 0.3)
    results = t_integral(sp, ratio=1.5)
    assert list(results) == ["alpha2_2", "beta2_2"]
    for res in results.values():
        assert res.converged
        assert len(res.partials) == 4
        assert math.isfinite(res.value)


def test_probes_evaluate_base_solution_once_per_circle_or_panel(monkeypatch):
    # Every base evaluation goes through the det_k kernel, which returns
    # all k in one call, however many components and directions a probe
    # checks.
    calls = []
    original = solution._log_dets

    def counted(sp, ks, z):
        calls.append(tuple(ks))
        return original(sp, ks, z)

    monkeypatch.setattr(solution, "_log_dets", counted)
    n = 3
    sp = sample_params(n, 0, 0.3)
    for probe, evaluations in (
        (lambda: leading_coefficient_check(sp, r=1e3), 1),
        (lambda: first_frequency_check(sp), 1),
        (lambda: kernel_signature_check(sp), 1),
        (lambda: constant_term_probe(sp), 1),
        (lambda: mass_flux(sp, R=1e3), 1),
        (lambda: mass_quadrature(sp), 9 + 2),  # 9 radial panels, 2 tail circles
        (lambda: t_integral(sp, ratio=1.5), 9),  # 9 radial panels
    ):
        calls.clear()
        probe()
        assert calls == [tuple(range(1, n + 1))] * evaluations
