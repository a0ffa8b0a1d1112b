"""Large-radius Fourier probes and plane integrals."""

import math

import numpy as np
import pytest

from todalab.asymptotics import (
    constant_term_prediction,
    constant_term_probe,
    first_frequency_check,
    fourier_coeffs,
    kernel_signature_check,
    leading_coefficient_check,
    second_frequency_prediction,
    t_integral,
)
from todalab.solution import sample_params


def test_fourier_coeffs_exact_on_trig_polynomial():
    def component(z):
        theta = np.angle(z)
        return 1.5 + 2.0 * np.cos(theta) - 0.5 * np.sin(theta) + 0.25 * np.sin(2 * theta)

    fc = fourier_coeffs(component, r=10.0, M=64)
    assert fc.a0 == pytest.approx(1.5, abs=1e-12)
    assert fc.a_cos[0] == pytest.approx(2.0, abs=1e-12)
    assert fc.b_sin[0] == pytest.approx(-0.5, abs=1e-12)
    assert fc.a_cos[1] == pytest.approx(0.0, abs=1e-12)
    assert fc.b_sin[1] == pytest.approx(0.25, abs=1e-12)


def test_fourier_coeffs_rejects_undersampling():
    with pytest.raises(ValueError):
        fourier_coeffs(lambda z: np.zeros_like(z, dtype=float), 1.0, M=8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_leading_coefficient_radial_case(n):
    sp = sample_params(n, 0, 0.0)
    for m in range(1, n + 1):
        ck = leading_coefficient_check(sp, m, r=1e3)
        assert ck.rel_error < 0.01
        # The competing exponent 2m(n+2-m) misses by the factor r^{2m}.
        assert ck.notes["variant_rel_error"] > 0.99


def test_leading_coefficient_prediction_value():
    # n=1 radial: e^{-U^1} = f = lambda_0 + lambda_1 r^2, so
    # mean(f r^{-2}) -> lambda_1 directly.
    sp = sample_params(1, 0, 0.0)
    ck = leading_coefficient_check(sp, 1, r=1e3)
    assert ck.predicted == pytest.approx(sp.lambdas[1])


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 0), (3, 1)])
def test_first_frequency_both_projections(n, seed):
    sp = sample_params(n, seed, 0.4)
    for m in range(1, n + 1):
        out = first_frequency_check(sp, m)
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
    for m in (1, 2):
        for which in ("alpha2_2", "beta2_2"):
            ck = kernel_signature_check(sp, which, m)
            assert ck.rel_error < 0.03


def test_kernel_signature_rejects_first_frequency_direction():
    sp = sample_params(2, 0, 0.3)
    with pytest.raises(ValueError):
        kernel_signature_check(sp, "alpha_1", 1)


def test_constant_term_probe_measures_sums_not_table():
    # The direct Cartan row sums predict the measured constant; the
    # tabulated closed forms are carried along for comparison only.
    sp = sample_params(2, 0, 0.2)
    for i in (1, 2):
        ck = constant_term_probe(sp, i)
        pred_sum = ck.notes["prediction_from_sums"]
        assert abs(ck.richardson - pred_sum) < 0.05 * max(abs(pred_sum), 1.0)


def test_constant_term_prediction_routes_exist():
    sp = sample_params(2, 0, 0.2)
    t = constant_term_prediction(sp, 1, use_table=True)
    s = constant_term_prediction(sp, 1, use_table=False)
    assert math.isfinite(t) and math.isfinite(s)


def test_t_integral_converges_n2():
    sp = sample_params(2, 0, 0.3)
    for which in ("alpha", "beta"):
        res = t_integral(sp, 2, which)
        assert res.converged
        assert len(res.partials) == 4
        assert math.isfinite(res.value)


def test_t_integral_validation():
    sp = sample_params(2, 0, 0.3)
    with pytest.raises(ValueError):
        t_integral(sp, 3)
    with pytest.raises(ValueError):
        t_integral(sp, 2, "gamma")
    with pytest.raises(ValueError):
        t_integral(sp, 2, "alpha", m=5)


def test_t_integral_component_choices_agree_in_kind():
    # Both admissible components m in {l-1, l} must give finite,
    # converged integrals for the same direction.
    sp = sample_params(2, 1, 0.3)
    a = t_integral(sp, 2, "alpha", m=1)
    b = t_integral(sp, 2, "alpha", m=2)
    assert a.converged and b.converged
