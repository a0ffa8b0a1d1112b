"""Quantized total masses by flux and by quadrature."""

import math

import pytest

from todalab.mass import mass_flux, mass_quadrature, predicted_mass
from todalab.solution import PositivityError, sample_params


def test_predicted_mass_values():
    assert predicted_mass(1, 1) == pytest.approx(4.0 * math.pi)
    assert predicted_mass(2, 1) == pytest.approx(8.0 * math.pi)
    assert predicted_mass(2, 2) == pytest.approx(8.0 * math.pi)
    assert predicted_mass(3, 2) == pytest.approx(16.0 * math.pi)
    # Symmetry i <-> n+1-i.
    for n in range(1, 6):
        for i in range(1, n + 1):
            assert predicted_mass(n, i) == predicted_mass(n, n + 1 - i)


def test_liouville_flux_exact_reference():
    # Radial n=1 case: e^{-U^1} = f = lambda_0 + lambda_1 r^2, so the flux
    # through |z| = R is 2 pi R f'(R) / f(R) = 4 pi lambda_1 R^2 / f(R),
    # which tends to 4 pi.
    sp = sample_params(1, 0, 0.0)
    lam0, lam1 = sp.lambdas
    R = 1e3
    (flux,) = mass_flux(sp, R=R)
    assert flux == pytest.approx(4.0 * math.pi * lam1 * R**2 / (lam0 + lam1 * R**2), rel=1e-12)
    assert flux == pytest.approx(4.0 * math.pi, rel=1e-3)


def test_flux_overflow_is_a_breakdown_not_a_value():
    # At n = 5, det_3 has degree 18 in r: W_S conj(z W_S') leaves the
    # double range near R = 1e18, and the flux must not come out inf or NaN.
    sp = sample_params(5, 0, 0.3)
    assert mass_flux(sp, R=1e16) == pytest.approx(
        [predicted_mass(5, i) for i in range(1, 6)], rel=1e-2)
    with pytest.raises(PositivityError):
        mass_flux(sp, R=1e20)


@pytest.mark.parametrize("n,seed", [(1, 3), (2, 0), (3, 2)])
def test_flux_hits_quantized_values(n, seed):
    sp = sample_params(n, seed, 0.3)
    fluxes = mass_flux(sp, R=1e3)
    assert len(fluxes) == n
    for i, flux in enumerate(fluxes, start=1):
        assert abs(flux / predicted_mass(n, i) - 1.0) < 0.01


def test_quadrature_agrees_with_flux():
    sp = sample_params(2, 1, 0.3)
    for flux, quad in zip(mass_flux(sp, R=1e3), mass_quadrature(sp), strict=True):
        assert abs(flux / quad.value - 1.0) < 0.005
        assert quad.tail_fit_stable
        assert quad.tail > 0


def test_quadrature_tail_is_small_fraction():
    sp = sample_params(1, 0, 0.0)
    (quad,) = mass_quadrature(sp)
    assert quad.tail < 0.01 * quad.value
    assert quad.value == pytest.approx(quad.bulk + quad.tail)


def test_sum_rule():
    # sum_j a_ij * mass_j = 8 pi for every row i.
    sp = sample_params(3, 0, 0.3)
    masses = mass_flux(sp, R=1e3)
    a = sp.cartan().a_float()
    for i in range(3):
        s = sum(a[i][j] * masses[j] for j in range(3))
        assert s == pytest.approx(8.0 * math.pi, rel=0.01)

