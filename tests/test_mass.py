"""Quantized total masses by flux and by quadrature on the sphere."""

import itertools
import math

import numpy as np
import pytest
from gram_oracle import cartan_dense

from todalab import asymptotics
from todalab.asymptotics import R_FAR, SAMPLES, circle, far_field_checks
from todalab.mass import flux_tail, mass_quadrature, predicted_mass
from todalab.solution import PositivityError, log_det_k_tangent, sample_params
from todalab.suites import SUITES, RunConfig


def _flux(sp):
    """The flux through the probe circle R = R_FAR L, from the far-field call."""
    return far_field_checks(sp, ("radial",))["flux"]


def _flux_at(sp, R):
    """The flux through |z| = R: 2 pi times the ring mean of the kernel's r d/dr log det_i.

    The reference for a radius the probe does not read at; at R = R_FAR L it is
    the probe's flux bit for bit.
    """
    (r_dlog_det,) = log_det_k_tangent(sp, ("radial",), circle(R, SAMPLES))[1]
    return [float(x) for x in 2.0 * np.pi * np.mean(r_dlog_det, axis=1)]


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
    (flux,) = _flux_at(sp, R)
    assert flux == pytest.approx(4.0 * math.pi * lam1 * R**2 / (lam0 + lam1 * R**2), rel=1e-12)
    assert flux == pytest.approx(4.0 * math.pi, rel=1e-3)
    probe = far_field_checks(sp, ("radial",))
    R = probe["R"]
    assert probe["flux"] == [pytest.approx(4.0 * math.pi * lam1 * R**2 / (lam0 + lam1 * R**2),
                                           rel=1e-12)]


def test_probe_flux_is_the_ring_mean_of_the_radial_tangent():
    # The far-field call reads the flux on its own circle, R = R_FAR L, and
    # carrying the frequency-2 directions as well changes no bit of it.
    sp = sample_params(3, 2, 0.3, dilation=3.0)
    second = ["alpha2_2", "beta2_2", "alpha2_3", "beta2_3"]
    reference = _flux_at(sp, R_FAR * sp.outer_scale())
    assert _flux(sp) == reference
    assert far_field_checks(sp, second + ["radial"])["flux"] == reference


def test_flux_that_is_not_finite_is_a_breakdown(monkeypatch):
    original = asymptotics.log_det_k_tangent

    def overflowed(sp, directions, z, **kwargs):
        upper, tangents = original(sp, directions, z, **kwargs)
        tangents[list(directions).index("radial"), 0, 0] = math.inf
        return upper, tangents

    monkeypatch.setattr(asymptotics, "log_det_k_tangent", overflowed)
    with pytest.raises(PositivityError, match="radial derivative of log det_k overflows at R"):
        _flux(sample_params(2, 0, 0.3))


def test_flux_overflow_is_a_breakdown_not_a_value():
    # At n = 5, det_3 has degree 18 in r, so unscaled W_S conj(z W_S') would
    # leave the double range near R = 1e18.  The tangent evaluates at
    # z / 2^e, so the flux stays accurate far past that; at the very edge of
    # the range it may break down, but never as inf or NaN.  The probe reads
    # at R = 9.8e19 on the set dilated 1e14-fold; no valid dilation puts it
    # at 1e100 or 1e300 (the lambdas underflow), so the kernel's ring mean
    # stands in there.
    predicted = [predicted_mass(5, i) for i in range(1, 6)]
    wide = sample_params(5, 0, 0.3, dilation=1e14)
    assert 9e19 < R_FAR * wide.outer_scale() < 1e20
    assert _flux(wide) == pytest.approx(predicted, rel=1e-2)
    sp = sample_params(5, 0, 0.3)
    assert _flux_at(sp, 1e100) == pytest.approx(predicted, rel=1e-2)
    try:
        assert _flux_at(sp, 1e300) == pytest.approx(predicted, rel=1e-2)
    except PositivityError:
        pass


def test_flux_tail_leaves_the_double_range_as_a_breakdown():
    # At R = 1e-300 the tail pi C_i / R^2 is past the double range.
    with pytest.raises(PositivityError, match="overflows"):
        flux_tail(sample_params(2, 0, 0.3), 1e-300)


def test_flux_tail_underflows_to_zero_at_the_largest_radius():
    # Taken in logs, the tail underflows to 0 instead of overflowing R^2.
    assert flux_tail(sample_params(2, 0, 0.3), 1e300) == [0.0, 0.0]


def test_outer_scale_follows_the_dilation_and_the_widest_root():
    # Radial: L is the length scale t.  Otherwise every root scale
    # |c_ij|^(1/(i-j)), like t, is proportional to the dilation.
    radial = sample_params(3, 0, 0.0, dilation=7.0)
    assert radial.outer_scale() == radial.length_scale()
    # Here t = 0.48, and |c_10| = 3.7 sets L.
    sp = sample_params(3, 1, 5.0)
    assert sp.outer_scale() == abs(sp.c(1, 0))
    assert sp.outer_scale() > 7 * sp.length_scale()
    wide = sample_params(3, 1, 5.0, dilation=100.0)
    assert wide.outer_scale() == pytest.approx(100 * sp.outer_scale(), rel=1e-12)


@pytest.mark.parametrize("n,seed", [(1, 3), (2, 0), (3, 2)])
def test_flux_hits_quantized_values(n, seed):
    sp = sample_params(n, seed, 0.3)
    fluxes = _flux(sp)
    assert len(fluxes) == n
    for i, flux in enumerate(fluxes, start=1):
        assert abs(flux / predicted_mass(n, i) - 1.0) < 0.01


def test_radial_sphere_mass_is_exact():
    # n = 1, no coefficients: e^{U_1} is the standard bubble, which the
    # sphere rule centred on its own scale integrates to rounding.
    (quad,) = mass_quadrature(sample_params(1, 0, 0.0))
    assert quad == pytest.approx(4.0 * math.pi, rel=1e-13)


@pytest.mark.parametrize("n", range(1, 6))
def test_sphere_mass_hits_quantized_values(n):
    # Measured: at most 1.1e-13 relative for these sets, and 1.0e-10 over
    # seeds 0..3 at the same dilations and magnitudes.
    for dilation in (1.0, 3.0, 10.0):
        for magnitude in (0.3, 0.8):
            quads = mass_quadrature(sample_params(n, n, magnitude, dilation=dilation))
            assert quads == pytest.approx([predicted_mass(n, i) for i in range(1, n + 1)],
                                          rel=1e-9)


def test_quadrature_agrees_with_flux():
    # The flux through the probe circle R = R_FAR L plus its closed-form
    # tail meets the sphere rule within 2.3e-15 here (3e-12 through |z| = 1e3).
    sp = sample_params(2, 1, 0.3)
    R = R_FAR * sp.outer_scale()
    pairs = zip(_flux(sp), flux_tail(sp, R=R), mass_quadrature(sp), strict=True)
    for flux, tail, quad in pairs:
        assert flux + tail == pytest.approx(quad, rel=1e-9)


@pytest.mark.parametrize("n,seed,magnitude", [(1, 0, 0.0), (2, 1, 0.3), (3, 0, 0.3)])
def test_closed_form_tail_is_outer_mass(n, seed, magnitude):
    # The flux through |z| = R is the exact mass inside it, so the mass
    # outside is the quantized total minus that flux.  The closed-form tail
    # matches it to O(R^-2) relative (at most 2.1e-4 at R = 200), and the
    # sphere rule minus the same flux matches it to 1.6e-10.
    sp = sample_params(n, seed, magnitude)
    R = 200.0
    pairs = zip(_flux_at(sp, R), flux_tail(sp, R=R), mass_quadrature(sp), strict=True)
    for i, (flux, tail, quad) in enumerate(pairs, start=1):
        outer = predicted_mass(n, i) - flux
        assert 0 < outer < 1e-3 * predicted_mass(n, i)
        assert tail == pytest.approx(outer, rel=1e-3)
        assert quad - flux == pytest.approx(outer, rel=1e-6)


def test_sum_rule():
    # sum_j a_ij * mass_j = 8 pi for every row i.
    sp = sample_params(3, 0, 0.3)
    masses = _flux(sp)
    a = cartan_dense(sp.n)
    for i in range(3):
        s = sum(a[i][j] * masses[j] for j in range(3))
        assert s == pytest.approx(8.0 * math.pi, rel=0.01)


def _envelope() -> list:
    """64 pinned sets: n in {1, 2, 3, 5}, magnitudes 0 to 5, dilations 0.01 to 100, seed 0."""
    return [(f"n{n}-m{m}-d{d}", sample_params(n, 0, m, dilation=d))
            for n, m, d in itertools.product((1, 2, 3, 5), (0, 0.3, 2, 5), (0.01, 1, 3, 100))]


def test_every_flux_and_sum_rule_verdict_passes_on_the_envelope():
    # The flux circle follows each solution's outer scale; at the absolute
    # R = 1e3, 90 of these 352 verdicts failed.  The routes verdicts are left
    # out: the sphere rule misses 1e-5 at n = 5 and magnitude >= 2 (README
    # lists the cells).
    cases = [c for c in SUITES["mass"](RunConfig(suites=["mass"]), _envelope())["mass"][0]
             if "-routes-" not in c.case_id]
    assert len(cases) == 352
    assert [c.case_id for c in cases if not c.passed] == []


def test_every_far_field_verdict_passes_on_the_envelope():
    # The far-field circle follows the outer scale like the flux circle; at
    # the absolute R = 1e6, 120 of these 1600 verdicts failed in 13 sets.
    cfg = RunConfig(suites=["asymptotics"])
    cases = SUITES["asymptotics"](cfg, _envelope())["asymptotics"][0]
    assert len(cases) == 1600
    assert [c.case_id for c in cases if not c.passed] == []
