"""Large-radius Fourier probes and plane integrals."""

import itertools
import math

import numpy as np
import pytest

from todalab import asymptotics, solution
from todalab.asymptotics import (
    SAMPLES,
    T_NODES,
    T_RADII,
    T_SAMPLES,
    _signature,
    circle,
    far_field_checks,
    fourier_coeffs,
    gauss_legendre,
    t_integral,
)
from todalab.mass import mass_flux, mass_quadrature
from todalab.solution import frequency_directions, log_det_k_tangent, sample_params
from todalab.suites import (
    CONSTANT_TERM_REL,
    FIRST_FREQUENCY_REL,
    KERNEL_SIGNATURE_REL,
    LEADING_COEFFICIENT_REL,
    RunConfig,
    build_param_sets,
    suite_asymptotics,
)


def test_fourier_coeffs_exact_on_trig_polynomial():
    def component(z):
        theta = np.angle(z)
        return 1.5 + 2.0 * np.cos(theta) - 0.5 * np.sin(theta) + 0.25 * np.sin(2 * theta)

    # a_k - i b_k for k = 1, 2.
    fc = fourier_coeffs(component(circle(10.0, SAMPLES)))
    assert fc.shape == (2,)
    assert fc[0] == pytest.approx(2.0 + 0.5j, abs=1e-12)
    assert fc[1] == pytest.approx(-0.25j, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_leading_coefficient_radial_case(n):
    sp = sample_params(n, 0, 0.0)
    checks = far_field_checks(sp)["leading"]
    assert len(checks) == n
    for ck in checks:
        assert ck.rel_error <= LEADING_COEFFICIENT_REL
        # The competing exponent 2m(n+2-m) misses by the factor r^{2m}.
        assert ck.notes["variant_rel_error"] > 0.99


def test_leading_coefficient_prediction_value():
    # n=1 radial: e^{-U^1} = f = lambda_0 + lambda_1 r^2, so
    # mean(f r^{-2}) -> lambda_1 directly.
    sp = sample_params(1, 0, 0.0)
    (ck,) = far_field_checks(sp)["leading"]
    assert ck.predicted == pytest.approx(sp.lambdas[1])


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 0), (3, 1)])
def test_first_frequency_both_projections(n, seed):
    sp = sample_params(n, seed, 0.4)
    checks = far_field_checks(sp)["freq1"]
    assert len(checks) == n
    for m, out in enumerate(checks, start=1):
        c = sp.c(n + 1 - m, n - m)  # alpha_m + i beta_m
        assert out["alpha"].predicted == pytest.approx(2.0 * m * c.real)
        assert out["beta"].predicted == pytest.approx(2.0 * m * c.imag)
        assert out["alpha"].rel_error <= FIRST_FREQUENCY_REL
        assert out["beta"].rel_error <= FIRST_FREQUENCY_REL


def test_second_frequency_prediction_table():
    # The closed form at f = 2 gives the table it replaced, -m(m-1) on the
    # diagonal and m(m+1) for component m along index m + 1, and at f = 1
    # gives 2m on the diagonal; component m along index j, up to n = 6.
    def old_table(m, j):
        return -m * (m - 1) if j == m else m * (m + 1) if j == m + 1 else 0

    for m in range(1, 7):
        for j in range(1, 7):
            assert _signature(1, j, m) == (2 * m if j == m else 0)
            if j >= 2:
                assert _signature(2, j, m) == old_table(m, j), (m, j)
    assert (_signature(2, 2, 2), _signature(2, 2, 1), _signature(2, 3, 2)) == (-2, 2, 6)
    assert _signature(2, 2, 3) == _signature(2, 3, 1) == 0


def test_kernel_signature_check_n2():
    sp = sample_params(2, 0, 0.3)
    checks = far_field_checks(sp)["freq2"]
    assert len(checks) == 2
    for m, per_which in enumerate(checks, start=1):
        assert list(per_which) == ["alpha2_2", "beta2_2"]
        for ck in per_which.values():
            assert ck.predicted == _signature(2, 2, m)
            assert ck.rel_error <= KERNEL_SIGNATURE_REL


def test_second_frequency_probes_have_nothing_to_check_at_n1():
    sp = sample_params(1, 0, 0.3)
    assert far_field_checks(sp)["freq2"] == [{}]
    assert t_integral(sp, ratio=1.5) == {}


def test_constant_term_probe_measures_sums_not_table():
    # The direct Cartan row sums predict the measured constant.
    sp = sample_params(2, 0, 0.2)
    checks = far_field_checks(sp)["const-term"]
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
        checks = far_field_checks(sp)
        freq1 = [ck for out in checks["freq1"] for ck in out.values()]
        freq2 = [ck for out in checks["freq2"] for ck in out.values()]
        assert max(ck.rel_error for ck in checks["leading"]) <= LEADING_COEFFICIENT_REL
        assert max(ck.rel_error for ck in freq1) <= FIRST_FREQUENCY_REL
        assert max((ck.rel_error for ck in freq2), default=0.0) <= KERNEL_SIGNATURE_REL
        assert max(ck.rel_error for ck in checks["const-term"]) <= CONSTANT_TERM_REL


def test_t_integral_converges_n2():
    sp = sample_params(2, 0, 0.3)
    results = t_integral(sp, ratio=1.5)
    assert list(results) == ["alpha2_2", "beta2_2"]
    for res in results.values():
        assert res.converged
        assert len(res.partials) == 4
        assert math.isfinite(res.value)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_radial_t_integrals_settle_at_rounding_level(n):
    # On a radial set every partial is 0 by symmetry, so its differences are
    # rounding noise that no ratio orders; they sit at most 0.05 of the floor
    # eps * (the rule on the circle mean of |field|), so they count as settled.
    for seed in range(2):
        for which, res in t_integral(sample_params(n, seed, 0.0), ratio=1.5).items():
            assert res.converged, (seed, which)


@pytest.mark.parametrize("magnitude", [0.0, 0.3])
def test_t_integral_that_does_not_settle_fails(monkeypatch, magnitude):
    # A field 1e-9 off its true value at every point adds 1e-9 pi R^2 to the
    # partials, so their differences grow with R, far above the floor.
    original = asymptotics.log_det_k_tangent

    def patched(*args, **kwargs):
        upper, tangents = original(*args, **kwargs)
        return upper, tangents + 1e-9

    monkeypatch.setattr(asymptotics, "log_det_k_tangent", patched)
    results = t_integral(sample_params(3, 0, magnitude), ratio=1.5)
    assert len(results) == 4
    assert not any(res.converged for res in results.values())


@pytest.mark.parametrize("n", [2, 3])
def test_t_integral_radii_follow_the_length_scale(n):
    # Dilating the bubble by D rescales the plane and the frequency-2
    # coefficients alike, so partials taken at D times the radii agree.
    base = t_integral(sample_params(n, 1, 0.3, dilation=1.0), ratio=1.5)
    wide = sample_params(n, 1, 0.3, dilation=100.0)
    for which, res in t_integral(wide, ratio=1.5).items():
        assert res.converged
        radii = [R for R, _ in res.partials]
        assert radii == pytest.approx([wide.length_scale() * R for R in T_RADII], rel=1e-15)
        for (_, a), (_, b) in zip(base[which].partials, res.partials):
            assert abs(a - b) <= 1e-12, which


def test_gauss_legendre_rule_is_leggauss_bit_for_bit():
    for m in range(1, 101):
        x, w = gauss_legendre(m)
        ref_x, ref_w = np.polynomial.legendre.leggauss(m)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes(), m
    # Built once per node count and shared, so no caller may write into it.
    assert gauss_legendre(T_NODES) is gauss_legendre(T_NODES)
    with pytest.raises(ValueError, match="read-only"):
        gauss_legendre(T_NODES)[1][0] = 0.0


def per_panel_partials(sp):
    """{which: (partials, rounding floor)} from one kernel call per l and radial panel.

    The partials are summed panel by panel; the floor is eps times the same
    rule applied to the circle mean of |field|.
    """
    pairs = frequency_directions(sp.n, 2)
    radii = [sp.length_scale() * R for R in T_RADII]
    bounds = [0.0] + [radii[0] / 2**k for k in range(5, -1, -1)] + radii[1:]
    x_gl, w_gl = np.polynomial.legendre.leggauss(T_NODES)
    totals, total, size = [], 0.0, 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        r_nodes = mid + half * x_gl
        z = circle(r_nodes, T_SAMPLES)
        fields = np.concatenate([log_det_k_tangent(sp, pair, z, k=l - 1)[1]
                                 for l, pair in pairs.items()])
        g = np.mean(fields, axis=-1)
        total = total + np.sum(w_gl * 2.0 * np.pi * r_nodes * g, axis=-1) * half
        totals.append(total)
        g = np.mean(np.abs(fields), axis=-1)
        size = size + np.sum(w_gl * 2.0 * np.pi * r_nodes * g, axis=-1) * half
    directions = [which for pair in pairs.values() for which in pair]
    return {which: (tuple(zip(radii, (float(t[index]) for t in totals[-len(radii):]))),
                    np.finfo(float).eps * size[index])
            for index, which in enumerate(directions)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_t_integral_runs_of_panels_match_one_call_per_panel_bit_for_bit(n):
    # Three panels share one kernel call: its one scale 2^e is exact in every
    # Horner step, so values, partials and verdicts equal the per-panel loop's.
    def bits(partials):
        return [(R.hex(), v.hex()) for R, v in partials]

    sets = [(2.0, 100.0)] if n == 7 else itertools.product((0.0, 0.3, 5.0), (0.01, 1.0, 100.0))
    for magnitude, dilation in sets:
        sp = sample_params(n, 1, magnitude, dilation=dilation)
        expected = per_panel_partials(sp)
        results = t_integral(sp, ratio=1.5)
        assert list(results) == list(expected)
        for which, res in results.items():
            partials, floor = expected[which]
            values = [v for _, v in partials]
            diffs = [abs(b - a) for a, b in zip(values[:-1], values[1:])]
            assert bits(res.partials) == bits(partials), (magnitude, dilation, which)
            assert res.value.hex() == values[-1].hex()
            assert res.converged == all(d2 <= floor or d2 * 1.5 <= d1
                                        for d1, d2 in zip(diffs, diffs[1:]))


def test_probes_evaluate_base_solution_once_per_circle_or_panel(monkeypatch):
    # Every evaluation goes through the det_k kernel, which returns all k
    # and every tangent direction in one call, however many components and
    # directions a probe checks.  The T-integral takes one call per l and
    # run of three radial panels, on row l - 1 alone, with its two directions.
    calls = []
    original = solution._log_dets

    def counted(sp, ks, z, directions=(), **kwargs):
        calls.append((tuple(ks), tuple(directions)))
        return original(sp, ks, z, directions, **kwargs)

    monkeypatch.setattr(solution, "_log_dets", counted)
    n = 3
    sp = sample_params(n, 0, 0.3)
    rows = (1, 2, 3)
    second = ("alpha2_2", "beta2_2", "alpha2_3", "beta2_3")
    cfg = RunConfig(n=n, count=2)
    for probe, expected in (
        (lambda: far_field_checks(sp), [(rows, second)]),
        # One call per parameter set: the suite at count 2 makes two.
        (lambda: suite_asymptotics(cfg, build_param_sets(cfg)), [(rows, second)] * 2),
        (lambda: mass_flux(sp, R=1e3), [(rows, ("radial",))]),
        (lambda: mass_quadrature(sp), [(rows, ())]),  # every sphere node at once
        (lambda: t_integral(sp, ratio=1.5),  # 9 radial panels in 3 runs
         [((1,), second[:2]), ((2,), second[2:])] * 3),
    ):
        calls.clear()
        probe()
        assert calls == expected

