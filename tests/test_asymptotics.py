"""Large-radius Fourier probes and plane integrals."""

import cmath
import itertools
import math

import numpy as np
import pytest

from todalab import asymptotics, solution
from todalab.asymptotics import (
    SAMPLES,
    SPHERE_NODES,
    _signature,
    circle,
    far_field_checks,
    fourier_coeffs,
    gauss_legendre,
    sphere_rule,
    t_integral,
)
from todalab.mass import mass_quadrature
from todalab.cpoly import ComplexPoly
from todalab.solution import SolutionParams, frequency_directions, sample_params
from todalab.suites import (
    CONSTANT_TERM_REL,
    FIRST_FREQUENCY_REL,
    KERNEL_SIGNATURE_REL,
    LEADING_COEFFICIENT_REL,
    T_INTEGRAL_REL,
    RunConfig,
    SUITES,
    build_param_sets,
    run_suites,
)


def _second(n):
    """The frequency-2 directions, in the order the asymptotics suite gives them."""
    return [which for pair in frequency_directions(n, 2).values() for which in pair]


def test_fourier_coeffs_exact_on_trig_polynomial():
    def component(rings):
        theta = rings.angles
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
    for m, ck in enumerate(checks, start=1):
        assert ck.rel_error <= LEADING_COEFFICIENT_REL
        # The competing exponent 2m(n+2-m) misses by the factor r^{2m}: its circle
        # mean is the measured one times r^{-2m}.
        assert abs(ck.measured * ck.r ** (-2 * m) / ck.predicted - 1.0) > 0.99


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


def _one_part(sp, keep):
    """sp with every coefficient c_ij replaced by keep(c_ij)."""
    polys = tuple(ComplexPoly(tuple(keep(c) for c in p.coeffs[:-1]) + (1 + 0j,))
                  for p in sp.polys)
    return SolutionParams(n=sp.n, lambdas=sp.lambdas, polys=polys)


@pytest.mark.parametrize("part,zero", [("real", "beta"), ("imag", "alpha")])
def test_first_frequency_predicted_zero_is_measured_against_the_coefficient_scale(part, zero):
    # Purely real (imaginary) coefficients predict a freq1 beta (alpha) of
    # exactly 0.  The measured value is r times a coefficient read at
    # R = R_FAR L, so its rounding grows with L; its error is taken against
    # |_signature(1, m, m)| L = 2 m L.  Against 1.0, rounding of 1e-7 or more
    # failed some of these sets at dilation 100 and the radial n = 7 set.
    keep = {"real": lambda c: complex(c.real, 0.0), "imag": lambda c: complex(0.0, c.imag)}[part]
    sets = [_one_part(sample_params(n, seed, magnitude, dilation=100.0), keep)
            for n, seed, magnitude in ((2, 0, 5.0), (3, 2, 5.0), (3, 3, 5.0), (5, 0, 0.3))]
    sets.append(sample_params(7, 0, 0.0, dilation=100.0))
    for sp in sets:
        for m, out in enumerate(far_field_checks(sp)["freq1"], start=1):
            ck = out[zero]
            assert ck.predicted == 0.0
            assert ck.rel_error == abs(ck.measured) / (2 * m * sp.outer_scale())
            assert max(ck.rel_error for ck in out.values()) <= FIRST_FREQUENCY_REL, (sp.n, m)


def test_every_check_is_read_at_R_FAR_times_the_outer_scale():
    # One radius rule for every circle probe: the checks of a set record
    # its R = R_FAR L, which the probe also returns with the flux, and a
    # bubble dilated 1e4-fold moves the circle with it.
    for dilation in (0.01, 100.0):
        sp = sample_params(3, 1, 2.0, dilation=dilation)
        checks = far_field_checks(sp, _second(3) + ["radial"])
        flat = checks["leading"] + checks["const-term"] + [
            ck for key in ("freq1", "freq2") for out in checks[key] for ck in out.values()]
        assert len(flat) == 3 + 3 + 6 + 12
        assert {ck.r for ck in flat} == {checks["R"]} == {asymptotics.R_FAR * sp.outer_scale()}
        assert len(checks["flux"]) == 3


@pytest.mark.parametrize("r", [math.inf, math.nan, np.array([1.0, math.inf])])
def test_circle_past_the_double_range_is_a_breakdown(r):
    with pytest.raises(solution.PositivityError, match="past the double range"):
        circle(r, 8)


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
    checks = far_field_checks(sp, _second(2))["freq2"]
    assert len(checks) == 2
    for m, per_which in enumerate(checks, start=1):
        assert list(per_which) == ["alpha2_2", "beta2_2"]
        for ck in per_which.values():
            assert ck.predicted == _signature(2, 2, m)
            assert ck.rel_error <= KERNEL_SIGNATURE_REL


def test_second_frequency_probes_have_nothing_to_check_at_n1():
    sp = sample_params(1, 0, 0.3)
    assert _second(1) == []
    assert far_field_checks(sp, _second(1) + ["radial"])["freq2"] == [{}]
    assert t_integral(sp) == {}


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
    # One circle at R_FAR L leaves an O(R_FAR^-2) truncation error; the
    # C/r extrapolation this replaced was off by 1e-3 to 1e-2.
    for seed in range(4):
        sp = sample_params(n, seed, 0.3, dilation=3.0)
        checks = far_field_checks(sp, _second(n))
        freq1 = [ck for out in checks["freq1"] for ck in out.values()]
        freq2 = [ck for out in checks["freq2"] for ck in out.values()]
        assert max(ck.rel_error for ck in checks["leading"]) <= LEADING_COEFFICIENT_REL
        assert max(ck.rel_error for ck in freq1) <= FIRST_FREQUENCY_REL
        assert max((ck.rel_error for ck in freq2), default=0.0) <= KERNEL_SIGNATURE_REL
        assert max(ck.rel_error for ck in checks["const-term"]) <= CONSTANT_TERM_REL


def agree(res) -> bool:
    """Contract 9: the two sphere rules agree within T_INTEGRAL_REL of a positive scale."""
    return 0 < res.scale and abs(res.value - res.coarse) <= T_INTEGRAL_REL * res.scale


def test_t_integral_converges_n2():
    sp = sample_params(2, 0, 0.3)
    results = t_integral(sp)
    assert list(results) == ["alpha2_2", "beta2_2"]
    for res in results.values():
        assert agree(res)
        assert math.isfinite(res.value)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_radial_t_integrals_settle_at_rounding_level(n):
    # On a radial set every ring mean is 0 by symmetry, so both rules give 0
    # to rounding, far inside the contract's 1e-12 of the rule on |field|.
    for seed in range(2):
        for which, res in t_integral(sample_params(n, seed, 0.0)).items():
            assert agree(res), (seed, which)
            assert max(abs(res.value), abs(res.coarse)) <= 1e-15 * res.scale, (seed, which)


@pytest.mark.parametrize("magnitude", [0.0, 0.3])
def test_t_integral_that_does_not_settle_fails(monkeypatch, magnitude):
    # A field 1e-9 off its true value at every point has no plane integral:
    # the two rules weigh the far rings differently, far above 1e-12.
    original = asymptotics.log_det_k_tangent

    def patched(*args, **kwargs):
        upper, tangents = original(*args, **kwargs)
        return upper, tangents + 1e-9

    monkeypatch.setattr(asymptotics, "log_det_k_tangent", patched)
    results = t_integral(sample_params(3, 0, magnitude))
    assert len(results) == 4
    assert not any(agree(res) for res in results.values())


@pytest.mark.parametrize("n", [2, 3])
def test_t_integral_radii_follow_the_length_scale(n):
    # Dilating the bubble by D rescales the plane and the frequency-2
    # coefficients alike, and the sphere rule is centred on t, which becomes
    # D t, so the values agree.
    base = t_integral(sample_params(n, 1, 0.3, dilation=1.0))
    for which, res in t_integral(sample_params(n, 1, 0.3, dilation=100.0)).items():
        assert agree(res)
        assert abs(res.value - base[which].value) <= 1e-12, which


def rotated(sp: SolutionParams, theta: float) -> SolutionParams:
    """The solution turned by z -> e^{i theta} z: c_ij times e^{i (j - i) theta}."""
    polys = tuple(ComplexPoly(tuple(c * cmath.exp(1j * (j - i) * theta)
                                    for j, c in enumerate(p.coeffs)))
                  for i, p in enumerate(sp.polys, start=1))
    return SolutionParams(sp.n, sp.lambdas, polys)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_t_integral_turns_with_a_rotated_plane(n):
    # Turning the plane by theta multiplies each coefficient of frequency 2 by
    # e^{-2 i theta}, so T_alpha + i T_beta turns by the same factor.
    theta = 0.7
    sp = sample_params(n, 1, 0.3)
    base, turned = t_integral(sp), t_integral(rotated(sp, theta))
    for alpha, beta in frequency_directions(n, 2).values():
        expected = complex(base[alpha].value, base[beta].value) * cmath.exp(-2j * theta)
        measured = complex(turned[alpha].value, turned[beta].value)
        scale = max(res.scale for res in (base[alpha], base[beta], turned[alpha], turned[beta]))
        assert abs(measured - expected) <= 1e-14 * scale, alpha


@pytest.mark.parametrize("t", [1.0, 0.5, 7.0])
def test_sphere_rule_integrates_the_round_metric(t):
    # int dA / (1 + |z|^2)^2 = pi.  At t = 1 the integrand times the area is
    # 1/4; off centre the ring means are smooth in cos(theta), and 64 nodes
    # meet pi within 3.1e-14 at t = 7.
    rings, log_area, w = sphere_rule(t, SPHERE_NODES, 8)
    assert rings.shape == (SPHERE_NODES, 8) and log_area.shape == (SPHERE_NODES, 1)
    assert np.array_equal(rings.angles, 2.0 * np.pi * np.arange(8) / 8)
    integrand = np.exp(log_area) / (1.0 + rings.radii[:, None] ** 2) ** 2
    value = 2.0 * np.pi * (np.mean(np.broadcast_to(integrand, rings.shape), axis=-1) @ w)
    assert value == pytest.approx(math.pi, rel=1e-13)


def test_gauss_legendre_rule_is_leggauss_bit_for_bit():
    for m in range(1, 101):
        x, w = gauss_legendre(m)
        ref_x, ref_w = np.polynomial.legendre.leggauss(m)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes(), m
    # Built once per node count and shared, so no caller may write into it.
    assert gauss_legendre(SPHERE_NODES) is gauss_legendre(SPHERE_NODES)
    with pytest.raises(ValueError, match="read-only"):
        gauss_legendre(SPHERE_NODES)[1][0] = 0.0


def test_probes_evaluate_base_solution_once_per_circle_or_panel(monkeypatch):
    # Every evaluation goes through the det_k kernel, which returns all k
    # and every tangent direction in one call, however many components and
    # directions a probe checks.  Alone, the mass suite's far-field call
    # carries "radial" only.  The T-integral takes one call per l and
    # sphere rule, on row l - 1 alone, with its two directions.
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

    def alone(name):
        cfg = RunConfig(suites=[name], n=n, count=2)
        return lambda: SUITES[name](cfg, build_param_sets(cfg))

    for probe, expected in (
        (lambda: far_field_checks(sp, second), [(rows, second)]),
        # One call per parameter set: the suite at count 2 makes two.
        (alone("asymptotics"), [(rows, second)] * 2),
        (lambda: far_field_checks(sp, ("radial",)), [(rows, ("radial",))]),
        # Per set, the mass suite's far-field call, then its sphere rule.
        (alone("mass"), [(rows, ("radial",)), (rows, ())] * 2),
        (lambda: mass_quadrature(sp), [(rows, ())]),  # every sphere node at once
        (lambda: t_integral(sp),  # 2N, then N sphere nodes
         [((1,), second[:2]), ((2,), second[2:])] * 2),
    ):
        calls.clear()
        probe()
        assert calls == expected



@pytest.mark.parametrize("order", [["asymptotics", "mass"], ["mass", "asymptotics"],
                                   ["asymptotics", "mass", "t-integrals"],
                                   ["t-integrals", "mass", "asymptotics"]])
def test_probe_suites_share_one_far_field_call_per_parameter_set(monkeypatch, order):
    # Selected together, asymptotics and mass read one far-field call per
    # parameter set, in either order: one kernel call on circle(R, SAMPLES)
    # per set, carrying the frequency-2 directions plus "radial"; the mass
    # suite's sphere rule adds one call per set with no direction, and the
    # t-integrals two per l and set.  Every call on a set comes before the
    # next set's.  The cases and detail rows are those of each suite run alone.
    def config(suites):
        return RunConfig(suites=suites, n=3, count=2)

    alone = {name: run_suites(config([name])) for name in order}
    calls = []
    original = solution._log_dets

    def counted(sp, ks, z, directions=(), **kwargs):
        calls.append((sp, np.shape(z), tuple(directions)))
        return original(sp, ks, z, directions, **kwargs)

    monkeypatch.setattr(solution, "_log_dets", counted)
    cases, details, seconds = run_suites(config(order))
    second = tuple(_second(3))
    probes = [(sp, directions) for sp, shape, directions in calls if shape == (SAMPLES,)]
    assert [directions for _, directions in probes] == [(*second, "radial")] * 2
    assert [sp for sp, _ in itertools.groupby(sp for sp, *_ in calls)] == [sp for sp, _ in probes]
    per_set = [()] + ([second[:2], second[2:]] * 2 if "t-integrals" in order else [])
    assert [directions for _, shape, directions in calls if shape != (SAMPLES,)] == per_set * 2
    assert cases == [case for name in order for case in alone[name][0]]
    assert details == {name: alone[name][1][name] for name in order}
    assert list(seconds) == order


def test_plane_suites_build_each_sets_minor_tables_once(monkeypatch):
    # The plane suites end one parameter set before they start the next, so
    # each set's minor tables are built once for all three, and the memo then
    # holds only the last set's.  pde and mass build each set's twice: once
    # for the grid walk and once for the plane pass.
    builds = []
    original = solution._wronskian_minors

    def counted(sp):
        builds.append(sp)
        return original(sp)

    monkeypatch.setattr(solution, "_wronskian_minors", counted)
    monkeypatch.setattr(solution, "_memo", {})
    cfg = RunConfig(suites=["asymptotics", "mass", "t-integrals"], n=2, count=3)
    run_suites(cfg)
    param_sets = [sp for _, sp in build_param_sets(cfg)]
    assert builds == param_sets
    assert list(solution._memo) == param_sets[-1:]
    builds.clear()
    cfg = RunConfig(suites=["pde", "mass"], n=2, count=2)
    run_suites(cfg)
    assert builds == [sp for _, sp in build_param_sets(cfg)] * 2
