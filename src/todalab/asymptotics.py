"""Large-radius Fourier probes of the solution components.

At radius r the upper components and their parameter derivatives have
low-frequency angular expansions with coefficients determined by the
classification parameters.  This module extracts frequency-0/1/2
coefficients on one circle (uniform trapezoid DFT, spectrally accurate
for smooth periodic data) at a radius R_FAR large enough that the
O(r^-2) truncation error sits near rounding, and compares them with the
predicted values.

Also here: the conditionally convergent plane integrals of the
second-frequency derivative fields, computed angular-first so that the
leading cos/sin(2 theta) term drops out on every circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solution import SolutionParams, log_det_k_tangent, lower_components, upper_components

__all__ = [
    "FourierCoeffs",
    "ExpansionCheck",
    "TIntegralResult",
    "circle",
    "polar_panels",
    "fourier_coeffs",
    "leading_coefficient_check",
    "first_frequency_check",
    "kernel_signature_check",
    "constant_term_probe",
    "t_integral",
    "constant_term_prediction",
]

# Radius of the one circle that measures the expansion coefficients (their
# truncation error is O(r^-2); beyond it rounding grows, 9e-7 for freq1 at
# 1e8), and samples per circle shared by the large-radius probes.
R_FAR = 1e6
SAMPLES = 256
# Pinned tolerance of the constant term of U_i + 4 log r at R_FAR.
CONSTANT_TERM_REL = 1e-7
# Frequencies extracted by fourier_coeffs: 0, 1 and 2.
MAX_FREQUENCY = 2
# t_integral: partial-integral radii, samples per circle, nodes per radial panel.
T_RADII = (50.0, 100.0, 200.0, 400.0)
T_SAMPLES = 128
T_NODES = 16


@dataclass(frozen=True)
class FourierCoeffs:
    """Low-frequency coefficients: field = a0 + sum_k a_k cos k0 + b_k sin k0."""

    a0: np.ndarray
    a_cos: tuple[np.ndarray, ...]  # a_1, a_2, ...
    b_sin: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ExpansionCheck:
    r: float
    measured: float
    predicted: float
    rel_error: float
    notes: dict


def circle(r, M: int) -> np.ndarray:
    """M equispaced points on the circle of radius r, starting on the real axis.

    For an array of radii the result has one row of M points per radius.
    """
    theta = 2.0 * np.pi * np.arange(M) / M
    return np.multiply.outer(r, np.exp(1j * theta))


def polar_panels(ring_mean, bounds, nodes_per_panel: int) -> list:
    """Running totals of int 2 pi r g(r) dr over the panels between `bounds`.

    `ring_mean` maps an array of radii to the angular means g(r), or to a
    stack of rows of them (..., radii); each panel uses Gauss-Legendre
    nodes, and one total (of the stack's leading shape) is returned per panel.
    """
    x_gl, w_gl = np.polynomial.legendre.leggauss(nodes_per_panel)
    totals = []
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        r_nodes = mid + half * x_gl
        g = ring_mean(r_nodes)
        total = total + np.sum(w_gl * 2.0 * np.pi * r_nodes * g, axis=-1) * half
        totals.append(total)
    return totals


def fourier_coeffs(component, r: float) -> FourierCoeffs:
    """Trapezoid DFT of a real field on SAMPLES points of the circle of radius r.

    `component` maps an array of SAMPLES complex points to SAMPLES real
    values, or to a stack of rows of them (..., SAMPLES); every coefficient
    then has the stack's leading shape.
    """
    vals = np.asarray(component(circle(r, SAMPLES)), dtype=float)
    spec = np.fft.rfft(vals)
    a0 = spec[..., 0].real / SAMPLES
    a_cos = tuple(2.0 * spec[..., k].real / SAMPLES for k in range(1, MAX_FREQUENCY + 1))
    b_sin = tuple(-2.0 * spec[..., k].imag / SAMPLES for k in range(1, MAX_FREQUENCY + 1))
    return FourierCoeffs(a0=a0, a_cos=a_cos, b_sin=b_sin)


def _check(r, measured, predicted, denom, **notes) -> ExpansionCheck:
    """A value measured at radius r against `predicted`, its error scaled by `denom`."""
    measured, predicted = float(measured), float(predicted)
    return ExpansionCheck(float(r), measured, predicted,
                          abs(measured - predicted) / float(denom), notes)


def _second_frequency_directions(n: int) -> list:
    """[(kind, l, "kind_l")] for kind alpha2, beta2 and l = 2..n."""
    return [(kind, l, f"{kind}_{l}") for kind in ("alpha2", "beta2") for l in range(2, n + 1)]


def leading_coefficient_check(sp: SolutionParams, r: float) -> list:
    """Angular mean of e^{-U^m} r^{-2m(n+1-m)} against its predicted constant.

    Returns one check per m = 1..n from one evaluation on the circle.  The
    notes record the same mean taken with the exponent variant
    2m(n+2-m), which is off by the factor r^{2m} and serves to
    discriminate the two exponents empirically.
    """
    n = sp.n
    checks = []
    for m, u_m in enumerate(upper_components(sp, circle(r, SAMPLES)), start=1):
        power = 2 * m * (n + 1 - m)
        log_vals = -u_m - power * math.log(r)
        measured = float(np.mean(np.exp(log_vals)))
        fact = math.prod(math.factorial(j) for j in range(m))
        predicted = (
            2.0 ** (m * (m - 1)) * math.prod(sp.lambdas[n + 1 - m : n + 1]) * fact**2
        )
        alt_power = 2 * m * (n + 2 - m)
        measured_alt = float(np.mean(np.exp(log_vals - (alt_power - power) * math.log(r))))
        checks.append(_check(
            r, measured, predicted, predicted,
            exponent=power,
            exponent_variant=alt_power,
            variant_mean=measured_alt,
            variant_rel_error=abs(measured_alt / predicted - 1.0),
        ))
    return checks


def first_frequency_check(sp: SolutionParams) -> list:
    """r * (frequency-1 coefficients of -U^m) at R_FAR against 2m alpha_m, 2m beta_m.

    Returns {"alpha": check, "beta": check} for each m = 1..n from one
    evaluation on the circle.
    """
    fc = fourier_coeffs(lambda z: -upper_components(sp, z), R_FAR)
    out = []
    for m in range(1, sp.n + 1):
        c = sp.first_frequency_coeff(m)
        out.append({
            key: _check(R_FAR, coeff[m - 1] * R_FAR, pred, abs(pred) or 1.0)
            for key, coeff, pred in (
                ("alpha", fc.a_cos[0], 2.0 * m * c.real),
                ("beta", fc.b_sin[0], 2.0 * m * c.imag),
            )
        })
    return out


def second_frequency_prediction(m: int, j: int) -> float:
    """Freq-2 signature of -dU^m/d alpha_{j,2} (times r^2)."""
    if j == m:
        return -float(m * (m - 1))
    if j == m + 1:
        return float(m * (m + 1))
    return 0.0


def kernel_signature_check(sp: SolutionParams) -> dict:
    """r^2 * (freq-2 coefficient of -dU^m/d(which)) against the delta rules.

    Returns {which: (check for m = 1..n)} over the second-frequency
    directions alpha2_j, beta2_j; each circle evaluates the base solution
    once for every direction.
    """
    directions = _second_frequency_directions(sp.n)
    if not directions:
        return {}

    def tangents(z):
        base = upper_components(sp, z)
        return np.stack([log_det_k_tangent(sp, which, z, base) for *_, which in directions])

    fc = fourier_coeffs(tangents, R_FAR)
    out = {}
    for index, (kind, j, which) in enumerate(directions):
        coeff = (fc.a_cos[1] if kind == "alpha2" else fc.b_sin[1])[index]
        checks = []
        for m in range(1, sp.n + 1):
            pred = second_frequency_prediction(m, j)
            denom = abs(pred) or float(m * (m + 1))  # m(m+1): off-diagonal reference
            checks.append(
                _check(R_FAR, coeff[m - 1] * R_FAR**2, pred, denom, m=m, j=j, kind=kind)
            )
        out[which] = tuple(checks)
    return out


# -- constant term of U_i --------------------------------------------------


def constant_term_prediction(sp: SolutionParams, i: int) -> float:
    """Limit of U_i + 4 log r from row i of the Cartan matrix:

    -sum_j a_ij (j(j-1) log 2 + sum_{l<=j} (log lambda_{n+1-l} + 2 log (l-1)!)).
    """
    n = sp.n
    row = sp.cartan().a_float()[i - 1]
    return -float(sum(
        a_ij * (j * (j - 1) * math.log(2.0)
                + sum(math.log(sp.lambdas[n + 1 - l]) + 2.0 * math.lgamma(l)
                      for l in range(1, j + 1)))
        for j, a_ij in enumerate(row, start=1)
    ))


def constant_term_probe(sp: SolutionParams) -> list:
    """Circle mean of U_i + 4 log r at R_FAR against constant_term_prediction.

    Returns one check per i = 1..n from one evaluation on the circle.  The
    frequency-1 terms average out, so the mean is off by O(R_FAR^-2).
    """
    means = np.mean(lower_components(sp, circle(R_FAR, SAMPLES)), axis=1)
    preds = [constant_term_prediction(sp, i) for i in range(1, sp.n + 1)]
    return [_check(R_FAR, mean + 4.0 * math.log(R_FAR), pred, max(abs(pred), 1.0))
            for mean, pred in zip(means, preds)]


# -- plane integrals of second-frequency derivative fields -----------------


@dataclass(frozen=True)
class TIntegralResult:
    value: float
    partials: tuple[tuple[float, float], ...]  # (R, integral over B_R)
    diffs: tuple[float, ...]
    converged: bool


def t_integral(sp: SolutionParams, ratio: float) -> dict:
    """Integrals over the plane of -dU^{l-1}/d(which), which = alpha2_l, beta2_l.

    Returns {which: TIntegralResult} for l = 2..n; each radial panel
    evaluates the base solution once for every direction.  Integration is
    angular-first: the frequency-2 leading term has zero mean on every
    circle, so the radial integrand decays fast enough for the partial
    integrals over B_R to form a Cauchy sequence.  A result converges when
    each successive difference is at most 1/ratio of the one before.
    """
    directions = _second_frequency_directions(sp.n)
    if not directions:
        return {}

    def ring_mean(r_nodes: np.ndarray) -> np.ndarray:
        z = circle(r_nodes, T_SAMPLES)
        base = upper_components(sp, z)
        return np.stack([
            np.mean(log_det_k_tangent(sp, which, z, base, k=l - 1), axis=1)
            for _, l, which in directions
        ])

    # Panel boundaries refine geometrically inward from the smallest radius,
    # so the last len(T_RADII) panels end exactly on T_RADII.
    inner = T_RADII[0]
    bounds = [0.0] + [inner / 2**k for k in range(5, -1, -1)] + list(T_RADII[1:])
    totals = polar_panels(ring_mean, bounds, T_NODES)[-len(T_RADII):]
    out = {}
    for index, (*_, which) in enumerate(directions):
        values = [float(total[index]) for total in totals]
        diffs = tuple(abs(b - a) for a, b in zip(values[:-1], values[1:]))
        out[which] = TIntegralResult(
            value=values[-1],
            partials=tuple(zip(T_RADII, values)),
            diffs=diffs,
            converged=all(d2 * ratio <= d1 for d1, d2 in zip(diffs[:-1], diffs[1:])),
        )
    return out
