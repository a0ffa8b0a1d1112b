"""Large-radius Fourier probes of the solution components.

At radius r the upper components and their parameter derivatives have
low-frequency angular expansions with coefficients determined by the
classification parameters.  This module extracts frequency-0/1/2
coefficients on circles (uniform trapezoid DFT, spectrally accurate for
smooth periodic data), Richardson-extrapolates radius pairs against the
known O(1/r) error model, and compares with the predicted values.

Also here: the conditionally convergent plane integrals of the
second-frequency derivative fields, computed angular-first so that the
leading cos/sin(2 theta) term drops out on every circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .residual import param_derivative_field
from .solution import SolutionParams, lower_components, parse_direction, upper_components

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

# Radius pair and samples per circle shared by the large-radius probes.
R_PAIR = (200.0, 400.0)
SAMPLES = 256
# Frequencies extracted by fourier_coeffs: 0, 1 and 2.
MAX_FREQUENCY = 2
# t_integral: partial-integral radii, samples per circle, nodes per radial panel.
T_RADII = (50.0, 100.0, 200.0, 400.0)
T_SAMPLES = 128
T_NODES = 16


@dataclass(frozen=True)
class FourierCoeffs:
    """Low-frequency coefficients: field = a0 + sum_k a_k cos k0 + b_k sin k0."""

    r: float
    samples: int
    a0: float
    a_cos: tuple[float, ...]  # a_1, a_2, ...
    b_sin: tuple[float, ...]


@dataclass(frozen=True)
class ExpansionCheck:
    measured: tuple[float, ...]  # one value per radius
    radii: tuple[float, ...]
    richardson: float
    predicted: float
    rel_error: float
    notes: dict = field(default_factory=dict)


def circle(r, M: int) -> np.ndarray:
    """M equispaced points on the circle of radius r, starting on the real axis.

    For an array of radii the result has one row of M points per radius.
    """
    theta = 2.0 * np.pi * np.arange(M) / M
    return np.multiply.outer(r, np.exp(1j * theta))


def polar_panels(ring_mean, bounds, nodes_per_panel: int) -> list:
    """Running totals of int 2 pi r g(r) dr over the panels between `bounds`.

    `ring_mean` maps an array of radii to the angular means g(r); each
    panel uses Gauss-Legendre nodes, and one total is returned per panel.
    """
    x_gl, w_gl = np.polynomial.legendre.leggauss(nodes_per_panel)
    totals = []
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        r_nodes = mid + half * x_gl
        g = ring_mean(r_nodes)
        total += float(np.sum(w_gl * 2.0 * np.pi * r_nodes * g) * half)
        totals.append(total)
    return totals


def fourier_coeffs(component, r: float, M: int = SAMPLES) -> FourierCoeffs:
    """Trapezoid DFT of a real field component on the circle of radius r.

    `component` maps an array of complex points to real values.
    """
    if M < 8 * MAX_FREQUENCY:
        raise ValueError("need at least 8 samples per extracted frequency")
    vals = np.asarray(component(circle(r, M)), dtype=float)
    spec = np.fft.rfft(vals)
    a0 = float(spec[0].real) / M
    a_cos = tuple(2.0 * float(spec[k].real) / M for k in range(1, MAX_FREQUENCY + 1))
    b_sin = tuple(-2.0 * float(spec[k].imag) / M for k in range(1, MAX_FREQUENCY + 1))
    return FourierCoeffs(r=r, samples=M, a0=a0, a_cos=a_cos, b_sin=b_sin)


def _richardson(radii, values) -> float:
    """Limit of v(r) = v_inf + C/r from the two largest radii."""
    (r1, v1), (r2, v2) = sorted(zip(radii, values))[-2:]
    return (r2 * v2 - r1 * v1) / (r2 - r1)


def _upper_component(sp: SolutionParams, m: int):
    if not 1 <= m <= sp.n:
        raise IndexError(f"m={m} out of range 1..{sp.n}")
    return lambda z: upper_components(sp, z)[m - 1]


def leading_coefficient_check(sp: SolutionParams, m: int, r: float) -> ExpansionCheck:
    """Angular mean of e^{-U^m} r^{-2m(n+1-m)} against its predicted constant.

    The notes record the same mean taken with the exponent variant
    2m(n+2-m), which is off by the factor r^{2m} and serves to
    discriminate the two exponents empirically.
    """
    n = sp.n
    if not 1 <= m <= n:
        raise IndexError(f"m={m} out of range 1..{n}")
    power = 2 * m * (n + 1 - m)
    log_vals = -upper_components(sp, circle(r, SAMPLES))[m - 1] - power * math.log(r)
    measured = float(np.mean(np.exp(log_vals)))
    fact = 1.0
    for j in range(m):
        fact *= math.factorial(j)
    predicted = (
        2.0 ** (m * (m - 1)) * math.prod(sp.lambdas[n + 1 - m : n + 1]) * fact**2
    )
    alt_power = 2 * m * (n + 2 - m)
    measured_alt = float(np.mean(np.exp(log_vals - (alt_power - power) * math.log(r))))
    return ExpansionCheck(
        measured=(measured,),
        radii=(r,),
        richardson=measured,
        predicted=predicted,
        rel_error=abs(measured / predicted - 1.0),
        notes={
            "exponent": power,
            "exponent_variant": alt_power,
            "variant_mean": measured_alt,
            "variant_rel_error": abs(measured_alt / predicted - 1.0),
        },
    )


def first_frequency_check(sp: SolutionParams, m: int) -> dict:
    """r * (frequency-1 coefficients of -U^m) against 2m alpha_m, 2m beta_m."""
    comp = _upper_component(sp, m)
    neg = lambda z: -comp(z)
    cos_vals, sin_vals = [], []
    for r in R_PAIR:
        fc = fourier_coeffs(neg, r)
        cos_vals.append(fc.a_cos[0] * r)
        sin_vals.append(fc.b_sin[0] * r)
    c = sp.first_frequency_coeff(m)
    out = {}
    for key, vals, pred in (
        ("alpha", cos_vals, 2.0 * m * c.real),
        ("beta", sin_vals, 2.0 * m * c.imag),
    ):
        rich = _richardson(R_PAIR, vals)
        denom = abs(pred) if pred != 0 else 1.0
        out[key] = ExpansionCheck(
            measured=tuple(vals),
            radii=R_PAIR,
            richardson=rich,
            predicted=pred,
            rel_error=abs(rich - pred) / denom,
        )
    return out


def second_frequency_prediction(m: int, j: int) -> float:
    """Freq-2 signature of -dU^m/d alpha_{j,2} (times r^2)."""
    if j == m:
        return -float(m * (m - 1))
    if j == m + 1:
        return float(m * (m + 1))
    return 0.0


def kernel_signature_check(sp: SolutionParams, which: str, m: int) -> ExpansionCheck:
    """r^2 * (freq-2 coefficient of -dU^m/d(which)) against the delta rules."""
    kind, j = parse_direction(which)
    if kind not in {"alpha2", "beta2"}:
        raise ValueError("kernel_signature_check expects a second-frequency direction")
    fld = param_derivative_field(sp, which)
    comp = lambda z: fld.upper(z)[m - 1]
    vals = []
    for r in R_PAIR:
        fc = fourier_coeffs(comp, r)
        coeff = fc.a_cos[1] if kind == "alpha2" else fc.b_sin[1]
        vals.append(coeff * r * r)
    pred = second_frequency_prediction(m, j)
    rich = _richardson(R_PAIR, vals)
    scale = float(m * (m + 1))  # reference magnitude for the off-diagonal contract
    denom = abs(pred) if pred != 0 else scale
    return ExpansionCheck(
        measured=tuple(vals),
        radii=R_PAIR,
        richardson=rich,
        predicted=pred,
        rel_error=abs(rich - pred) / denom,
        notes={"m": m, "j": j, "kind": kind},
    )


# -- constant term of U_i --------------------------------------------------


def _b_coefficients_sum(sp: SolutionParams, i: int) -> tuple[float, float, float]:
    """b_{i,1..3} from their defining sums over the Cartan matrix row."""
    n = sp.n
    a = sp.cartan().a_float()
    b1 = sum(a[i - 1][j - 1] * j * (j - 1) for j in range(1, n + 1))
    b2 = sum(
        a[i - 1][j - 1] * sum(math.log(sp.lambdas[n + 1 - l]) for l in range(1, j + 1))
        for j in range(1, n + 1)
    )
    b3 = sum(
        a[i - 1][j - 1] * sum(math.lgamma(l) for l in range(1, j + 1))
        for j in range(1, n + 1)
    )
    return float(b1), float(b2), float(b3)


def _b_coefficients_table(sp: SolutionParams, i: int) -> tuple[float, float, float]:
    """The tabulated closed forms for b_{i,1..3} (as stated, unverified)."""
    n = sp.n
    lam = sp.lambdas
    if i < n:
        b1 = -2.0
        b2 = math.log(lam[n + 1 - i] / lam[n - i])
        b3 = -math.log(i)
    else:
        b1 = float((n - 1) * (n + 2))
        b2 = sum(math.log(lam[j]) for j in range(2, n + 1)) - math.log(lam[1])
        b3 = sum(math.lgamma(j + 1) for j in range(1, n - 1)) + 2.0 * math.lgamma(n)
    return b1, b2, b3


def constant_term_prediction(sp: SolutionParams, i: int, use_table: bool = True) -> float:
    """Predicted limit of U_i + 4 log r, i.e. -(b1 log2 + b2 + 2 b3)."""
    b1, b2, b3 = (
        _b_coefficients_table(sp, i) if use_table else _b_coefficients_sum(sp, i)
    )
    return -(b1 * math.log(2.0) + b2 + 2.0 * b3)


def constant_term_probe(sp: SolutionParams, i: int) -> ExpansionCheck:
    """Measure lim (U_i + 4 log r) and compare with the tabulated prediction.

    The tabulated closed forms are reported, not asserted: the measured
    value is the ground truth here, and the notes carry both the table
    prediction and the direct row-sum prediction for comparison.
    """
    if not 1 <= i <= sp.n:
        raise IndexError(f"component {i} out of range 1..{sp.n}")
    vals = []
    for r in R_PAIR:
        u_i = lower_components(sp, circle(r, SAMPLES))[i - 1]
        vals.append(float(np.mean(u_i)) + 4.0 * math.log(r))
    rich = _richardson(R_PAIR, vals)
    pred_table = constant_term_prediction(sp, i, use_table=True)
    pred_sum = constant_term_prediction(sp, i, use_table=False)
    denom = max(abs(pred_table), 1.0)
    return ExpansionCheck(
        measured=tuple(vals),
        radii=R_PAIR,
        richardson=rich,
        predicted=pred_table,
        rel_error=abs(rich - pred_table) / denom,
        notes={"prediction_from_sums": pred_sum,
               "table_matches_sums": abs(pred_table - pred_sum) < 1e-9},
    )


# -- plane integrals of second-frequency derivative fields -----------------


@dataclass(frozen=True)
class TIntegralResult:
    value: float
    partials: tuple[tuple[float, float], ...]  # (R, integral over B_R)
    diffs: tuple[float, ...]
    converged: bool


def t_integral(
    sp: SolutionParams,
    l: int,
    which: str = "alpha",
    m: int | None = None,
) -> TIntegralResult:
    """Integral over the plane of -dU^m/d(alpha_{l,2} or beta_{l,2}).

    Defined for l = 2..n with component index m in {l-1, l} (default l-1).
    Integration is angular-first: the frequency-2 leading term has zero
    mean on every circle, so the radial integrand decays fast enough for
    the partial integrals over B_R to form a Cauchy sequence.
    """
    n = sp.n
    if not 2 <= l <= n:
        raise ValueError(f"l={l} out of range 2..{n}")
    if m is None:
        m = l - 1
    if m not in (l - 1, l):
        raise ValueError(f"component m={m} must be l-1 or l")
    if which not in {"alpha", "beta"}:
        raise ValueError("which must be 'alpha' or 'beta'")
    direction = f"{'alpha2' if which == 'alpha' else 'beta2'}_{l}"
    fld = param_derivative_field(sp, direction)

    def ring_mean(r_nodes: np.ndarray) -> np.ndarray:
        return np.mean(fld.upper(circle(r_nodes, T_SAMPLES))[m - 1], axis=1)

    # Panel boundaries refine geometrically inward from the smallest radius,
    # so the last len(T_RADII) panels end exactly on T_RADII.
    inner = T_RADII[0]
    bounds = [0.0] + [inner / 2**k for k in range(5, -1, -1)] + list(T_RADII[1:])
    totals = polar_panels(ring_mean, bounds, T_NODES)
    partials = list(zip(T_RADII, totals[-len(T_RADII):]))
    values = [v for _, v in partials]
    diffs = tuple(abs(b - a) for a, b in zip(values[:-1], values[1:]))
    # Successive differences must keep shrinking by 1.5x per radius doubling.
    converged = all(d2 <= d1 / 1.5 for d1, d2 in zip(diffs[:-1], diffs[1:]))
    return TIntegralResult(
        value=values[-1],
        partials=tuple(partials),
        diffs=diffs,
        converged=converged,
    )
