"""Large-radius Fourier probes of the solution components.

At radius r the upper components and their parameter derivatives have
low-frequency angular expansions with coefficients determined by the
classification parameters.  This module reads the leading coefficient
and the frequency-0/1/2 coefficients from one kernel call on one circle
(uniform trapezoid DFT, spectrally accurate for smooth periodic data) at
a radius R_FAR large enough that the O(r^-2) truncation error sits near
rounding, and compares them with the predicted values.

Also here: the conditionally convergent plane integrals of the
second-frequency derivative fields, computed angular-first so that the
leading cos/sin(2 theta) term drops out on every circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cartan import cartan_matrix
from .solution import (PositivityError, SolutionParams, _coefficient_slot, frequency_directions,
                       log_det_k_tangent)

__all__ = [
    "ExpansionCheck",
    "TIntegralResult",
    "circle",
    "gauss_legendre",
    "fourier_coeffs",
    "far_field_checks",
    "t_integral",
    "constant_term_prediction",
]

# Radius of the one circle that measures the expansion coefficients (their
# truncation error is O(r^-2); beyond it rounding grows, 9e-7 for freq1 at
# 1e8), and samples per circle shared by it and the mass flux.
R_FAR = 1e6
SAMPLES = 256
# t_integral: partial-integral radii in units of the solution's length scale,
# samples per circle, nodes per radial panel.
T_RADII = (50.0, 100.0, 200.0, 400.0)
T_SAMPLES = 128
T_NODES = 16


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


def _legval(x, c: list):
    """sum_k c[k] L_k(x) by Clenshaw, in numpy's legval order of operations."""
    nd, (c0, c1) = len(c), (c[-2:] if len(c) > 1 else (c[0], 0.0))
    for ck in c[-3::-1]:
        nd -= 1
        c0, c1 = ck - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def gauss_legendre(m: int) -> tuple:
    """The m-node Gauss-Legendre rule (x, w) on [-1, 1], read-only and built once per m.

    numpy's leggauss(m) bit for bit, by its own steps: the eigenvalues of the
    symmetric companion matrix of L_m, one Newton step, then weights from
    L_m' L_{m-1}, symmetrised and normalised to sum 2.
    """
    scl = 1.0 / np.sqrt(2 * np.arange(m) + 1)
    off = np.arange(1, m) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = [0.0] * m + [1.0]
    df = _legval(x, [0.0 if (m - k) % 2 == 0 else 2.0 * k + 1.0 for k in range(m)])  # L_m'
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    w *= 2.0 / w.sum()
    x = (x - x[::-1]) / 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


def fourier_coeffs(vals) -> np.ndarray:
    """Trapezoid DFT of a real field sampled on equispaced circle points, along the last axis.

    Returns a_k - i b_k for k = 1, 2, where the field is
    a_0 + sum_k a_k cos k theta + b_k sin k theta; a stack of rows
    (..., M) gives a result of shape (..., 2).
    """
    return 2.0 * np.fft.rfft(vals)[..., 1:3] / np.shape(vals)[-1]


def _check(measured, predicted, denom, **notes) -> ExpansionCheck:
    """A value measured at R_FAR against `predicted`, its error scaled by `denom`."""
    measured, predicted = float(measured), float(predicted)
    return ExpansionCheck(R_FAR, measured, predicted, abs(measured - predicted) / float(denom), notes)


def _signature(f: int, m: int, component: int) -> int:
    """Limit of r^f times the frequency-f coefficient of -dU^component along index m of frequency f.

    2 C(m, f) (-1)^t C(f-1, t) for t = component - m + f - 1 in [0, f-1], else 0; it is
    read in cosine along a direction of unit 1 and in sine along one of unit i.
    """
    t = component - m + f - 1
    return 2 * math.comb(m, f) * (-1) ** t * math.comb(f - 1, t) if 0 <= t < f else 0


def far_field_checks(sp: SolutionParams) -> dict:
    """Every expansion check of sp from one kernel call on circle(R_FAR, SAMPLES).

    The call gives U^k and the tangents along frequency_directions(n, 2).
    Returns four lists of ExpansionCheck, one entry per m = 1..n (per i for
    the constant term):
      "leading"     the circle mean of e^{-U^m} r^{-2m(n+1-m)} against its
                    closed form; the notes hold the same mean for the
                    exponent variant 2m(n+2-m), off by the factor r^{2m};
      "freq1"       {"alpha": check, "beta": check}: r times the frequency-1
                    cosine and sine of -U^m, which tend to _signature(1, m, m)
                    times Re and Im of c_{n+1-m, n-m};
      "freq2"       {which: check}: r^2 times the frequency-2 coefficient of
                    -dU^m/d(which) against _signature;
      "const-term"  the circle mean of U_i + 4 log r against
                    constant_term_prediction (the frequency-1 terms average out).
    Each truncation error is O(R_FAR^-2).
    """
    n = sp.n
    directions = [which for pair in frequency_directions(n, 2).values() for which in pair]
    upper, tangents = log_det_k_tangent(sp, directions, circle(R_FAR, SAMPLES))
    freq1 = fourier_coeffs(-upper)[:, 0]
    log_r = math.log(R_FAR)
    out = {"leading": [], "freq1": [], "freq2": [{} for _ in range(n)], "const-term": []}
    for m, (u_m, pair) in enumerate(zip(upper, frequency_directions(n, 1).values()), start=1):
        power = 2 * m * (n + 1 - m)
        log_vals = -u_m - power * log_r
        # An overflow of the measured mean raises below; the variant only informs.
        with np.errstate(over="ignore"):
            measured = float(np.mean(np.exp(log_vals)))
            variant = float(np.mean(np.exp(log_vals - 2 * m * log_r)))
        if not math.isfinite(measured):
            raise PositivityError(f"e^(-U^{m}) r^-{power} overflows at R_FAR")
        fact = math.prod(math.factorial(j) for j in range(m))
        predicted = 2.0 ** (m * (m - 1)) * math.prod(sp.lambdas[n + 1 - m :]) * fact**2
        out["leading"].append(_check(measured, predicted, predicted, variant_mean=variant,
                                     variant_rel_error=abs(variant / predicted - 1.0)))
        checks = {}
        for key, which in zip(("alpha", "beta"), pair):
            (i, j), unit = _coefficient_slot(n, which)
            # (a_1 - i b_1) unit is a_1 or b_1, as conj(c_ij) unit is Re or Im c_ij.
            pred = _signature(1, m, m) * (sp.c(i, j).conjugate() * unit).real
            checks[key] = _check((freq1[m - 1] * unit).real * R_FAR, pred, abs(pred) or 1.0)
        out["freq1"].append(checks)
    for which, coeffs in zip(directions, fourier_coeffs(tangents)[..., 1]):
        (i, j), unit = _coefficient_slot(n, which)
        for m, coeff in enumerate((coeffs * unit).real, start=1):
            pred = _signature(i - j, n - j, m)
            denom = abs(pred) or float(m * (m + 1))  # m(m+1): off-diagonal reference
            out["freq2"][m - 1][which] = _check(coeff * R_FAR**2, pred, denom)
    means = np.mean(cartan_matrix(n) @ upper, axis=1) + 4.0 * log_r
    for i, mean in enumerate(means, start=1):
        pred = constant_term_prediction(sp, i)
        out["const-term"].append(_check(mean, pred, max(abs(pred), 1.0)))
    return out


# -- constant term of U_i --------------------------------------------------


def constant_term_prediction(sp: SolutionParams, i: int) -> float:
    """Limit of U_i + 4 log r from row i of the Cartan matrix:

    -sum_j a_ij (j(j-1) log 2 + sum_{l<=j} (log lambda_{n+1-l} + 2 log (l-1)!)).
    """
    n = sp.n
    row = cartan_matrix(sp.n)[i - 1]
    return -float(sum(
        a_ij * (j * (j - 1) * math.log(2.0)
                + sum(math.log(sp.lambdas[n + 1 - l]) + 2.0 * math.lgamma(l)
                      for l in range(1, j + 1)))
        for j, a_ij in enumerate(row, start=1)
    ))


# -- plane integrals of second-frequency derivative fields -----------------


@dataclass(frozen=True)
class TIntegralResult:
    value: float
    partials: tuple[tuple[float, float], ...]  # (R, integral over B_R)
    converged: bool


def t_integral(sp: SolutionParams, ratio: float) -> dict:
    """Integrals over the plane of -dU^{l-1}/d(which), which in frequency_directions(n, 2)[l].

    Returns {which: TIntegralResult} for l = 2..n.  Integration is angular-first:
    the frequency-2 leading term has zero mean on every circle, so the radial
    integrand decays fast enough for the partial integrals over B_R to form a
    Cauchy sequence.  A result converges when each successive difference is at
    most 1/ratio of the one before, or settled: at most eps times the same rule
    applied to the circle mean of |field|, the rounding level of the partials.
    The radii are T_RADII times sp.length_scale(): a dilated bubble has the
    same partials.  The nine radial panels form three runs, [0, r0/8],
    [r0/8, r0] and [r0, 8 r0] for r0 the first radius; each run takes one
    kernel call per l on the minors of det_{l-1} alone.  Its one scale 2^e is
    exact in every Horner step, and a run spans at most 2.9 decades of |z|
    (one call per l: 4.7; the kernel allows 150/D_k).
    """
    pairs = frequency_directions(sp.n, 2)
    if not pairs:
        return {}

    # Panel boundaries refine geometrically inward from the smallest radius,
    # so the last len(T_RADII) panels end exactly on the radii.  Each panel
    # adds its Gauss-Legendre rule for int 2 pi r g(r) dr, g the circle mean.
    radii = [sp.length_scale() * R for R in T_RADII]
    bounds = np.array([0.0] + [radii[0] / 2**k for k in range(5, -1, -1)] + radii[1:])
    x_gl, w_gl = gauss_legendre(T_NODES)
    half = 0.5 * (bounds[1:] - bounds[:-1])
    r_nodes = 0.5 * (bounds[1:] + bounds[:-1])[:, None] + half[:, None] * x_gl
    sums = []
    for r_run, half_run in zip(r_nodes.reshape(3, 3, T_NODES), half.reshape(3, 3)):
        z = circle(r_run, T_SAMPLES)
        fields = np.concatenate([log_det_k_tangent(sp, pair, z, k=l - 1)[1]
                                 for l, pair in pairs.items()])
        g = np.stack([np.mean(fields, axis=-1), np.mean(np.abs(fields), axis=-1)])
        sums.append(np.sum(w_gl * 2.0 * np.pi * r_run * g, axis=-1) * half_run)
    sums, sizes = np.concatenate(sums, axis=-1)
    totals = np.cumsum(sums, axis=-1)[:, -len(radii):]
    floors = np.finfo(float).eps * np.sum(sizes, axis=-1)
    out = {}
    names = (which for pair in pairs.values() for which in pair)
    for which, values, floor in zip(names, totals.tolist(), floors):
        diffs = tuple(abs(b - a) for a, b in zip(values[:-1], values[1:]))
        converged = all(d2 <= floor or d2 * ratio <= d1 for d1, d2 in zip(diffs[:-1], diffs[1:]))
        out[which] = TIntegralResult(values[-1], tuple(zip(radii, values)), converged)
    return out
