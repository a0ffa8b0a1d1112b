"""Large-radius Fourier probes of the solution components.

At radius r the upper components and their parameter derivatives have
low-frequency angular expansions with coefficients determined by the
classification parameters.  This module reads the leading coefficient
and the frequency-0/1/2 coefficients from one kernel call on one circle
(uniform trapezoid DFT, spectrally accurate for smooth periodic data) at
R = R_FAR L, L = SolutionParams.outer_scale(), far enough out that the
O((L/R)^2) truncation error sits near rounding, and compares them with the
predicted values.  The same call gives the mass flux through that circle.

Also here: sphere_rule, the one rule for plane integrals (the mass
quadrature shares it), and the plane integrals of the second-frequency
derivative fields, taken angular-first so the cos/sin(2 theta) term drops out.
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
    "sphere_rule",
    "fourier_coeffs",
    "far_field_checks",
    "t_integral",
    "constant_term_prediction",
]

# Radius of the one circle that measures the expansion coefficients and the
# mass flux, in units of SolutionParams.outer_scale: the truncation error is
# O(R_FAR^-2), and at 1e5 41 of 6400 sweep verdicts miss 1e-7 (README); and
# samples per circle.
R_FAR = 1e6
SAMPLES = 256
# sphere_rule's nodes in cos(theta) for the mass quadrature and the coarser
# T-integral (the finer takes twice as many); the T-integral's nodes in phi.
SPHERE_NODES = 64
T_SAMPLES = 64


@dataclass(frozen=True)
class ExpansionCheck:
    r: float
    measured: float
    predicted: float
    rel_error: float


def circle(r, M: int) -> np.ndarray:
    """M equispaced points on the circle of radius r, starting on the real axis.

    For an array of radii the result has one row of M points per radius; a
    radius that is not finite raises PositivityError.
    """
    if not np.all(np.abs(r) < math.inf):
        raise PositivityError(f"the circle |z| = {r} is past the double range")
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


def sphere_rule(t: float, nodes: int, samples: int) -> tuple:
    """The Riemann-sphere rule (z, log_area, w) for integrals over the plane.

    z = t cot(theta/2) e^{i phi}: one row per Gauss-Legendre node x = cos(theta), `samples`
    trapezoid nodes in phi.  int f dA ~= 2 pi (mean(f(z) e^{log_area}, axis=-1) @ w), and the
    column log_area = log(t^2 / (1 - x)^2), dA per dx dphi, adds to a log-valued integrand.
    The rule converges spectrally where the ring means of f e^{log_area} are smooth in x.
    """
    x, w = gauss_legendre(nodes)
    z = circle(t * np.sqrt((1.0 + x) / (1.0 - x)), samples)
    return z, 2.0 * np.log(t / (1.0 - x))[:, None], w


def fourier_coeffs(vals) -> np.ndarray:
    """Trapezoid DFT of a real field sampled on equispaced circle points, along the last axis.

    Returns a_k - i b_k for k = 1, 2, where the field is
    a_0 + sum_k a_k cos k theta + b_k sin k theta; a stack of rows
    (..., M) gives a result of shape (..., 2).
    """
    return 2.0 * np.fft.rfft(vals)[..., 1:3] / np.shape(vals)[-1]


def _check(r, measured, predicted, denom) -> ExpansionCheck:
    """A value measured at radius r against `predicted`, its error scaled by `denom`."""
    measured, predicted = float(measured), float(predicted)
    return ExpansionCheck(r, measured, predicted, abs(measured - predicted) / float(denom))


def _signature(f: int, m: int, component: int) -> int:
    """Limit of r^f times the frequency-f coefficient of -dU^component along index m of frequency f.

    2 C(m, f) (-1)^t C(f-1, t) for t = component - m + f - 1 in [0, f-1], else 0; it is
    read in cosine along a direction of unit 1 and in sine along one of unit i.
    """
    t = component - m + f - 1
    return 2 * math.comb(m, f) * (-1) ** t * math.comb(f - 1, t) if 0 <= t < f else 0


def far_field_checks(sp: SolutionParams, directions=()) -> dict:
    """Every expansion check of sp from one kernel call on circle(R, SAMPLES), R = R_FAR L.

    The call gives U^k and the tangents along the given directions: frequency-2
    directions (frequency_directions(n, 2)) and "radial".  Returns R and four
    lists of ExpansionCheck, one entry per m = 1..n (per i for the constant term):
      "leading"     the circle mean of e^{-U^m} r^{-2m(n+1-m)} against its
                    closed form;
      "freq1"       {"alpha": check, "beta": check}: r times the frequency-1
                    cosine and sine of -U^m, which tend to _signature(1, m, m)
                    times Re and Im of c_{n+1-m, n-m} (a predicted 0 is
                    measured against |_signature(1, m, m)| L);
      "freq2"       {which: check} per given frequency-2 direction: r^2 times
                    the frequency-2 coefficient of -dU^m/d(which) against _signature;
      "const-term"  the circle mean of U_i + 4 log r against
                    constant_term_prediction (the frequency-1 terms average out).
    Given "radial", it also returns "flux": -oint dU^i/dr = 2 pi times the circle
    mean of the exact r d/dr log det_i, i = 1..n; a flux that is not finite raises
    PositivityError.  Each truncation error is O(R_FAR^-2); each check's r is R.
    """
    n, R = sp.n, R_FAR * sp.outer_scale()
    upper, tangents = log_det_k_tangent(sp, directions, circle(R, SAMPLES))
    out = {"R": R, "leading": [], "freq1": [], "freq2": [{} for _ in range(n)], "const-term": []}
    if "radial" in directions:
        r_dlog_det = tangents[list(directions).index("radial")]
        if not np.all(np.isfinite(r_dlog_det)):
            raise PositivityError(f"the radial derivative of log det_k overflows at R = {R:.3g}")
        out["flux"] = [float(x) for x in 2.0 * np.pi * np.mean(r_dlog_det, axis=1)]
    freq1 = fourier_coeffs(-upper)[:, 0]
    log_r = math.log(R)
    for m, (u_m, pair) in enumerate(zip(upper, frequency_directions(n, 1).values()), start=1):
        power = 2 * m * (n + 1 - m)
        # An overflow of the measured mean raises below.
        with np.errstate(over="ignore"):
            measured = float(np.mean(np.exp(-u_m - power * log_r)))
        if not math.isfinite(measured):
            raise PositivityError(f"e^(-U^{m}) r^-{power} overflows at R = {R:.3g}")
        fact = math.prod(math.factorial(j) for j in range(m))
        predicted = 2.0 ** (m * (m - 1)) * math.prod(sp.lambdas[n + 1 - m :]) * fact**2
        out["leading"].append(_check(R, measured, predicted, predicted))
        checks = {}
        for key, which in zip(("alpha", "beta"), pair):
            (i, j), unit = _coefficient_slot(n, which)
            # (a_1 - i b_1) unit is a_1 or b_1, as conj(c_ij) unit is Re or Im c_ij.
            pred = _signature(1, m, m) * (sp.c(i, j).conjugate() * unit).real
            scale = abs(pred) or abs(_signature(1, m, m)) * sp.outer_scale()
            checks[key] = _check(R, (freq1[m - 1] * unit).real * R, pred, scale)
        out["freq1"].append(checks)
    for which, coeffs in zip(directions, fourier_coeffs(tangents)[..., 1]):
        if which == "radial":
            continue
        (i, j), unit = _coefficient_slot(n, which)
        for m, coeff in enumerate((coeffs * unit).real, start=1):
            pred = _signature(i - j, n - j, m)
            denom = abs(pred) or float(m * (m + 1))  # m(m+1): off-diagonal reference
            out["freq2"][m - 1][which] = _check(R, coeff * R**2, pred, denom)
    means = np.mean(cartan_matrix(n) @ upper, axis=1) + 4.0 * log_r
    for i, mean in enumerate(means, start=1):
        pred = constant_term_prediction(sp, i)
        out["const-term"].append(_check(R, mean, pred, max(abs(pred), 1.0)))
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
    value: float  # sphere_rule on 2 SPHERE_NODES nodes
    coarse: float  # sphere_rule on SPHERE_NODES nodes
    scale: float  # the finer rule applied to |field|


def t_integral(sp: SolutionParams) -> dict:
    """Integrals over the plane of -dU^{l-1}/d(which), which in frequency_directions(n, 2)[l].

    Returns {which: TIntegralResult} for l = 2..n from sphere_rule centred on
    t = sp.length_scale(), with 2 SPHERE_NODES and SPHERE_NODES nodes in
    cos(theta) and T_SAMPLES in phi; each rule takes one kernel call per l on
    the minors of det_{l-1} alone.  Integration is angular-first: the
    frequency-2 leading term has zero mean on every ring, so the ring means
    decay fast enough for the integral to converge.  The two values agree to
    rounding, a small multiple of eps times scale, wherever the rule resolves
    the field; a dilated bubble has the same values.
    """
    sums = {}
    for nodes in (2 * SPHERE_NODES, SPHERE_NODES):
        z, log_area, w = sphere_rule(sp.length_scale(), nodes, T_SAMPLES)
        weights = 2.0 * np.pi * w * np.exp(log_area[:, 0])
        for l, pair in frequency_directions(sp.n, 2).items():
            fields = log_det_k_tangent(sp, pair, z, k=l - 1)[1]
            for which, value, scale in zip(pair, np.mean(fields, axis=-1) @ weights,
                                           np.mean(np.abs(fields), axis=-1) @ weights):
                sums.setdefault(which, []).append((float(value), float(scale)))
    return {which: TIntegralResult(value, coarse, scale)
            for which, ((value, scale), (coarse, _)) in sums.items()}
