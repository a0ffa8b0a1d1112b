"""High-precision oracle for log det_k, independent of the Wronskian-minor route.

det_k(f) is the leading k x k principal minor of the Gram matrix
F[p][q] = f^{p,q}(z) = sum_i lambda_i P_i^{(p)}(z) conj(P_i^{(q)}(z)),
with P_0 = 1.  Here F is built in mpmath from the polynomial coefficients
and the lambdas, and its minors are taken by mpmath's elimination at a
working precision that covers the cancellation: at |z| = r the entries of
F reach r^(2n) while det_{n+1} is constant, so about n(n+1) log10 r digits
cancel.  Each batch is also re-evaluated at higher precision on a few
points to show that the working precision suffices.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

RADII = (1e2, 1e3)
ANGLES = 16
GUARD_DIGITS = 30
# The oracle must agree with itself at +GUARD_DIGITS far below any error
# the benchmark reports.
SELF_CHECK_TOL = 1e-20


def gram_log_dets(sp, z: complex, dps: int) -> list:
    """[log det_k(f)(z) for k = 1..n+1] at `dps` decimal digits."""
    n = sp.n
    with mp.workdps(dps):
        zz = mp.mpc(z.real, z.imag)
        family = [(1 + 0j,)] + [p.coeffs for p in sp.polys]
        derivs = []  # derivs[i][p] = P_i^{(p)}(z)
        for coeffs in family:
            c = [mp.mpc(x.real, x.imag) for x in coeffs]
            row = []
            for p in range(n + 1):
                acc = mp.mpc(0)
                for j in range(len(c) - 1, p - 1, -1):
                    acc = acc * zz + c[j] * mp.ff(j, p)
                row.append(acc)
            derivs.append(row)
        lam = [mp.mpf(x) for x in sp.lambdas]
        gram = mp.matrix(n + 1, n + 1)
        for p in range(n + 1):
            for q in range(n + 1):
                gram[p, q] = mp.fsum(
                    lam[i] * derivs[i][p] * mp.conj(derivs[i][q]) for i in range(n + 1)
                )
        return [mp.log(mp.re(mp.det(gram[:k, :k]))) for k in range(1, n + 2)]


def logdet_error(param_sets, log_det_k) -> float:
    """max |log_det_k(sp, k, z) - oracle| over k = 1..n+1, |z| in RADII.

    `param_sets` is a list of (label, SolutionParams); `log_det_k` is the
    function under test, called once per (set, k, radius) on all angles.
    Raises ArithmeticError if the oracle disagrees with itself.
    """
    worst = 0.0
    for _, sp in param_sets:
        for r in RADII:
            z = r * np.exp(1j * (0.1 + 2.0 * np.pi * np.arange(ANGLES) / ANGLES))
            dps = GUARD_DIGITS + math.ceil(sp.n * (sp.n + 1) * math.log10(r))
            ref = [gram_log_dets(sp, complex(zi), dps) for zi in z]
            for zi, row in zip(z[:2], ref):
                finer = gram_log_dets(sp, complex(zi), dps + GUARD_DIGITS)
                drift = max(abs(a - b) for a, b in zip(row, finer))
                if drift > SELF_CHECK_TOL:
                    raise ArithmeticError(f"oracle not converged at z={zi}: {drift}")
            for k in range(1, sp.n + 2):
                got = np.asarray(log_det_k(sp, k, z), dtype=float)
                want = np.array([float(row[k - 1]) for row in ref])
                err = float(np.max(np.abs(got - want)))
                if not math.isfinite(err):
                    return math.inf
                worst = max(worst, err)
    return worst
