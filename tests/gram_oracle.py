"""Reference routes shared by the tests.

`mp_log_det` builds the k x k Gram matrix of f from the polynomial
coefficients and the lambdas in mpmath, at the working precision of the
caller, and takes its determinant by elimination: an independent route
with no Wronskian minors.  `laplace_det` is the plain, unmemoized Laplace
expansion of a polynomial matrix, the bit-for-bit reference of the
memoized minor builder in `todalab.solution`.
"""

import mpmath as mp

from todalab.cpoly import ComplexPoly
from todalab.solution import parse_direction


def laplace_det(rows: list) -> ComplexPoly:
    """Determinant of a small square matrix of ComplexPoly, by Laplace expansion."""
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("matrix must be square")
    if k == 1:
        return rows[0][0]
    acc = ComplexPoly(())
    for j in range(k):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * laplace_det(minor)
        acc = acc + (term if j % 2 == 0 else term.scale(-1))
    return acc


def mp_log_det(sp, k, z, which, h):
    """log det_k at z from the k x k Gram matrix of f, in mpmath, with the
    parameters moved by h along `which` (an independent route: no minors).
    The "radial" direction moves z to z e^h instead."""
    n = sp.n
    lambdas = [mp.mpf(x) for x in sp.lambdas]
    polys = [[mp.mpc(1)]] + [[mp.mpc(c) for c in p.coeffs] for p in sp.polys]
    z = mp.mpc(z)
    if which == "radial":
        z *= mp.exp(h)
        kind = None
    else:
        kind, m = parse_direction(which)
    if kind == "loglambda":
        # lambda_m moves by e^h, then all by the common factor that keeps the product.
        lambdas = [lam * mp.exp(h * ((i == m) - mp.mpf(1) / (n + 1)))
                   for i, lam in enumerate(lambdas)]
    elif kind is not None:
        i = n + 1 - m if kind in ("alpha", "beta") else n + 2 - m
        polys[i][n - m] += h if kind in ("alpha", "alpha2") else 1j * h

    def deriv(coeffs, p):
        acc = mp.mpc(0)
        for e in range(len(coeffs) - 1, p - 1, -1):
            acc = acc * z + coeffs[e] * mp.ff(e, p)
        return acc

    vals = [[deriv(c, p) for p in range(k)] for c in polys]
    gram = mp.matrix(k, k)
    for p in range(k):
        for q in range(k):
            gram[p, q] = mp.fsum(lam * v[p] * mp.conj(v[q]) for lam, v in zip(lambdas, vals))
    return mp.log(mp.re(mp.det(gram)))
