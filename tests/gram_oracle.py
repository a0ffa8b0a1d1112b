"""Reference routes shared by the tests.

`mp_log_det` builds the k x k Gram matrix of f from the polynomial
coefficients and the lambdas in mpmath, at the working precision of the
caller, and takes its determinant by elimination: an independent route
with no Wronskian minors.  `laplace_det` is the plain Laplace expansion of
a matrix of polynomials, a reference for the Cauchy-Binet minor builder in
`todalab.solution` that shares none of its steps.  `det_k_lu` takes det_k by
scaled LU on the double-precision matrix (f^{p,q}) of `mixed_derivative`,
a cross-check at moderate radii, and `perturbed` moves a parameter set
by a finite step along one direction, the reference of the exact tangents.
`mp_upper_and_tangents` takes U^k and its exact tangents from that Gram matrix
by Jacobi's formula, with no minor and no finite difference.  `cartan_dense`
is the Cartan matrix as a dense array, the reference of
`todalab.cartan.cartan_apply`.
"""

import math
import re

import mpmath as mp
import numpy as np

from todalab.cpoly import ComplexPoly
from todalab.solution import PositivityError, SolutionParams, normalize_lambdas


def cartan_dense(n: int) -> np.ndarray:
    """The SU(n+1) Cartan matrix: 2 on the diagonal, -1 next to it, 0 elsewhere."""
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def direction_move(n: int, which: str) -> tuple:
    """(i, j, unit): alpha{f}_m and beta{f}_m (no digit at f = 1) move c_{n+f-m, n-m}
    by unit = 1 and 1j; loglambda_I gives (I, -1, 1).  Written apart from the
    package's own parser, so the oracles check its naming too."""
    match = re.fullmatch(r"(alpha|beta|loglambda)(\d*)_(\d+)", which)
    if match is None:
        raise ValueError(f"not a direction: {which!r}")
    kind, f, m = match[1], int(match[2] or 1), int(match[3])
    if kind == "loglambda":
        if not 0 <= m <= n:
            raise IndexError(f"lambda index {m} out of range 0..{n}")
        return m, -1, 1
    if not 1 <= f <= m <= n:
        raise IndexError(f"{which} out of range at n = {n}")
    return n + f - m, n - m, 1 if kind == "alpha" else 1j


def derivative(coeffs, order: int) -> tuple:
    """Coefficients of the order-th derivative of sum_k coeffs[k] z^k; () past the degree."""
    coeffs = tuple(coeffs)
    for _ in range(order):
        coeffs = tuple(k * c for k, c in enumerate(coeffs))[1:]
    return coeffs


def family(sp: SolutionParams) -> list:
    """The coefficient tuples of (1, P_1, ..., P_n)."""
    return [(1 + 0j,)] + [p.coeffs for p in sp.polys]


def mixed_derivative(sp: SolutionParams, p: int, q: int, z):
    """f^{p,q} = d_zbar^q d_z^p f, via the separable structure of f."""
    if p < 0 or q < 0:
        raise ValueError("derivative orders must be >= 0")
    z = np.asarray(z, dtype=complex)
    acc = np.zeros(z.shape, dtype=complex)
    for lam, coeffs in zip(sp.lambdas, family(sp)):
        dp, dq = derivative(coeffs, p), derivative(coeffs, q)
        if not dp or not dq:
            continue
        acc = acc + lam * np.polyval(dp[::-1], z) * np.conj(np.polyval(dq[::-1], z))
    return acc if acc.shape else complex(acc)


def det_k_lu(sp: SolutionParams, k: int, z) -> tuple[float, int]:
    """Cross-check route: scaled LU on the raw matrix (f^{p,q}).

    Loses relative accuracy at large |z| for k >= 3; intended for
    moderate radii as an independent oracle against the minor route.
    """
    mat = np.array(
        [[mixed_derivative(sp, p, q, complex(z)) for q in range(k)] for p in range(k)],
        dtype=complex,
    )
    scales = np.max(np.abs(mat), axis=1)
    if np.any(scales == 0):
        raise PositivityError("zero row in Gram matrix")
    sign, logabs = np.linalg.slogdet(mat / scales[:, None])
    if sign.real <= 0.5:
        raise PositivityError(f"non-positive Gram determinant at z={z}")
    return float(logabs + np.sum(np.log(scales))), +1


def perturbed(sp: SolutionParams, which: str, delta: float) -> SolutionParams:
    """New parameter set shifted by delta along one direction."""
    n = sp.n
    i, j, unit = direction_move(n, which)
    if j < 0:
        raw = list(sp.lambdas)
        raw[i] *= math.exp(delta)
        lambdas = normalize_lambdas(raw, n)
        return SolutionParams(n=n, lambdas=lambdas, polys=sp.polys)
    shift = unit * delta
    polys = list(sp.polys)
    coeffs = list(polys[i - 1].coeffs)
    coeffs[j] += shift
    polys[i - 1] = ComplexPoly(tuple(coeffs))
    return SolutionParams(n=n, lambdas=sp.lambdas, polys=tuple(polys))


def laplace_det(rows: list) -> list:
    """Determinant of a small square matrix of polynomials, by Laplace expansion.

    Each entry is a coefficient sequence, z^0 first; so is the result.
    """
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("matrix must be square")
    if k == 1:
        return list(rows[0][0])
    acc = []
    for j in range(k):
        minor = laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        acc += [0j] * (len(rows[0][j]) + len(minor) - 1 - len(acc))
        for a, x in enumerate(rows[0][j]):
            for b, y in enumerate(minor):
                acc[a + b] += x * y if j % 2 == 0 else -x * y
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
    else:
        index, j, unit = direction_move(n, which)
        if j < 0:
            # lambda_index moves by e^h, then all by the common factor that keeps the product.
            lambdas = [lam * mp.exp(h * ((i == index) - mp.mpf(1) / (n + 1)))
                       for i, lam in enumerate(lambdas)]
        else:
            polys[index][j] += unit * h

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


def mp_upper_and_tangents(sp, k, z, directions) -> list:
    """[U^k, then d log det_k / d(which) for each direction] at z, in mpmath at the caller's
    precision: Jacobi's formula d log det G = tr(G^-1 dG) on the k x k Gram matrix of f.

    A coefficient direction moves P_i^{(p)} by unit (z^j)^{(p)}, loglambda_I moves each
    lambda_l by lambda_l ([l = I] - 1/(n+1)), and "radial" (z -> z e^h) moves P^{(p)} by
    z P^{(p+1)}.
    """
    n, z = sp.n, mp.mpc(z)
    lambdas = [mp.mpf(x) for x in sp.lambdas]
    polys = [[mp.mpc(1)]] + [[mp.mpc(c) for c in p.coeffs] for p in sp.polys]

    def deriv(coeffs, p):
        return mp.fsum(c * mp.ff(e, p) * z ** (e - p) for e, c in enumerate(coeffs) if e >= p)

    def gram(values, moved=None, weights=lambdas):
        """Sum_l weights_l v_l^(p) conj(v_l^(q)), or its derivative when moved[l] moves v_l."""
        g = mp.matrix(k, k)
        for p in range(k):
            for q in range(k):
                g[p, q] = mp.fsum(
                    lam * (v[p] * mp.conj(v[q]) if moved is None else
                           d[p] * mp.conj(v[q]) + v[p] * mp.conj(d[q]))
                    for lam, v, d in zip(weights, values, moved or values))
        return g

    values = [[deriv(c, p) for p in range(k + 1)] for c in polys]
    base = gram(values)
    inverse = base ** -1
    out = [-(k * (k - 1) * mp.log(2) + mp.log(mp.re(mp.det(base))))]
    for which in directions:
        if which == "radial":
            change = gram(values, [[z * v[p + 1] for p in range(k)] for v in values])
        else:
            index, j, unit = direction_move(n, which)
            if j < 0:
                weights = [lam * ((i == index) - mp.mpf(1) / (n + 1))
                           for i, lam in enumerate(lambdas)]
                change = gram(values, weights=weights)
            else:
                moved = [[0] * k for _ in values]
                moved[index] = [unit * mp.ff(j, p) * z ** (j - p) if j >= p else 0
                                for p in range(k)]
                change = gram(values, moved)
        out.append(mp.re(sum(inverse[q, p] * change[p, q] for p in range(k) for q in range(k))))
    return out
