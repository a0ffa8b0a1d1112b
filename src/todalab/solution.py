"""Construction and evaluation of the classified entire SU(n+1) Toda solutions.

A solution is determined by positive weights lambda_0..lambda_n (with a
fixed product) and monic polynomials P_1..P_n with deg P_i = i.  With
f = lambda_0 + sum_i lambda_i |P_i|^2, the upper components are
U^k = -(k(k-1) log 2 + log det_k(f)) where det_k(f) is the k x k Gram
determinant of mixed derivatives f^{p,q}.

det_k is evaluated through its Cauchy-Binet decomposition

    det_k(f) = sum_{|S|=k} (prod_{i in S} lambda_i) |W_S(z)|^2

over Wronskian minors W_S of the holomorphic family (1, P_1, ..., P_n).
Every term is nonnegative, so the sum has no cancellation and stays
accurate at radii ~1e3 where direct elimination on (f^{p,q}) loses all
significant digits for k >= 3.  The minors are fixed polynomials computed
once per parameter set and summed directly under one common scale factor.
A scaled-LU evaluation of (f^{p,q}) is kept as an independent cross-check.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cartan import CartanData, cartan_matrix
from .cpoly import ComplexPoly, derivative, eval_poly, poly_det

__all__ = [
    "PositivityError",
    "SolutionParams",
    "lambda_product_target",
    "normalize_lambdas",
    "sample_params",
    "mixed_derivative",
    "det_k_lu",
    "log_det_k",
    "upper_components",
    "lower_components",
    "perturbed",
    "log_det_k_tangent",
    "parse_direction",
    "kernel_directions",
    "params_to_json",
    "params_from_json",
    "load_params",
]


class PositivityError(ArithmeticError):
    """Gram determinant positivity failed; signals numerical breakdown."""


def lambda_product_target(n: int) -> float:
    """Required product lambda_0 * ... * lambda_n."""
    prod = 1.0
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            prod *= float(j - i + 1) ** -2
    return 2.0 ** (-n * (n + 1)) * prod


def normalize_lambdas(raw, n: int):
    """Scale all lambdas by one common factor so the product constraint holds.

    Ratios lambda_i / lambda_j are preserved.  Returns (lambdas, scale).
    """
    raw = [float(x) for x in raw]
    if len(raw) != n + 1:
        raise ValueError(f"expected {n + 1} lambdas, got {len(raw)}")
    if not all(math.isfinite(x) and x > 0 for x in raw):
        raise ValueError("lambdas must be positive and finite")
    target = lambda_product_target(n)
    log_t = (math.log(target) - sum(math.log(x) for x in raw)) / (n + 1)
    t = math.exp(log_t)
    return tuple(x * t for x in raw), t


@dataclass(frozen=True)
class SolutionParams:
    """The n^2 + 2n classification parameters of one global solution."""

    n: int
    lambdas: tuple[float, ...]
    polys: tuple[ComplexPoly, ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("n must be >= 1")
        if len(self.lambdas) != n + 1 or not all(
            math.isfinite(x) and x > 0 for x in self.lambdas
        ):
            raise ValueError("need n+1 positive finite lambdas")
        if len(self.polys) != n:
            raise ValueError("need n polynomials")
        for i, p in enumerate(self.polys, start=1):
            if p.degree != i or p.coeffs[-1] != 1:
                raise ValueError(f"P_{i} must be monic of degree {i}")
            if not all(cmath.isfinite(c) for c in p.coeffs):
                raise ValueError(f"P_{i} has a non-finite coefficient")
        prod = math.prod(self.lambdas)
        target = lambda_product_target(n)
        if abs(prod / target - 1.0) > 1e-10:
            raise ValueError("lambda product constraint violated; normalize first")

    # -- coefficient views -------------------------------------------------

    def c(self, i: int, j: int) -> complex:
        """Coefficient c_{ij} of z^j in P_i."""
        if not 1 <= i <= self.n or not 0 <= j < i:
            raise IndexError(f"c_{{{i},{j}}} out of range")
        return self.polys[i - 1].coeffs[j]

    def first_frequency_coeff(self, m: int) -> complex:
        """alpha_m + i beta_m = c_{n+1-m, n-m}, m = 1..n."""
        if not 1 <= m <= self.n:
            raise IndexError(f"m={m} out of range 1..{self.n}")
        return self.c(self.n + 1 - m, self.n - m)

    def cartan(self) -> CartanData:
        return cartan_matrix(self.n)


def sample_params(
    n: int, seed: int, magnitude: float, dilation: float = 1.0
) -> SolutionParams:
    """Deterministic pseudo-random valid parameter set.

    `magnitude` bounds |c_ij| / dilation^(i-j) and the spread of log
    lambda ratios; magnitude 0 gives the radial all-c-zero solution.
    `dilation` rescales the solution core (z -> z/dilation up to gauge):
    lambda_i picks up dilation^(-2i) and c_ij picks up dilation^(i-j),
    so dilation > 1 widens the bubble without leaving the family.
    Sampled coefficient magnitudes stay in [magnitude/4, magnitude] so
    relative comparisons against them are well conditioned.
    """
    if not (math.isfinite(dilation) and dilation > 0):
        raise ValueError("dilation must be positive and finite")
    if not (math.isfinite(magnitude) and magnitude >= 0):
        raise ValueError("magnitude must be finite and >= 0")
    rng = np.random.default_rng(seed)
    raw = dilation ** (-2.0 * np.arange(n + 1)) * np.exp(
        magnitude * rng.uniform(-1.0, 1.0, size=n + 1)
    )
    lambdas, _ = normalize_lambdas(raw, n)
    bound = magnitude / math.sqrt(2.0)

    def draw() -> float:
        return rng.choice([-1.0, 1.0]) * rng.uniform(0.25 * bound, bound)

    polys = []
    for i in range(1, n + 1):
        coeffs = [
            complex(draw(), draw()) * dilation ** (i - j) if magnitude > 0 else 0j
            for j in range(i)
        ] + [1 + 0j]
        polys.append(ComplexPoly(tuple(coeffs)))
    return SolutionParams(n=n, lambdas=lambdas, polys=tuple(polys))


# -- mixed derivatives and Gram determinants ------------------------------


@lru_cache(maxsize=256)
def _derivative_table(sp: SolutionParams) -> tuple:
    """derivs[i][p] = p-th derivative of P_i, including P_0 = 1."""
    family = (ComplexPoly((1 + 0j,)),) + sp.polys
    return tuple(
        tuple(derivative(p, order) for order in range(sp.n + 1)) for p in family
    )


def mixed_derivative(sp: SolutionParams, p: int, q: int, z):
    """f^{p,q} = d_zbar^q d_z^p f, via the separable structure of f."""
    if p < 0 or q < 0:
        raise ValueError("derivative orders must be >= 0")
    derivs = _derivative_table(sp)
    z = np.asarray(z, dtype=complex)
    acc = np.zeros(z.shape, dtype=complex)
    for i in range(sp.n + 1):
        dp = derivs[i][p] if p <= sp.n else derivative(derivs[i][min(p, sp.n)], p - sp.n)
        dq = derivs[i][q] if q <= sp.n else derivative(derivs[i][min(q, sp.n)], q - sp.n)
        if dp.is_zero() or dq.is_zero():
            continue
        acc = acc + sp.lambdas[i] * eval_poly(dp, z) * np.conj(eval_poly(dq, z))
    return acc if acc.shape else complex(acc)


@lru_cache(maxsize=256)
def _wronskian_minors(sp: SolutionParams) -> tuple:
    """For each k = 1..n+1, (minors, D_k, const, scaled) for det_k.

    W_S = det( P_i^{(p)} )_{p=0..k-1, i in S} over k-subsets S of {0..n},
    with P_0 = 1, is a polynomial in z.  `minors` holds (S, lambda_S, W_S)
    for each S, D_k is the top minor degree, `const` sums lambda_S |W_S|^2
    over constant minors, and `scaled` is sqrt(lambda_S) W_S for the others.
    """
    derivs = _derivative_table(sp)
    out = []
    for k in range(1, sp.n + 2):
        minors = []
        for subset in itertools.combinations(range(sp.n + 1), k):
            rows = [[derivs[i][p] for i in subset] for p in range(k)]
            w = poly_det(rows)
            minors.append((subset, math.prod(sp.lambdas[i] for i in subset), w))
        const = sum(lam * abs(w.coeffs[0]) ** 2 for _, lam, w in minors if w.degree == 0)
        scaled = tuple(w.scale(math.sqrt(lam)) for _, lam, w in minors if w.degree > 0)
        out.append((tuple(minors), max(w.degree for *_, w in minors), const, scaled))
    return tuple(out)


def _log_dets(sp: SolutionParams, ks, z) -> np.ndarray:
    """log det_k(f) at the points z for each k in ks, stacked along axis 0.

    det_k = rho^(2 D_k) sum_S lambda_S |q_S(z / rho)|^2, rho = max(1, max |z|),
    with q_S(w) = sum_j c_j rho^(j - D_k) w^j for W_S = sum_j c_j z^j.  As
    |w| <= 1, |q_S| <= sum_j |c_j|, so the nonnegative terms need no logs:
    each k takes one Horner pass per non-constant minor and one log.  One
    rho serves all points; |z| spanning >150/D_k decades raises PositivityError.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    rho = max(1.0, float(np.max(np.abs(z))))
    w = z / rho
    q = np.empty_like(w)
    out = np.empty((len(ks),) + z.shape)
    # Overflow and NaN are caught by the range check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for acc, k in zip(out, ks):
            _, degree, const, scaled = _wronskian_minors(sp)[k - 1]
            scale = [rho ** (j - degree) for j in range(degree + 1)]
            acc.fill(const * scale[0] ** 2)
            for p in scaled:
                eval_poly(ComplexPoly(tuple(c * s for c, s in zip(p.coeffs, scale))), w, q)
                acc += q.real**2
                acc += q.imag**2
            # Below ~1e-290 the squared terms approach subnormal numbers and
            # lose digits; NaN fails every comparison.
            if not 1e-290 <= np.min(acc) <= np.max(acc) < np.inf:
                raise PositivityError(f"det_k is not finite and positive at scale {rho:.3g}")
            np.log(acc, out=acc)
            acc += 2.0 * degree * math.log(rho)
    return out


def log_det_k(sp: SolutionParams, k: int, z):
    """log det_k(f) at z (scalar or array), k = 1..n+1."""
    if not 1 <= k <= sp.n + 1:
        raise ValueError(f"k={k} out of range 1..{sp.n + 1}")
    out = _log_dets(sp, (k,), z)[0]
    return float(out[0]) if np.ndim(z) == 0 else out


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


def upper_components(sp: SolutionParams, z) -> np.ndarray:
    """U^k for k = 1..n, stacked along axis 0; z scalar or array."""
    out = _log_dets(sp, range(1, sp.n + 1), z)
    for k, row in enumerate(out, start=1):
        row += k * (k - 1) * math.log(2.0)
    return np.negative(out, out=out)


def lower_components(sp: SolutionParams, z) -> np.ndarray:
    """U_i = sum_j a_ij U^j, stacked along axis 0."""
    upper = upper_components(sp, z)
    a = sp.cartan().a_float()
    return np.tensordot(a, upper, axes=(1, 0))


# -- parameter directions --------------------------------------------------


def parse_direction(which: str) -> tuple[str, int]:
    """Parse a direction name: alpha_M, beta_M, alpha2_M, beta2_M, loglambda_I."""
    try:
        kind, idx = which.rsplit("_", 1)
        idx = int(idx)
    except (ValueError, AttributeError):
        raise ValueError(f"cannot parse direction {which!r}") from None
    if kind not in {"alpha", "beta", "alpha2", "beta2", "loglambda"}:
        raise ValueError(f"unknown direction kind {kind!r}")
    return kind, idx


def kernel_directions(n: int) -> list[str]:
    """All 2n first-frequency and 2(n-1) second-frequency directions."""
    out = [f"alpha_{m}" for m in range(1, n + 1)]
    out += [f"beta_{m}" for m in range(1, n + 1)]
    out += [f"alpha2_{m}" for m in range(2, n + 1)]
    out += [f"beta2_{m}" for m in range(2, n + 1)]
    return out


def _coefficient_slot(n: int, which: str) -> tuple[int, int, complex]:
    """(i, j, unit): a coefficient direction moves c_ij by unit * delta.

    For a loglambda_I direction, i is the lambda index I and j is -1.
    """
    kind, m = parse_direction(which)
    if kind == "loglambda":
        if not 0 <= m <= n:
            raise IndexError(f"lambda index {m} out of range 0..{n}")
        return m, -1, 0j
    if kind in {"alpha", "beta"}:
        if not 1 <= m <= n:
            raise IndexError(f"m={m} out of range 1..{n} for {kind}")
        i, j = n + 1 - m, n - m
    else:
        if not 2 <= m <= n:
            raise IndexError(f"m={m} out of range 2..{n} for {kind}")
        i, j = n + 2 - m, n - m
    return i, j, (1 + 0j if kind in {"alpha", "alpha2"} else 1j)


def perturbed(sp: SolutionParams, which: str, delta: float) -> SolutionParams:
    """New parameter set shifted by delta along one direction."""
    n = sp.n
    i, j, unit = _coefficient_slot(n, which)
    if j < 0:
        raw = list(sp.lambdas)
        raw[i] *= math.exp(delta)
        lambdas, _ = normalize_lambdas(raw, n)
        return SolutionParams(n=n, lambdas=lambdas, polys=sp.polys)
    shift = unit * delta
    polys = list(sp.polys)
    coeffs = list(polys[i - 1].coeffs)
    coeffs[j] += shift
    polys[i - 1] = ComplexPoly(tuple(coeffs))
    return SolutionParams(n=n, lambdas=sp.lambdas, polys=tuple(polys))


@lru_cache(maxsize=256)
def _tangent_minors(sp: SolutionParams, which: str) -> tuple:
    """For each k = 1..n, (offset, ((W_S, V_S), ...)) with

        d log det_k / d(which) = offset + e^{U^k} sum_S Re(conj(W_S) V_S).

    Jacobi's formula on det_k = sum_S lambda_S |W_S|^2 gives
    d log det_k = sum_S lambda_S 2 Re(conj(W_S) dW_S) / det_k, and
    1/det_k = 2^{k(k-1)} e^{U^k}, so V_S = 2^{k(k-1)+1} lambda_S dW_S.
    W_S is multilinear in its columns, so along c_ij, dW_S is W_S with
    column i replaced by the derivatives of unit * z^j; only subsets S
    containing i contribute.  A loglambda_I direction moves only the
    weights, d log lambda_S = [I in S] - k/(n+1), which is dW_S = W_S / 2
    on the subsets containing I plus the offset -k/(n+1).  The "radial"
    direction r d/dr generates z -> e^t z, so dW_S = z W_S' on every S
    and the offset is 0.
    """
    n = sp.n
    radial = which == "radial"
    if not radial:
        i, j, unit = _coefficient_slot(n, which)
    derivs = _derivative_table(sp)
    if not radial and j >= 0:
        shift = ComplexPoly.from_coeffs([0j] * j + [unit])
        column = [derivative(shift, p) for p in range(n + 1)]
    out = []
    for k, (minors, *_) in enumerate(_wronskian_minors(sp)[:n], start=1):
        terms = []
        for subset, lam, w in minors:
            if radial:
                dw = ComplexPoly.from_coeffs(p * c for p, c in enumerate(w.coeffs))
            elif i not in subset:
                continue
            elif j < 0:
                dw = w.scale(0.5)
            else:
                rows = [
                    [column[p] if t == i else derivs[t][p] for t in subset]
                    for p in range(k)
                ]
                dw = poly_det(rows)
            if not dw.is_zero():
                weight = 2.0 ** (k * (k - 1) + 1) * lam
                terms.append((w, dw.scale(weight)))
        out.append((-k / (n + 1) if not radial and j < 0 else 0.0, tuple(terms)))
    return tuple(out)


def log_det_k_tangent(sp: SolutionParams, which: str, z, upper, k=None) -> np.ndarray:
    """Exact d log det_k / d(which) at the points z (an array), for k = 1..n.

    `which` is a parameter direction or "radial" (r d/dr at fixed parameters).

    `upper` stacks the upper components U^k of `sp` at z along axis 0, so
    every direction evaluated on one set of points can share them.
    Results are stacked the same way; a given k returns only its row.
    """
    if k is not None and not 1 <= k <= sp.n:
        raise ValueError(f"k={k} out of range 1..{sp.n}")
    rows = range(sp.n) if k is None else (k - 1,)
    z = np.asarray(z, dtype=complex)
    out = np.empty((len(rows),) + z.shape)
    w = np.empty(z.shape, dtype=complex)
    v = np.empty(z.shape, dtype=complex)
    exp_u = np.empty(z.shape)
    for acc, row in zip(out, rows):
        offset, terms = _tangent_minors(sp, which)[row]
        acc.fill(0.0)
        for w_poly, v_poly in terms:
            eval_poly(w_poly, z, out=w)
            eval_poly(v_poly, z, out=v)
            np.conjugate(w, out=w)
            w *= v
            acc += w.real
        acc *= np.exp(upper[row], out=exp_u)
        acc += offset
    return out if k is None else out[0]


# -- JSON parameter schema -------------------------------------------------


def params_to_json(sp: SolutionParams) -> dict:
    coeffs = []
    for i in range(1, sp.n + 1):
        for j in range(i):
            v = sp.c(i, j)
            if v != 0:
                coeffs.append({"i": i, "j": j, "re": v.real, "im": v.imag})
    return {"n": sp.n, "lambdas": list(sp.lambdas), "coeffs": coeffs}


def _json_int(doc, key: str) -> int:
    value = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def params_from_json(doc: dict) -> tuple[SolutionParams, float]:
    """Build params from the JSON schema; lambdas are normalized.

    Returns (params, applied common scale factor).  A malformed document
    raises ValueError.
    """
    if not isinstance(doc, dict) or "lambdas" not in doc:
        raise ValueError("parameters must be a JSON object with n and lambdas")
    n = _json_int(doc, "n")
    lambdas, scale = normalize_lambdas(doc["lambdas"], n)
    cmaps = {i: {} for i in range(1, n + 1)}
    for entry in doc.get("coeffs", []):
        i, j = _json_int(entry, "i"), _json_int(entry, "j")
        if not 1 <= i <= n or not 0 <= j < i:
            raise ValueError(f"coefficient index ({i},{j}) out of range")
        cmaps[i][j] = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
    polys = []
    for i in range(1, n + 1):
        coeffs = [cmaps[i].get(j, 0j) for j in range(i)] + [1 + 0j]
        polys.append(ComplexPoly(tuple(coeffs)))
    return SolutionParams(n=n, lambdas=lambdas, polys=tuple(polys)), scale


def load_params(path) -> tuple[SolutionParams, float]:
    """params_from_json of a file; a value of the wrong JSON type raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return params_from_json(doc)
    except TypeError as exc:
        raise ValueError(f"malformed parameters in {path}: {exc}") from None
