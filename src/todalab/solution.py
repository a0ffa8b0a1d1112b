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
With c the lower-triangular matrix of the coefficients of (1, P_1, ..., P_n),
Cauchy-Binet writes each W_S, and each derivative dW_S / dc_ij, as a sum of
Wronskians of monomials times the scalar minors of c, which one memoized
table holds.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cartan import cartan_apply
from .cpoly import ComplexPoly

__all__ = [
    "Grid",
    "PositivityError",
    "Rings",
    "SolutionParams",
    "lambda_product_target",
    "normalize_lambdas",
    "sample_params",
    "log_det_k",
    "lower_components",
    "log_det_k_tangent",
    "frequency_directions",
    "kernel_directions",
    "params_to_json",
    "params_from_json",
    "load_params",
]


class PositivityError(ArithmeticError):
    """Gram determinant positivity failed; signals numerical breakdown."""


def lambda_product_target(n: int) -> float:
    """Required product lambda_0 * ... * lambda_n; below the normal doubles from n = 18."""
    prod = 1.0
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            prod *= float(j - i + 1) ** -2
    target = 2.0 ** (-n * (n + 1)) * prod
    if target < 2.0**-1022:  # the least normal double
        raise ValueError(f"n = {n}: the lambda product target underflows to {target} (n <= 17)")
    return target


def normalize_lambdas(raw, n: int):
    """Scale all lambdas by one common factor so the product constraint holds.

    Ratios lambda_i / lambda_j are preserved.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    raw = [float(x) for x in raw]
    if len(raw) != n + 1:
        raise ValueError(f"expected {n + 1} lambdas, got {len(raw)}")
    if not all(math.isfinite(x) and x > 0 for x in raw):
        raise ValueError("lambdas must be positive and finite")
    target = lambda_product_target(n)
    log_t = (math.log(target) - sum(math.log(x) for x in raw)) / (n + 1)
    t = math.exp(log_t)
    return tuple(x * t for x in raw)


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

    def length_scale(self) -> float:
        """t = (lambda_0 / lambda_n)^(1/2n), the solution's own length scale (D t at dilation D)."""
        return math.exp((math.log(self.lambdas[0]) - math.log(self.lambdas[self.n])) / (2 * self.n))

    def outer_scale(self) -> float:
        """L = max(t, max_ij |c_ij|^(1/(i-j))); hypot makes a modulus past the double range inf."""
        return max([self.length_scale()] + [math.hypot(c.real, c.imag) ** (1.0 / (i - j))
                                            for i, p in enumerate(self.polys, start=1)
                                            for j, c in enumerate(p.coeffs[:-1])])


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hashmixer(const: int, mult: int):
    """SeedSequence's hashmix: a 32-bit hash whose constant advances on every call."""
    def hashmix(value: int) -> int:
        nonlocal const
        const, value = const * mult & _M32, value ^ const
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _pcg64(seed: int):
    """The 64-bit outputs of numpy's default_rng(seed): PCG64 seeded through SeedSequence.

    NEP 19 freezes these two streams but not Generator's methods, so
    sample_params draws from the outputs as numpy 2.4.6's Generator does.
    """
    seed = operator.index(seed)  # TypeError on a float or str, as in SeedSequence, and on None
    if seed < 0:
        raise ValueError("expected non-negative integer")
    # SeedSequence: the seed's little-endian 32-bit words mixed into a pool of 4.
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hashmixer(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]

    def mix(j: int, value: int):
        pool[j] = (0xCA01F9DD * pool[j] - 0x4973F715 * hashmix(value)) & _M32
        pool[j] ^= pool[j] >> 16

    for i, j in itertools.permutations(range(4), 2):
        mix(j, pool[i])
    for word, j in itertools.product(words[4:], range(4)):
        mix(j, word)
    hashmix = _hashmixer(0x8B51F9DD, 0x58F38DED)  # generate_state(4, uint64)
    w = [hashmix(pool[i]) | hashmix(pool[i + 1]) << 32 for i in (0, 2, 0, 2)]
    # PCG64 from state 0: step, add the first two words, step; inc from the last two.
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * mult + inc) & _M128
    while True:
        state = (state * mult + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (x >> rot | x << (-rot & 63)) & _M64


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
    relative comparisons against them are well conditioned.  The draws are
    numpy's default_rng(seed) draws bit for bit (_pcg64), on any numpy.
    """
    if not (math.isfinite(dilation) and dilation > 0):
        raise ValueError("dilation must be positive and finite")
    if not (math.isfinite(magnitude) and magnitude >= 0):
        raise ValueError("magnitude must be finite and >= 0")
    outputs, halves = _pcg64(seed), []

    def uniform(low: float, high: float) -> float:
        return low + (high - low) * ((next(outputs) >> 11) * 2.0**-53)

    # An overflow gives inf or NaN, which normalize_lambdas rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        raw = dilation ** (-2.0 * np.arange(n + 1))
        raw = raw * np.exp(magnitude * np.array([uniform(-1.0, 1.0) for _ in range(n + 1)]))
    lambdas = normalize_lambdas(raw, n)
    bound = magnitude / math.sqrt(2.0)

    def draw() -> float:
        # choice([-1.0, 1.0]) is the top bit of a 32-bit draw: the low half
        # of a 64-bit output, then its high half.
        if not halves:
            halves[:] = divmod(next(outputs), 2**32)
        return (-1.0, 1.0)[halves.pop() >> 31] * uniform(0.25 * bound, bound)

    polys = []
    for i in range(1, n + 1):
        coeffs = [
            complex(draw(), draw()) * dilation ** (i - j) if magnitude > 0 else 0j
            for j in range(i)
        ] + [1 + 0j]
        polys.append(ComplexPoly(tuple(coeffs)))
    return SolutionParams(n=n, lambdas=lambdas, polys=tuple(polys))


# -- Wronskian minors and Gram determinants --------------------------------

_memo = {}  # {sp: (*_wronskian_minors(sp), {slot: _tangent_minors})} of one set at a time


def _coefficient_minors(sp: SolutionParams, rows: tuple, table: dict) -> dict:
    """{cols: det c[rows, cols]} for the coefficient matrix c, built once into `table`.

    Row t of c holds the coefficients of P_t, with P_0 = 1, so c is lower
    triangular with unit diagonal and det c[rows, cols] vanishes unless
    cols[s] <= rows[s] at every s: only those cols are listed.  Each minor is
    the Laplace expansion along the last row over the minors of rows[:-1].
    """
    if not rows:
        return {(): 1}
    if rows not in table:
        top, minors = rows[-1], {}
        row = sp.polys[top - 1].coeffs if top else (1 + 0j,)
        for cols, minor in _coefficient_minors(sp, rows[:-1], table).items():
            for a in range(top + 1):
                if a in cols or not row[a]:
                    continue
                pos = bisect.bisect(cols, a)
                key = cols[:pos] + (a,) + cols[pos:]
                minors[key] = minors.get(key, 0) + (-1) ** (len(cols) - pos) * row[a] * minor
        table[rows] = minors
    return table[rows]


@lru_cache(maxsize=None)
def _monomial_wronskian(exponents: tuple) -> int:
    """V(A) = prod_{a < b in A} (b - a).

    The monomials z^a, a in A, have the Wronskian V(A) z^(sum A - k(k-1)/2), k = |A|.
    """
    return math.prod(b - a for a, b in itertools.combinations(exponents, 2))


def _cauchy_binet(sp: SolutionParams, subset: tuple, table: dict, slot=None) -> ComplexPoly:
    """W_S for S = subset, or dW_S / dc_ij for slot (i, j), from the minors of c.

    The columns P_t = sum_a c[t, a] z^a give, by Cauchy-Binet,
    W_S = sum_A V(A) det c[S, A] z^(sum A - k(k-1)/2).  Along c_ij the
    cofactor of (i, j) gives dW_S = sum_{A containing j} +-V(A)
    det c[S - i, A - j] z^(...).  A coefficient no minor reaches stays an
    exact zero, so the degrees are exact.
    """
    k = len(subset)
    shift = k * (k - 1) // 2
    coeffs = [0j] * (sum(subset) - shift + 1)
    if slot is None:
        for cols, minor in _coefficient_minors(sp, subset, table).items():
            coeffs[sum(cols) - shift] += _monomial_wronskian(cols) * minor
    else:
        i, j = slot
        rows = tuple(t for t in subset if t != i)
        for cols, minor in _coefficient_minors(sp, rows, table).items():
            if j not in cols:
                pos = bisect.bisect(cols, j)
                cols = cols[:pos] + (j,) + cols[pos:]
                sign = (-1) ** (subset.index(i) + pos)
                coeffs[sum(cols) - shift] += sign * _monomial_wronskian(cols) * minor
    return ComplexPoly.from_coeffs(coeffs)


def _stack(polys, degree: int) -> np.ndarray:
    """The coefficients of polys, z^0 to z^degree, as the rows of a complex array."""
    rows = [p.coeffs + (0j,) * (degree - p.degree) for p in polys]
    return np.array(rows, dtype=complex).reshape(-1, degree + 1)


def _wronskian_minors(sp: SolutionParams) -> tuple:
    """(rows, table): per k = 1..n+1, (minors, D_k, const, scaled) for det_k; c's minor table.

    W_S = det( P_i^{(p)} )_{p=0..k-1, i in S} over k-subsets S of {0..n},
    with P_0 = 1, is a polynomial in z.  `minors` holds (S, lambda_S, W_S)
    for each S, D_k is the top minor degree, `const` sums lambda_S |W_S|^2
    over constant minors, and the rows of `scaled` hold the coefficients of
    sqrt(lambda_S) W_S for the others, z^0 to z^D_k.
    """
    table, out = {}, []
    for k in range(1, sp.n + 2):
        minors = []
        for subset in itertools.combinations(range(sp.n + 1), k):
            w = _cauchy_binet(sp, subset, table)
            minors.append((subset, math.prod(sp.lambdas[i] for i in subset), w))
        const = sum(lam * abs(w.coeffs[0]) ** 2 for _, lam, w in minors if w.degree == 0)
        degree = max(w.degree for *_, w in minors)
        scaled = [w.scale(math.sqrt(lam)) for _, lam, w in minors if w.degree > 0]
        out.append((tuple(minors), degree, const, _stack(scaled, degree)))
    return tuple(out), table


def _powers(w, degree: int) -> np.ndarray:
    """w^0..w^degree along a new last axis, by repeated products: exact under powers of two."""
    w = np.asarray(w)
    out = np.empty(w.shape + (degree + 1,), dtype=np.result_type(w, float))
    out[..., 0], out[..., 1:] = 1.0, w[..., None]
    return np.multiply.accumulate(out, axis=-1, out=out)


# A point set's row r maps a polynomial's coefficients c_j 2^((j - D) e_r) in w = z / 2^e_r
# to complex weights (`rows`), whose Re and Im times the first rows of one real table
# (`columns` at the largest D) give Re and Im of the polynomial at the row's points.


@dataclass(frozen=True, eq=False)
class Grid:
    """The points x[r] + i y[c], a row per x and a column per y; scattered z are Grid(z, [0]).

    Row r holds the Taylor coefficients about x[r] / 2^e_r times (i / 2^e_r)^m, against the
    columns y^m (so |y|^D must stay in the double range; the walk's |y| is at most 2).
    """

    x: np.ndarray
    y: np.ndarray
    shape = property(lambda self: (len(self.x), len(self.y)))
    size = property(lambda self: math.prod(self.shape))

    def moduli(self) -> np.ndarray:
        return np.hypot(np.abs(self.x), np.max(np.abs(self.y), initial=0.0))

    def columns(self, degree: int) -> np.ndarray:
        return _powers(self.y, degree).T.copy()

    def rows(self, coeffs, rows, e, scale) -> np.ndarray:
        steps = np.arange(scale.shape[1])
        u = _powers(self.x[rows] * np.ldexp(1.0, -e), steps[-1])
        turn = _powers(1j * np.ldexp(1.0, -e), steps[-1])  # (i / 2^e_r)^m
        # C(j, m) = prod_{0 < t <= m} (j - t + 1) / t, rounded to the integer it is (0 at m > j).
        ratios = (steps[:, None] - steps + 1.0) / np.maximum(steps, 1)
        ratios[:, 0] = 1.0
        taylor = np.rint(np.cumprod(ratios, axis=1)) * u[:, abs(steps[:, None] - steps)]
        return np.einsum("mj,rjt->rmt", coeffs, taylor * (scale[:, :, None] * turn[:, None, :]))


@dataclass(frozen=True, eq=False)
class Rings:
    """The points radii[r] e^(i angles[c]), a row per radius (one for a scalar radius).

    Row r holds c_j (radii[r] / 2^e_r)^j and i times it, against cos(j angle) and sin(j angle).
    """

    radii: np.ndarray
    angles: np.ndarray
    shape = property(lambda self: np.shape(self.radii) + (len(self.angles),))
    size = property(lambda self: math.prod(self.shape))

    def moduli(self) -> np.ndarray:
        return np.abs(np.reshape(self.radii, -1))

    def columns(self, degree: int) -> np.ndarray:
        turns = np.multiply.outer(np.arange(degree + 1), self.angles)
        return np.stack([np.cos(turns), np.sin(turns)], axis=1).reshape(-1, len(self.angles))

    def rows(self, coeffs, rows, e, scale) -> np.ndarray:
        radii = np.reshape(self.radii, -1)[rows] * np.ldexp(1.0, -e)
        lhs = coeffs * (_powers(radii, scale.shape[1] - 1) * scale)[:, None, :]
        return np.stack([lhs, 1j * lhs], axis=-1).reshape(lhs.shape[:2] + (2 * scale.shape[1],))


# Multiply-adds per matrix product: at most 65536 * 4, under which OpenBLAS stays on one thread.
PRODUCT_SIZE = 2**18
# Values in the kernel's own value block, and row weights formed at once.
BLOCK_VALUES = 2**15


def _log_dets(sp: SolutionParams, ks, points, directions=(), out=None, work=None) -> tuple:
    """(log det_k(f), d log det_k / d(which)) at the points (a Grid, Rings or array z) per k in ks.

    The first array stacks the rows along axis 0; the second stacks, for each direction, its
    rows the same way.  Both go into `out` when given: the first array, and the second or a
    list of its directions' rows.  `work` is float scratch for the kernel's values.
    Row r takes e_r >= 0, the least with its |z| < 2^e_r, and det_k = 2^(2 D_k e_r) (const
    2^(-2 D_k e_r) + sum_S |s_S|^2), s_S = sum_j c_j 2^((j - D_k) e_r) w^j at w = z / 2^e_r for
    q_S = sqrt(lambda_S) W_S = sum_j c_j z^j: scaling by powers of two is exact, so s_S =
    2^(-D_k e_r) q_S where nothing under- or overflows, and |s_S| <= sum_j |c_j|.  Per k and tile
    of rows, matrix products of at most PRODUCT_SIZE multiply-adds give Re and Im of every
    non-constant s_S and every requested slot's ds_S (_tangent_minors); det_k sums the squares of
    the s_S, and a direction of unit u contracts its slot's ds_S with conj(u) times a copy of the
    s_S at its positions (or, at u = 1, with a run of them in place), Re(conj(s_S) u ds_S), so a
    beta reuses its alpha's ds_S.  A det_k that is not finite and positive raises PositivityError
    naming k and the span of the rows' |z|.
    """
    shape = points.shape if isinstance(points, (Grid, Rings)) else np.shape(np.atleast_1d(points))
    if not isinstance(points, (Grid, Rings)):  # scattered z: a row each, one column y = 0
        points = Grid(np.ravel(np.asarray(points, dtype=complex)), np.zeros(1))
    moduli = points.moduli()
    e = np.maximum(np.frexp(moduli)[1], 0)
    dets, tangents = out or (np.empty((len(ks),) + shape),
                             np.empty((len(directions), len(ks)) + shape))
    moves = [_coefficient_slot(sp.n, which) for which in directions]
    if sp not in _memo:  # the last set's tables are dropped before sp's are built
        _memo.clear()
        _memo[sp] = (*_wronskian_minors(sp), {})
    per_k, minors, tables = _memo[sp]
    for slot in dict.fromkeys(slot for slot, _ in moves if slot not in tables):
        # On the slot's first use: (offset, share, positions, rows of ds_S) per k.
        tables[slot] = [(offset, share, list(polys), _stack(polys.values(), per_k[k][1]))
                        for k, (offset, share, polys) in
                        enumerate(_tangent_minors(sp, slot, per_k, minors))]
    table, block = points.columns(max(per_k[k - 1][1] for k in ks)), work
    width = table.shape[1]
    # Overflow and NaN are caught by the range check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for row, k in enumerate(ks):
            _, degree, const, scaled = per_k[k - 1]
            pieces, slots, spans = [scaled], {}, {}
            for slot, unit in dict.fromkeys(moves):
                positions, dq = tables[slot][k - 1][2:]
                if slot not in slots:
                    slots[slot] = sum(map(len, pieces))
                    pieces.append(dq)
                first = positions[0] if positions else 0
                if unit == 1 and positions == list(range(first, first + len(positions))):
                    spans[slot, unit] = first, slots[slot], len(dq)  # a run of the s_S
                    continue
                spans[slot, unit] = sum(map(len, pieces)), slots[slot], len(dq)
                pieces.append(np.conj(unit) * scaled[positions])
            coeffs = np.concatenate(pieces)
            depth = 2 * len(coeffs)  # values per point
            if block is None or len(block) < depth * width:
                block = np.empty(max(depth * width, BLOCK_VALUES))
            # A tile is as many rows as the block holds, and a slab as many rows as have
            # their weights formed at once.
            step = len(block) // max(depth * width, 1)
            slab = max(step, BLOCK_VALUES // max(depth * len(table), 1))
            acc = dets[row].reshape(len(e), width)
            sums = [t[row].reshape(len(e), width) for t in tangents]
            for top in range(0, len(e), slab):
                rows = slice(top, top + slab)
                scale = np.ldexp(1.0, (np.arange(degree + 1) - degree) * e[rows, None])
                lhs = points.rows(coeffs, rows, e[rows], scale)
                lhs = np.stack((lhs.real, lhs.imag), axis=2)
                columns = table[: lhs.shape[-1]]
                chunk = max(1, PRODUCT_SIZE // columns.size)
                for first in range(0, len(lhs), step):
                    piece = lhs[first : first + step]
                    tile = piece.reshape(-1, len(columns))
                    values = block[: len(tile) * width].reshape(len(tile), width)
                    for a in range(0, len(tile), chunk):
                        np.matmul(tile[a : a + chunk], columns, out=values[a : a + chunk])
                    values = values.reshape(len(piece), depth, width)
                    at = slice(top + first, top + first + len(piece))
                    squares = values[:, : 2 * len(scaled)]
                    np.einsum("rxc,rxc->rc", squares, squares, out=acc[at])
                    for total, move in zip(sums, moves):
                        a, b, m = spans[move]
                        np.einsum("rxc,rxc->rc", values[:, 2 * a : 2 * (a + m)],
                                  values[:, 2 * b : 2 * (b + m)], out=total[at])
            shift = np.ldexp(1.0, -2 * degree * e)[:, None]
            acc += const * shift
            # Below ~1e-290 the squared terms approach subnormal numbers and
            # lose digits; NaN fails every comparison.
            if not 1e-290 <= np.min(acc) <= np.max(acc) < np.inf:
                raise PositivityError(f"det_{k} is not finite and positive on rows whose largest "
                                      f"|z| spans [{np.min(moduli):g}, {np.max(moduli):g}]")
            for total, (slot, unit) in zip(sums, moves):
                offset, share = tables[slot][k - 1][:2]
                if share:  # only a weight's slot has a share or an offset
                    total += (unit * share).real * shift
                total /= acc
                if offset:
                    total += offset
            np.log(acc, out=acc)
            acc += (2 * degree * e)[:, None] * math.log(2.0)
    return dets, tangents


def log_det_k(sp: SolutionParams, k: int, z):
    """log det_k(f) at z (scalar or array), k = 1..n+1."""
    if not 1 <= k <= sp.n + 1:
        raise ValueError(f"k={k} out of range 1..{sp.n + 1}")
    out = _log_dets(sp, (k,), z)[0][0]
    return float(out[0]) if np.ndim(z) == 0 else out


def lower_components(sp: SolutionParams, z) -> np.ndarray:
    """U_i = sum_j a_ij U^j, stacked along axis 0; z a scalar, an array, a Grid or Rings."""
    upper = log_det_k_tangent(sp, (), z)[0]
    return cartan_apply(upper, out=upper)


# -- parameter directions --------------------------------------------------

# alpha{f}_m and beta{f}_m, with no digit at f = 1, and loglambda_I.
_DIRECTION = re.compile(r"(alpha|beta)([2-9]|[1-9]\d+)?_([1-9]\d*)|loglambda_(0|[1-9]\d*)")


def frequency_directions(n: int, f: int) -> dict:
    """{m: (alpha{f}_m, beta{f}_m)} for m = f..n, which move Re and Im of c_{n+f-m, n-m}.

    The digit is left out at f = 1.  That coefficient's tangent field has frequency f at large r.
    """
    digit = str(f) if f > 1 else ""
    return {m: (f"alpha{digit}_{m}", f"beta{digit}_{m}") for m in range(f, n + 1)}


def kernel_directions(n: int) -> list[str]:
    """The alpha, then the beta directions of frequency 1, then those of frequency 2."""
    return [pair[part] for f in (1, 2) for part in (0, 1)
            for pair in frequency_directions(n, f).values()]


def _coefficient_slot(n: int, which: str) -> tuple:
    """(slot, unit): a direction moves its slot by unit * delta.  The one parser of names.

    alpha{f}_m and beta{f}_m move c_ij, slot (i, j) = (n+f-m, n-m), 1 <= f <= m <= n, by
    unit 1 and i.  loglambda_I moves log lambda_I, slot (I, -1), then every lambda by the
    common factor that keeps their product.  "radial" moves z to e^delta z.
    """
    if which == "radial":
        return which, 1
    match = _DIRECTION.fullmatch(which)
    if match is None:
        raise ValueError(f"cannot parse direction {which!r}")
    kind, f, m, index = match.groups()
    if index is not None:
        if not 0 <= int(index) <= n:
            raise IndexError(f"lambda index {index} out of range 0..{n}")
        return (int(index), -1), 1
    f, m = int(f or 1), int(m)
    if not f <= m <= n:
        raise IndexError(f"{which}: frequency {f} and index {m} need f <= m <= {n}")
    return (n + f - m, n - m), (1 if kind == "alpha" else 1j)


def _tangent_minors(sp: SolutionParams, slot, per_k: tuple, table: dict) -> tuple:
    """For each k = 1..n, (offset, share, {position: dq_S}) with

        d log det_k / d(delta) = offset + Re(unit (share + sum_S conj(q_S) dq_S)) / det_k

    along a direction that moves the slot by unit * delta (_coefficient_slot),
    where (per_k, table) = _wronskian_minors(sp), q_S = sqrt(lambda_S) W_S sits
    at that position of the non-constant minors in per_k, dq_S = 2 sqrt(lambda_S)
    dW_S at unit 1, and share sums 2 lambda_S conj(W_S) dW_S over the constant
    minors.  This is Jacobi's formula on det_k = sum_S lambda_S |W_S|^2.  W_S is
    linear in c_ij, so along c_ij only subsets S containing i contribute, and
    _cauchy_binet assembles dW_S from the cofactors det c[S - i, A - j]
    already in `table`.  Coefficients no cofactor reaches are exact
    zeros: the constant W_S, on the columns P_0..P_{k-1}, has no c_ij tangent.
    The lambda slot (I, -1) moves only the weights, d log lambda_S =
    [I in S] - k/(n+1), which is dW_S = W_S / 2 on the subsets containing I
    plus the offset -k/(n+1).  The "radial" slot, r d/dr, generates
    z -> e^t z, so dW_S = z W_S' on every S and the offset is 0.
    """
    n = sp.n
    radial = slot == "radial"
    if not radial:
        i, j = slot
    out = []
    for k, (minors, *_) in enumerate(per_k[:n], start=1):
        share, polys, position = 0.0, {}, -1
        for subset, lam, w in minors:
            position += w.degree > 0
            if radial:
                dw = ComplexPoly.from_coeffs(p * c for p, c in enumerate(w.coeffs))
            elif i not in subset:
                continue
            elif j < 0:
                dw = w.scale(0.5)
            else:
                dw = _cauchy_binet(sp, subset, table, slot)
            if dw.is_zero():
                continue
            if w.degree > 0:
                polys[position] = dw.scale(2.0 * math.sqrt(lam))
            else:
                share += 2.0 * lam * w.coeffs[0].conjugate() * dw.coeffs[0]
        out.append((-k / (n + 1) if not radial and j < 0 else 0.0, share, polys))
    return tuple(out)


def log_det_k_tangent(sp: SolutionParams, directions, z, k=None, out=None, work=None) -> tuple:
    """(U^k, exact d log det_k / d(which) for each direction) at the points z (see _log_dets).

    A direction is a parameter direction or "radial" (r d/dr at fixed
    parameters).  U stacks k = 1..n along axis 0 and the tangents stack
    (direction, k) along axes 0 and 1; a given k returns only its row, and only
    its minors are evaluated.  One _log_dets pass serves both, into `out` if given
    and with its `work` scratch.
    """
    if k is not None and not 1 <= k <= sp.n:
        raise ValueError(f"k={k} out of range 1..{sp.n}")
    ks = range(1, sp.n + 1) if k is None else (k,)
    upper, tangents = _log_dets(sp, ks, z, directions, out=out, work=work)
    for row, k_row in zip(upper, ks):
        row += k_row * (k_row - 1) * math.log(2.0)
    np.negative(upper, out=upper)
    return (upper, tangents) if k is None else (upper[0], tangents[:, 0])


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


def _json_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _refuse_unknown_keys(doc: dict, known: tuple, where: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def params_from_json(doc: dict) -> SolutionParams:
    """Build params from the JSON schema; lambdas are normalized.

    A malformed document raises ValueError: a missing or mistyped value, an
    unknown key, or a coefficient (i, j) given twice.
    """
    if not isinstance(doc, dict) or "lambdas" not in doc:
        raise ValueError("parameters must be a JSON object with n and lambdas")
    _refuse_unknown_keys(doc, ("n", "lambdas", "coeffs"), "parameters")
    n = _json_int(doc, "n")
    lambdas = normalize_lambdas([_json_number(x, "lambda") for x in doc["lambdas"]], n)
    cmaps = {i: {} for i in range(1, n + 1)}
    for entry in doc.get("coeffs", []):
        i, j = _json_int(entry, "i"), _json_int(entry, "j")
        _refuse_unknown_keys(entry, ("i", "j", "re", "im"), f"coefficient ({i},{j})")
        if not 1 <= i <= n or not 0 <= j < i:
            raise ValueError(f"coefficient index ({i},{j}) out of range")
        if j in cmaps[i]:
            raise ValueError(f"coefficient ({i},{j}) given more than once")
        cmaps[i][j] = complex(*(_json_number(entry.get(key, 0.0), key) for key in ("re", "im")))
    polys = []
    for i in range(1, n + 1):
        coeffs = [cmaps[i].get(j, 0j) for j in range(i)] + [1 + 0j]
        polys.append(ComplexPoly(tuple(coeffs)))
    return SolutionParams(n=n, lambdas=lambdas, polys=tuple(polys))


def load_params(path) -> SolutionParams:
    """params_from_json of a file; a mistyped or out-of-range value raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return params_from_json(doc)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed parameters in {path}: {exc}") from None
