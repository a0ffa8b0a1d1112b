"""Solution construction, Gram determinants, parameter handling."""

import itertools
import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from gram_oracle import (cartan_dense, derivative, det_k_lu, direction_move, family,
                         laplace_det, mixed_derivative, mp_log_det, mp_upper_and_tangents,
                         perturbed)
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab import solution
from todalab.asymptotics import circle, sphere_rule
from todalab.cpoly import ComplexPoly
from todalab.solution import (
    PositivityError,
    SolutionParams,
    frequency_directions,
    kernel_directions,
    lambda_product_target,
    load_params,
    log_det_k,
    log_det_k_tangent,
    lower_components,
    normalize_lambdas,
    params_from_json,
    params_to_json,
    sample_params,
)

LOG2 = math.log(2.0)


def liouville_params() -> SolutionParams:
    """n=1, lambda = (1/2, 1/2), P_1 = z: the closed-form reference case."""
    return SolutionParams(
        n=1, lambdas=(0.5, 0.5), polys=(ComplexPoly((0j, 1 + 0j)),)
    )


# -- lambda normalization --------------------------------------------------


def test_lambda_product_targets():
    assert lambda_product_target(1) == pytest.approx(0.25)
    assert lambda_product_target(2) == pytest.approx(1.0 / 256.0)
    assert lambda_product_target(3) == pytest.approx(1.0 / (4096.0 * 144.0))


@given(
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=50)
def test_normalize_preserves_ratios_and_hits_product(n, data):
    raw = data.draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    lambdas = normalize_lambdas(raw, n)
    assert math.prod(lambdas) == pytest.approx(lambda_product_target(n), rel=1e-9)
    scale = lambdas[0] / raw[0]
    for a, b in zip(lambdas, raw):
        assert a == pytest.approx(scale * b, rel=1e-12)


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_lambdas([1.0], 1)
    with pytest.raises(ValueError):
        normalize_lambdas([1.0, -1.0], 1)


def test_params_validation():
    with pytest.raises(ValueError):
        SolutionParams(n=1, lambdas=(1.0, 1.0), polys=(ComplexPoly((0j, 1 + 0j)),))
    with pytest.raises(ValueError):
        SolutionParams(n=1, lambdas=(0.5, 0.5), polys=(ComplexPoly((0j, 2 + 0j)),))
    with pytest.raises(ValueError):
        SolutionParams(n=0, lambdas=(1.0,), polys=())


# -- closed-form Liouville case --------------------------------------------


def test_liouville_upper_component_closed_form():
    sp = liouville_params()
    for z in (0j, 1 + 1j, 3 - 2j, 50j):
        f = 0.5 * (1.0 + abs(z) ** 2)
        assert log_det_k(sp, 1, z) == pytest.approx(math.log(f), rel=1e-12)
        u1 = log_det_k_tangent(sp, (), z)[0][0]
        assert u1 == pytest.approx(-math.log(f), rel=1e-12)


def test_liouville_top_determinant_is_quarter():
    sp = liouville_params()
    for z in (0j, 2 + 1j, 100 + 0j):
        assert log_det_k(sp, 2, z) == pytest.approx(math.log(0.25), abs=1e-12)


def test_liouville_lower_component_is_standard_bubble():
    # e^{U_1} = 4 / (1 + |z|^2)^2 for this parameter choice.
    sp = liouville_params()
    z = np.array([0j, 1 + 0j, 2j, 5 - 5j])
    e_u = np.exp(lower_components(sp, z)[0])
    assert np.allclose(e_u, 4.0 / (1.0 + np.abs(z) ** 2) ** 2, rtol=1e-12)


# -- Gram determinant routes -----------------------------------------------


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 0), (2, 3), (3, 1)])
def test_minor_route_agrees_with_lu_at_moderate_radius(n, seed):
    sp = sample_params(n, seed, 0.4)
    for z in (0.3 + 0.2j, 1 + 1j, 2 - 3j):
        for k in range(1, n + 2):
            log_lu, s_lu = det_k_lu(sp, k, z)
            assert s_lu == 1
            assert log_det_k(sp, k, z) == pytest.approx(log_lu, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_top_determinant_is_constant(n):
    # det_{n+1}(f) = prod lambda_i * (prod_{i<=n} i!)^2 = 2^{-n(n+1)},
    # a z-independent constant once the product constraint holds.
    sp = sample_params(n, 7, 0.5)
    expected = -n * (n + 1) * LOG2
    for z in (0j, 1 + 2j, 30 - 40j, 1e3 + 0j):
        assert log_det_k(sp, n + 1, z) == pytest.approx(expected, abs=1e-9)


def test_laplace_det_2x2():
    # det [[1, z], [0, 1]] = 1
    assert laplace_det([[(1,), (0, 1)], [(), (1,)]]) == [1]


def _relative_error(got, ref) -> float:
    """max |got - ref| over the coefficients, relative to the largest |ref|."""
    got, ref = (np.asarray(x, dtype=complex) for x in (got, ref))
    size = max(len(got), len(ref))
    got, ref = (np.pad(x, (0, size - len(x))) for x in (got, ref))
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_minors_match_plain_laplace_expansion(n):
    # Cauchy-Binet over the coefficient minors and the plain Laplace
    # expansion of the matrix of derivatives share no step, yet give W_S and
    # each dW_S to rounding (dW_S: W_S with column i replaced by z^j).
    for seed in (0, 5):
        sp = sample_params(n, seed, 0.5)
        cols = [[derivative(p, order) for order in range(n + 1)] for p in family(sp)]
        per_k, table = solution._wronskian_minors(sp)
        for k, (minors, *_) in enumerate(per_k, start=1):
            for subset, _, w in minors:
                rows = [[cols[t][p] for t in subset] for p in range(k)]
                assert _relative_error(w.coeffs, laplace_det(rows)) <= 1e-14, (seed, subset)
        for i, j in coefficient_slots(n):
            column = [derivative([0] * j + [1], p) for p in range(n + 1)]
            tangents = solution._tangent_minors(sp, (i, j), per_k, table)
            for k, (_, share, polys) in enumerate(tangents, start=1):
                nonconstant = [m for m in per_k[k - 1][0] if m[2].degree > 0]
                for position, (subset, lam, _) in enumerate(nonconstant):
                    if i not in subset:
                        assert position not in polys
                        continue
                    rows = [[column[p] if t == i else cols[t][p] for t in subset]
                            for p in range(k)]
                    dw = 2.0 * math.sqrt(lam) * np.array(laplace_det(rows) or [0j])
                    if position in polys:
                        assert _relative_error(polys[position].coeffs, dw) <= 1e-14
                    else:
                        assert np.max(np.abs(dw)) <= 1e-14 * 2.0 * math.sqrt(lam)
                # The constant minor's columns are P_0..P_{k-1}: it has no c_ij tangent.
                assert share == 0.0


def _exact_minor(cols, r, subset, table) -> list:
    """The memoized Laplace expansion of the minors, in exact integer arithmetic.

    A polynomial is a list of Gaussian integers (re, im), zero coefficients kept.
    """
    if len(subset) == 1:
        return cols[subset[0]][r]
    key = (r, subset)
    if key not in table:
        minors = [_exact_minor(cols, r + 1, subset[:pos] + subset[pos + 1 :], table)
                  for pos in range(len(subset))]
        acc = [(0, 0)] * max(len(cols[t][r]) + len(m) for t, m in zip(subset, minors))
        for pos, (t, minor) in enumerate(zip(subset, minors)):
            sign = 1 if pos % 2 == 0 else -1
            for a, (xr, xi) in enumerate(cols[t][r]):
                for b, (yr, yi) in enumerate(minor):
                    re, im = acc[a + b]
                    acc[a + b] = (re + sign * (xr * yr - xi * yi), im + sign * (xr * yi + xi * yr))
        table[key] = acc
    return table[key]


def _exact_columns(coeffs, n) -> list:
    """cols[p] = the p-th derivative, p = 0..n, of a Gaussian-integer polynomial."""
    cols = [coeffs]
    for _ in range(n):
        cols.append([(k * re, k * im) for k, (re, im) in enumerate(cols[-1])][1:])
    return cols


def _assert_matches_exact(got: ComplexPoly, exact: list, scale: int, what) -> None:
    """got equals exact / scale to 2e-15 of the largest coefficient, with the same degree."""
    nonzero = [d for d, c in enumerate(exact) if c != (0, 0)]
    assert got.degree == nonzero[-1], what
    ref = [complex(Fraction(re, scale), Fraction(im, scale)) for re, im in exact[: got.degree + 1]]
    assert _relative_error(got.coeffs, ref) <= 2e-15, what


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tangent_minor_degrees_match_exact_expansion(n):
    # Every double is a dyadic rational; multiplying each P_t by the largest
    # denominator (a power of two) multiplies every minor by a power of it,
    # so the exact minors of the double coefficients come out in integers.
    # Every W_S and dW_S coefficient (measured worst: 7.7e-16) is within
    # 2e-15 of them, relative to the largest coefficient, and every degree is
    # exact: a top coefficient that cancels is an exact zero, and a dW_S that
    # vanishes exactly contributes no term.
    for seed in range(4):
        sp = sample_params(n, seed, 0.5)
        exact = [[(Fraction(c.real), Fraction(c.imag)) for c in p.coeffs] for p in sp.polys]
        scale = max(x.denominator for p in exact for c in p for x in c)
        gaussian = [[(1, 0)]] + [[(int(re * scale), int(im * scale)) for re, im in p]
                                 for p in exact]
        cols = [_exact_columns(p, n) for p in gaussian]
        base = {}
        per_k, minor_table = solution._wronskian_minors(sp)
        for minors, *_ in per_k:
            for subset, _, w in minors:
                dw = _exact_minor(cols, 0, subset, base)
                _assert_matches_exact(w, dw, scale ** sum(t > 0 for t in subset), (seed, subset))
        for i, j in coefficient_slots(n):
            swapped = list(cols)
            swapped[i] = _exact_columns([(0, 0)] * j + [(1, 0)], n)
            table = {key: w for key, w in base.items() if i not in key[1]}
            tangents = solution._tangent_minors(sp, (i, j), per_k, minor_table)
            for k, (*_, polys) in enumerate(tangents, start=1):
                expected = set()
                nonconstant = [m for m in per_k[k - 1][0] if m[2].degree > 0]
                for position, (subset, lam, _) in enumerate(nonconstant):
                    if i in subset:
                        dw = _exact_minor(swapped, 0, subset, table)
                        if any(c != (0, 0) for c in dw):
                            expected.add(position)
                            got = polys[position].scale(0.5 / math.sqrt(lam))
                            power = sum(t > 0 for t in subset if t != i)
                            _assert_matches_exact(got, dw, scale**power, (seed, i, j, subset))
                assert set(polys) == expected, (seed, i, j, k)


def test_minor_builds_share_sub_determinants(monkeypatch):
    # The minors det c[rows, cols] of one row set are built once, from those
    # of its rows less the last, and every W_S and dW_S reads them: the base
    # minors build one entry per nonempty row set, a tangent builds none.
    sp = sample_params(5, 0, 0.5)
    built = []
    original = solution._coefficient_minors

    def counted(sp, rows, table):
        if rows and rows not in table:
            built.append(rows)
        return original(sp, rows, table)

    monkeypatch.setattr(solution, "_coefficient_minors", counted)
    per_k, table = solution._wronskian_minors(sp)
    assert len(set(built)) == len(built) == 2**6 - 1
    # Lower triangular: only the cols with cols[s] <= rows[s] at every s are listed.
    assert all(all(a <= t for a, t in zip(cols, rows)) for rows in table for cols in table[rows])
    built.clear()
    solution._tangent_minors(sp, (5, 3), per_k, table)  # c_53, which alpha2_2 moves
    assert built == []


def test_kernel_evaluates_each_minor_once_for_every_direction(monkeypatch):
    # One matrix-product row per point for Re and one for Im of each
    # non-constant q_S of the requested rows, which feeds det_k; each slot adds
    # its dq_S once, which alpha_1 and beta_1 share, and each direction a copy
    # of the q_S at its slot's positions (times -i for beta_1), unless it has
    # unit 1 and they are a run of the q_S, which it reads in place.
    n = 3
    sp = sample_params(n, 0, 0.5)
    directions = ("alpha_1", "beta_1", "alpha2_3", "loglambda_0", "radial")
    ks = (1, 3)
    z = np.array([0.5, 3.0 + 1.0j])
    rows, original = [0], np.matmul

    def counted(a, b, **kwargs):
        rows[0] += len(a)
        return original(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    solution._log_dets(sp, ks, z, directions)
    monkeypatch.undo()
    per_k, table = solution._wronskian_minors(sp)
    minors = sum(len(per_k[k - 1][3]) for k in ks)
    moves = [solution._coefficient_slot(n, which) for which in directions]
    slots = {slot for slot, _ in moves}
    assert len(slots) == len(directions) - 1
    positions = {slot: [list(solution._tangent_minors(sp, slot, per_k, table)[k - 1][2])
                        for k in ks] for slot in slots}
    assert all(positions[slot][-1] for slot in slots)
    terms = sum(len(p) for per_slot in positions.values() for p in per_slot)
    copies = sum(len(p) for slot, unit in moves for p in positions[slot]
                 if unit != 1 or p != list(range(p[0], p[0] + len(p)) if p else []))
    assert 0 < copies < sum(len(p) for slot, _ in moves for p in positions[slot])
    assert rows[0] == 2 * len(z) * (minors + terms + copies)


def test_kernel_reads_each_minor_table_once_per_call(monkeypatch):
    # One read of the one-set memo per call, which builds the Wronskian
    # minors once per parameter set and the tangent minors once per distinct
    # slot (alpha_1 and beta_1 share theirs), however many rows and
    # directions the calls evaluate.
    n = 3
    sp = sample_params(n, 0, 0.5)
    directions = ("alpha_1", "beta_1", "alpha2_3", "loglambda_0", "radial", "beta2_3")
    z = np.array([0.5, 3.0 + 1.0j])
    builds, reads = [], []
    for name in ("_wronskian_minors", "_tangent_minors"):
        def counted(sp, *args, _original=getattr(solution, name), _name=name):
            builds.append((_name,) + args[:1])
            return _original(sp, *args)

        monkeypatch.setattr(solution, name, counted)

    class Memo(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    monkeypatch.setattr(solution, "_memo", Memo())
    for _ in range(2):
        solution._log_dets(sp, (1, 2, 3), z, directions)
    solution._log_dets(sp, (2,), z, directions[1:3])
    slots = [solution._coefficient_slot(n, which)[0] for which in directions]
    assert builds == [("_wronskian_minors",)] + [
        ("_tangent_minors", slot) for slot in dict.fromkeys(slots)]
    assert len(builds) == 1 + 4
    assert reads == [sp] * 3


def _assert_matches_gram_oracle(sp, ks, z):
    # 30 guard digits on top of the n(n+1) log10|z| digits that cancel in
    # the Gram determinant; h = 0 keeps the parameters of sp.
    digits = 30 + math.ceil(sp.n * (sp.n + 1) * math.log10(np.max(np.abs(z))))
    with mp.workdps(digits):
        for k in ks:
            got = log_det_k(sp, k, z)
            for zi, value in zip(z, got):
                ref = float(mp_log_det(sp, k, zi, "alpha_1", 0))
                assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref)), (k, zi)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_log_det_matches_mpmath_gram_determinant(n):
    sp = sample_params(n, 1, 0.5)
    for r in (1e2, 1e3):
        z = r * np.exp(1j * (0.1 + 2.0 * np.pi * np.arange(8) / 8))
        _assert_matches_gram_oracle(sp, range(1, n + 2), z)


def test_log_det_scaled_evaluation_at_radius_1e100():
    # |P_2(z)|^2 ~ 1e400 overflows double precision; the common scale
    # factor must keep det_k finite and accurate.
    sp = sample_params(2, 1, 0.5)
    z = 1e100 * np.exp(1j * (0.1 + 2.0 * np.pi * np.arange(8) / 8))
    _assert_matches_gram_oracle(sp, (1, 2), z)


def test_breakdown_names_k_and_the_span_of_moduli():
    # Each row takes its own scale 2^e_r, so |z| spanning 16 decades at n = 5 is
    # evaluated as each point alone is; a point at infinity is refused, naming k
    # and the span of |z| over the rows.
    sp = sample_params(5, 0, 0.3)
    alone = [log_det_k(sp, 3, 0.5), log_det_k(sp, 3, 1e16)]
    assert alone == pytest.approx([-17.05353991688395, 643.9215906701834], rel=1e-14)
    assert np.array_equal(log_det_k(sp, 3, [0.5, 1e16]), alone)
    with pytest.raises(PositivityError) as info:
        log_det_k(sp, 3, [0.5, math.inf])
    message = str(info.value)
    assert "det_3" in message and "0.5" in message and "inf" in message


def test_breakdown_names_the_span_of_a_grids_rows():
    # The grid walk passes its axes; a non-finite row is refused with the span
    # of the rows' largest |z|, and a finite window is evaluated in the scratch
    # the caller passes, rows of 1 + 0.5i and 1e16 + 0.5i alike.
    sp = sample_params(5, 0, 0.3)
    y = np.array([-0.5, 0.5])
    with pytest.raises(PositivityError) as info:
        solution._log_dets(sp, (3,), solution.Grid(np.array([1.0, math.inf]), y))
    message = str(info.value)
    assert "det_3" in message and "1.11803" in message and "inf" in message
    work = np.full(4 * 2 * 19, np.nan)  # the values of two rows' 19 non-constant q_S
    dets = solution._log_dets(sp, (3,), solution.Grid(np.array([1.0, 1e16]), y), work=work)[0]
    z = np.array([[1.0, 1.0], [1e16, 1e16]]) + 1j * y
    assert dets[0] == pytest.approx(np.array([log_det_k(sp, 3, row) for row in z]), rel=1e-14)
    assert not np.isnan(work).any()


def _point_sets(sp) -> dict:
    """{kind: (points, the same points as one array z)}: grid rows, a circle, sphere rings."""
    x, y = np.array([-1.5, 0.25]), np.array([-0.75, 2.0])
    sets = {"grid": (solution.Grid(x, y), x[:, None] + 1j * y)}
    for kind, rings in (("circle", circle(40.0, 3)),
                        ("sphere", sphere_rule(sp.length_scale(), 2, 2)[0])):
        sets[kind] = (rings, np.multiply.outer(rings.radii, np.exp(1j * rings.angles)))
    return sets


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_each_kind_of_point_set_matches_the_gram_oracle(n):
    # U^k and every kernel direction, loglambda_0 and "radial", on grid rows,
    # a circle, sphere rings and scattered z, against Jacobi's formula on the
    # mpmath Gram matrix.  Measured worst: 2.9e-15 on U, 2.0e-15 on a tangent.
    sp = sample_params(n, 2, 0.5)
    directions = kernel_directions(n) + ["loglambda_0", "radial"]
    sets = _point_sets(sp)
    scattered = np.array([0.5 + 0.25j, -3.0 + 1.0j, 1e3 * np.exp(1j)])
    sets["scattered"] = (scattered, scattered)
    for kind, (points, z) in sets.items():
        upper, tangents = log_det_k_tangent(sp, directions, points)
        for index in np.ndindex(z.shape):
            zi = complex(z[index])
            with mp.workdps(30 + math.ceil(n * (n + 1) * math.log10(max(abs(zi), 1.0)))):
                for k in range(1, n + 1):
                    ref = [float(x) for x in mp_upper_and_tangents(sp, k, zi, directions)]
                    got = [upper[k - 1][index]] + [t[k - 1][index] for t in tangents]
                    for which, value, want in zip(["U"] + directions, got, ref):
                        assert abs(value - want) <= 1e-14 * max(1.0, abs(want)), (kind, k, which)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_product_sets_match_their_points_as_scattered_z(n):
    # A product set's rows and columns and the same points passed one by one
    # take different routes (Taylor rows, cos/sin columns, power sums) to the
    # same values: within 32 ulps of max(1, |value|), 24 at most measured
    # (U on the grid at n = 5).
    for seed in range(2):
        sp = sample_params(n, seed, 0.5, 3.0)
        directions = kernel_directions(n) + ["loglambda_0", "radial"]
        for kind, (points, z) in _point_sets(sp).items():
            for got, want in zip(log_det_k_tangent(sp, directions, points),
                                 log_det_k_tangent(sp, directions, z)):
                ulps = np.abs(got - want) / np.spacing(np.maximum(np.abs(want), 1.0))
                assert got.shape == want.shape and np.max(ulps) <= 32, (kind, seed)


def test_row_blocks_of_any_size_give_each_rows_values():
    # 301 rings over eight decades of radius take several slabs of row weights
    # and tiles of rows whose counts do not divide them, in the kernel's own
    # block or in a caller's small one; each row's values are those of the row
    # alone, within 4 ulps of max(1, |value|).
    sp = sample_params(4, 1, 0.5)
    directions = ("alpha_1", "beta2_3", "radial")
    rings = solution.Rings(np.geomspace(0.1, 1e4, 301), 2.0 * np.pi * np.arange(48) / 48)
    alone = [log_det_k_tangent(sp, directions, solution.Rings(r, rings.angles))
             for r in rings.radii]
    for work in (None, np.empty(3 * 2 * 60 * 48 + 5)):
        upper, tangents = solution.log_det_k_tangent(sp, directions, rings, work=work)
        for row, (u, t) in enumerate(alone):
            for got, want in ((upper[:, row], u), (tangents[:, :, row], t)):
                ulps = np.abs(got - want) / np.spacing(np.maximum(np.abs(want), 1.0))
                assert np.max(ulps) <= 4, row


def test_mixed_derivative_hermitian_symmetry():
    sp = sample_params(2, 4, 0.5)
    for p in range(3):
        for q in range(3):
            z = 1.3 - 0.7j
            assert mixed_derivative(sp, p, q, z) == pytest.approx(
                np.conj(mixed_derivative(sp, q, p, z)), rel=1e-12
            )


def test_log_det_vectorized_matches_scalar():
    sp = sample_params(2, 1, 0.3)
    z = np.array([0.5 + 0.5j, 2 - 1j, 10 + 3j])
    vec = log_det_k(sp, 2, z)
    for zi, vi in zip(z, vec):
        assert vi == pytest.approx(log_det_k(sp, 2, complex(zi)), rel=1e-12)
    # U^k = -(k(k-1) log 2 + log det_k) and U_i = sum_j a_ij U^j, pointwise.
    a = cartan_dense(sp.n)
    lower = lower_components(sp, z)
    for col, zi in enumerate(z):
        upper = [-(k * (k - 1) * LOG2 + log_det_k(sp, k, complex(zi))) for k in (1, 2)]
        assert np.allclose(lower[:, col], a @ np.array(upper), atol=1e-12)


# -- parameter directions ---------------------------------------------------


def coefficient_slots(n):
    """Every c_ij with j < i <= n, through the names that move it."""
    return sorted({solution._coefficient_slot(n, which)[0]
                   for f in range(1, n + 1) for pair in frequency_directions(n, f).values()
                   for which in pair})


def test_parse_direction():
    # The one parser: alpha{f}_m and beta{f}_m move Re and Im of c_{n+f-m, n-m}.
    slot = solution._coefficient_slot
    assert slot(3, "alpha_1") == ((3, 2), 1)
    assert slot(3, "beta2_3") == ((2, 0), 1j)
    assert slot(4, "alpha3_3") == ((4, 1), 1)
    assert slot(3, "loglambda_0") == ((0, -1), 1)
    assert slot(3, "radial") == ("radial", 1)
    for bad in ("gamma_1", "alpha", "alpha0_1", "alpha1_1", "alpha_01", "beta_"):
        with pytest.raises(ValueError):
            slot(3, bad)
    for bad in ("alpha3_2", "alpha_4", "beta4_4", "loglambda_4"):
        with pytest.raises(IndexError):
            slot(3, bad)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_name_moves_the_coefficient_the_oracle_names(n):
    # n(n+1) coefficient directions and n+1 lambda directions (which sum to 0
    # under the product constraint, so the family has n^2 + 2n parameters),
    # each on its own part of one c_ij or lambda_I; the package's parser
    # agrees with the oracle's separate mapping.
    names = [which for f in range(1, n + 1) for pair in frequency_directions(n, f).values()
             for which in pair] + [f"loglambda_{i}" for i in range(n + 1)]
    moves = [solution._coefficient_slot(n, which) for which in names]
    assert len(set(moves)) == len(names) == (n + 1) ** 2
    assert len(coefficient_slots(n)) == n * (n + 1) // 2
    for which, ((i, j), unit) in zip(names, moves):
        assert direction_move(n, which) == (i, j, unit)


def test_beta_reuses_its_alphas_tangent_minors(monkeypatch):
    # A beta moves the same coefficient as its alpha by i, so after an alpha
    # call, which builds its slot's tangent minors, its own call builds none.
    sp = sample_params(3, 6, 0.5)
    z = np.array([0.5, 3.0 + 1.0j])
    built, original = [], solution._tangent_minors

    def counted(sp, slot, *tables):
        built.append(slot)
        return original(sp, slot, *tables)

    monkeypatch.setattr(solution, "_tangent_minors", counted)
    monkeypatch.setattr(solution, "_memo", {})
    for alpha, beta in ("alpha_1", "beta_1"), ("alpha2_3", "beta2_3"), ("alpha3_3", "beta3_3"):
        solution.log_det_k_tangent(sp, (alpha,), z)
        assert built[-1] == solution._coefficient_slot(3, alpha)[0]
        builds = len(built)
        solution.log_det_k_tangent(sp, (beta,), z)
        assert len(built) == builds, beta
    assert len(built) == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_directions_count(n):
    dirs = kernel_directions(n)
    assert len(dirs) == 2 * n + 2 * (n - 1)
    assert len(set(dirs)) == len(dirs)
    # The order the case IDs have always had.
    assert dirs == ([f"alpha_{m}" for m in range(1, n + 1)] + [f"beta_{m}" for m in range(1, n + 1)]
                    + [f"alpha2_{m}" for m in range(2, n + 1)]
                    + [f"beta2_{m}" for m in range(2, n + 1)])


def test_perturbed_shifts_expected_coefficient():
    sp = sample_params(3, 0, 0.3)
    d = 1e-3
    for m in range(1, 4):
        i, j = sp.n + 1 - m, sp.n - m  # alpha_m + i beta_m = c_{n+1-m, n-m}
        delta = perturbed(sp, f"alpha_{m}", d).c(i, j) - sp.c(i, j)
        assert delta == pytest.approx(d)
        delta = perturbed(sp, f"beta_{m}", d).c(i, j) - sp.c(i, j)
        assert delta == pytest.approx(1j * d)
    for m in (2, 3):
        i, j = sp.n + 2 - m, sp.n - m  # alpha_{m,2} + i beta_{m,2} = c_{n+2-m, n-m}
        delta = perturbed(sp, f"alpha2_{m}", d).c(i, j) - sp.c(i, j)
        assert delta == pytest.approx(d)


def test_perturbed_loglambda_keeps_constraint():
    sp = sample_params(2, 0, 0.3)
    sp2 = perturbed(sp, "loglambda_1", 0.05)
    assert math.prod(sp2.lambdas) == pytest.approx(lambda_product_target(2), rel=1e-9)
    assert sp2.lambdas != sp.lambdas


def test_perturbed_rejects_out_of_range():
    sp = sample_params(2, 0, 0.3)
    with pytest.raises(IndexError):
        perturbed(sp, "alpha_3", 1e-3)
    with pytest.raises(IndexError):
        perturbed(sp, "alpha2_1", 1e-3)


# -- sampling and serialization ---------------------------------------------


def default_rng_params(n, seed, magnitude, dilation=1.0):
    """sample_params as it drew from numpy's Generator, the reference for its own stream."""
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = dilation ** (-2.0 * np.arange(n + 1))
        raw = raw * np.exp(magnitude * rng.uniform(-1.0, 1.0, size=n + 1))
    lambdas = normalize_lambdas(raw, n)
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


SEEDS = [*range(256), 2**32 + 5, 2**64 + 1, 10**30, 2**128 + 3, 2**200 - 1]


def test_pcg64_outputs_are_numpy_pcg64_outputs():
    # Every seed, as many 64-bit outputs as sample_params takes at n = 7
    # (8 uniforms, then 56 uniforms and 28 outputs for 56 signs).
    for seed in SEEDS:
        ours = solution._pcg64(seed)
        assert [next(ours) for _ in range(100)] == np.random.PCG64(seed).random_raw(100).tolist()


@pytest.mark.parametrize("n", range(1, 8))
def test_sample_params_equal_the_default_rng_reference_bit_for_bit(n):
    # The draws from the outputs (uniforms, and signs two to an output),
    # for every size and scale; the outputs themselves are checked for every
    # seed above.  Every draw is nonzero and finite, so == on the frozen
    # dataclass is equality of bits; a set that overflows raises on both sides.
    for seed, magnitude, dilation in itertools.product(
            [0, 1, 255, 2**32 + 5, 2**64 + 1, 10**30], [0.0, 0.3, 5.0], [0.01, 1.0, 3.0, 100.0]):
        try:
            ref = default_rng_params(n, seed, magnitude, dilation)
        except ValueError:
            with pytest.raises(ValueError):
                sample_params(n, seed, magnitude, dilation)
            continue
        assert sample_params(n, seed, magnitude, dilation) == ref


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (-(2**70), ValueError), (1.5, TypeError),
                                        (2.0, TypeError), ("3", TypeError), (np.float64(2.0), TypeError)])
def test_bad_seed_raises_what_default_rng_raised(seed, error):
    with pytest.raises(error):
        default_rng_params(2, seed, 0.3)
    with pytest.raises(error):
        sample_params(2, seed, 0.3)


def test_none_seed_is_a_type_error():
    # default_rng(None) drew fresh entropy; a parameter set always has a seed.
    with pytest.raises(TypeError):
        sample_params(2, None, 0.3)


def test_numpy_integer_seed_is_its_int():
    assert sample_params(3, np.int64(4), 0.3) == sample_params(3, 4, 0.3) == default_rng_params(3, 4, 0.3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sample_params_deterministic_and_valid(n):
    a = sample_params(n, 11, 0.5)
    b = sample_params(n, 11, 0.5)
    assert a == b
    assert sample_params(n, 12, 0.5) != a


def test_sample_magnitude_zero_is_radial():
    sp = sample_params(3, 5, 0.0)
    for i in range(1, 4):
        for j in range(i):
            assert sp.c(i, j) == 0


@pytest.mark.parametrize("seed,magnitude,dilation", [
    (1, 1e3, 1.0), (0, 0.5, 1e-300), (0, 1e3, 1e-300),
])
def test_sample_params_overflow_is_a_value_error(seed, magnitude, dilation):
    # Overflowing lambdas are rejected by the finite check, with no warning
    # on the way (pytest turns every warning into an error).
    with pytest.raises(ValueError, match="positive and finite"):
        sample_params(1, seed, magnitude, dilation)


def test_sample_coefficients_bounded_away_from_zero():
    sp = sample_params(3, 9, 0.4)
    bound = 0.4 / math.sqrt(2.0)
    for i in range(1, 4):
        for j in range(i):
            assert abs(sp.c(i, j).real) >= 0.25 * bound * 0.999
            assert abs(sp.c(i, j).imag) >= 0.25 * bound * 0.999


def test_json_roundtrip(tmp_path):
    sp = sample_params(3, 2, 0.4)
    doc = params_to_json(sp)
    sp2 = params_from_json(doc)
    assert sp2.n == sp.n
    assert np.allclose(sp2.lambdas, sp.lambdas, rtol=1e-12)
    for i in range(1, 4):
        for j in range(i):
            assert sp2.c(i, j) == pytest.approx(sp.c(i, j))
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    sp3 = load_params(path)
    assert sp3 == sp2


def test_params_from_json_normalizes():
    doc = {"n": 1, "lambdas": [1.0, 1.0], "coeffs": []}
    sp = params_from_json(doc)
    assert math.prod(sp.lambdas) == pytest.approx(0.25, rel=1e-9)
    assert sp.lambdas == pytest.approx((0.5, 0.5))


def test_params_from_json_rejects_bad_index():
    doc = {"n": 1, "lambdas": [1.0, 1.0], "coeffs": [{"i": 2, "j": 0, "re": 1.0}]}
    with pytest.raises(ValueError):
        params_from_json(doc)
