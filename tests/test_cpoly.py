"""Polynomial arithmetic, evaluation, Wronskian dets."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from todalab.cpoly import (
    ComplexPoly,
    derivative,
    eval_poly,
)
from todalab.solution import _laplace_minor

finite_c = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def poly_strategy(max_deg=5):
    return st.lists(finite_c, min_size=0, max_size=max_deg + 1).map(
        ComplexPoly.from_coeffs
    )


def test_from_coeffs_trims_trailing_zeros():
    p = ComplexPoly.from_coeffs([1, 2, 0, 0])
    assert p.degree == 1
    assert ComplexPoly.from_coeffs([0, 0]).is_zero()


def test_degree_of_zero_poly():
    assert ComplexPoly(()).degree == -1


def test_derivative_exact():
    p = ComplexPoly.from_coeffs([1, 2, 3])  # 1 + 2z + 3z^2
    assert derivative(p).coeffs == (2 + 0j, 6 + 0j)
    assert derivative(p, 2).coeffs == (6 + 0j,)
    assert derivative(p, 3).is_zero()
    assert derivative(p, 0) is not None and derivative(p, 0).coeffs == p.coeffs


def test_eval_scalar_and_array():
    p = ComplexPoly.from_coeffs([1, 0, 1])  # 1 + z^2
    assert eval_poly(p, 2.0) == 5.0
    z = np.array([0j, 1j, 2j])
    assert np.allclose(eval_poly(p, z), 1 + z**2)


@given(p=poly_strategy(), q=poly_strategy(), z=finite_c)
def test_ring_ops_match_pointwise(p, q, z):
    tol = 1e-6 * (1 + abs(z)) ** 12
    assert abs(eval_poly(p + q, z) - (eval_poly(p, z) + eval_poly(q, z))) <= tol
    assert abs(eval_poly(p * q, z) - eval_poly(p, z) * eval_poly(q, z)) <= tol
    assert abs(eval_poly(p.scale(-1), z) + eval_poly(p, z)) <= tol


@given(p=poly_strategy())
def test_derivative_linearity_vs_product_rule(p):
    q = ComplexPoly.from_coeffs([1, 1])  # 1 + z
    lhs = derivative(p * q)
    rhs = derivative(p) * q + p * derivative(q)
    assert lhs.coeffs == pytest.approx(rhs.coeffs)


def test_wronskian_vandermonde():
    # Wronskian of (1, z, z^2, z^3) is the constant prod k! = 0!1!2!3! = 12.
    fam = [ComplexPoly.from_coeffs([0] * k + [1]) for k in range(4)]
    cols = [[derivative(p, order) for order in range(4)] for p in fam]
    table = {}
    assert _laplace_minor(cols, 0, (0, 1, 2, 3), table).coeffs == (12 + 0j,)
    # Each sub-determinant of 2 or more columns is built once: rows r..3 of
    # the 1 + 4 + 6 column subsets of sizes 4, 3 and 2.
    assert sorted(len(subset) for _, subset in table) == [2] * 6 + [3] * 4 + [4]


def reference_horner(p, z):
    """Horner as fill c_d, then *= z and += c_j per step."""
    z = np.asarray(z, dtype=complex)
    acc = np.empty(z.shape, dtype=complex)
    acc.fill(p.coeffs[-1] if p.coeffs else 0j)
    for c in reversed(p.coeffs[:-1]):
        acc *= z
        acc += c
    return acc


@pytest.mark.parametrize("degree", range(10))
def test_horner_first_multiply_matches_fill_then_multiply_bit_for_bit(degree):
    # The first step c_d z is one multiply, scalar first, and rounds as the
    # fill-then-*= form does: every bit of both parts, on arrays, into out,
    # and at a scalar z.
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    coeffs[-1] = complex(1.0 + rng.random(), rng.standard_normal())
    p = ComplexPoly.from_coeffs(coeffs)
    assert p.degree == degree
    z = rng.standard_normal(4096) * 3.0 + 1j * rng.standard_normal(4096) * 3.0
    ref = reference_horner(p, z)
    assert np.array_equal(eval_poly(p, z).view(float), ref.view(float))
    out = np.empty_like(z)
    assert eval_poly(p, z, out) is out
    assert np.array_equal(out.view(float), ref.view(float))
    for point in z[:64]:
        got = eval_poly(p, point)
        assert isinstance(got, complex)
        ref_point = reference_horner(p, point)[None]
        assert np.array_equal(np.array([got]).view(float), ref_point.view(float))
