"""Polynomial arithmetic, evaluation, Wronskian dets."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from todalab.cpoly import (
    ComplexPoly,
    derivative,
    eval_poly,
    poly_det,
)

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


def test_poly_det_2x2():
    a = ComplexPoly.from_coeffs([0, 1])  # z
    one = ComplexPoly.from_coeffs([1])
    # det [[1, z], [0, 1]] = 1
    d = poly_det([[one, a], [ComplexPoly(()), one]])
    assert d.coeffs == (1 + 0j,)


def test_poly_det_wronskian_vandermonde():
    # Wronskian of (1, z, z^2, z^3) is the constant prod k! = 0!1!2!3! = 12.
    fam = [ComplexPoly.from_coeffs([0] * k + [1]) for k in range(4)]
    rows = [[derivative(p, order) for p in fam] for order in range(4)]
    d = poly_det(rows)
    assert d.coeffs == (12 + 0j,)


def test_poly_det_rejects_non_square():
    one = ComplexPoly.from_coeffs([1])
    with pytest.raises(ValueError):
        poly_det([[one, one], [one]])
