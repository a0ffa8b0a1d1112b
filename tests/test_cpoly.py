"""Polynomial arithmetic, evaluation, Wronskian dets."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from todalab import solution
from todalab.cpoly import ComplexPoly, eval_poly
from todalab.solution import SolutionParams, normalize_lambdas

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


def horner(p, z):
    """p at the points z, a complex array, with every coefficient scaled by 1."""
    return eval_poly(p, z, np.empty_like(z), [1.0] * len(p.coeffs))


def test_eval_into_out_on_one_and_many_points():
    p = ComplexPoly.from_coeffs([1, 0, 1])  # 1 + z^2
    out = np.empty(1, dtype=complex)
    assert eval_poly(p, np.array([2.0 + 0j]), out, [1.0] * 3) is out
    assert out[0] == 5.0
    z = np.array([0j, 1j, 2j])
    assert np.allclose(horner(p, z), 1 + z**2)
    assert np.array_equal(eval_poly(p, z, np.empty_like(z), [2.0, 4.0, 8.0]), 2.0 + 8.0 * z**2)
    assert np.array_equal(horner(ComplexPoly(()), z), np.zeros(3))


@given(p=poly_strategy(), s=finite_c, z=finite_c)
def test_scale_matches_pointwise(p, s, z):
    z = np.array([z])
    tol = 1e-6 * (1 + abs(z[0])) ** 6 * (1 + abs(s))
    assert abs(horner(p.scale(s), z)[0] - s * horner(p, z)[0]) <= tol


def test_wronskian_vandermonde():
    # Wronskian of (1, z, z^2, z^3) is the constant prod k! = 0!1!2!3! = 12.
    monomials = tuple(ComplexPoly.from_coeffs([0] * k + [1]) for k in range(1, 4))
    sp = SolutionParams(n=3, lambdas=normalize_lambdas([1.0] * 4, 3), polys=monomials)
    per_k, table = solution._wronskian_minors(sp)
    assert [(subset, w.coeffs) for subset, _, w in per_k[3][0]] == [((0, 1, 2, 3), (12 + 0j,))]
    # The coefficient matrix is the identity: each row set has one nonzero minor, itself.
    assert len(table) == 2**4 - 1
    assert all(minors == {rows: 1} for rows, minors in table.items())


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
    # fill-then-*= form does: every bit of both parts, on many points and on
    # one, with the coefficients c_j * scale[j].
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    coeffs[-1] = complex(1.0 + rng.random(), rng.standard_normal())
    p = ComplexPoly.from_coeffs(coeffs)
    assert p.degree == degree
    z = rng.standard_normal(4096) * 3.0 + 1j * rng.standard_normal(4096) * 3.0
    out = np.empty_like(z)
    for scale in ([1.0] * (degree + 1), [2.0 ** (3 * (j - degree)) for j in range(degree + 1)]):
        scaled = ComplexPoly(tuple(c * s for c, s in zip(p.coeffs, scale)))
        assert eval_poly(p, z, out, scale) is out
        assert np.array_equal(out.view(float), reference_horner(scaled, z).view(float))
        for i in range(64):
            got = eval_poly(p, z[i:i + 1], out[:1], scale)
            assert np.array_equal(got.view(float), reference_horner(scaled, z[i:i + 1]).view(float))
