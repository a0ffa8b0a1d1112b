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


def test_eval_scalar_and_array():
    p = ComplexPoly.from_coeffs([1, 0, 1])  # 1 + z^2
    assert eval_poly(p, 2.0) == 5.0
    z = np.array([0j, 1j, 2j])
    assert np.allclose(eval_poly(p, z), 1 + z**2)


@given(p=poly_strategy(), s=finite_c, z=finite_c)
def test_scale_matches_pointwise(p, s, z):
    tol = 1e-6 * (1 + abs(z)) ** 6 * (1 + abs(s))
    assert abs(eval_poly(p.scale(s), z) - s * eval_poly(p, z)) <= tol


def test_wronskian_vandermonde():
    # Wronskian of (1, z, z^2, z^3) is the constant prod k! = 0!1!2!3! = 12.
    monomials = tuple(ComplexPoly.from_coeffs([0] * k + [1]) for k in range(1, 4))
    sp = SolutionParams(n=3, lambdas=normalize_lambdas([1.0] * 4, 3), polys=monomials)
    *per_k, table = solution._wronskian_minors(sp)
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
    # fill-then-*= form does: every bit of both parts, on arrays, into out,
    # at a scalar z, and with a scale, on the coefficients c_j * scale[j].
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
    scale = [2.0 ** (3 * (j - degree)) for j in range(degree + 1)]
    scaled = ComplexPoly(tuple(c * s for c, s in zip(p.coeffs, scale)))
    assert np.array_equal(eval_poly(p, z, out, scale).view(float),
                          reference_horner(scaled, z).view(float))
    for point in z[:64]:
        got = eval_poly(p, point)
        assert isinstance(got, complex)
        ref_point = reference_horner(p, point)[None]
        assert np.array_equal(np.array([got]).view(float), ref_point.view(float))
