"""Polynomial arithmetic, evaluation on each kind of point set, Wronskian dets."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from todalab import solution
from todalab.cpoly import ComplexPoly
from todalab.solution import Grid, Rings, SolutionParams, normalize_lambdas, sample_params

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


def test_eval_into_out_on_one_and_many_points():
    # The kernel evaluates into the arrays it is given, on one point and on many,
    # scattered or as a product set, with the values of a call that allocates.
    sp = sample_params(2, 1, 0.5)
    for points in (np.array([2.0 + 0j]), np.array([0j, 1j, 2j]),
                   Grid(np.array([0.5, -1.0]), np.array([0.0, 1.5, 2.0]))):
        shape = np.shape(points) if isinstance(points, np.ndarray) else points.shape
        out = (np.empty((2,) + shape), np.empty((1, 2) + shape))
        got = solution._log_dets(sp, (1, 2), points, ("alpha_1",), out=out)
        assert got[0] is out[0] and got[1] is out[1]
        fresh = solution._log_dets(sp, (1, 2), points, ("alpha_1",))
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh))


@given(p=poly_strategy(), s=finite_c, z=finite_c)
def test_scale_matches_pointwise(p, s, z):
    tol = 1e-6 * (1 + abs(z)) ** 6 * (1 + abs(s))
    assert abs(np.polyval(p.scale(s).coeffs[::-1], z) - s * np.polyval(p.coeffs[::-1], z)) <= tol


def rows_times_columns(points, coeffs):
    """sum_j coeffs[j] z^j at every point, as the kernel forms it: the set's rows at
    scale 2^((j - D) e_r) times its column table, then 2^(D e_r)."""
    e = np.maximum(np.frexp(points.moduli())[1], 0)
    degree = len(coeffs) - 1
    scale = np.ldexp(1.0, (np.arange(degree + 1) - degree) * e[:, None])
    lhs = points.rows(np.array([coeffs]), slice(None), e, scale)[:, 0]
    columns = points.columns(degree)
    values = lhs.real @ columns + 1j * (lhs.imag @ columns)
    return np.ldexp(1.0, degree * e)[:, None] * values


@pytest.mark.parametrize("degree", range(10))
def test_every_kind_of_rows_times_columns_evaluates_a_polynomial(degree):
    # Grid rows (Taylor coefficients about x times powers of y), rings
    # (c_j r^j times cos and sin of j phi) and scattered z (a grid of one
    # column y = 0, whose rows are the power sums) all
    # evaluate sum_j c_j z^j to rounding, against mpmath at 50 digits: within
    # 4 (degree + 1) eps of sum_j |c_j| |z|^j, across eight decades of |z|.
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    x, y = np.array([-3e3, -0.7, 0.0, 0.2, 5.0]), np.array([-2.0, 0.0, 0.3, 1e-2, 40.0])
    radii, angles = np.array([1e-3, 0.9, 7.0, 1e5]), np.array([0.0, 1.0, 2.5, 4.0, 6.0])
    sets = [(Grid(x, y), x[:, None] + 1j * y),
            (Rings(radii, angles), [[mp.mpf(r) * mp.expj(a) for a in angles] for r in radii])]
    z = rng.standard_normal(6) * 10.0 ** rng.integers(-3, 5, 6) + 1j * rng.standard_normal(6)
    sets.append((Grid(z, np.zeros(1)), z[:, None]))
    with mp.workdps(50):
        for points, where in sets:
            got = rows_times_columns(points, coeffs)
            for index in np.ndindex(got.shape):
                zi = mp.mpmathify(where[index[0]][index[1]])
                exact = mp.polyval([mp.mpc(c) for c in coeffs[::-1]], zi)
                bound = sum(abs(c) * abs(zi) ** j for j, c in enumerate(coeffs))
                assert abs(got[index] - exact) <= 4 * (degree + 1) * 2.0**-52 * bound, (
                    type(points).__name__, index)


def test_wronskian_vandermonde():
    # Wronskian of (1, z, z^2, z^3) is the constant prod k! = 0!1!2!3! = 12.
    monomials = tuple(ComplexPoly.from_coeffs([0] * k + [1]) for k in range(1, 4))
    sp = SolutionParams(n=3, lambdas=normalize_lambdas([1.0] * 4, 3), polys=monomials)
    per_k, table = solution._wronskian_minors(sp)
    assert [(subset, w.coeffs) for subset, _, w in per_k[3][0]] == [((0, 1, 2, 3), (12 + 0j,))]
    # The coefficient matrix is the identity: each row set has one nonzero minor, itself.
    assert len(table) == 2**4 - 1
    assert all(minors == {rows: 1} for rows, minors in table.items())
