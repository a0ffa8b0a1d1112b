"""The Cartan operator, checked exactly in integer arithmetic carried by floats, and bit for
bit against the dense matrix product."""

import numpy as np
import pytest
from gram_oracle import cartan_dense

from todalab.cartan import cartan_apply


def scaled_inverse(n):
    """(n+1) A^{-1}: M[i][j] = min(i, j) (n+1 - max(i, j)), 1-based."""
    idx = np.arange(1, n + 1)
    return np.minimum.outer(idx, idx) * (n + 1 - np.maximum.outer(idx, idx))


def in_place(x):
    """cartan_apply(x, out=x) on a copy of x, checked to return that copy."""
    y = x.copy()
    assert cartan_apply(y, out=y) is y
    return y


@pytest.mark.parametrize("n", range(1, 18))
def test_apply_is_the_dense_product_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = cartan_dense(n)
    # Values over 60 decades, so every rounding of the two subtractions shows, on the
    # shapes the package contracts: a probe circle, a grid window, a sphere rule.
    for shape in ((n, 1, 256), (n, 16, 801), (n, 64, 128)):
        x = rng.standard_normal(shape) * np.exp(rng.uniform(-70.0, 70.0, shape))
        dense = (a @ x.reshape(n, -1)).reshape(shape)
        assert np.array_equal(cartan_apply(x), dense)
        assert np.array_equal(in_place(x), dense)
        assert np.array_equal(cartan_apply(x[:, 0, :]), dense[:, 0, :])
    # numpy's matrix-vector product sums each row of A in blocks from n = 4, so on a
    # vector it rounds apart from the matrix product (as BLAS does on some other column
    # counts from n = 16); on integers every order of the sums is exact, and the dense
    # row sums in column order are the matrix product's.
    v = rng.integers(-2**40, 2**40, n).astype(float)
    assert np.array_equal(cartan_apply(v), a @ v)
    assert np.array_equal(in_place(v), a @ v)
    v = rng.standard_normal(n) * np.exp(rng.uniform(-70.0, 70.0, n))
    rows = [sum(a[i, j] * v[j] for j in range(n)) for i in range(n)]
    assert np.array_equal(cartan_apply(v), rows)
    assert np.array_equal(cartan_apply(list(v)), rows)
    assert np.array_equal(in_place(v), rows)


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_is_exact(n):
    assert np.array_equal(cartan_apply(scaled_inverse(n)), (n + 1) * np.eye(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_tridiagonal_structure(n):
    a = cartan_apply(np.eye(n))
    assert a.shape == (n, n) and a.dtype == np.float64
    for i in range(n):
        for j in range(n):
            if i == j:
                assert a[i][j] == 2
            elif abs(i - j) == 1:
                assert a[i][j] == -1
            else:
                assert a[i][j] == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_closed_form_and_symmetry(n):
    # The operator is symmetric, <A x, y> = <x, A y>, and so is the closed form, which is
    # a left inverse as well as a right one: M A = (A M^T)^T.
    m = scaled_inverse(n)
    x, y = np.arange(1.0, n + 1), np.arange(n, 0.0, -1) ** 2
    assert cartan_apply(x) @ y == x @ cartan_apply(y) and np.array_equal(m, m.T)
    assert np.array_equal(cartan_apply(m.T).T, (n + 1) * np.eye(n))
    assert np.array_equal(in_place(m.T.astype(float)).T, (n + 1) * np.eye(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_row_sum_closed_form(n):
    # sum_j a_ij j(n+1-j) = 2 for every i: the quantized masses
    # 4 pi i(n+1-i) satisfy the sum rule sum_j a_ij m_j = 8 pi.
    idx = np.arange(1, n + 1)
    assert np.array_equal(cartan_apply(idx * (n + 1 - idx)), np.full(n, 2.0))


def test_invalid_n_rejected():
    for x in (np.empty(0), np.empty((0, 3)), []):
        with pytest.raises(ValueError, match="n=0"):
            cartan_apply(x)
