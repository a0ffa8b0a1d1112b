"""The Cartan matrix, checked exactly in integer arithmetic carried by floats."""

import numpy as np
import pytest

from todalab.cartan import cartan_matrix


def scaled_inverse(n):
    """(n+1) A^{-1}: M[i][j] = min(i, j) (n+1 - max(i, j)), 1-based."""
    idx = np.arange(1, n + 1)
    return np.minimum.outer(idx, idx) * (n + 1 - np.maximum.outer(idx, idx))


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_is_exact(n):
    a = cartan_matrix(n)
    assert np.array_equal(a @ scaled_inverse(n), (n + 1) * np.eye(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_tridiagonal_structure(n):
    a = cartan_matrix(n)
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
    # Both A and the closed form are symmetric, and the closed form is a
    # left inverse as well as a right one.
    a, m = cartan_matrix(n), scaled_inverse(n)
    assert np.array_equal(a, a.T) and np.array_equal(m, m.T)
    assert np.array_equal(m @ a, (n + 1) * np.eye(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_row_sum_closed_form(n):
    # sum_j a_ij j(n+1-j) = 2 for every i: the quantized masses
    # 4 pi i(n+1-i) satisfy the sum rule sum_j a_ij m_j = 8 pi.
    idx = np.arange(1, n + 1)
    assert np.array_equal(cartan_matrix(n) @ (idx * (n + 1 - idx)), np.full(n, 2.0))


def test_invalid_n_rejected():
    with pytest.raises(ValueError):
        cartan_matrix(0)


def test_cartan_matrix_is_built_once_per_n():
    assert cartan_matrix(5) is cartan_matrix(5)
    # The one shared array cannot be changed by a caller.
    with pytest.raises(ValueError):
        cartan_matrix(5)[0, 0] = 0.0
    with pytest.raises(ValueError):
        cartan_matrix(0)
