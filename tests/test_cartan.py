"""Exact Cartan matrix algebra."""

from fractions import Fraction

import pytest

from todalab.cartan import cartan_matrix


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_is_exact(n):
    cd = cartan_matrix(n)
    for i in range(n):
        for j in range(n):
            s = sum(cd.a[i][k] * cd.a_inv[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_tridiagonal_structure(n):
    cd = cartan_matrix(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                assert cd.a[i][j] == 2
            elif abs(i - j) == 1:
                assert cd.a[i][j] == -1
            else:
                assert cd.a[i][j] == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_closed_form_and_symmetry(n):
    cd = cartan_matrix(n)
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            assert cd.a_inv[i - 1][j - 1] == Fraction(j * (n + 1 - i), n + 1)
            assert cd.a_inv[i - 1][j - 1] == cd.a_inv[j - 1][i - 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_row_sum_closed_form(n):
    # 4 * sum_j A^{-1}[i][j] = 2i(n+1-i): the quantized mass over 2 pi.
    cd = cartan_matrix(n)
    for i in range(1, n + 1):
        assert 4 * sum(cd.a_inv[i - 1]) == 2 * i * (n + 1 - i)


def test_invalid_n_rejected():
    with pytest.raises(ValueError):
        cartan_matrix(0)


def test_cartan_matrix_is_built_once_per_n():
    assert cartan_matrix(5) is cartan_matrix(5)
    with pytest.raises(ValueError):
        cartan_matrix(0)
