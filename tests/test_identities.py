"""Exact falling-factorial determinant identities."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from todalab.identities import (
    F_closed,
    F_det,
    G_closed,
    G_det,
    bareiss_det,
    falling_factorial_matrix,
    verify_identity_sweep,
)


def test_bareiss_matches_small_hand_determinants():
    assert bareiss_det([[5]]) == 5
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[2, 0, 1], [1, 3, 0], [0, 1, 4]]) == 25
    assert bareiss_det([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert bareiss_det([[0, 0], [0, 0]]) == 0


def test_bareiss_rejects_non_square():
    with pytest.raises(ValueError):
        bareiss_det([[1, 2], [3]])


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=-3, max_value=20))
def test_matrix_entries_are_falling_products(m, n):
    mat = falling_factorial_matrix(m, n)
    for r in range(m):
        for c in range(m):
            expected = math.prod(n - j for j in range(c, c + r))
            assert mat[r][c] == expected


def test_skip_layout_changes_only_last_column():
    base = falling_factorial_matrix(4, 9)
    skip = falling_factorial_matrix(4, 9, last_column_skip=True)
    for r in range(4):
        assert base[r][:3] == skip[r][:3]
    # Last column products start at j = m = 4 instead of j = 3.
    assert skip[2][3] == (9 - 4) * (9 - 5)


@pytest.mark.parametrize("m", range(1, 8))
def test_f_determinant_independent_of_n(m):
    vals = {F_det(m, n) for n in range(m, m + 12)}
    assert vals == {F_closed(m)}


@pytest.mark.parametrize("m", range(2, 8))
def test_g_determinant_independent_of_n(m):
    vals = {G_det(m, n) for n in range(m, m + 12)}
    assert vals == {G_closed(m)}


def test_closed_forms_cross_relation():
    for m in range(2, 9):
        assert G_closed(m) == (-1) ** (m + 1) * math.factorial(m) * F_closed(m - 1)


def test_closed_form_small_values():
    assert F_closed(1) == 1
    assert F_closed(2) == -1  # sign (-1)^1, product 0!1!
    assert F_closed(3) == -2  # sign (-1)^3, product 0!1!2!
    assert G_closed(2) == -2  # (-1)^3 * 2! * F(1)


def test_sweep_report_is_complete_proof():
    report = verify_identity_sweep(6)
    assert report.all_pass
    ns = {}
    for c in report.cases:
        ns.setdefault((c["kind"], c["m"]), set()).add(c["n"])
    assert sorted(ns) == [("F", m) for m in range(1, 7)] + [("G", m) for m in range(2, 7)]
    for (_, m), values in ns.items():
        # Polynomial of degree <= m(m-1)/2 in n: need strictly more samples.
        assert len(values) > m * (m - 1) // 2
    kinds = {(c["kind"], c["m"]) for c in report.cases}
    assert ("F", 1) in kinds and ("G", 2) in kinds and ("G", 6) in kinds


def test_sweep_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_identity_sweep(0)
    with pytest.raises(ValueError):
        verify_identity_sweep(13)
