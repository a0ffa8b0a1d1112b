"""Exact big-integer verification of the falling-factorial determinant identities.

Two matrix layouts appear in the expansion analysis: the base layout whose
determinant has the closed form (-1)^{m(m-1)/2} (m-1)! (m-2)! ... 0!, and a
variant whose last column skips one index, with determinant
(-1)^{m+1} m! times the base value one size down.  Both are polynomials in
the integer symbol n of degree at most m(m-1)/2, so agreement at more than
that many distinct n values proves the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "falling_factorial_matrix",
    "bareiss_det",
    "F_det",
    "G_det",
    "F_closed",
    "G_closed",
    "IdentitySweepReport",
    "verify_identity_sweep",
]


def falling_factorial_matrix(m: int, n: int, last_column_skip: bool = False) -> list:
    """m x m integer matrix with entry(r,c) = prod_{j=c}^{c+r-1}(n-j), row by row.

    With last_column_skip, the last column starts its products at j=m
    instead of j=m-1 (the G layout).
    """
    if m < 1:
        raise ValueError("matrix size must be >= 1")
    starts = [*range(m - 1), m if last_column_skip else m - 1]
    rows = [[1] * m]
    for r in range(m - 1):
        rows.append([x * (n - start - r) for x, start in zip(rows[-1], starts)])
    return rows


def bareiss_det(matrix: list) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [list(map(int, row)) for row in matrix]
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for col in range(k - 1):
        if a[col][col] == 0:
            for r in range(col + 1, k):
                if a[r][col] != 0:
                    a[col], a[r] = a[r], a[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                a[r][c] = (a[r][c] * a[col][col] - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = a[col][col]
    return sign * a[k - 1][k - 1]


def F_det(m: int, n: int) -> int:
    """Determinant of the base falling-factorial layout."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return bareiss_det(falling_factorial_matrix(m, n))


def G_det(m: int, n: int) -> int:
    """Determinant of the skip-column layout; defined for m >= 2."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return bareiss_det(falling_factorial_matrix(m, n, last_column_skip=True))


def F_closed(m: int) -> int:
    """(-1)^{m(m-1)/2} * prod_{j=0}^{m-1} j!"""
    if m < 1:
        raise ValueError("m must be >= 1")
    val = 1
    for j in range(m):
        val *= math.factorial(j)
    return (-1) ** (m * (m - 1) // 2) * val


def G_closed(m: int) -> int:
    """(-1)^{m+1} * m! * F_closed(m-1)"""
    if m < 2:
        raise ValueError("m must be >= 2")
    return (-1) ** (m + 1) * math.factorial(m) * F_closed(m - 1)


@dataclass
class IdentitySweepReport:
    cases: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [case for case in self.cases if not case["pass"]]

    @property
    def all_pass(self) -> bool:
        return not self.failures


def verify_identity_sweep(largest_m: int) -> IdentitySweepReport:
    """Check both determinant identities exactly over a sweep of (m, n), m <= largest_m.

    The determinant is a polynomial in n of degree at most m(m-1)/2; the
    sweep uses enough distinct n values that constancy across the
    sweep is a complete proof of n-independence.
    """
    if largest_m < 1 or largest_m > 12:
        raise ValueError("largest_m must be in 1..12")
    report = IdentitySweepReport()
    for m in range(1, largest_m + 1):
        ns = range(m, m + max(m * (m - 1) // 2 + 2, 10))
        layouts = [("F", F_det, F_closed(m))]
        if m >= 2:
            layouts.append(("G", G_det, G_closed(m)))
        for n in ns:
            for kind, det_of, expected in layouts:
                det = det_of(m, n)
                report.cases.append({"kind": kind, "m": m, "n": n, "det": det,
                                     "expected": expected, "pass": det == expected})
    return report
