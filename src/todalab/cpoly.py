"""Dense complex polynomials.

Degrees stay small, so a dense coefficient tuple is the whole representation;
todalab.solution evaluates them, as the rows of its matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ComplexPoly"]


@dataclass(frozen=True)
class ComplexPoly:
    """coeffs[k] is the coefficient of z^k; highest index nonzero unless zero poly."""

    coeffs: tuple[complex, ...]

    @staticmethod
    def from_coeffs(seq) -> "ComplexPoly":
        c = [complex(x) for x in seq]
        while c and c[-1] == 0:
            c.pop()
        return ComplexPoly(tuple(c))

    @property
    def degree(self) -> int:
        """Highest nonzero index; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, s: complex) -> "ComplexPoly":
        return ComplexPoly.from_coeffs(s * c for c in self.coeffs)

