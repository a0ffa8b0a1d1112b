"""Finite-difference verification of the Toda PDE and its linearization.

The constructed solutions satisfy Delta U_i + sum_j a_ij e^{U_j} = 0
exactly; here the Laplacian is discretized with the 5-point stencil, so
the residual is pure discretization error and must shrink at second
order under h-halving.  Differentiating the solution family in one of
its parameters yields elements of the kernel of the linearized operator
Delta phi_i + sum_j a_ij e^{U_j} phi_j.  Those derivatives are exact
(Jacobi's formula on the Wronskian minors), so the linearized residual
is pure discretization error too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solution import (
    SolutionParams,
    kernel_directions,
    log_det_k_tangent,
    lower_components,
    upper_components,
)

__all__ = [
    "GridSpec",
    "ResidualReport",
    "pde_residual",
    "linearized_residual",
]


@dataclass(frozen=True)
class GridSpec:
    """Square evaluation grid centred on the origin of the complex plane."""

    half_width: float = 2.0
    points_per_side: int = 201

    def __post_init__(self):
        if self.points_per_side < 3 or self.points_per_side % 2 == 0:
            raise ValueError("points_per_side must be an odd integer >= 3")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.points_per_side - 1)

    @classmethod
    def from_h(cls, h: float) -> "GridSpec":
        """The default-width grid whose spacing is h, rounded to an odd point count."""
        pps = int(round(2.0 * cls.half_width / h)) + 1
        if pps % 2 == 0:
            pps += 1
        return cls(points_per_side=pps)

    def mesh(self) -> np.ndarray:
        axis = np.linspace(-self.half_width, self.half_width, self.points_per_side)
        x, y = np.meshgrid(axis, axis, indexing="ij")
        return x + 1j * y

    def refined(self) -> "GridSpec":
        return GridSpec(
            half_width=self.half_width,
            points_per_side=2 * self.points_per_side - 1,
        )


@dataclass(frozen=True)
class ResidualReport:
    max_abs_residual: tuple[float, ...]  # per component, at h
    h: float
    max_abs_residual_refined: tuple[float, ...]  # at h/2
    convergence_order: float

    @property
    def max_residual(self) -> float:
        return max(self.max_abs_residual)


def _laplacian(field: np.ndarray, h: float) -> np.ndarray:
    """5-point Laplacian on the interior of a (..., P, P) array."""
    return (
        field[..., 2:, 1:-1]
        + field[..., :-2, 1:-1]
        + field[..., 1:-1, 2:]
        + field[..., 1:-1, :-2]
        - 4.0 * field[..., 1:-1, 1:-1]
    ) / h**2


def _pde_residual_once(sp: SolutionParams, g: GridSpec) -> np.ndarray:
    z = g.mesh()
    u = lower_components(sp, z)
    a = sp.cartan().a_float()
    source = np.einsum("ij,jxy->ixy", a, np.exp(u)[:, 1:-1, 1:-1])
    res = _laplacian(u, g.h) + source
    return np.max(np.abs(res), axis=(1, 2))


def _residual_report(coarse: np.ndarray, fine: np.ndarray, h: float) -> ResidualReport:
    """Peaks at h and h/2 and their order; a zero peak fails every order check."""
    return ResidualReport(
        max_abs_residual=tuple(float(x) for x in coarse),
        h=h,
        max_abs_residual_refined=tuple(float(x) for x in fine),
        convergence_order=float(np.log2(np.max(coarse) / np.max(fine))),
    )


def pde_residual(sp: SolutionParams, g: GridSpec) -> ResidualReport:
    """Max interior residual of Delta_h U_i + sum_j a_ij e^{U_j}, with order estimate."""
    return _residual_report(
        _pde_residual_once(sp, g), _pde_residual_once(sp, g.refined()), g.h
    )


def _linearized_residual_once(sp: SolutionParams, directions, g: GridSpec) -> list:
    """Max interior residual per component for each direction's field, on one grid.

    The field along `which` is -dU_i/d(which) = sum_j a_ij d log det_j/d(which).
    The base solution is evaluated once; only z, its upper components and
    the interior weights e^{U_j} are kept across the directions.
    """
    z = g.mesh()
    a = sp.cartan().a_float()
    upper = upper_components(sp, z)
    weights = np.exp(np.tensordot(a, upper, axes=(1, 0))[:, 1:-1, 1:-1])
    return [
        _max_residual(np.tensordot(a, log_det_k_tangent(sp, which, z, upper), axes=(1, 0)),
                      weights, a, g.h)
        for which in directions
    ]


def _max_residual(phi: np.ndarray, weights: np.ndarray, a: np.ndarray, h: float):
    """Max interior |Delta_h phi_i + sum_j a_ij e^{U_j} phi_j| per component.

    Scales the interior of phi by the weights in place.
    """
    res = _laplacian(phi, h)
    interior = phi[:, 1:-1, 1:-1]
    interior *= weights
    res += np.einsum("ij,jxy->ixy", a, interior)
    return np.max(np.abs(res), axis=(1, 2))


def linearized_residual(sp: SolutionParams, g: GridSpec) -> dict:
    """Residual of the linearized system on parameter-derivative fields.

    Returns {direction: ResidualReport} over kernel_directions(sp.n); one
    base evaluation per grid serves every direction.
    """
    directions = kernel_directions(sp.n)
    coarse = _linearized_residual_once(sp, directions, g)
    fine = _linearized_residual_once(sp, directions, g.refined())
    return {
        which: _residual_report(res, res_fine, g.h)
        for which, res, res_fine in zip(directions, coarse, fine)
    }
