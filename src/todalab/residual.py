"""Finite-difference verification of the Toda PDE and its linearization.

The constructed solutions satisfy Delta U_i + sum_j a_ij e^{U_j} = 0
exactly; here the Laplacian is discretized with the 5-point stencil, so
the residual is pure discretization error and must shrink at second
order under h-halving.  Differentiating the solution family in one of
its parameters yields elements of the kernel of the linearized operator
Delta phi_i + sum_j a_ij e^{U_j} phi_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solution import SolutionParams, lower_components, perturbed, upper_components

__all__ = [
    "GridSpec",
    "ResidualReport",
    "DerivativeField",
    "pde_residual",
    "param_derivative_field",
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

    @staticmethod
    def from_h(h: float, half_width: float = 2.0) -> "GridSpec":
        pps = int(round(2.0 * half_width / h)) + 1
        if pps % 2 == 0:
            pps += 1
        return GridSpec(half_width=half_width, points_per_side=pps)

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


def pde_residual(sp: SolutionParams, g: GridSpec) -> ResidualReport:
    """Max interior residual of Delta_h U_i + sum_j a_ij e^{U_j}, with order estimate."""
    coarse = _pde_residual_once(sp, g)
    fine = _pde_residual_once(sp, g.refined())
    order = float(np.log2(np.max(coarse) / np.max(fine)))
    return ResidualReport(
        max_abs_residual=tuple(float(x) for x in coarse),
        h=g.h,
        max_abs_residual_refined=tuple(float(x) for x in fine),
        convergence_order=order,
    )


@dataclass(frozen=True)
class DerivativeField:
    """Central-difference derivative of the solution family in one parameter.

    Sign convention: lower(z)[i] approximates -dU_i/d(which); upper(z)[m]
    approximates -dU^{m+1}/d(which).
    """

    base: SolutionParams
    which: str
    step: float
    plus: SolutionParams
    minus: SolutionParams

    def lower(self, z) -> np.ndarray:
        return -(lower_components(self.plus, z) - lower_components(self.minus, z)) / (
            2.0 * self.step
        )

    def upper(self, z) -> np.ndarray:
        return -(upper_components(self.plus, z) - upper_components(self.minus, z)) / (
            2.0 * self.step
        )


def param_derivative_field(
    sp: SolutionParams, which: str, step: float = 1e-4
) -> DerivativeField:
    if step <= 0:
        raise ValueError("step must be positive")
    return DerivativeField(
        base=sp,
        which=which,
        step=step,
        plus=perturbed(sp, which, step),
        minus=perturbed(sp, which, -step),
    )


def _linearized_residual_once(
    sp: SolutionParams, field: DerivativeField, g: GridSpec
) -> np.ndarray:
    z = g.mesh()
    phi = field.lower(z)
    weights = np.exp(lower_components(sp, z))[:, 1:-1, 1:-1]
    a = sp.cartan().a_float()
    coupling = np.einsum("ij,jxy->ixy", a, weights * phi[:, 1:-1, 1:-1])
    res = _laplacian(phi, g.h) + coupling
    return np.max(np.abs(res), axis=(1, 2))


def linearized_residual(
    sp: SolutionParams, which: str, step: float, g: GridSpec
) -> ResidualReport:
    """Residual of the linearized system on a parameter-derivative field."""
    field = param_derivative_field(sp, which, step)
    coarse = _linearized_residual_once(sp, field, g)
    fine = _linearized_residual_once(sp, field, g.refined())
    peak = float(np.max(coarse))
    peak_fine = float(np.max(fine))
    order = float(np.log2(peak / peak_fine)) if peak > 0 and peak_fine > 0 else 2.0
    return ResidualReport(
        max_abs_residual=tuple(float(x) for x in coarse),
        h=g.h,
        max_abs_residual_refined=tuple(float(x) for x in fine),
        convergence_order=order,
    )
