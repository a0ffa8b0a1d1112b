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

from .cartan import cartan_matrix
from .solution import SolutionParams, kernel_directions, log_det_k_tangent, lower_components

__all__ = [
    "GridSpec",
    "ResidualReport",
    "pde_residual",
    "linearized_residual",
]

# Interior grid points per row tile of the stencils (plus two halo rows).
TILE_POINTS = 2**14


@dataclass(frozen=True)
class GridSpec:
    """Square evaluation grid on [-2, 2]^2, centred on the origin of the complex plane."""

    half_width = 2.0
    points_per_side: int = 201

    def __post_init__(self):
        if self.points_per_side < 3 or self.points_per_side % 2 == 0:
            raise ValueError("points_per_side must be an odd integer >= 3")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.points_per_side - 1)

    @classmethod
    def from_h(cls, h: float) -> "GridSpec":
        """The default-width grid of spacing h, rounded to an odd point count of at least 3."""
        steps = 2.0 * cls.half_width / h
        if not 1.5 <= steps < float("inf"):
            raise ValueError(f"grid_h = {h} gives no finite grid of 3 or more points per side")
        pps = int(round(steps)) + 1
        if pps % 2 == 0:
            pps += 1
        return cls(points_per_side=pps)

    def row_tiles(self):
        """z on successive blocks of rows (x fixed along a row), with a halo row each side."""
        axis = np.linspace(-self.half_width, self.half_width, self.points_per_side)
        rows = max(1, TILE_POINTS // self.points_per_side)
        for start in range(1, self.points_per_side - 1, rows):
            yield axis[start - 1 : start + rows + 1, None] + 1j * axis

    def refined(self) -> "GridSpec":
        return GridSpec(points_per_side=2 * self.points_per_side - 1)


@dataclass(frozen=True)
class ResidualReport:
    max_abs_residual: tuple[float, ...]  # per component, at h
    h: float
    max_abs_residual_refined: tuple[float, ...]  # at h/2
    convergence_order: float
    worst_component: int  # i = 1..n of the largest |residual| at h
    worst_z: complex  # and its grid point

    @property
    def max_residual(self) -> float:
        return max(self.max_abs_residual)


class _Peak:
    """Running max |residual| per component over the tiles, and where the largest lies."""

    def __init__(self, n: int):
        self.per_component, self.component, self.z = np.zeros(n), 0, complex("nan")

    def fold(self, res: np.ndarray, z: np.ndarray) -> None:  # res on the interior of tile z
        tile = np.max(np.abs(res, out=res), axis=(1, 2))
        if np.max(tile) > np.max(self.per_component):
            i, x, y = np.unravel_index(np.argmax(res), res.shape)
            self.component, self.z = int(i) + 1, complex(z[x + 1, y + 1])
        np.maximum(self.per_component, tile, out=self.per_component)


def _laplacian(field: np.ndarray, h: float, out=None) -> np.ndarray:
    """5-point Laplacian on the interior of a (..., P, Q) array, into out if given."""
    out = np.add(field[..., 2:, 1:-1], field[..., :-2, 1:-1], out=out)
    out += field[..., 1:-1, 2:]
    out += field[..., 1:-1, :-2]
    out -= 4.0 * field[..., 1:-1, 1:-1]
    return np.divide(out, h**2, out=out)


def _pde_residual_once(sp: SolutionParams, g: GridSpec) -> _Peak:
    a = cartan_matrix(sp.n)
    peak = _Peak(sp.n)
    for z in g.row_tiles():
        u = lower_components(sp, z)
        peak.fold(_laplacian(u, g.h) + np.einsum("ij,jxy->ixy", a, np.exp(u[:, 1:-1, 1:-1])), z)
    return peak


def _residual_report(coarse: _Peak, fine: _Peak, h: float) -> ResidualReport:
    """Peaks at h and h/2 and their order; a zero peak fails every order check."""
    return ResidualReport(
        max_abs_residual=tuple(float(x) for x in coarse.per_component),
        h=h,
        max_abs_residual_refined=tuple(float(x) for x in fine.per_component),
        convergence_order=float(np.log2(coarse.per_component.max() / fine.per_component.max())),
        worst_component=coarse.component, worst_z=coarse.z,
    )


def pde_residual(sp: SolutionParams, g: GridSpec) -> ResidualReport:
    """Max interior residual of Delta_h U_i + sum_j a_ij e^{U_j}, with order estimate."""
    return _residual_report(
        _pde_residual_once(sp, g), _pde_residual_once(sp, g.refined()), g.h
    )


def _linearized_residual_once(sp: SolutionParams, directions, g: GridSpec) -> list:
    """Residual peaks per component for each direction's field, on one grid.

    The field along `which` is -dU_i/d(which) = sum_j a_ij d log det_j/d(which).
    Each tile takes one kernel call for every direction, so each q_S and det_k
    is evaluated once per tile; its U gives the weights.
    """
    a = cartan_matrix(sp.n)
    peaks = [_Peak(sp.n) for _ in directions]
    for z in g.row_tiles():
        upper, tangents = log_det_k_tangent(sp, directions, z)
        weights = np.exp(np.tensordot(a, upper, axes=(1, 0))[:, 1:-1, 1:-1])
        del upper
        # One buffer each for the field, the weighted field and the residual.
        phi, (tmp, res) = np.empty_like(tangents[0]), np.empty((2,) + weights.shape)
        for d, peak in enumerate(peaks):
            np.matmul(a, tangents[d].reshape(sp.n, -1), out=phi.reshape(sp.n, -1))
            np.multiply(weights, phi[:, 1:-1, 1:-1], out=tmp)
            np.einsum("ij,jxy->ixy", a, tmp, out=res)
            res += _laplacian(phi, g.h, out=tmp)
            peak.fold(res, z)
        # Free this tile's arrays before the next call: held, they cost 3 MB of peak RSS.
        del tangents, weights, phi, tmp, res
    return peaks


def linearized_residual(sp: SolutionParams, g: GridSpec) -> dict:
    """Residual of the linearized system on parameter-derivative fields.

    Returns {direction: ResidualReport} over kernel_directions(sp.n); one
    evaluation per tile serves every direction.
    """
    directions = kernel_directions(sp.n)
    coarse = _linearized_residual_once(sp, directions, g)
    fine = _linearized_residual_once(sp, directions, g.refined())
    return {
        which: _residual_report(res, res_fine, g.h)
        for which, res, res_fine in zip(directions, coarse, fine)
    }
