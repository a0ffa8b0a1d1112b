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

import math
from dataclasses import dataclass

import numpy as np

from .cartan import cartan_apply
from .solution import Grid, SolutionParams, log_det_k_tangent

__all__ = [
    "GridSpec",
    "ResidualReport",
    "grid_residuals",
]

# Points per window of the stencils, carried rows included.
TILE_POINTS = 2**14
# Rows each window hands on to the next: the h stencil on the even rows reaches 2 back.
CARRY = 4


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

    def refined(self) -> "GridSpec":
        """The grid of spacing h/2, whose even rows and columns are this grid bit for bit."""
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
    """Running max |residual| per component over the windows, and where the largest lies."""

    def __init__(self, n: int):
        self.per_component, self.component, self.z = np.zeros(n), 0, complex("nan")

    def fold(self, field, source, h: float, buf: np.ndarray, x, y) -> None:
        """Delta_h field + source on the interior x[a] + i y[b] of (n, P, Q) views, built in buf."""
        n, p, q = field.shape
        shape = (n, p - 2, q - 2)
        res = _laplacian(field, h, _front(buf, shape), _front(buf[math.prod(shape) :], shape))
        res += source[:, 1:-1, 1:-1]
        window = np.max(np.abs(res, out=res), axis=(1, 2))
        if np.max(window) > np.max(self.per_component):
            i, a, b = np.unravel_index(np.argmax(res), res.shape)
            self.component, self.z = int(i) + 1, complex(x[a], y[b])
        np.maximum(self.per_component, window, out=self.per_component)


def _laplacian(field: np.ndarray, h: float, out=None, centre=None) -> np.ndarray:
    """5-point Laplacian on the interior of a (..., P, Q) array, into out and centre if given."""
    out = np.add(field[..., 2:, 1:-1], field[..., :-2, 1:-1], out=out)
    out += field[..., 1:-1, 2:]
    out += field[..., 1:-1, :-2]
    out -= np.multiply(field[..., 1:-1, 1:-1], 4.0, out=centre)
    return np.divide(out, h**2, out=out)


def _front(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The front of a contiguous buffer as a contiguous array of the given shape."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


def _two_grid_peaks(sp: SolutionParams, g: GridSpec, directions=()) -> list:
    """(peak at h, peak at h/2) of the PDE residual, then of each direction's, from one walk.

    The PDE residual is Delta U_i + sum_j a_ij e^{U_j}; a direction's is Delta phi_i +
    sum_j a_ij e^{U_j} phi_j on phi_i = -dU_i/d(which) = sum_j a_ij d log det_j/d(which).
    Windows of rows of at most TILE_POINTS points start on even rows, so the h grid is
    the stride-2 view [..., ::2, ::2] of each.  One kernel call per window, on the Grid of
    its new rows and every column, writes U^k and every direction's tangents into their
    planes' new rows, and cartan_apply turns them into U_i (bit for bit lower_components)
    and phi in place; e^{U_i} is built once per row, and every plane keeps its last CARRY
    rows for the next window, so each point is evaluated once, into buffers that serve the
    whole walk.
    """
    n, fine = sp.n, g.refined()
    axis = np.linspace(-g.half_width, g.half_width, fine.points_per_side)
    side = len(axis)
    depth = min(side, max(CARRY + 2, TILE_POINTS // side // 2 * 2))
    cells = depth * side
    # All the walk's memory, allocated once: one array per plane (carried U_i, e^{U_i}
    # and each phi), and a block that holds the kernel's values, then the stencils'
    # residual and 4·centre in its front 2n and A(E phi) in its last n rows per point.
    # One block for all the planes stayed in the heap after a walk and raised the peak
    # RSS of a default verify by 2 MB.
    planes = [np.empty((n, depth, side)) for _ in range(2 + len(directions))]
    block = np.empty(3 * n * cells)
    planes.append(block[2 * n * cells :].reshape(n, depth, side))
    peaks = [(_Peak(n), _Peak(n)) for _ in range(1 + len(directions))]
    for start in range(0, side - CARRY, depth - CARRY):
        stop = min(start + depth, side)
        fresh, w = CARRY if start else 0, stop - start
        # A short last window uses the front of each array.
        u, weights, *phis, scratch = views = [_front(p, (n, w, side)) for p in planes]
        for view, plane in zip(views[:-1], planes):
            view[:, :fresh] = plane[:, depth - fresh :]
        new = [plane[:, fresh:] for plane in (u, *phis)]
        log_det_k_tangent(sp, directions, Grid(axis[start + fresh : stop], axis),
                          out=(new[0], new[1:]), work=block)
        for part in new:
            cartan_apply(part, out=part)
        np.exp(new[0], out=weights[:, fresh:])
        rows = w if stop == side else w - 2  # the h/2 stencil ends where the next window's begins
        for phi, (coarse, peak) in zip((u, *phis), peaks):
            source = weights if phi is u else np.multiply(weights, phi, out=scratch)
            source = cartan_apply(source, out=scratch)
            peak.fold(phi[:, :rows], source[:, :rows], fine.h, block,
                      axis[start + 1 :], axis[1:-1])
            coarse.fold(phi[:, ::2, ::2], source[:, ::2, ::2], g.h, block,
                        axis[start + 2 :: 2], axis[2:-2:2])
    return peaks


def _residual_report(coarse: _Peak, fine: _Peak, h: float) -> ResidualReport:
    """Peaks at h and h/2 and their order; a zero peak fails every order check."""
    return ResidualReport(
        max_abs_residual=tuple(float(x) for x in coarse.per_component),
        h=h,
        max_abs_residual_refined=tuple(float(x) for x in fine.per_component),
        convergence_order=float(np.log2(coarse.per_component.max() / fine.per_component.max())),
        worst_component=coarse.component, worst_z=coarse.z,
    )


def grid_residuals(sp: SolutionParams, g: GridSpec, directions=()) -> tuple:
    """(PDE report, {direction: linearized report}) from one walk over the h/2 grid.

    Delta_h U_i + sum_j a_ij e^{U_j}, and Delta_h phi_i + sum_j a_ij e^{U_j} phi_j on
    each direction's parameter-derivative field, at h and h/2 with order estimates.
    """
    pde, *fields = (_residual_report(coarse, fine, g.h)
                    for coarse, fine in _two_grid_peaks(sp, g, directions))
    return pde, dict(zip(directions, fields))
