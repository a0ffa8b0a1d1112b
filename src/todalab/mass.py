"""Total masses of the solution components by two independent routes.

Since Delta U^i = -e^{U_i}, the outward flux -oint dU^i/dr on the circle
of radius R is the mass of e^{U_i} in B_R; the direct plane integral of
e^{U_i} gives the total.  Both must approach 4 pi i(n+1-i).  Flux is the
primary route: r dU^i/dr is exact (Jacobi's formula), and the flux falls
short of the total only by the tail pi C / R^2 of e^{U_i} ~ C r^-4.  Polar
quadrature with a power-law tail correction is the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import circle, polar_panels
from .solution import PositivityError, SolutionParams, log_det_k_tangent, lower_components

__all__ = ["mass_flux", "mass_quadrature", "predicted_mass"]

# mass_flux: samples on the circle.
FLUX_SAMPLES = 512
# mass_quadrature: outer radius, samples per circle, nodes per radial panel.
R_MAX = 200.0
QUAD_SAMPLES = 256
QUAD_NODES = 24


def predicted_mass(n: int, i: int) -> float:
    return 4.0 * math.pi * i * (n + 1 - i)


def mass_flux(sp: SolutionParams, R: float) -> list:
    """-oint_{|z|=R} dU^i/dr, i = 1..n: exact r d/dr log det_i + angular trapezoid."""
    z = circle(R, FLUX_SAMPLES)
    (r_dlog_det,) = log_det_k_tangent(sp, ("radial",), z)[1]
    if not np.all(np.isfinite(r_dlog_det)):
        raise PositivityError(f"the radial derivative of log det_k overflows at R = {R:.3g}")
    return [float(x) for x in 2.0 * np.pi * np.mean(r_dlog_det, axis=1)]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    tail_fit_stable: bool


def mass_quadrature(sp: SolutionParams) -> list:
    """Polar quadrature of e^{U_i} over B_{R_max} plus a pi C / R_max^2 tail, i = 1..n.

    C is fitted as the average of e^{U_i} r^4 on the two outermost
    circles (decay e^{U_i} ~ C r^{-4}); the fit is flagged unstable if
    the two circle averages differ by more than 10%.  An integral that is
    not positive (e^{U_i} underflowed) raises PositivityError.
    """

    def ring_mean(r_nodes: np.ndarray) -> np.ndarray:
        u = lower_components(sp, circle(r_nodes, QUAD_SAMPLES))
        return np.mean(np.exp(u), axis=-1)

    # Geometric panels resolve the O(1) core and the r^-4 tail alike.
    bounds = [0.0] + [R_MAX / 2**k for k in range(8, -1, -1)]
    bulk = polar_panels(ring_mean, bounds, QUAD_NODES)[-1]
    c_outer = ring_mean(np.array([R_MAX]))[:, 0] * R_MAX**4
    c_inner = ring_mean(np.array([0.8 * R_MAX]))[:, 0] * (0.8 * R_MAX) ** 4
    c_fit = 0.5 * (c_outer + c_inner)
    stable = np.abs(c_outer - c_inner) <= 0.10 * np.maximum(np.abs(c_fit), 1e-300)
    tail = np.pi * c_fit / R_MAX**2
    value = bulk + tail
    for i, v in enumerate(value, start=1):
        if not v > 0:
            raise PositivityError(f"mass integral of e^(U_{i}) is {v}, not positive")
    return [QuadratureResult(float(v), bool(ok)) for v, ok in zip(value, stable)]
