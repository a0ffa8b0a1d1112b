"""Total masses of the solution components by two independent routes.

Since Delta U^i = -e^{U_i}, the mass of component i equals the outward
flux -oint dU^i/dr on a large circle; it also equals the direct plane
integral of e^{U_i}.  Both must approach 4 pi i(n+1-i).  Flux is the
primary route (O(1/R) error, no tail model); polar quadrature with a
power-law tail correction is the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import circle, polar_panels
from .solution import PositivityError, SolutionParams, lower_components, upper_components

__all__ = ["mass_flux", "mass_quadrature", "predicted_mass"]

# mass_flux: samples on the circle and radial step as a fraction of R.
FLUX_SAMPLES = 512
FLUX_STEP_FRAC = 1e-3
# mass_quadrature: outer radius, samples per circle, nodes per radial panel.
R_MAX = 200.0
QUAD_SAMPLES = 256
QUAD_NODES = 24


def predicted_mass(n: int, i: int) -> float:
    return 4.0 * math.pi * i * (n + 1 - i)


def mass_flux(sp: SolutionParams, R: float) -> list:
    """-oint_{|z|=R} dU^i/dr, i = 1..n: radial central difference + angular trapezoid."""
    s = FLUX_STEP_FRAC * R
    u_out = upper_components(sp, circle(R + s, FLUX_SAMPLES))
    u_in = upper_components(sp, circle(R - s, FLUX_SAMPLES))
    dudr = (u_out - u_in) / (2.0 * s)
    return [float(x) for x in -R * 2.0 * np.pi * np.mean(dudr, axis=1)]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    bulk: float
    tail: float
    tail_coefficient: float
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
    return [
        QuadratureResult(float(v), float(b), float(t), float(c), bool(ok))
        for v, b, t, c, ok in zip(value, bulk, tail, c_fit, stable)
    ]
