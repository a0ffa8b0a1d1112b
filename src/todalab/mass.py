"""Total masses of the solution components by two independent routes.

Since Delta U^i = -e^{U_i}, the outward flux -oint dU^i/dr on the circle
of radius R is the mass of e^{U_i} in B_R.  r dU^i/dr is exact (Jacobi's
formula), and the flux falls short of the total by the tail pi C_i / R^2
of e^{U_i} ~ C_i r^-4, whose C_i is known in closed form (see
asymptotics.constant_term_prediction); flux plus tail is off by
O((L / R)^4), L = SolutionParams.outer_scale().  The flux is read by
asymptotics.far_field_checks, in its one kernel call on the circle
R = asymptotics.R_FAR L.

The direct route integrates e^{U_i} over the Riemann sphere.  With
z = t cot(theta/2) e^{i phi} the plane's area element is dA / rho,
rho = 4 t^2 / (t^2 + |z|^2)^2, and V_i = e^{U_i} / rho is smooth on the
whole sphere, so a Gauss-Legendre rule in cos(theta) times the trapezoid
rule in phi (asymptotics.sphere_rule, shared with the T-integrals) converges
spectrally.  The centre t = (lambda_0 / lambda_n)^(1/2n) is the solution's
own length scale (SolutionParams.length_scale).  Both routes must approach 4 pi i(n+1-i).
"""

from __future__ import annotations

import math

import numpy as np

from .asymptotics import SPHERE_NODES, constant_term_prediction, sphere_rule
from .solution import PositivityError, SolutionParams, lower_components

__all__ = ["flux_tail", "mass_quadrature", "predicted_mass"]

SPHERE_SAMPLES = 128  # mass_quadrature's trapezoid nodes in phi (SPHERE_NODES in cos(theta))


def predicted_mass(n: int, i: int) -> float:
    return 4.0 * math.pi * i * (n + 1 - i)


def flux_tail(sp: SolutionParams, R: float) -> list:
    """pi C_i / R^2, i = 1..n: the mass of e^{U_i} outside B_R to leading order.

    Taken in logs, so R^2 never overflows (the tail underflows to 0 at
    R = 1e300); a tail past the double range raises PositivityError.
    """
    try:
        return [math.pi * math.exp(c - 2.0 * math.log(R)) for c in constant_term_prediction(sp)]
    except OverflowError:
        raise PositivityError(f"the mass tail pi C / R^2 overflows at R = {R:.3g}") from None


def mass_quadrature(sp: SolutionParams) -> list:
    """int_{S^2} e^{U_i} / rho dA, i = 1..n, from one evaluation on the sphere's nodes.

    An integral that is not positive (e^{U_i} underflowed) raises
    PositivityError.
    """
    z, log_area, w = sphere_rule(sp.length_scale(), SPHERE_NODES, SPHERE_SAMPLES)
    # 1 / rho = t^2 / (1 - x)^2 at |z| = t cot(theta / 2), x = cos(theta).
    v = np.exp(lower_components(sp, z) + log_area)
    value = 2.0 * np.pi * (np.mean(v, axis=-1) @ w)
    for i, q in enumerate(value, start=1):
        if not q > 0:
            raise PositivityError(f"mass integral of e^(U_{i}) is {q}, not positive")
    return [float(q) for q in value]
