"""Finite-difference residuals of the system and its linearization."""

import math

import mpmath as mp
import numpy as np
import pytest
from gram_oracle import mp_log_det
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab.residual import (
    DerivativeField,
    GridSpec,
    linearized_residual,
    param_derivative_field,
    pde_residual,
)
from todalab.solution import (
    kernel_directions,
    log_det_k,
    perturbed,
    sample_params,
)


def all_directions(n):
    return kernel_directions(n) + [f"loglambda_{i}" for i in range(n + 1)]


def test_gridspec_h_and_mesh():
    g = GridSpec(points_per_side=5, half_width=2.0)
    assert g.h == pytest.approx(1.0)
    mesh = g.mesh()
    assert mesh.shape == (5, 5)
    assert mesh[0, 0] == -2 - 2j
    assert mesh[-1, -1] == 2 + 2j
    assert mesh[2, 2] == 0j


def test_gridspec_from_h_and_refined():
    g = GridSpec.from_h(1e-2)
    assert g.h == pytest.approx(1e-2)
    r = g.refined()
    assert r.h == pytest.approx(g.h / 2)
    assert r.half_width == g.half_width


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(points_per_side=4)
    with pytest.raises(ValueError):
        GridSpec(points_per_side=1)
    with pytest.raises(ValueError):
        GridSpec(half_width=-1.0)


def test_laplacian_order_on_known_function():
    # Residual of the discrete Laplacian on exp(x) (Laplacian = itself)
    # must shrink at second order; uses the public pde machinery indirectly
    # via a quartic whose Laplacian is known exactly.
    from todalab.residual import _laplacian

    for h, expect in ((0.1, None), (0.05, None)):
        g = GridSpec.from_h(h)
        z = g.mesh()
        x, y = z.real, z.imag
        field = x**4 + y**4
        lap = _laplacian(field[None], g.h)[0]
        exact = 12.0 * (x**2 + y**2)[1:-1, 1:-1]
        err = np.max(np.abs(lap - exact))
        # 5-point stencil error h^2/12 * (f_xxxx + f_yyyy) = 4 h^2
        assert err == pytest.approx(4.0 * h**2, rel=1e-6)


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1)])
def test_pde_residual_second_order(n, seed):
    sp = sample_params(n, seed, 0.3)
    rep = pde_residual(sp, GridSpec.from_h(4e-2))
    assert rep.max_residual < 0.1
    assert 1.5 <= rep.convergence_order <= 2.5
    assert len(rep.max_abs_residual) == n
    assert max(rep.max_abs_residual_refined) < rep.max_residual


def test_derivative_field_sign_convention():
    # For the Liouville-type n=1 family, -dU^1/d(alpha_1) at c=0 is the
    # closed form 2 lambda_1 x / f with f = lambda_0 + lambda_1 |z|^2.
    sp = sample_params(1, 0, 0.0)
    lam0, lam1 = sp.lambdas
    fld = param_derivative_field(sp, "alpha_1")
    for z in (0.5 + 0.25j, 1 - 2j):
        f = lam0 + lam1 * abs(z) ** 2
        expect = 2.0 * lam1 * z.real / f
        got = float(fld.upper(np.array([z]))[0][0])
        assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derivative_field_matches_mpmath_central_difference(n):
    # A 120-digit central difference with step 1e-40 has an error near
    # 1e-80, so the comparison sees only the double-precision tangent,
    # out to radii where a double-precision difference is useless.
    sp = sample_params(n, 1, 0.5, dilation=1.0)
    zs = np.array([0.5 * np.exp(0.7j), 1e2 * np.exp(2.1j), 1e3 * np.exp(-1.3j)])
    with mp.workdps(120):
        h = mp.mpf("1e-40")
        for which in all_directions(n):
            got = param_derivative_field(sp, which).upper(zs)
            for k in range(1, n + 1):
                for z, value in zip(zs, got[k - 1]):
                    ref = (mp_log_det(sp, k, z, which, h)
                           - mp_log_det(sp, k, z, which, -h)) / (2 * h)
                    assert value == pytest.approx(float(ref), rel=1e-11), (which, k, z)


def test_derivative_field_single_row_matches_full_stack():
    # upper(z, k=k) runs the same polynomials on the same points as the
    # full stack, so its row must agree bit for bit.
    n = 3
    sp = sample_params(n, 2, 0.5)
    z = 40.0 * np.exp(1j * np.linspace(0.0, 6.0, 9))
    for which in all_directions(n):
        fld = param_derivative_field(sp, which)
        full = fld.upper(z)
        for k in range(1, n + 1):
            assert np.array_equal(fld.upper(z, k=k), full[k - 1])
        for k in (0, n + 1):
            with pytest.raises(ValueError):
                fld.upper(z, k=k)


@given(
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    magnitude=st.floats(min_value=0.0, max_value=0.8),
    dilation=st.floats(min_value=1.0, max_value=3.0),
    radius=st.floats(min_value=0.0, max_value=2.0),
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_derivative_field_matches_double_central_difference(
    n, seed, magnitude, dilation, radius, angle, data
):
    sp = sample_params(n, seed, magnitude, dilation=dilation)
    which = data.draw(st.sampled_from(all_directions(n)))
    z = np.array([radius * complex(math.cos(angle), math.sin(angle))])
    got = param_derivative_field(sp, which).upper(z)[:, 0]
    h = 1e-5
    plus, minus = perturbed(sp, which, h), perturbed(sp, which, -h)
    for k in range(1, n + 1):
        fd = (log_det_k(plus, k, z[0]) - log_det_k(minus, k, z[0])) / (2 * h)
        assert abs(got[k - 1] - fd) <= 1e-8 * (1.0 + abs(fd))


def test_linearized_residual_small_for_kernel_fields():
    sp = sample_params(1, 0, 0.0)
    rep = linearized_residual(sp, GridSpec.from_h(2e-2))["alpha_1"]
    assert rep.max_residual < 5e-3
    assert rep.h == pytest.approx(2e-2)


def test_linearized_residual_large_for_non_kernel_field():
    # A constant field in one component is NOT in the kernel: the residual
    # equals |sum_j a_ij e^{U_j} phi_j| which is order one near the core.
    sp = sample_params(1, 0, 0.0)
    g = GridSpec.from_h(2e-2)

    class ConstField(DerivativeField):
        def lower(self, z, base_upper=None):
            return np.ones((1,) + np.shape(np.asarray(z)))

    from todalab.residual import _linearized_residual_once

    fld = ConstField(base=sp, which="alpha_1")
    (res,) = _linearized_residual_once(sp, [fld], g)
    assert res[0] > 1.0


def test_linearized_order_estimate_for_resolved_direction():
    sp = sample_params(2, 0, 0.3, dilation=2.0)
    rep = linearized_residual(sp, GridSpec.from_h(2e-2))["alpha_1"]
    assert 1.5 <= rep.convergence_order <= 2.5
