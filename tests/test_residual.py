"""Finite-difference residuals of the system and its linearization."""

import collections
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from gram_oracle import cartan_dense, mp_log_det, perturbed
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab import residual, solution
from todalab.residual import (
    TILE_POINTS,
    GridSpec,
    _laplacian,
    _two_grid_peaks,
    grid_residuals,
)
from todalab.asymptotics import circle
from todalab.solution import (
    Grid,
    kernel_directions,
    log_det_k,
    log_det_k_tangent,
    lower_components,
    sample_params,
)
from todalab.suites import RunConfig, run_suites


def all_directions(n):
    return kernel_directions(n) + [f"loglambda_{i}" for i in range(n + 1)]


def tangent(sp, which, z, k=None):
    return log_det_k_tangent(sp, (which,), z, k)[1][0]


def meshgrid(g):
    """The whole grid as one array, rows indexed by x."""
    axis = np.linspace(-g.half_width, g.half_width, g.points_per_side)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    return x + 1j * y


def pde_residual(sp, g):
    return grid_residuals(sp, g)[0]


def linearized_residual(sp, g):
    return grid_residuals(sp, g, kernel_directions(sp.n))[1]


def kernel_points(monkeypatch, run, *args):
    """The z of every kernel call that run(*args) makes, in call order, as arrays.

    The kernel is replaced by one that writes zeros: the walk over the grid
    does not depend on the values.
    """
    seen = []

    def record(sp, ks, points, directions=(), out=None, work=None):
        z = points.x[:, None] + 1j * points.y
        seen.append(z)
        shapes = ((len(ks),) + z.shape, (len(directions), len(ks)) + z.shape)
        if out is None:
            return tuple(np.zeros(shape) for shape in shapes)
        dets, tangents = out
        dets.fill(0.0)
        for rows in tangents:
            rows.fill(0.0)
        return out

    monkeypatch.setattr(solution, "_log_dets", record)
    run(*args)
    return seen


def test_gridspec_h_and_mesh(monkeypatch):
    # A grid smaller than one window is evaluated in one call, on its whole
    # h/2 grid, whose even rows and columns are the grid itself.
    g = GridSpec(points_per_side=5)
    assert g.h == pytest.approx(1.0)
    (mesh,) = kernel_points(monkeypatch, pde_residual, sample_params(1, 0, 0.3), g)
    assert mesh.shape == (9, 9)
    assert mesh[0, 0] == -2 - 2j
    assert mesh[-1, -1] == 2 + 2j
    assert mesh[4, 4] == 0j
    assert np.array_equal(mesh, meshgrid(g.refined()))
    assert np.array_equal(mesh[::2, ::2], meshgrid(g))


@pytest.mark.parametrize("points_per_side", [5, 201, 401, 801])
def test_row_tiles_cover_the_mesh_bit_for_bit(monkeypatch, points_per_side):
    # The windows' kernel calls, in order, are the rows of the h/2 grid: each
    # point once, at most TILE_POINTS per call.  201, 401 and 801 points end
    # in a partial window (h/2 grids of 401, 801 and 1601 rows take windows
    # of 40, 20 and 10 rows, 4 of them carried, and end in windows of 5, 17
    # and 5 rows).  The h grid is the even rows and columns of the h/2 grid
    # bit for bit.
    # The stencils at h and h/2 fold every interior point of their grid once.
    g = GridSpec(points_per_side=points_per_side)
    mesh = meshgrid(g.refined())
    assert np.array_equal(mesh[::2, ::2], meshgrid(g))
    folded = {}
    fold = residual._Peak.fold

    def record(peak, field, source, h, buf, x, y):
        folded.setdefault(h, []).append((x[: field.shape[1] - 2], y[: field.shape[2] - 2]))
        fold(peak, field, source, h, buf, x, y)

    monkeypatch.setattr(residual._Peak, "fold", record)
    sp = sample_params(1, 0, 0.3)
    for directions in ((), ("alpha_1",)):
        folded.clear()
        calls = kernel_points(monkeypatch, _two_grid_peaks, sp, g, directions)
        assert all(z.shape[1] == len(mesh) and z.size <= TILE_POINTS for z in calls)
        assert np.array_equal(np.concatenate(calls), mesh)
        if points_per_side > 5:
            rows = [len(z) for z in calls]
            assert len(rows) > 2 and rows[-1] < rows[1] == rows[-2] < rows[0]
        # The PDE field and each direction's, window by window.
        assert sorted(folded) == sorted((g.h, g.refined().h))
        fields = 1 + len(directions)
        for grid in (g, g.refined()):
            interior = meshgrid(grid)[1:-1, 0].real
            xs = [x for x, _ in folded[grid.h]]
            for field in range(fields):
                assert np.array_equal(np.concatenate(xs[field::fields]), interior)
            assert all(np.array_equal(y, interior) for _, y in folded[grid.h])


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


def test_laplacian_order_on_known_function():
    # Residual of the discrete Laplacian on exp(x) (Laplacian = itself)
    # must shrink at second order; uses the public pde machinery indirectly
    # via a quartic whose Laplacian is known exactly.
    for h, expect in ((0.1, None), (0.05, None)):
        g = GridSpec.from_h(h)
        z = meshgrid(g)
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
    for z in (0.5 + 0.25j, 1 - 2j):
        f = lam0 + lam1 * abs(z) ** 2
        expect = 2.0 * lam1 * z.real / f
        got = float(tangent(sp, "alpha_1", np.array([z]))[0][0])
        assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derivative_field_matches_mpmath_central_difference(n):
    # A 120-digit central difference with step 1e-40 has an error near
    # 1e-80, so the comparison sees only the double-precision tangent,
    # out to radii where a double-precision difference is useless.  The
    # radial direction r d/dr is differenced along z -> z e^{+-h}, and the
    # frequency-3 pair shows the naming rule past the kernel directions.
    sp = sample_params(n, 1, 0.5, dilation=1.0)
    zs = np.array([0.5 * np.exp(0.7j), 1e2 * np.exp(2.1j), 1e3 * np.exp(-1.3j)])
    third = ["alpha3_3", "beta3_3"] if n >= 3 else []
    with mp.workdps(120):
        h = mp.mpf("1e-40")
        for which in all_directions(n) + third + ["radial"]:
            got = tangent(sp, which, zs)
            for k in range(1, n + 1):
                for z, value in zip(zs, got[k - 1]):
                    ref = (mp_log_det(sp, k, z, which, h)
                           - mp_log_det(sp, k, z, which, -h)) / (2 * h)
                    assert value == pytest.approx(float(ref), rel=1e-11), (which, k, z)


def test_derivative_field_single_row_matches_full_stack():
    # A single k runs the same polynomials on the same points as the
    # full stack, so its row must agree bit for bit.
    n = 3
    sp = sample_params(n, 2, 0.5)
    z = 40.0 * np.exp(1j * np.linspace(0.0, 6.0, 9))
    for which in all_directions(n) + ["radial"]:
        full = tangent(sp, which, z)
        for k in range(1, n + 1):
            assert np.array_equal(tangent(sp, which, z, k=k), full[k - 1])
        for k in (0, n + 1):
            with pytest.raises(ValueError):
                tangent(sp, which, z, k=k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_beta_rows_from_the_alpha_pass_match_the_single_direction_route(n):
    # Each beta reads i dq_S from the pass over its coefficient's dq_S,
    # whether or not its alpha is requested too, so every row keeps every bit.
    sp = sample_params(n, 4, 0.5)
    directions = kernel_directions(n)
    for radius in (0.3, 2.5, 3e1, 1e3, 1e6):
        z = radius * np.exp(1j * np.linspace(0.1, 6.2, 17))
        for which, rows in zip(directions, log_det_k_tangent(sp, directions, z)[1]):
            assert np.array_equal(rows, tangent(sp, which, z)), (which, radius)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tangent_scale_is_bit_identical_in_range(monkeypatch, n):
    # Scaling the points and c_j by powers of two scales every row map, every
    # matrix product, and the ratio's numerator and denominator alike, exactly:
    # the tangents at each row's 2^e equal those at scale 1 (every row's |z|
    # read as 0) bit for bit, on scattered z, rings and grid rows.
    sp = sample_params(n, 4, 0.5)
    directions = all_directions(n) + ["radial"]
    for radius in (0.3, 2.5, 3e1, 1e3, 1e6):
        sets = [radius * np.exp(1j * np.linspace(0.1, 6.2, 17)),
                circle(radius * np.array([1.0, 0.3]), 17),
                Grid(radius * np.array([-1.0, 0.5]), radius * np.linspace(-1.0, 1.0, 9))]
        scaled = [log_det_k_tangent(sp, directions, points)[1] for points in sets]
        with monkeypatch.context() as patch:
            for kind in (solution.Rings, Grid):
                patch.setattr(kind, "moduli",
                              lambda self, moduli=kind.moduli: np.zeros_like(moduli(self)))
            unscaled = [log_det_k_tangent(sp, directions, points)[1] for points in sets]
        for kind, a, b in zip(("scattered", "rings", "grid"), scaled, unscaled):
            assert np.array_equal(a, b), (kind, radius)


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
    got = tangent(sp, which, z)[:, 0]
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
    z = meshgrid(g)
    weights = np.exp(lower_components(sp, z)[:, 1:-1, 1:-1])
    phi = np.ones((1,) + z.shape)
    a = cartan_dense(sp.n)
    res = _laplacian(phi, g.h) + np.einsum("ij,jxy->ixy", a, weights * phi[:, 1:-1, 1:-1])
    assert np.max(np.abs(res)) > 1.0


def test_linearized_order_estimate_for_resolved_direction():
    sp = sample_params(2, 0, 0.3, dilation=2.0)
    rep = linearized_residual(sp, GridSpec.from_h(2e-2))["alpha_1"]
    assert 1.5 <= rep.convergence_order <= 2.5


# Whole-grid references: the residuals as they were before row tiles.


def whole_grid(g):
    """The whole grid as one Grid of rows x and columns y."""
    axis = np.linspace(-g.half_width, g.half_width, g.points_per_side)
    return Grid(axis, axis)


def whole_grid_pde_residual(sp, g):
    """(n, P-2, P-2) interior residual of Delta_h U_i + sum_j a_ij e^{U_j}."""
    u = lower_components(sp, whole_grid(g))
    a = cartan_dense(sp.n)
    return _laplacian(u, g.h) + np.einsum("ij,jxy->ixy", a, np.exp(u)[:, 1:-1, 1:-1])


def whole_grid_linearized_residual(sp, which, g):
    a = cartan_dense(sp.n)
    upper, (dlog_det,) = log_det_k_tangent(sp, (which,), whole_grid(g))
    weights = np.exp(np.tensordot(a, upper, axes=(1, 0))[:, 1:-1, 1:-1])
    phi = np.tensordot(a, dlog_det, axes=(1, 0))
    return _laplacian(phi, g.h) + np.einsum("ij,jxy->ixy", a, weights * phi[:, 1:-1, 1:-1])


def assert_peak_matches(peak, ref, z):
    # Each row takes its own evaluation scale, and each matrix product entry is
    # one row's map against one column, so the kernel and the stencils give the
    # whole-grid bits at each point: the peaks are equal, and the recorded worst
    # point is a maximizer of the reference.
    ref = np.abs(ref)
    assert np.array_equal(peak.per_component, np.max(ref, axis=(1, 2)))
    ix = np.argwhere(z[1:-1, 1:-1] == peak.z)
    assert len(ix) == 1
    x, y = ix[0]
    assert ref[peak.component - 1, x, y] == np.max(ref)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("points_per_side", [5, 201, 257])
def test_tiled_residuals_match_whole_grid_reference(n, points_per_side):
    # Both peaks of one walk, at h and at h/2, against whole-grid residuals on
    # each grid: the PDE's from a walk alone and from one with every direction,
    # and each direction's.  5 points fit one window; 201 points is
    # GridSpec.from_h(2e-2); 257 has an h/2 grid of 513 rows in windows of 30,
    # so its last holds 19.
    sp = sample_params(n, n, 0.3)
    g = GridSpec(points_per_side=points_per_side)
    grids = (g, g.refined())
    directions = all_directions(n)
    (alone,) = _two_grid_peaks(sp, g)
    pde, *fields = _two_grid_peaks(sp, g, directions)
    for pair in (alone, pde):
        for peak, grid in zip(pair, grids):
            assert_peak_matches(peak, whole_grid_pde_residual(sp, grid), meshgrid(grid))
    for which, pair in zip(directions, fields, strict=True):
        for peak, grid in zip(pair, grids):
            ref = whole_grid_linearized_residual(sp, which, grid)
            assert_peak_matches(peak, ref, meshgrid(grid))


def test_residuals_never_evaluate_a_whole_grid(monkeypatch):
    # One kernel call per window, with no direction or with every kernel
    # direction: together the calls hold each point of the h/2 grid once, and
    # no call more than TILE_POINTS.
    calls = []
    original = solution._log_dets

    def counted(sp, ks, z, directions=(), **kwargs):
        calls.append((np.size(z), tuple(directions)))
        return original(sp, ks, z, directions, **kwargs)

    monkeypatch.setattr(solution, "_log_dets", counted)
    sp = sample_params(2, 0, 0.3)
    g = GridSpec.from_h(2e-2)
    every = tuple(kernel_directions(2))
    for per_window in ((), every):
        calls.clear()
        grid_residuals(sp, g, per_window)
        assert len(calls) > 1
        assert all(directions == per_window for _, directions in calls)
        assert sum(size for size, _ in calls) == g.refined().points_per_side ** 2
        assert max(size for size, _ in calls) <= TILE_POINTS


@pytest.mark.parametrize("order", [["pde", "linearized"], ["linearized", "pde"]])
def test_grid_suites_share_one_walk_per_parameter_set(monkeypatch, order):
    # Selected together, pde and linearized read one walk per parameter set,
    # in either order: one kernel call per window, each with every kernel
    # direction, whose sizes sum to count x (2N - 1)^2; and the cases and
    # detail rows are those of each suite run alone.
    def config(suites):
        return RunConfig(suites=suites, n=2, count=2, grid_h=4e-2)

    alone = {name: run_suites(config([name])) for name in order}
    cfg = config(order)
    g = GridSpec.from_h(cfg.grid_h)
    calls = []
    original = solution._log_dets

    def counted(sp, ks, z, directions=(), **kwargs):
        calls.append((sp, np.size(z), tuple(directions)))
        return original(sp, ks, z, directions, **kwargs)

    windows = len(kernel_points(monkeypatch, _two_grid_peaks, sample_params(2, 0, 0.3), g))
    monkeypatch.setattr(solution, "_log_dets", counted)
    cases, details, seconds = run_suites(cfg)
    every = tuple(kernel_directions(2))
    per_set = collections.Counter(sp for sp, _, _ in calls)
    assert list(per_set.values()) == [windows] * cfg.count
    assert all(directions == every for _, _, directions in calls)
    assert sum(size for _, size, _ in calls) == cfg.count * g.refined().points_per_side ** 2
    assert cases == alone[order[0]][0] + alone[order[1]][0]
    assert details == {name: alone[name][1][name] for name in order}
    assert list(seconds) == order


def test_walk_memory_is_its_buffers():
    # The walk's peak is the buffers it allocates once: 2 + |directions| planes of n
    # values per point of a window (U_i, e^{U_i} and each phi), a block of 3n that
    # holds the kernel's values, then the stencils' 2n and the plane of A(E phi), and
    # cartan_apply's saved rows, one at n = 2 and two from n = 3; 64 KiB covers the
    # rest (the kernel's column table and row weights).  Measured: 2,971,850 bytes
    # at n = 2 with every kernel direction, 2,830,632 at n = 4 with none.
    for n, directions in ((2, kernel_directions(2)), (4, ())):
        sp, g = sample_params(n, 3, 0.3, 3.0), GridSpec.from_h(1e-2)
        side = g.refined().points_per_side
        window = TILE_POINTS // side // 2 * 2 * side * 8  # bytes of one value per point
        bound = ((3 + len(directions)) * n + 2 * n + min(2, n - 1)) * window + 2**16
        grid_residuals(sp, g, directions)  # builds the minor tables, which outlive the walk
        tracemalloc.start()
        try:
            grid_residuals(sp, g, directions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, n


def test_report_names_the_worst_component_and_point():
    sp = sample_params(2, 0, 0.3)
    g = GridSpec.from_h(2e-2)
    rep = pde_residual(sp, g)
    ref = np.abs(whole_grid_pde_residual(sp, g))
    i, x, y = np.unravel_index(np.argmax(ref), ref.shape)
    assert rep.worst_component == i + 1
    assert rep.worst_z == meshgrid(g)[x + 1, y + 1]
    assert rep.max_abs_residual[rep.worst_component - 1] == rep.max_residual
