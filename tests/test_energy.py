"""Energy functionals, wall-power classification, and the balance audit."""

import cmath

import numpy as np
import pytest

from helpers import ALL_BCS, field_of_solutions, reference_classify_bc
from stokesbc import (
    AuditError,
    BcSpec,
    FluidConstants,
    GridSpec,
    SampledField,
    boundary_power,
    check_compatibility,
    classify_bc,
    convective_flux,
    derive_mode,
    dissipation,
    energy_balance_residual,
    kinetic_energy,
    solve_mode,
    stream_function_field,
)
from stokesbc.energy import _apply, _project_onto_bc, _velocity_gradient
from stokesbc.halfspace import ModeSolution

CONSTANTS = FluidConstants(1.0, 1.0, 1.0)

# (alpha, beta) -> expected class of the wall power functional:
# B1 = the convective form vanishes, B2 = only the linear form vanishes,
# B3 = neither (a witness with visible power exists).
EXPECTED_CLASS = {
    (0, 0): "B1",
    (1, 0): "B1",
    (-1, 0): "B1",
    (0, 1): "B2",
    (1, 1): "B2",
    (0, -1): "B2",
    (-1, -1): "B2",
    (-1, 1): "B3",
    (1, -1): "B3",
}


def sample_field(decay=1.5, amplitude=1e-3, ny=41):
    grid = GridSpec(2.0 * np.pi, 8, 10.0, ny)
    return stream_function_field(CONSTANTS, grid, amplitude, decay=decay)


def test_kinetic_energy_quadratic_and_positive():
    field = sample_field()
    e = kinetic_energy(field)
    assert e > 0.0
    doubled = type(field)(
        field.grid, field.constants, 2.0 * field.velocity, field.pressure
    )
    assert kinetic_energy(doubled) == pytest.approx(4.0 * e, rel=1e-12)


def test_dissipation_nonnegative():
    field = sample_field()
    assert dissipation(field, form="S") > 0.0
    assert dissipation(field, form="T") > 0.0
    zero = type(field)(
        field.grid, field.constants, 0.0 * field.velocity, field.pressure
    )
    assert dissipation(zero) == 0.0


def test_wall_power_vanishes_for_no_slip_trace():
    # the stream-function datum has v = w = 0 on the wall: both forms silent
    field = sample_field()
    scale = dissipation(field) + kinetic_energy(field)
    assert abs(boundary_power(field, form="S", face="wall")) < 1e-12 * scale
    assert abs(boundary_power(field, form="T", face="wall")) < 1e-12 * scale


@pytest.mark.parametrize("bc", ALL_BCS, ids=lambda bc: f"a{bc.alpha}b{bc.beta}")
def test_classification_matches_static_table(bc):
    report = classify_bc(bc, n_trials=60, seed=0)
    assert report.predicted_class == EXPECTED_CLASS[(bc.alpha, bc.beta)]
    assert report.empirical_class == report.predicted_class
    if report.predicted_class == "B1":
        assert report.max_abs_full_power < report.zero_tol
    elif report.predicted_class == "B2":
        assert report.max_abs_linear_power < report.zero_tol
    else:
        assert report.max_abs_linear_power > report.witness_floor


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": 0},
        {"seed": 7},
        {"rho": 3.7, "mu": 0.2, "x_length": 3.3},
        {"n_trials": 1},
    ],
    ids=["seed0", "seed7", "rho-mu-length", "one-trial"],
)
@pytest.mark.parametrize("bc", ALL_BCS, ids=lambda bc: f"a{bc.alpha}b{bc.beta}")
def test_classification_is_the_trial_loop(bc, kwargs):
    # the array pass reproduces the per-trial loop to the last bit
    batch, loop = classify_bc(bc, **kwargs), reference_classify_bc(bc, **kwargs)
    assert batch.max_abs_linear_power == loop.max_abs_linear_power
    assert batch.max_abs_full_power == loop.max_abs_full_power
    assert batch.empirical_class == loop.empirical_class


@pytest.mark.parametrize("bc", ALL_BCS, ids=lambda bc: f"a{bc.alpha}b{bc.beta}")
def test_classifier_projection_zeroes_the_wall_rows(bc):
    # the classifier's constraint surface is the zero set of BcSpec's rows
    mu, xi = 1.3, np.array([1.0, 2.0])
    raw = np.random.default_rng(5).standard_normal((50, 2, 10))
    amps = raw[..., 0::2] + 1j * raw[..., 1::2]

    def rows(a):
        v, w, dv, dw, p = np.moveaxis(a, -1, 0)
        return bc.tangential_row(mu, v, dv, 1j * xi * w), bc.normal_row(mu, w, dw, p)

    assert all(np.min(np.abs(row)) > 1e-3 for row in rows(amps))
    _project_onto_bc(amps, bc, mu, xi)
    assert all(np.max(np.abs(row)) <= 1e-15 for row in rows(amps))


def test_balance_needs_three_snapshots():
    field = sample_field()
    with pytest.raises(AuditError, match="3 snapshots"):
        energy_balance_residual([field, field], 0.1)


def test_balance_flags_active_truncation_face():
    # decay so weak that the truncation face carries visible power
    fields = [sample_field(decay=0.15, amplitude=1e-3 * (1.0 - 0.01 * i)) for i in range(3)]
    with pytest.raises(AuditError, match="truncation face"):
        energy_balance_residual(fields, 0.01, form="S", convective=False)


def exact_series(dt, ny, t0=0.1):
    grid = GridSpec(2.0 * np.pi, 16, 14.0, ny)
    mode = derive_mode(CONSTANTS, 0.3j, (grid.wavenumber(1),))
    sol = solve_mode(mode, BcSpec(0, 1), 1.0)
    out = []
    for t in (t0 - dt, t0, t0 + dt):
        c = cmath.exp(mode.lambda_eps * t)
        scaled = ModeSolution(mode, sol.bc, c * sol.velocity, c * sol.pressure)
        out.append(field_of_solutions(CONSTANTS, {1: scaled}, grid))
    return out


def test_balance_report_structure():
    series = exact_series(0.2, 129)
    report = energy_balance_residual(series, 0.2, form="S", convective=False)
    assert report.dt == 0.2
    assert len(report.energies) == 3
    assert len(report.residuals) == 1
    assert len(report.dissipations) == len(report.boundary_powers) == 3
    assert report.convective is False
    with_conv = energy_balance_residual(series, 0.2, form="T", convective=True)
    assert len(with_conv.convective_fluxes) == 3


def test_balance_residual_small_for_exact_evolution():
    # second-order discretization: residual at dt = 0.1, ny = 257 sits well
    # under the leading-order budget (the acceptance ladder measures the rate)
    report = energy_balance_residual(exact_series(0.1, 257), 0.1, form="S", convective=False)
    scale = max(report.energies) / 0.1
    assert abs(report.residuals[0]) < 1e-2 * scale


def test_compatibility_smoke():
    grid = GridSpec(2.0 * np.pi, 16, 12.0, 65)
    mode = derive_mode(CONSTANTS, 0.4j, (grid.wavenumber(1),))
    sol = solve_mode(mode, BcSpec(0, 0), 1.0)
    field = field_of_solutions(CONSTANTS, {1: sol}, grid)
    report = check_compatibility(field, BcSpec(0, 0), p_exponent=1.0)
    assert report


def _field(grid, u_x, u_y, constants=CONSTANTS):
    """SampledField of the velocity (u_x(x, y), u_y(x, y)) on grid's nodes."""
    x, y = grid.x_nodes(), grid.y_nodes()
    xx, yy = np.meshgrid(x, y, indexing="ij")
    u = np.stack((u_x(xx, yy), u_y(xx, yy)))
    return SampledField(grid, constants, u, np.zeros(xx.shape))


@pytest.mark.parametrize("face, nu_y", [("wall", -1.0), ("top", 1.0)])
def test_convective_flux_closed_form(face, nu_y):
    # u = (0, a + b cos x) on both faces of a 2 pi strip, so
    # int rho/2 |u|^2 (u . nu) dx = nu_y (pi rho / 2)(2 a^3 + 3 a b^2); the
    # rectangle rule on 8 nodes is exact for this cubic trigonometric polynomial
    a, b = 0.6, -1.3
    constants = FluidConstants(2.5, 1.0, 1.0)
    grid = GridSpec(2.0 * np.pi, 8, 10.0, 9)
    field = _field(grid, lambda x, y: np.zeros_like(x), lambda x, y: a + b * np.cos(x), constants)
    expected = nu_y * 0.5 * np.pi * constants.rho * (2.0 * a**3 + 3.0 * a * b**2)
    assert convective_flux(field, face) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_boundary_power_closed_form():
    # u = (cos x (1 + y), sin x (2 - y)), p = cos x on a Chebyshev strip of
    # height 3 (u is linear in y, so the y-derivatives are exact):
    #   wall, nu_y = -1: -int [mu v (d_y v +- d_x w) + w (2 mu d_y w - p or -p)]
    #     = mu pi in both forms;
    #   top, nu_y = +1: 2 mu pi (S) and 8 mu pi (T)
    mu = 1.3
    grid = GridSpec(2.0 * np.pi, 8, 3.0, 9, y_kind="cheb")
    x, y = np.meshgrid(grid.x_nodes(), grid.y_nodes(), indexing="ij")
    u = np.stack((np.cos(x) * (1.0 + y), np.sin(x) * (2.0 - y)))
    field = SampledField(grid, FluidConstants(1.0, mu, 1.0), u, np.cos(x))
    expected = {("wall", "S"): 1.0, ("wall", "T"): 1.0, ("top", "S"): 2.0, ("top", "T"): 8.0}
    for (face, form), factor in expected.items():
        power = boundary_power(field, form=form, face=face)
        assert power == pytest.approx(factor * mu * np.pi, rel=1e-14, abs=0.0), (face, form)


@pytest.mark.parametrize("nx", [9, 8])
def test_velocity_gradient_x_part_is_exact(nx):
    # a sin(kx) e^{-cy} and b cos(2kx) y e^{-cy} lie below the Nyquist limit
    # of both grids, so the spectral x-derivative is exact to rounding; a
    # non-2 pi strip catches a wavenumber table that ignores x_length
    a, b, c = 0.7, -1.9, 1.25
    grid = GridSpec(3.0, nx, 10.0, 41)
    k = grid.wavenumber(1)
    field = _field(
        grid,
        lambda x, y: a * np.sin(k * x) * np.exp(-c * y),
        lambda x, y: b * np.cos(2 * k * x) * y * np.exp(-c * y),
    )
    x, y = np.meshgrid(field.x, field.y, indexing="ij")
    exact = np.stack(
        (
            a * k * np.cos(k * x) * np.exp(-c * y),
            -2 * k * b * np.sin(2 * k * x) * y * np.exp(-c * y),
        )
    )
    grad = _velocity_gradient(field)
    assert np.max(np.abs(grad[0] - exact)) <= 1e-12 * np.max(np.abs(field.velocity))


def test_velocity_gradient_drops_the_nyquist_mode():
    # on an even grid cos(nx/2 k x) samples as (-1)^j: its unpaired Nyquist
    # mode has no derivative, while the other component is still exact
    nx, b, c = 8, -1.9, 1.25
    grid = GridSpec(3.0, nx, 10.0, 41)
    k = grid.wavenumber(1)
    field = _field(
        grid,
        lambda x, y: np.cos(nx // 2 * k * x) * np.exp(-c * y),
        lambda x, y: b * np.cos(2 * k * x) * y * np.exp(-c * y),
    )
    x, y = np.meshgrid(field.x, field.y, indexing="ij")
    grad = _velocity_gradient(field)
    scale = np.max(np.abs(field.velocity))
    assert np.max(np.abs(grad[0, 0])) <= 1e-12 * scale
    exact = -2 * k * b * np.sin(2 * k * x) * y * np.exp(-c * y)
    assert np.max(np.abs(grad[0, 1] - exact)) <= 1e-12 * scale
    # only the x-part drops the Nyquist mode: its y-derivative is kept
    ddy = field.velocity[0] @ grid.y_derivative.T
    assert np.max(np.abs(ddy)) > 0.5 * c
    assert np.max(np.abs(grad[1, 0] - ddy)) <= 1e-13 * scale


@pytest.mark.parametrize("nx", [9, 8])
@pytest.mark.parametrize(
    "grid_kind",
    [{"y_kind": "cheb"}, {}, {"y_kind": "graded", "y_grading": 2.0}],
    ids=["cheb", "uniform", "graded"],
)
def test_velocity_gradient_y_part_is_the_plain_product(nx, grid_kind):
    # the y-part is taken per Fourier mode; it must equal the physical-space
    # product u @ D^T, x-mean and (for even nx) Nyquist content included
    grid = GridSpec(3.0, nx, 10.0, 33, **grid_kind)
    rng = np.random.default_rng(nx)
    u = 2.0 + rng.standard_normal((2, nx, 33))
    field = SampledField(grid, CONSTANTS, u, np.zeros((nx, 33)))
    grad = _velocity_gradient(field)
    assert np.max(np.abs(grad[1] - u @ grid.y_derivative.T)) <= 1e-13 * np.max(np.abs(u))


def test_apply_is_the_row_by_row_product():
    # row i of the result is op's row i times the complex columns of z
    rng = np.random.default_rng(3)
    r, n, k = 5, 6, 4
    op = rng.standard_normal((r, n))
    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    expected = np.stack([op[i] @ z for i in range(r)])
    assert np.allclose(_apply(op, z), expected, rtol=0.0, atol=1e-13)
    # a column slice is made contiguous first
    assert np.allclose(_apply(op, z[:, ::2]), expected[:, ::2], rtol=0.0, atol=1e-13)
    # out receives the same rows
    rows = np.zeros((r + 2, k), dtype=complex)
    _apply(op, z, out=rows[1:-1])
    assert np.allclose(rows[1:-1], expected, rtol=0.0, atol=1e-13)
    assert not rows[[0, -1]].any()


def _rows(field, bc, p_exponent, **data):
    report = check_compatibility(field, bc, p_exponent, **data)
    return {e.condition: e for e in report}


def _compatibility_field():
    # psi = A sin(x) y^2 e^{-1.25 y}: divergence free, v = w = 0 on the wall,
    # and the tangential stress trace -mu (d_y v +- d_x w)(0) = -2 mu A sin(x)
    constants = FluidConstants(1.0, 1.3, 1.0)
    grid = GridSpec(2.0 * np.pi, 16, 12.0, 129, y_kind="cheb")
    return stream_function_field(constants, grid, 1e-3, k=1, decay=1.25)


def test_compatibility_divergence_row():
    # 65 uniform nodes are too coarse for the 1e-6 gate (C1 reads 5.4e-6)
    c1 = _rows(_compatibility_field(), BcSpec(0, 0), 4.0)["C1"]
    assert c1.checked and c1.passed
    assert c1.residual < 1e-7


@pytest.mark.parametrize("alpha", [1, -1])
def test_compatibility_stress_row(alpha):
    field, bc = _compatibility_field(), BcSpec(alpha, 0)
    wrong = _rows(field, bc, 4.0)["C2"]
    assert wrong.checked and not wrong.passed
    assert wrong.residual > 1e-3
    rows = _rows(field, bc, 4.0, h_tangential=-2.0 * 1.3 * 1e-3 * np.sin(field.x))
    assert all(rows[c].checked and rows[c].passed for c in ("C1", "C2", "C3"))
    assert rows["C2"].residual < 1e-10
    # below p = 3 the stress trace is undefined and the row is skipped
    assert not _rows(field, bc, 1.0)["C2"].checked


@pytest.mark.parametrize("alpha", [1, -1])
def test_compatibility_stress_row_sees_alpha(alpha):
    # psi = B sin(x) e^{-c y} has w(0) = -B cos(x) != 0, so d_x w(0) enters
    # the row with alpha's sign: -mu (d_y v + alpha d_x w)(0)
    #   = -mu B (c^2 + alpha) sin(x)
    mu, b, c = 1.3, 1e-3, 1.25
    grid = GridSpec(2.0 * np.pi, 16, 12.0, 129, y_kind="cheb")
    field = _field(
        grid,
        lambda x, y: -c * b * np.sin(x) * np.exp(-c * y),
        lambda x, y: -b * np.cos(x) * np.exp(-c * y),
        FluidConstants(1.0, mu, 1.0),
    )
    bc, w0 = BcSpec(alpha, 0), -b * np.cos(field.x)
    for sign, passed in ((alpha, True), (-alpha, False)):
        trace = -mu * b * (c * c + sign) * np.sin(field.x)
        rows = _rows(field, bc, 4.0, h_tangential=trace, h_normal=w0)
        assert rows["C1"].passed and rows["C3"].checked and rows["C3"].passed
        assert rows["C2"].checked and rows["C2"].passed is passed


def _decaying_field(mu=1.3, b=1e-3, c=1.25):
    # psi = b sin(x) e^{-c y}: divergence free, with wall traces
    # v(0) = -c b sin(x) and w(0) = -b cos(x)
    grid = GridSpec(2.0 * np.pi, 16, 12.0, 129, y_kind="cheb")
    return _field(
        grid,
        lambda x, y: -c * b * np.sin(x) * np.exp(-c * y),
        lambda x, y: -b * np.cos(x) * np.exp(-c * y),
        FluidConstants(1.0, mu, 1.0),
    )


def test_compatibility_velocity_row_checks_the_datum():
    field = _decaying_field()
    v0, w0 = -1.25e-3 * np.sin(field.x), -1e-3 * np.cos(field.x)
    rows = _rows(field, BcSpec(0, 0), 2.0, h_tangential=v0, h_normal=w0)
    assert all(rows[c].checked and rows[c].passed for c in ("C1", "C2", "C3"))
    assert rows["C2"].residual < 1e-12
    wrong = _rows(field, BcSpec(0, 0), 2.0, h_tangential=-v0, h_normal=w0)["C2"]
    assert wrong.checked and not wrong.passed
    assert wrong.residual > 1e-3
    # below p = 3/2 the velocity trace is undefined and the row is skipped
    assert not _rows(field, BcSpec(0, 0), 1.0, h_tangential=-v0)["C2"].checked


@pytest.mark.parametrize("beta", [1, -1])
def test_compatibility_pressure_type_normal_row_is_unchecked(beta):
    # w(0) != 0 and no datum: a velocity-type row would fail, these impose nothing
    rows = _rows(_decaying_field(), BcSpec(0, beta), 4.0)
    assert not rows["C3"].checked and rows["C3"].passed
    assert _rows(_decaying_field(), BcSpec(0, 0), 4.0)["C3"].passed is False
