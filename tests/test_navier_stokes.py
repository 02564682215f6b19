"""Semi-implicit nonlinear march on the periodic strip."""

from collections import Counter

import numpy as np
import pytest

import stokesbc.navier_stokes as ns
from stokesbc import (
    BcSpec,
    FluidConstants,
    GridSpec,
    InvalidModeError,
    NsStepper,
    SampledField,
    boundary_power,
    derive_mode,
    dissipation,
    kinetic_energy,
    nonlinearity,
    run_simulation,
    solve_mode,
    stream_function_field,
)
from stokesbc.energy import _samples, _spectrum, _velocity_gradient
from stokesbc.navier_stokes import NsState

CONSTANTS = FluidConstants(1.0, 1.0, 1.0)


def cheb_grid(nx=16, ny=65, y_max=12.0):
    return GridSpec(2.0 * np.pi, nx, y_max, ny, y_kind="cheb")


def small_field(grid=None, amplitude=1e-3):
    grid = grid or cheb_grid()
    return stream_function_field(CONSTANTS, grid, amplitude, k=1, decay=1.25)


def test_stream_function_wall_trace():
    field = small_field()
    assert kinetic_energy(field) > 0.0
    # y ascends from the wall; the no-slip rows are exactly zero there
    assert field.y[0] == 0.0
    assert np.max(np.abs(field.velocity[:, :, 0])) == 0.0
    top = np.max(np.abs(field.velocity[:, :, -1]))
    assert top < 1e-3 * np.max(np.abs(field.velocity))


def test_nonlinearity_methods_cross_check():
    # spectral-x/Chebyshev-y versus plain central differences: the mismatch
    # is x-truncation dominated and falls off at second order in nx
    mismatches = []
    for nx in (16, 32):
        grid = GridSpec(2.0 * np.pi, nx, 12.0, 193, y_kind="cheb")
        field = stream_function_field(CONSTANTS, grid, 1e-3, decay=1.5)
        a = nonlinearity(field, method="spectral")
        b = nonlinearity(field, method="fd")
        mismatches.append(np.max(np.abs(a - b)) / np.max(np.abs(a)))
    assert mismatches[0] < 0.05
    assert mismatches[0] / mismatches[1] > 2.5


def test_nonlinearity_quadratic_scaling():
    grid = cheb_grid()
    a = nonlinearity(stream_function_field(CONSTANTS, grid, 1e-3, decay=1.5))
    b = nonlinearity(stream_function_field(CONSTANTS, grid, 2e-3, decay=1.5))
    assert np.allclose(b, 4.0 * a, rtol=1e-10, atol=1e-22)


def test_stepper_requires_cheb_grid():
    uniform = GridSpec(2.0 * np.pi, 8, 8.0, 33, y_kind="uniform")
    with pytest.raises(InvalidModeError, match="cheb"):
        NsStepper(CONSTANTS, uniform)


def test_single_step_contract():
    grid = cheb_grid()
    stepper = NsStepper(CONSTANTS, grid)
    initial = small_field(grid)
    state = NsState(0.0, initial)
    new_state, report = stepper.step(state, 0.02)
    assert report.converged
    assert report.n_iterations <= 10
    assert report.gaps[-1] < 1e-8
    assert report.max_divergence < 1e-6
    assert new_state.time == pytest.approx(0.02)
    assert report.energy <= kinetic_energy(initial) * (1.0 + 1e-12)


def test_run_simulation_completes_and_decays():
    grid = cheb_grid()
    result = run_simulation(
        NsStepper(CONSTANTS, grid), small_field(grid), dt=0.02, n_steps=5
    )
    assert result.status == "completed"
    assert len(result.energies) == 6
    assert len(result.reports) == 5
    assert result.final_dt == 0.02
    assert result.rejected_steps == 0
    assert result.dt_halvings == 0
    assert result.picard_iterations == sum(r.n_iterations for r in result.reports)
    e0 = result.energies[0]
    diffs = np.diff(result.energies)
    assert np.all(diffs <= 1e-8 * e0)
    # keep_states defaults to True: one state per accepted step
    assert len(result.states) == 6
    assert result.states[-1].time == pytest.approx(0.1)


def test_backward_euler_energy_identity_on_the_stepper_grid():
    # Dotting a backward-Euler step with u_n and integrating gives
    # (E_n - E_{n-1})/dt + rho |u_n - u_{n-1}|^2/(2 dt) + 2 mu |D u_n|^2
    # - (wall power) = 0, since the convective term integrates to zero for a
    # no-slip, divergence-free field.  The library's functionals close it to
    # round-off only with the stepper's own y-derivative and y-quadrature.
    grid = cheb_grid(nx=16, ny=129, y_max=16.0)
    dt = 0.02
    result = run_simulation(
        NsStepper(CONSTANTS, grid), small_field(grid), dt=dt, n_steps=50, keep_states=True
    )
    assert result.status == "completed" and result.dt_halvings == 0
    fields = [s.field for s in result.states]
    worst = worst_without_increment = 0.0
    for old, new in zip(fields, fields[1:]):
        step = SampledField(grid, CONSTANTS, new.velocity - old.velocity, new.pressure)
        diss = dissipation(new)
        balance = (kinetic_energy(new) - kinetic_energy(old)) / dt + diss - boundary_power(new)
        increment = kinetic_energy(step) / dt
        worst = max(worst, abs(balance + increment) / diss)
        worst_without_increment = max(worst_without_increment, abs(balance) / diss)
    assert worst < 1e-9
    # the increment term is what closes the balance: the check is not vacuous
    assert worst_without_increment > 1e-3


def test_run_simulation_drops_states_when_asked():
    grid = cheb_grid(ny=49)
    result = run_simulation(
        NsStepper(CONSTANTS, grid), small_field(grid), dt=0.02, n_steps=3,
        keep_states=False,
    )
    assert result.status == "completed"
    assert len(result.states) == 2  # initial and final only


def test_violent_datum_reports_suspected_blowup():
    grid = cheb_grid(nx=8, ny=49)
    stepper = NsStepper(CONSTANTS, grid)
    wild = stream_function_field(CONSTANTS, grid, 80.0, decay=1.0)
    result = run_simulation(
        stepper, wild, dt=0.5, n_steps=2, dt_min=0.3, picard_max=4
    )
    assert result.status == "blowup_suspected"
    assert result.final_dt < 0.5  # at least one halving was attempted
    assert result.rejected_steps >= 1
    assert result.dt_halvings >= result.rejected_steps


def test_rejected_step_is_retried_at_half_dt():
    """Picard's fourth gap is 1.5e-8 at dt = 0.1 and 3.3e-9 at dt = 0.05 on
    this datum, so the first step is rejected once and both steps are
    accepted at the halved dt."""
    grid = cheb_grid(nx=8, ny=33)
    stepper = NsStepper(CONSTANTS, grid)
    initial = stream_function_field(CONSTANTS, grid, 0.5, decay=1.0)
    result = run_simulation(
        stepper, initial, dt=0.1, n_steps=2, picard_tol=7e-9, picard_max=4
    )
    assert result.status == "completed"
    assert result.rejected_steps == 1
    assert result.dt_halvings == 1
    assert result.final_dt == 0.05
    assert [rep.dt for rep in result.reports] == [0.05, 0.05]
    assert all(rep.converged for rep in result.reports)


class GrowingEnergyStepper:
    """A stand-in stepper whose every step converges with a larger energy:
    an unforced march that should not gain energy, but does."""

    def step(self, state, dt, forcing, picard_tol, picard_max):
        time = state.time + dt
        report = ns.IterationReport(time, dt, 1, (0.0,), True, 0.0, time)
        return NsState(time, state.field), report


def rest_field(grid):
    push = small_field(grid).velocity
    return SampledField(grid, CONSTANTS, np.zeros_like(push), np.zeros(push.shape[1:]))


def test_growing_energy_halves_dt_after_three_steps():
    """An unforced march whose energy grows at every step: dt halves after
    the third accepted step, and the streak starts again."""
    rest = rest_field(cheb_grid(nx=8, ny=33))
    result = run_simulation(GrowingEnergyStepper(), rest, dt=0.02, n_steps=5)
    assert result.status == "completed"
    assert np.all(np.diff(result.energies) > 0.0)
    assert result.rejected_steps == 0
    assert result.dt_halvings == 1
    assert result.final_dt == 0.01
    assert [rep.dt for rep in result.reports] == [0.02, 0.02, 0.02, 0.01, 0.01]


def test_bounded_forced_march_completes_at_its_dt():
    """A steady forcing from rest feeds the energy in at every step, and
    boundedly: the forced march keeps dt and completes."""
    grid = cheb_grid(nx=8, ny=33)
    push = small_field(grid).velocity
    stepper = NsStepper(CONSTANTS, grid)
    result = run_simulation(stepper, rest_field(grid), dt=0.02, n_steps=40, forcing=lambda t: push)
    assert result.status == "completed"
    assert np.all(np.diff(result.energies) > 0.0)
    assert result.rejected_steps == 0
    assert result.dt_halvings == 0
    assert result.final_dt == 0.02
    assert len(result.reports) == 40


def test_forcing_hook_is_applied():
    grid = cheb_grid(ny=49)
    stepper = NsStepper(CONSTANTS, grid)
    initial = small_field(grid)

    def forcing(t):
        return np.zeros_like(initial.velocity)

    forced = run_simulation(stepper, initial, dt=0.02, n_steps=2, forcing=forcing)
    free = run_simulation(stepper, initial, dt=0.02, n_steps=2)
    assert forced.status == free.status == "completed"
    assert forced.energies == pytest.approx(free.energies, rel=1e-12)


def _dirichlet_rows(mat, n):
    mat[[0, n - 1]] = 0.0
    mat[0, 0] = mat[n - 1, n - 1] = 1.0
    return mat


def reference_solve_stokes(stepper, f_datum, dt):
    """The three-stage split, mode by mode, with no cached operators.

    Stage 2 solves the coupled complex 2n block of (vhat, what) with the
    divergence-trace row i xi vhat(0) + (D what)(0) = 0; stage 3 calls
    solve_mode with the leftover trace -what(0).  Returns the velocity, the
    pressure and the largest |what(0)| that stage 3 corrects.
    """
    rho, mu = stepper.constants.rho, stepper.constants.mu
    n, dy, dy2 = stepper.ny, stepper.dy, stepper.dy2
    eye = np.eye(n)
    spec = np.fft.rfft(f_datum, axis=1)
    u_spec = np.zeros((2, stepper.n_modes, n), dtype=complex)
    p_spec = np.zeros((stepper.n_modes, n), dtype=complex)

    rhs = rho * spec[0, 0]
    rhs[[0, n - 1]] = 0.0
    u_spec[0, 0] = np.linalg.solve(_dirichlet_rows((rho / dt) * eye - mu * dy2, n), rhs)
    hydrostatic = dy.copy()
    hydrostatic[n - 1] = 0.0
    hydrostatic[n - 1, n - 1] = 1.0
    rhs = rho * spec[1, 0]
    rhs[n - 1] = 0.0
    p_spec[0] = np.linalg.solve(hydrostatic, rhs)

    worst_trace = 0.0
    last = stepper.n_modes - 1 if stepper.nx % 2 == 0 else stepper.n_modes
    for ki in range(1, last):
        xi = stepper.xi[ki]
        fx, fy = spec[0, ki], spec[1, ki]
        rhs = -(1j * xi * fx + dy @ fy)
        rhs[[0, n - 1]] = 0.0
        q = np.linalg.solve(_dirichlet_rows(xi**2 * eye - dy2, n), rhs)

        helm = (rho / dt + mu * xi**2) * eye - mu * dy2
        block = np.zeros((2 * n, 2 * n), dtype=complex)
        block[:n, :n] = helm
        block[n:, n:] = helm
        for row in (0, n - 1, 2 * n - 1):
            block[row] = 0.0
            block[row, row] = 1.0
        block[n] = 0.0
        block[n, 0] = 1j * xi
        block[n, n:] = dy[0]
        rhs = np.concatenate([rho * (fx - 1j * xi * q), rho * (fy - dy @ q)])
        rhs[[0, n - 1, n, 2 * n - 1]] = 0.0
        sol = np.linalg.solve(block, rhs)
        vhat, what = sol[:n], sol[n:]
        worst_trace = max(worst_trace, abs(what[0]))

        mode = derive_mode(FluidConstants(rho, mu, 1.0 / dt), 0.0, (xi,))
        corr = solve_mode(mode, BcSpec(0, 0), -what[0])
        samples = corr.velocity.evaluate(stepper.y)
        u_spec[0, ki] = vhat + samples[0]
        u_spec[1, ki] = what + samples[1]
        p_spec[ki] = rho * q + corr.pressure(stepper.y)

    u = np.fft.irfft(u_spec, n=stepper.nx, axis=1)
    p = np.fft.irfft(p_spec, n=stepper.nx, axis=0)
    return u, p, worst_trace


@pytest.mark.parametrize("nx", [16, 15])
def test_batched_resolvent_matches_mode_by_mode_reference(nx):
    for ny in (33, 65, 129):
        grid = cheb_grid(nx=nx, ny=ny)
        stepper = NsStepper(CONSTANTS, grid)
        f_datum = np.random.default_rng(2024).standard_normal((2, nx, ny))
        # the second dt must rebuild the diagonals and lifts
        for dt in (0.02, 0.01):
            sol = _samples(stepper.solve_stokes(_spectrum(f_datum), dt), nx)
            u, p = sol[:2], sol[2]
            u_ref, p_ref, worst_trace = reference_solve_stokes(stepper, f_datum, dt)
            # stage 3 carries a real correction, not a vanishing one
            assert worst_trace > 1e-6 * np.max(np.abs(f_datum))
            assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
            assert np.max(np.abs(p - p_ref)) <= 1e-12 * np.max(np.abs(p_ref))


def top_row_share(y_max):
    """max |u(Y)| / max |u| of one resolvent solve on a random datum, on a
    32 x 129 grid of depth y_max, dt = 0.05, rho = mu = 1."""
    stepper = NsStepper(CONSTANTS, cheb_grid(nx=32, ny=129, y_max=y_max))
    f_datum = np.random.default_rng(2024).standard_normal((2, 32, 129))
    u = _samples(stepper.solve_stokes(_spectrum(f_datum), 0.05), 32)[:2]
    return np.max(np.abs(u[:, :, -1])) / np.max(np.abs(u))


@pytest.mark.parametrize(
    "y_max",
    [
        # the depth ns-desk and the run-ns default use
        16.0,
        pytest.param(
            4.0,
            marks=pytest.mark.xfail(
                strict=True,
                reason="stage 3 adds the halfspace ansatz, which does not vanish at "
                "y = Y; meeting the top row at any depth is ROADMAP item 4",
            ),
        ),
    ],
)
def test_march_meets_its_top_row(y_max):
    assert top_row_share(y_max) < 1e-6


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_eigenbasis_built_once_per_grid_and_lifts_once_per_dt(monkeypatch):
    calls = Counter()
    sizes = []
    batched_solve = ns.solve_coefficients

    def solve_coefficients(modes, bc, h_w):
        sizes.append(modes.size)
        return batched_solve(modes, bc, h_w)

    monkeypatch.setattr(ns, "solve_coefficients", solve_coefficients)
    monkeypatch.setattr(np.linalg, "eig", _counted(calls, "eig", np.linalg.eig))
    grid = cheb_grid(nx=16, ny=49)
    stepper = NsStepper(CONSTANTS, grid)
    assert calls == {"eig": 1}
    assert sizes == []
    result = run_simulation(stepper, small_field(grid), dt=0.02, n_steps=3)
    assert result.status == "completed"
    assert result.picard_iterations > 3
    n_modes = 7  # stage 3 corrects modes 1..7; the mean mode needs none
    assert calls == {"eig": 1}
    assert sizes == [n_modes]
    # a new dt rebuilds the lifts, in one more batched solve, not the eigenbasis
    stepper.step(result.states[-1], 0.01)
    assert calls == {"eig": 1}
    assert sizes == [n_modes, n_modes]


@pytest.mark.parametrize("ny", [3, 4, 5, 9, 17, 33, 64, 65, 129, 257, 513])
def test_interior_second_derivative_has_a_well_conditioned_real_eigenbasis(ny):
    stepper = NsStepper(CONSTANTS, cheb_grid(nx=4, ny=ny))
    assert stepper.eigenvalues.dtype == np.float64
    assert np.all(stepper.eigenvalues < 0.0)
    assert np.linalg.cond(stepper.basis) < 10.0


def test_complex_interior_spectrum_is_refused(monkeypatch):
    # a complex pair, as a non-normal D^2 could give on some grid
    pair = np.linalg.eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.iscomplexobj(pair.eigenvalues)
    monkeypatch.setattr(ns.np.linalg, "eig", lambda mat: pair)
    with pytest.raises(InvalidModeError, match="y_count = 33"):
        NsStepper(CONSTANTS, cheb_grid(nx=8, ny=33))


@pytest.mark.parametrize("ny", [2, 3])
def test_smallest_wall_normal_grids_complete(ny):
    # y_count 2 leaves no interior node: every solve is its boundary rows
    grid = GridSpec(2.0 * np.pi, 8, 4.0, ny, y_kind="cheb")
    result = run_simulation(NsStepper(CONSTANTS, grid), small_field(grid), dt=0.02, n_steps=3)
    assert result.status == "completed"
    assert all(np.isfinite(r.max_divergence) for r in result.reports)


@pytest.mark.parametrize("ny, y_max", [(65, 12.0), (129, 16.0)])
def test_reported_divergence_is_the_returned_fields(ny, y_max):
    # step reports the divergence from the last Picard iterate's gradient;
    # it must be that of the field it returns.  The divergence is the
    # remainder of d_x u + d_y w, so rounding moves it by a few ulps of the
    # gradient scale: on 16 x 129 that is up to 6e-12 of the divergence.
    grid = cheb_grid(ny=ny, y_max=y_max)
    stepper = NsStepper(CONSTANTS, grid)
    state = NsState(0.0, small_field(grid, amplitude=0.25))
    for _ in range(3):
        new, report = stepper.step(state, 0.02)
        grad = _velocity_gradient(new.field)
        div = float(np.max(np.abs(grad[0, 0] + grad[1, 1])))
        tol = 1e-15 * float(np.max(np.abs(grad)))
        assert abs(report.max_divergence - div) <= tol
        # the iterate before the last reports a divergence the check tells apart
        _, early = stepper.step(state, 0.02, picard_max=report.n_iterations - 1)
        assert abs(early.max_divergence - div) > 10.0 * tol
        state = new


def test_march_converges_at_first_order_to_a_manufactured_solution():
    # u = e^{-t} grad^perp psi with psi = A sin x g(y), g = y^2 e^{-y}, and
    # p = 0, so that u = A e^{-t} (sin x g', -cos x g).  With rho = mu = 1
    # the forcing f = d_t u + (u . grad) u - Lap u is, in closed form,
    #   f_x = -s sin x g''' + s^2 sin x cos x (g'^2 - g g''),
    #   f_y =  s cos x g''  + s^2 g g',          s = A e^{-t}.
    # Backward Euler is first order: halving dt halves the error at T = 1
    amplitude = 0.25
    grid = GridSpec(2.0 * np.pi, 16, 16.0, 65, y_kind="cheb")
    x = grid.x_nodes()[:, None]
    y = grid.y_nodes()[None, :]
    # g and its first three derivatives
    g0, g1, g2, g3 = (
        c * np.exp(-y) for c in (y * y, 2 * y - y * y, 2 - 4 * y + y * y, -6 + 6 * y - y * y)
    )

    def exact(t):
        s = amplitude * np.exp(-t)
        return np.stack((s * np.sin(x) * g1, -s * np.cos(x) * g0))

    def forcing(t):
        s = amplitude * np.exp(-t)
        fx = -s * np.sin(x) * g3 + s * s * np.sin(x) * np.cos(x) * (g1 * g1 - g0 * g2)
        fy = s * np.cos(x) * g2 + s * s * g0 * g1
        return np.stack(np.broadcast_arrays(fx, fy))

    initial = stream_function_field(CONSTANTS, grid, amplitude, k=1, decay=1.0)
    assert np.allclose(initial.velocity, exact(0.0), rtol=0.0, atol=1e-15)
    errors = []
    for dt in (0.1, 0.05, 0.025):
        result = run_simulation(
            NsStepper(CONSTANTS, grid),
            initial,
            dt,
            round(1.0 / dt),
            forcing=forcing,
            picard_tol=1e-12,
            keep_states=False,
        )
        assert (result.status, result.rejected_steps, result.dt_halvings) == ("completed", 0, 0)
        final = result.states[-1]
        assert final.time == pytest.approx(1.0)
        u_exact = exact(final.time)
        errors.append(np.max(np.abs(final.field.velocity - u_exact)) / np.max(np.abs(u_exact)))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(np.abs(orders - 1.0) < 0.1), (errors, orders)
    assert errors[-1] < 1.2e-2, errors
