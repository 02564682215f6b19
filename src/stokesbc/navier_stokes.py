"""Desk-scale nonlinear solver on the periodic strip.

Time discretization is backward Euler with a Picard-frozen convective term:
each step solves the shifted resolvent problem

    (rho/dt) u - mu Lap u + grad p = rho (u_old/dt + f - (u*.grad) u*),
    div u = 0,   u no-slip at y = 0 (bc pair (0, 0)),

where u* is the previous Picard iterate (starting from u_old).  That is the
mode problem of the rest of this package with constants (rho, mu,
epsilon = 1/dt) and lambda = 0, so each step is a family of per-mode
boundary-value solves over the x harmonics.

The per-mode backend mirrors the continuous three-stage splitting on a
Chebyshev-Lobatto wall-normal grid:

    (1) a discrete Dirichlet solve (xi^2 - D^2) q = -div Fhat splits the
        forcing datum into rho W Fhat + rho grad q (reported pressure
        rho q);
    (2) two real collocation solves per mode, interior rows
        (omega^2 - mu D^2) = rho (W Fhat): a Dirichlet solve for vhat
        (vhat(0) = 0 tangential, vhat(Y) = 0 truncation) and a solve for
        what with (D what)(0) = 0 and what(Y) = 0.  The Neumann row is the
        divergence trace i xi vhat(0) + (D what)(0) = 0 once vhat(0) = 0,
        so the coupled complex block of the two components separates;
    (3) the exponential two-rate ansatz correction carrying the leftover
        normal trace -what(0), sampled on the nodes (its pressure joins the
        reported pressure).  Stage 3 is linear in that datum, so it is the
        correction for datum 1, computed once per (mode, dt), scaled by
        -what(0).

The mean mode xi = 0 reduces to what == 0, a one-dimensional Helmholtz
solve for vbar with vbar(0) = vbar(Y) = 0, and the hydrostatic integration
pbar' = rho Fbar_y with pbar(Y) = 0.

Every solve above is a fixed real linear map for a given (mode, dt).  The
stepper builds their explicit inverses once per dt: the three stages'
matrices of every mode are stacked and inverted by one np.linalg.inv call,
so a resolvent solve is one rfft, one stacked matmul per stage and one
irfft, with no Python work per mode (the usual practice for
Chebyshev-Fourier solvers, Haidvogel & Zang, J. Comput. Phys. 30, 1979).
Only the current dt's operators are kept.
The convective datum is built the same way: grad u is one rfft, the
x-part i xi and the y-part the Chebyshev matrix applied per mode, and one
irfft.  Both use energy._apply, real (n, n) operators on a complex (K, n)
stack as K small real products that BLAS keeps on the calling thread.

The driver halves dt when Picard stalls or the kinetic energy grows for
three consecutive accepted steps, and stops with status 'blowup_suspected'
at dt_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import _apply, _velocity_gradient, kinetic_energy
from .errors import InvalidModeError
from .grids import diff_matrix
from .halfspace import GridSpec, SampledField, solve_mode
from .symbols import BcSpec, FluidConstants, derive_mode

__all__ = [
    "NsState",
    "IterationReport",
    "SimulationResult",
    "NsStepper",
    "nonlinearity",
    "stream_function_field",
    "run_simulation",
]

_NS_BC = BcSpec(0, 0)  # no-slip


@dataclass(frozen=True)
class NsState:
    """A snapshot of the evolving field."""

    time: float
    field: SampledField


@dataclass(frozen=True)
class IterationReport:
    """Per-step Picard diagnostics."""

    time: float
    dt: float
    n_iterations: int
    gaps: tuple[float, ...]
    converged: bool
    max_divergence: float
    energy: float


@dataclass(frozen=True)
class SimulationResult:
    status: str  # 'completed' | 'blowup_suspected'
    states: tuple[NsState, ...]
    reports: tuple[IterationReport, ...]
    energies: tuple[float, ...]
    final_dt: float
    picard_iterations: int  # over every attempted step, rejected ones included
    rejected_steps: int  # steps whose Picard iteration did not converge
    dt_halvings: int


def _ddx_fd(arr: np.ndarray, x_length: float) -> np.ndarray:
    nx = arr.shape[0]
    h = x_length / nx
    return (np.roll(arr, -1, axis=0) - np.roll(arr, 1, axis=0)) / (2.0 * h)


def nonlinearity(field: SampledField, method: str = "spectral") -> np.ndarray:
    """-(u . grad) u on the grid, shape (2, nx, ny).

    method 'spectral' takes grad u per Fourier mode on the rfft spectrum: x
    by i xi, y by the grid's y_derivative (Chebyshev on a 'cheb' grid)
    applied to each mode's wall-normal row.  Method 'fd' uses second-order
    central differences in both directions, in physical space, as an
    independent cross-check.
    No density factor is applied: the result is the acceleration datum the
    stepper adds to f.
    """
    u = field.velocity
    if method == "spectral":
        g = _velocity_gradient(field)
    elif method == "fd":
        stencil = diff_matrix(field.y, 1, npts=min(3, len(field.y)))
        g = np.stack(([_ddx_fd(c, field.grid.x_length) for c in u], u @ stencil.T))
    else:
        raise ValueError(f"method must be 'spectral' or 'fd', got {method!r}")
    return -(u[0] * g[0] + u[1] * g[1])


def stream_function_field(
    constants: FluidConstants,
    grid: GridSpec,
    amplitude: float,
    k: int = 1,
    decay: float = 1.0,
) -> SampledField:
    """Divergence-free no-slip initial field from psi = A sin(xi x) y^2 e^{-c y}.

    u = (d_y psi, -d_x psi) vanishes with its tangential trace at the wall
    (double zero in y), so it is compatible with the no-slip pair (0, 0).
    The pressure starts at zero.
    """
    x = grid.x_nodes()
    y = grid.y_nodes()
    xi = grid.wavenumber(k)
    shape_y = y * y * np.exp(-decay * y)
    dshape_y = (2.0 * y - decay * y * y) * np.exp(-decay * y)
    sin_x = np.sin(xi * x)
    cos_x = np.cos(xi * x)
    u = np.empty((2, len(x), len(y)))
    u[0] = amplitude * sin_x[:, None] * dshape_y[None, :]
    u[1] = -amplitude * xi * cos_x[:, None] * shape_y[None, :]
    p = np.zeros((len(x), len(y)))
    return SampledField(grid, constants, u, p)


@dataclass(frozen=True)
class _Operators:
    """Explicit real solution operators of one dt, stacked over the modes
    1..last-1 (K of them) on n wall-normal nodes, plus the mean mode's."""

    dt: float
    pressure: np.ndarray  # (K, n, n) stage 1, Dirichlet xi^2 - D^2
    velocity_x: np.ndarray  # (K, n, n) stage 2, Dirichlet Helmholtz for vhat
    velocity_y: np.ndarray  # (K, n, n) stage 2, Neumann-at-0 Helmholtz for what
    unit: np.ndarray  # (3, K, n) complex stage-3 correction (vhat, what, phat) for datum 1
    mean_velocity: np.ndarray  # (n, n) Dirichlet Helmholtz for vbar
    mean_pressure: np.ndarray  # (n, n) hydrostatic integration with pbar(Y) = 0


def _dirichlet(mat: np.ndarray) -> np.ndarray:
    """mat with rows 0 and n-1 replaced by Dirichlet rows, in place."""
    n = len(mat)
    mat[[0, n - 1]] = 0.0
    mat[0, 0] = mat[n - 1, n - 1] = 1.0
    return mat


def _inverse(mats: np.ndarray, zero_datum_rows=(0, -1)) -> np.ndarray:
    """Explicit inverses of a (..., n, n) stack, in one np.linalg.inv call.

    The boundary rows in zero_datum_rows always carry a zero datum, so
    their columns are zeroed: each operator ignores those entries of the
    right-hand side.
    """
    inv = np.linalg.inv(mats)
    inv[..., list(zero_datum_rows)] = 0.0
    return inv


class NsStepper:
    """Backward-Euler/Picard stepper on a (uniform x) x (Chebyshev y) grid."""

    def __init__(self, constants: FluidConstants, grid: GridSpec):
        if grid.y_kind != "cheb":
            raise InvalidModeError(
                "NsStepper needs a GridSpec with y_kind='cheb' "
                f"(got {grid.y_kind!r})"
            )
        self.constants = constants
        self.grid = grid
        self.y = grid.y_nodes()
        self.nx = grid.x_count
        self.ny = grid.y_count
        self.dy = grid.y_derivative
        self.dy2 = self.dy @ self.dy
        self.n_modes = self.nx // 2 + 1
        self.xi = grid.wavenumbers()
        # rfft modes 1..last-1 carry the solve; an even nx's Nyquist mode is dropped
        self._last = self.n_modes - 1 if self.nx % 2 == 0 else self.n_modes
        self._ops: _Operators | None = None

    # -- cached solution operators -----------------------------------------------

    def _operators(self, dt: float) -> _Operators:
        """The solution operators for dt, rebuilt when dt changes."""
        if self._ops is None or self._ops.dt != dt:
            self._ops = None  # release the old dt's stacks before building
            self._ops = self._build_operators(dt)
        return self._ops

    def _build_operators(self, dt: float) -> _Operators:
        n = self.ny
        rho, mu = self.constants.rho, self.constants.mu
        eye = np.eye(n)
        wall_row = self.dy[0]
        xi = self.xi[1 : self._last]
        # stage 1 pressure, stage 2 vhat and what, for every mode
        stages = np.empty((3, len(xi), n, n))
        unit = np.empty((3, len(xi), n), dtype=complex)
        shifted = FluidConstants(rho, mu, 1.0 / dt)
        for k, x in enumerate(xi):
            stages[0, k] = _dirichlet(x**2 * eye - self.dy2)
            stages[1, k] = _dirichlet((rho / dt + mu * x**2) * eye - mu * self.dy2)
            # (D what)(0) = 0 is the divergence-trace row once vhat(0) = 0
            stages[2, k] = stages[1, k]
            stages[2, k, 0] = wall_row
            corr = solve_mode(derive_mode(shifted, 0.0, (x,)), _NS_BC, 1.0)
            unit[:2, k] = corr.velocity.evaluate(self.y)
            unit[2, k] = corr.pressure(self.y)
        pressure, velocity_x, velocity_y = _inverse(stages)

        mean_velocity = _inverse(_dirichlet((rho / dt) * eye - mu * self.dy2))
        hydrostatic = self.dy.copy()
        hydrostatic[n - 1] = 0.0
        hydrostatic[n - 1, n - 1] = 1.0
        mean_pressure = _inverse(hydrostatic, zero_datum_rows=(-1,))
        return _Operators(
            dt, pressure, velocity_x, velocity_y, unit, mean_velocity, mean_pressure
        )

    # -- the shifted-resolvent solve --------------------------------------------

    def solve_stokes(self, f_datum: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Solve the dt-shifted resolvent problem with datum f (2, nx, ny).

        Returns (velocity (2, nx, ny), pressure (nx, ny)), both real.
        """
        ops = self._operators(dt)
        rho = self.constants.rho
        last = self._last
        spec = np.fft.rfft(f_datum, axis=1)  # (2, n_modes, ny)
        out = np.zeros((3, self.n_modes, self.ny), dtype=complex)  # vhat, what, phat

        # mean mode: what = 0, 1-d Helmholtz for vbar, hydrostatic pbar
        out[0, 0] = _apply(ops.mean_velocity, rho * spec[0, 0])
        out[2, 0] = _apply(ops.mean_pressure, rho * spec[1, 0])

        fx = spec[0, 1:last]
        fy = spec[1, 1:last]
        ixi = 1j * self.xi[1:last, None]
        # stage 1: potential part of the datum
        q = _apply(ops.pressure, -(ixi * fx + _apply(self.dy, fy)))
        # stage 2: Dirichlet solve for vhat, Neumann-at-0 solve for what
        vhat = _apply(ops.velocity_x, rho * (fx - ixi * q))
        what = _apply(ops.velocity_y, rho * (fy - _apply(self.dy, q)))
        # stage 3: the unit trace correction scaled by the leftover -what(0)
        resid = -what[:, :1]
        out[0, 1:last] = vhat + resid * ops.unit[0]
        out[1, 1:last] = what + resid * ops.unit[1]
        out[2, 1:last] = rho * q + resid * ops.unit[2]

        field = np.fft.irfft(out, n=self.nx, axis=1)
        return field[:2], field[2]

    # -- time stepping -----------------------------------------------------------

    def step(
        self,
        state: NsState,
        dt: float,
        forcing=None,
        picard_tol: float = 1.0e-8,
        picard_max: int = 10,
    ) -> tuple[NsState, IterationReport]:
        """One backward-Euler step with Picard iteration on the convection.

        forcing, if given, is called as forcing(t_next) and must return an
        array (2, nx, ny).  The gap is the sup-norm distance between
        consecutive Picard velocity iterates.
        """
        if dt <= 0.0 or not math.isfinite(dt):
            raise ValueError(f"dt must be positive, got {dt}")
        u_old = state.field.velocity
        t_next = state.time + dt
        f_ext = forcing(t_next) if forcing is not None else 0.0

        guess = state.field
        gaps: list[float] = []
        converged = False
        u_new, p_new = u_old, state.field.pressure
        for _ in range(picard_max):
            f_datum = u_old / dt + f_ext + nonlinearity(guess)
            u_new, p_new = self.solve_stokes(f_datum, dt)
            gap = float(np.max(np.abs(u_new - guess.velocity)))
            gaps.append(gap)
            guess = SampledField(self.grid, self.constants, u_new, p_new)
            if gap < picard_tol:
                converged = True
                break

        g = _velocity_gradient(guess)
        div = g[0, 0] + g[1, 1]
        new_field = guess
        new_state = NsState(time=t_next, field=new_field)
        report = IterationReport(
            time=t_next,
            dt=dt,
            n_iterations=len(gaps),
            gaps=tuple(gaps),
            converged=converged,
            max_divergence=float(np.max(np.abs(div))),
            energy=kinetic_energy(new_field),
        )
        return new_state, report


def run_simulation(
    stepper: NsStepper,
    initial: SampledField,
    dt: float,
    n_steps: int,
    forcing=None,
    dt_min: float | None = None,
    picard_tol: float = 1.0e-8,
    picard_max: int = 10,
    keep_states: bool = True,
) -> SimulationResult:
    """March n_steps accepted steps, halving dt on trouble.

    A step is rejected (and dt halved) when Picard fails to converge; dt is
    also halved after three consecutive accepted steps with growing kinetic
    energy.  Once dt would fall below dt_min (default dt / 1024) the run
    stops with status 'blowup_suspected'.
    """
    if dt_min is None:
        dt_min = dt / 1024.0
    state = NsState(time=0.0, field=initial)
    states = [state]
    reports: list[IterationReport] = []
    energies = [kinetic_energy(initial)]
    growth_streak = 0
    accepted = 0
    picard_iterations = rejected = halvings = 0
    status = "completed"

    while accepted < n_steps:
        candidate, report = stepper.step(
            state, dt, forcing=forcing, picard_tol=picard_tol, picard_max=picard_max
        )
        picard_iterations += report.n_iterations
        if not report.converged:
            rejected += 1
            halvings += 1
            dt = dt / 2.0
            if dt < dt_min:
                status = "blowup_suspected"
                break
            continue
        state = candidate
        reports.append(report)
        energies.append(report.energy)
        if keep_states:
            states.append(state)
        accepted += 1
        if report.energy > energies[-2]:
            growth_streak += 1
        else:
            growth_streak = 0
        if growth_streak >= 3:
            growth_streak = 0
            halvings += 1
            dt = dt / 2.0
            if dt < dt_min:
                status = "blowup_suspected"
                break

    if not keep_states:
        states.append(state)
    return SimulationResult(
        status=status,
        states=tuple(states),
        reports=tuple(reports),
        energies=tuple(energies),
        final_dt=dt,
        picard_iterations=picard_iterations,
        rejected_steps=rejected,
        dt_halvings=halvings,
    )


def __getattr__(name: str):
    # only perfbench/spans.py asks for these; ROADMAP item 4's benchmark change deletes this
    if name in ("lu_factor", "lu_solve"):
        import scipy.linalg

        return getattr(scipy.linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
