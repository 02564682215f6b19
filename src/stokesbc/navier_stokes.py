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
        correction for datum 1, computed once per dt for every mode at once
        (solve_coefficients, ansatz_amplitudes and halfspace.sample_ansatz
        on one ModeBatch), scaled by -what(0).

Only the stage-2 solves vanish at the top row y = Y.  Stage 3 is the
halfspace ansatz, e^{-m y} and e^{-|xi| y} sampled on [0, Y], and it does
not vanish there: the velocity at Y falls off like e^{-|xi| Y} of the
lowest harmonic, so the strip meets its truncation row only as far as Y is
deep.  On one random datum (32 x 129 grid, dt = 0.05, rho = mu = 1)
max|u(Y)| / max|u| reads 1.3e-3 at Y = 4, 2.3e-5 at Y = 8 and 1.1e-8 at
Y = 16, the depth of the run-ns default.

The mean mode xi = 0 reduces to what == 0, a one-dimensional Helmholtz
solve for vbar with vbar(0) = vbar(Y) = 0, and the hydrostatic integration
pbar' = rho Fbar_y with pbar(Y) = 0.

Every Dirichlet solve above is (a_k - b D^2) x = r on the interior nodes
with x = 0 at both ends, and the interior block of D^2 is diagonalized
once per grid, D^2[1:-1, 1:-1] = Q diag(lam) Q^-1 with a real spectrum
(the fast-diagonalization method, Haidvogel & Zang, J. Comput. Phys. 30,
1979).  On the eigenbasis coefficients each solve is a division by
a_k - b lam, for every mode at once; the datum enters through Q^-1 and
Q^-1 D, stage 2 reads D q as Q^-1 D Q on stage 1's coefficients, and Q
returns the three solutions to the nodes.  Each of these is one real
(n, n) x (n, 2K) product over the K modes.  The Neumann row of what is met
by a lift: h_k solves (a_k - mu D^2) h = 0 inside with h(0) = 1,
h(Y) = 0, and what = w + c h with c = -(D w)(0) / (D h)(0) for the
Dirichlet solution w.  Then what(0) = c, so the lift and the stage-3
correction are one profile per (mode, dt) scaled by c.  A new dt builds
only the diagonals, the h_k and the batched stage-3 corrections.

The march keeps each Picard iterate on the velocity spectrum, laid out
(component, y, mode) by energy._spectrum.  A step transforms u_old once,
for u_old/dt and the first iterate's gradient; an iteration is then one
rfft of the convective datum, the resolvent solve, and one irfft of the
velocity, its pressure and its gradient.  The gradient feeds the next
iterate's convective term, and the last iterate's gives the step's
divergence report.

run_simulation halves dt when Picard stalls or, in an unforced march, the
kinetic energy grows for three consecutive accepted steps, and stops with
status 'blowup_suspected' at dt_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import _apply, _gradient_spectrum, _samples, _spectrum
from .energy import _velocity_gradient, kinetic_energy
from .errors import InvalidModeError
from .grids import diff_matrix
from .halfspace import GridSpec, SampledField, ansatz_amplitudes, sample_ansatz
from .symbols import BcSpec, FluidConstants, ModeBatch, solve_coefficients

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


def nonlinearity(
    field: SampledField, method: str = "spectral", grad: np.ndarray | None = None
) -> np.ndarray:
    """-(u . grad) u on the grid, shape (2, nx, ny).

    method 'spectral' takes grad u per Fourier mode on the rfft spectrum: x
    by i xi, y by the grid's y_derivative (Chebyshev on a 'cheb' grid)
    applied to each mode's wall-normal row; grad reuses the field's
    _velocity_gradient.  Method 'fd' uses second-order central differences
    in both directions, in physical space, as an independent cross-check.
    No density factor is applied: the result is the acceleration datum the
    stepper adds to f.
    """
    u = field.velocity
    if method == "spectral":
        g = grad if grad is not None else _velocity_gradient(field)
    elif method == "fd":
        stencil = diff_matrix(field.y, npts=min(3, len(field.y)))
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
        self._ixi = 1j * self.xi
        # an even nx's unpaired Nyquist mode is dropped: its factors are 0
        self._kept = np.arange(self.n_modes) < (self.nx + 1) // 2
        eigenvalues, self.basis = np.linalg.eig(self.dy2[1:-1, 1:-1])
        if np.iscomplexobj(eigenvalues):
            raise InvalidModeError(
                "the interior Chebyshev D^2 has complex eigenvalues at "
                f"y_count = {self.ny}; its eigenbasis solves need a real spectrum"
            )
        self.eigenvalues = eigenvalues
        # Q^-1 on the interior rows; Q^-1 D for the datum's D fy, and for the
        # D q of a q that vanishes at both ends; (D Q c)(0) for what's trace
        self._to_basis = np.linalg.inv(self.basis)
        self._to_basis_dy = self._to_basis @ self.dy[1:-1]
        self._to_basis_dy_basis = self._to_basis_dy[:, 1:-1] @ self.basis
        self._wall_slope = self.dy[:1, 1:-1] @ self.basis
        # stage 1: -1 / (xi_k^2 - lam_j), dt-free
        self._poisson = self._kept / (eigenvalues[:, None] - self.xi**2)
        # the mean pressure: pbar' = rho Fbar_y on rows 0..n-2, pbar(Y) = 0
        hydrostatic = self.dy.copy()
        hydrostatic[-1] = 0.0
        hydrostatic[-1, -1] = 1.0
        self._integrate = np.linalg.inv(hydrostatic)[:, :-1]
        self._dt: float | None = None

    # -- the dt-dependent diagonals and lifts -----------------------------------

    def _set_dt(self, dt: float) -> None:
        """Build the Helmholtz diagonals and the lift profiles of dt, once."""
        if dt == self._dt:
            return
        rho, mu = self.constants.rho, self.constants.mu
        xi = self.xi
        # rho / (a_k - mu lam_j) with a_k = rho/dt + mu xi_k^2
        a = rho / dt + mu * xi**2
        self._helmholtz = rho * self._kept / (a - mu * self.eigenvalues[:, None])
        # h_k: (a_k - mu D^2) h = 0 inside, h(0) = 1, h(Y) = 0, so its
        # interior solves (a_k - mu D^2) h = mu D^2[:, 0] there
        h = np.zeros((self.ny, self.n_modes))
        h[0] = 1.0
        wall_column = self._to_basis @ ((mu / rho) * self.dy2[1:-1, 0])
        h[1:-1] = self.basis @ (self._helmholtz * wall_column[:, None])
        self._trace = -1.0 / (self.dy[0] @ h)
        # per unit c: the lift c h and the stage-3 correction for the datum -c,
        # as (vhat, what, phat); the mean mode keeps what = 0 and gets neither
        corrected = np.flatnonzero(self._kept)[1:]
        modes = ModeBatch.of_fluid(FluidConstants(rho, mu, 1.0 / dt), 0j, xi[corrected, None])
        modes.check_admissible()
        amps = ansatz_amplitudes(modes, *solve_coefficients(modes, _NS_BC, 1.0))
        lift = np.zeros((3, self.ny, self.n_modes), dtype=complex)
        lift[:, :, corrected] = -sample_ansatz(modes, amps, self.y).transpose(0, 2, 1)
        lift[1][:, corrected] += h[:, corrected]
        self._lift = lift
        self._dt = dt

    # -- the shifted-resolvent solve --------------------------------------------

    def solve_stokes(self, f_hat: np.ndarray, dt: float) -> np.ndarray:
        """Solve the dt-shifted resolvent problem for the datum spectrum f_hat.

        f_hat is (2, ny, n_modes), laid out as energy._spectrum makes it.
        Returns the spectrum (3, ny, n_modes) of (u_x, u_y, p); an even nx's
        Nyquist mode is zero.  The Dirichlet solves run on the coefficients
        in the interior eigenbasis, where each is a division.
        """
        self._set_dt(dt)
        rho, ixi = self.constants.rho, self._ixi
        fx, fy = f_hat
        ax = _apply(self._to_basis, fx[1:-1])
        ay = _apply(self._to_basis, fy[1:-1])
        # stage 1: (xi^2 - D^2) q = -(i xi fx + D fy), q = 0 at both ends
        cq = self._poisson * (ixi * ax + _apply(self._to_basis_dy, fy))
        # stage 2: Dirichlet solves for vhat and what; the mean mode's what is 0
        cv = self._helmholtz * (ax - ixi * cq)
        cw = self._helmholtz * (ay - _apply(self._to_basis_dy_basis, cq))
        cw[:, 0] = 0.0
        out = np.zeros((3, self.ny, self.n_modes), dtype=complex)
        for row, coef in zip(out, (cv, cw, rho * cq)):
            _apply(self.basis, coef, out=row[1:-1])
        # the lift to (D what)(0) = 0 and stage 3, both scaled by c = what(0)
        out += (self._trace * _apply(self._wall_slope, cw)[0]) * self._lift
        # mean mode: hydrostatic pbar
        out[2, :, :1] = rho * _apply(self._integrate, fy[:-1, :1])
        return out

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
        t_next = state.time + dt
        field = state.field
        u_hat = _spectrum(field.velocity)
        grad = _samples(_gradient_spectrum(self.grid, u_hat), self.nx)
        base = u_hat / dt
        if forcing is not None:
            base = base + _spectrum(forcing(t_next))

        # spectra of (u_x, u_y, p) and of grad u, for one irfft per iterate
        planes = np.empty((7, self.ny, self.n_modes), dtype=complex)
        gaps: list[float] = []
        converged = False
        for _ in range(picard_max):
            f_hat = base + _spectrum(nonlinearity(field, grad=grad))
            planes[:3] = self.solve_stokes(f_hat, dt)
            _gradient_spectrum(self.grid, planes[:2], out=planes[3:].reshape(2, 2, self.ny, -1))
            values = _samples(planes, self.nx)
            gap = float(np.max(np.abs(values[:2] - field.velocity)))
            gaps.append(gap)
            field = SampledField(self.grid, self.constants, values[:2], values[2])
            grad = values[3:].reshape(2, 2, self.nx, self.ny)
            if gap < picard_tol:
                converged = True
                break

        div = grad[0, 0] + grad[1, 1]
        report = IterationReport(
            time=t_next,
            dt=dt,
            n_iterations=len(gaps),
            gaps=tuple(gaps),
            converged=converged,
            max_divergence=float(np.max(np.abs(div))),
            energy=kinetic_energy(field),
        )
        # the state keeps copies, not views that hold the gradient planes too
        u, p = field.velocity.copy(), field.pressure.copy()
        return NsState(t_next, SampledField(self.grid, self.constants, u, p)), report


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

    A step is rejected (and dt halved) when Picard fails to converge.  An
    unforced march (forcing None) also halves dt after three consecutive
    accepted steps with growing kinetic energy: under the no-slip rows of
    the march the energy of an unforced flow cannot grow, so growth is
    numerical trouble.  A forcing may feed energy in, so a forced march
    keeps no growth streak.  Once dt would fall below dt_min (default
    dt / 1024) the run stops with status 'blowup_suspected'.
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
        if forcing is None and report.energy > energies[-2]:
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
    # only perfbench/spans.py asks for these; ROADMAP item 1's benchmark change deletes this
    if name in ("lu_factor", "lu_solve"):
        import scipy.linalg

        return getattr(scipy.linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
