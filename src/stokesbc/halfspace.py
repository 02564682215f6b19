"""Resolvent mode solves on the half-space and sampled-field assembly.

A mode problem, per tangential frequency xi, is

    omega^2 uhat - mu uhat'' + gradhat p = rho fhat      (momentum)
    i xi . vhat + what'                  = ghat          (divergence)

on y in (0, inf) with decay, omega^2 = rho lambda_eps + mu |xi|^2, plus the
two wall rows at y = 0 that (alpha, beta) selects, BcSpec.tangential_row
(datum 0 here) and BcSpec.normal_row (datum h_w, the e_y component of the
boundary datum), applied to the traces with d_x = i xi.

solve_mode handles the homogeneous interior (f = 0, g = 0) with boundary
datum h_w; its solutions are exactly in the span of the two-rate ansatz

    vhat = omega z_v e^{-m y} - i zeta z_w e^{-r y},
    what = i zeta . z_v e^{-m y} + |zeta| z_w e^{-r y},
    phat = kappa lambda_eps z_w e^{-r y},

with m = omega/sqrt(mu), r = |xi|, zeta = sqrt(mu) xi, kappa = rho sqrt(mu).
ansatz_amplitudes writes these amplitudes out, for a whole ModeBatch at
once; a ModeSolution reads them for its one mode, and the Navier-Stokes
stepper for all of its modes.

splitting_solve_mode handles full data (f, g, h_w) by the three-stage
scheme: (1) a pressure built from the divergence datum (plus, for the
pressure-type rows beta = +-1, the harmonic extension of h_w); (2) a
particular velocity from decaying Helmholtz solves of
-gradhat qbar + rho W fhat componentwise, corrected by fast-decay
exponentials so the tangential row vanishes and the divergence trace
matches g(0) (whence div u = g identically); (3) for beta in {0, +1}, a
solve_mode correction carrying the leftover normal datum.  The reported
pressure is qbar + rho q_f + (stage-3 mode pressure), q_f the Dirichlet
potential of the forcing split off by the zero-trace (Weyl-type)
projection.

The sampled-field layer turns dictionaries {k: mode solution} with
xi_k = 2 pi k / L into real fields on a periodic-strip grid, and reads and
writes them deterministically (CSV with columns x,y,u_x,u_y,p; canonical
JSON manifests).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .elliptic import (
    dirichlet_extend_mode,
    divergence_pressure_mode,
    solve_elliptic_mode,
)
from .errors import ProfileError, ZeroModeError, canonical_json
from .grids import (
    cheb_lobatto,
    clenshaw_curtis_weights,
    diff_matrix,
    graded_grid,
    trapezoid_weights,
)
from .profiles import (
    ScalarModeProfile,
    VectorModeProfile,
    gradient,
    helmholtz_solve_mode,
)
from .symbols import BcSpec, FluidConstants, ModeBatch, ModeParams, solve_coefficients

__all__ = [
    "ModeSolution",
    "SplittingSolution",
    "ansatz_amplitudes",
    "solve_mode",
    "splitting_solve_mode",
    "forward_data",
    "GridSpec",
    "SampledField",
    "synthesize_field",
    "write_field_csv",
    "read_field_csv",
    "field_manifest",
    "canonical_json",
    "write_manifest",
    "read_manifest",
]


@dataclass(frozen=True)
class ModeSolution:
    """A per-mode flow (velocity profile, pressure profile) tied to its mode
    parameters and boundary-condition pair."""

    mode: ModeParams
    bc: BcSpec
    velocity: VectorModeProfile
    pressure: ScalarModeProfile
    coefficients: tuple | None = None  # (z_v, z_w) when in ansatz form

    def __post_init__(self) -> None:
        if tuple(self.velocity.xi) != tuple(self.mode.xi):
            raise ProfileError("velocity xi does not match mode xi")
        if tuple(self.pressure.xi) != tuple(self.mode.xi):
            raise ProfileError("pressure xi does not match mode xi")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_coefficients(cls, mode: ModeParams, bc: BcSpec, z_v, z_w) -> "ModeSolution":
        """Assemble the two-rate ansatz profiles from (z_v, z_w)."""
        z_v = np.asarray(z_v, dtype=complex)
        z_w = complex(z_w)
        fast, slow = ansatz_amplitudes(mode.batch, z_v[None], np.array([z_w]))[..., 0]
        m, r = mode.rate_fast, mode.rate_slow
        rows = [ScalarModeProfile(mode.xi, ((a, m, 0), (b, r, 0))) for a, b in zip(fast, slow)]
        velocity = VectorModeProfile(mode.xi, rows[:-2], rows[-2])
        return cls(mode, bc, velocity, rows[-1], coefficients=(z_v, z_w))

    # -- residual calculus ------------------------------------------------------

    def momentum_residual(self) -> VectorModeProfile:
        """omega^2 u - mu u'' + gradhat p, componentwise, as profiles.

        Equals rho fhat for a solution of the forced problem; vanishes (to
        roundoff) for solve_mode output.
        """
        om2 = self.mode.omega**2
        mu = self.mode.constants.mu
        p = self.pressure
        tang = tuple(
            om2 * c - mu * c.derivative().derivative() + (1j * xij) * p
            for xij, c in zip(self.mode.xi, self.velocity.tangential)
        )
        w = self.velocity.normal
        norm = om2 * w - mu * w.derivative().derivative() + p.derivative()
        return VectorModeProfile(self.mode.xi, tang, norm)

    def divergence(self) -> ScalarModeProfile:
        return self.velocity.divergence()

    def tangential_row(self) -> np.ndarray:
        """Value of the tangential boundary row of bc (length n-1 vector)."""
        v = self.velocity.tangential
        return self.bc.tangential_row(
            self.mode.constants.mu,
            np.array([c(0.0) for c in v]),
            np.array([c.derivative()(0.0) for c in v]),
            1j * np.asarray(self.mode.xi) * self.velocity.normal(0.0),
        )

    def normal_row(self) -> complex:
        """Value of the normal boundary row of bc (scalar)."""
        w = self.velocity.normal
        return self.bc.normal_row(
            self.mode.constants.mu, w(0.0), w.derivative()(0.0), self.pressure(0.0)
        )

    def __add__(self, other: "ModeSolution") -> "ModeSolution":
        if not isinstance(other, ModeSolution):
            return NotImplemented
        return ModeSolution(
            self.mode,
            self.bc,
            self.velocity + other.velocity,
            self.pressure + other.pressure,
        )


def ansatz_amplitudes(modes: ModeBatch, z_v: np.ndarray, z_w: np.ndarray) -> np.ndarray:
    """The two-rate ansatz of the coefficients (z_v, z_w), as amplitudes.

    z_v is (N, n-1) and z_w (N,) over the modes of the batch.  Returns the
    (2, n+1, N) array whose [0] and [1] hold the amplitudes on e^{-m y} and
    on e^{-r y} of each component of (vhat, what, phat) and each mode.
    """
    nt = modes.n - 1
    amps = np.zeros((2, nt + 2, modes.size), dtype=complex)
    amps[0, :nt] = (modes.omega[:, None] * z_v).T
    amps[0, nt] = 1j * np.sum(modes.zeta * z_v, axis=1)
    amps[1, :nt] = (-1j * modes.zeta * z_w[:, None]).T
    amps[1, nt] = modes.abs_zeta * z_w
    amps[1, nt + 1] = modes.kappa * modes.lambda_eps * z_w
    return amps


def solve_mode(mode: ModeParams, bc: BcSpec, h_w) -> ModeSolution:
    """Solve the homogeneous-interior mode problem with normal datum h_w.

    h_w is the e_y component of the boundary datum (equivalently -h . nu for
    the outer normal nu = -e_y).  The tangential datum is zero.  Every such
    decaying solution lies in the two-rate ansatz span, so the result is in
    coefficient form, with the coefficients of solve_coefficients: a batch
    of one mode.
    """
    return ModeSolution.from_coefficients(mode, bc, *solve_coefficients(mode, bc, h_w))


@dataclass(frozen=True)
class SplittingSolution:
    """Outcome of the three-stage solve, with the stage pieces kept for
    inspection."""

    mode: ModeParams
    bc: BcSpec
    velocity: VectorModeProfile
    pressure: ScalarModeProfile
    pressure_divergence: ScalarModeProfile  # stage-1 pressure (incl. h extension)
    pressure_forcing: ScalarModeProfile  # rho * Dirichlet potential of f
    trace_correction: ModeSolution | None  # stage-3 mode (beta in {0, +1})
    residual_datum: complex  # normal datum carried by stage 3


def splitting_solve_mode(
    mode: ModeParams,
    bc: BcSpec,
    f: VectorModeProfile,
    g: ScalarModeProfile,
    h_w,
) -> SplittingSolution:
    """Solve the full mode problem (forcing f, divergence g, normal datum h_w)
    by the pressure / velocity / trace-correction splitting.

    Stage 1 builds qbar: the divergence pressure of g (zero Dirichlet trace)
    plus, for beta = +-1, the decaying harmonic extension of h_w.  Stage 2
    solves omega^2 u - mu u'' = -gradhat qbar + rho W fhat componentwise
    (W the zero-trace potential projection, whose potential q_f joins the
    pressure as rho q_f) and adds fast exponentials A e^{-m y}, B e^{-m y}
    fixing the tangential row to zero and the divergence trace to g(0) --
    which forces div u = g identically, since the defect solves the
    homogeneous decaying Helmholtz problem with zero trace.  Stage 3 (only
    beta in {0, +1}) adds solve_mode on the leftover normal datum.
    """
    h_w = complex(h_w)
    if mode.abs_xi == 0.0:
        raise ZeroModeError(
            "splitting_solve_mode needs |xi| > 0; the mean mode has its own "
            "one-dimensional solver"
        )
    if tuple(f.xi) != tuple(mode.xi) or tuple(g.xi) != tuple(mode.xi):
        raise ProfileError("f/g xi does not match mode xi")

    mu = mode.constants.mu
    rho = mode.constants.rho
    m = mode.rate_fast
    xi = np.asarray(mode.xi, dtype=float)
    n1 = len(mode.xi)

    # stage 1: pressure from the divergence datum (+ boundary extension)
    q_bar = divergence_pressure_mode(mode, g)
    if bc.beta != 0:
        q_bar = q_bar + dirichlet_extend_mode(mode.xi, h_w)

    # zero-trace potential part of the forcing
    q_f = solve_elliptic_mode(mode.xi, -1.0 * f.divergence(), "dirichlet_zero")
    f_proj = f - gradient(q_f)

    # stage 2: particular velocity + fast-exponential correction
    rhs = (-1.0) * gradient(q_bar) + rho * f_proj
    om2 = mode.omega**2
    v_p = [
        helmholtz_solve_mode(om2, mu, comp, "dirichlet", 0.0)
        for comp in rhs.tangential
    ]
    w_p = helmholtz_solve_mode(om2, mu, rhs.normal, "dirichlet", 0.0)

    v_p0 = np.array([c(0.0) for c in v_p])
    dv_p0 = np.array([c.derivative()(0.0) for c in v_p])
    w_p0 = w_p(0.0)
    dw_p0 = w_p.derivative()(0.0)
    g0 = complex(g(0.0))

    # the fast exponentials A e^{-m y}, B e^{-m y} have wall traces v = A,
    # d_y v = -m A, w = B and d_x w = i xi B, so the block's columns are the
    # wall rows of unit amplitudes; its last row is the divergence trace
    unit_v = np.eye(n1, n1 + 1)
    unit_dxw = np.zeros((n1, n1 + 1), dtype=complex)
    unit_dxw[:, n1] = 1j * xi
    block = np.empty((n1 + 1, n1 + 1), dtype=complex)
    block[:n1] = bc.tangential_row(mu, unit_v, -m * unit_v, unit_dxw)
    block[n1] = np.append(1j * xi, -m)
    rhs_vec = np.append(
        -bc.tangential_row(mu, v_p0, dv_p0, 1j * xi * w_p0),
        g0 - 1j * xi @ v_p0 - dw_p0,
    )
    sol = np.linalg.solve(block, rhs_vec)
    amp_v = sol[:n1]
    amp_w = sol[n1]

    tangential = tuple(
        v_p[j] + ScalarModeProfile.single(mode.xi, amp_v[j], m) for j in range(n1)
    )
    normal = w_p + ScalarModeProfile.single(mode.xi, amp_w, m)
    velocity = VectorModeProfile(mode.xi, tangential, normal)
    pressure = q_bar + rho * q_f

    partial = ModeSolution(mode, bc, velocity, pressure)
    if bc.beta == -1:
        return SplittingSolution(
            mode, bc, velocity, pressure, q_bar, rho * q_f, None, 0.0
        )

    resid = h_w - partial.normal_row()
    correction = solve_mode(mode, bc, resid)
    return SplittingSolution(
        mode,
        bc,
        velocity + correction.velocity,
        pressure + correction.pressure,
        q_bar,
        rho * q_f,
        correction,
        resid,
    )


def forward_data(solution: ModeSolution, tol: float = 1.0e-9):
    """Recover (f, g, h_w) that the given flow solves, for round-trip tests.

    f = (omega^2 u - mu u'' + gradhat p)/rho, g = div u, h_w = the normal
    boundary row of solution.bc.  The splitting solver takes a zero
    tangential datum, so the tangential row must vanish to within tol
    (add interior bumps with double zeros at the wall to keep it so).
    """
    f = (1.0 / solution.mode.constants.rho) * solution.momentum_residual()
    g = solution.divergence()
    h_w = solution.normal_row()
    row = solution.tangential_row()
    if np.max(np.abs(row)) > tol * max(1.0, abs(h_w)):
        raise ProfileError(
            f"tangential boundary row is not homogeneous: |row| = "
            f"{np.max(np.abs(row)):.3e}"
        )
    return f, g, h_w


# ---------------------------------------------------------------------------
# sampled fields on a periodic strip (n = 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid on the periodic strip [0, x_length) x [0, y_max].

    x nodes are uniform without the right endpoint (periodic).  y nodes are
    selected by y_kind: 'uniform', 'graded' (exponential map of strength
    y_grading > 0), or 'cheb' (Chebyshev-Lobatto points mapped to [0, y_max],
    wall first).  y_grading is 0 for the other kinds.

    The grid kind also fixes the calculus every sampled field on the grid
    uses.  y_derivative is the Chebyshev collocation matrix for 'cheb' and
    the 5-point diff_matrix stencils otherwise; y_weights are Clenshaw-Curtis
    weights for 'cheb' and trapezoid weights otherwise; x_weight is the
    periodic rectangle rule's x_length / x_count.  The two arrays are built
    on first use and are read-only.
    """

    x_length: float
    x_count: int
    y_max: float
    y_count: int
    y_grading: float = 0.0
    y_kind: str = "uniform"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_length) and self.x_length > 0.0):
            raise ValueError(f"x_length must be positive, got {self.x_length}")
        if not (math.isfinite(self.y_max) and self.y_max > 0.0):
            raise ValueError(f"y_max must be positive, got {self.y_max}")
        if self.x_count < 1:
            raise ValueError(f"x_count must be >= 1, got {self.x_count}")
        if self.y_count < 2:
            raise ValueError(f"y_count must be >= 2, got {self.y_count}")
        if self.y_kind not in ("uniform", "graded", "cheb"):
            raise ValueError(
                f"y_kind must be 'uniform', 'graded', or 'cheb', got {self.y_kind!r}"
            )
        if self.y_kind == "graded":
            if not (math.isfinite(self.y_grading) and self.y_grading > 0.0):
                raise ValueError(
                    f"y_kind 'graded' needs y_grading > 0, got {self.y_grading}"
                )
        elif self.y_grading != 0.0:
            raise ValueError(
                f"y_grading applies only to y_kind 'graded', got {self.y_grading} "
                f"with y_kind {self.y_kind!r}"
            )

    def x_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.x_length, self.x_count, endpoint=False)

    def y_nodes(self) -> np.ndarray:
        if self.y_kind == "cheb":
            j = np.arange(self.y_count)
            return 0.5 * self.y_max * (1.0 - np.cos(np.pi * j / (self.y_count - 1)))
        if self.y_kind == "graded":
            return graded_grid(self.y_max, self.y_count, self.y_grading)
        return np.linspace(0.0, self.y_max, self.y_count)

    @cached_property
    def y_derivative(self) -> np.ndarray:
        if self.y_kind == "cheb":
            # y = y_max (1 - x) / 2 on the descending Lobatto nodes x
            d = (-2.0 / self.y_max) * cheb_lobatto(self.y_count - 1)[1]
        else:
            d = diff_matrix(self.y_nodes(), 1, npts=5)
        d.flags.writeable = False
        return d

    @cached_property
    def y_weights(self) -> np.ndarray:
        if self.y_kind == "cheb":
            w = 0.5 * self.y_max * clenshaw_curtis_weights(self.y_count - 1)
        else:
            w = trapezoid_weights(self.y_nodes())
        w.flags.writeable = False
        return w

    @property
    def x_weight(self) -> float:
        return self.x_length / self.x_count

    def wavenumber(self, k: int) -> float:
        return 2.0 * math.pi * k / self.x_length

    def wavenumbers(self) -> np.ndarray:
        """xi of the rfft modes 0..x_count//2 of the x nodes."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.x_count, d=1.0 / self.x_count) / self.x_length


@dataclass
class SampledField:
    """A real velocity/pressure field sampled on a GridSpec grid.

    The node arrays x and y are the grid's x_nodes() and y_nodes(), computed
    on first use.
    """

    grid: GridSpec
    constants: FluidConstants
    velocity: np.ndarray  # (2, nx, ny), components (u_x, u_y)
    pressure: np.ndarray  # (nx, ny)

    def __post_init__(self) -> None:
        nx, ny = self.grid.x_count, self.grid.y_count
        if self.velocity.shape != (2, nx, ny):
            raise ValueError(
                f"velocity must have shape (2, {nx}, {ny}), got {self.velocity.shape}"
            )
        if self.pressure.shape != (nx, ny):
            raise ValueError(
                f"pressure must have shape ({nx}, {ny}), got {self.pressure.shape}"
            )

    @cached_property
    def x(self) -> np.ndarray:
        return self.grid.x_nodes()

    @cached_property
    def y(self) -> np.ndarray:
        return self.grid.y_nodes()


def synthesize_field(
    constants: FluidConstants,
    contributions: dict,
    grid: GridSpec,
) -> SampledField:
    """Assemble the real field sum_k e^{i xi_k x} uhat_k(y) on the grid.

    contributions maps harmonics k >= 1 to ModeSolution objects whose
    tangential frequency must equal 2 pi k / x_length.  The conjugate
    partner -k is implied: each entry contributes 2 Re(e^{i xi_k x} uhat_k).

    The sum is one unscaled inverse real FFT over x of the profiles
    (u_x, u_y, p)hat_k(y), each placed in the rfft bin of its harmonic.  On
    the nx x nodes harmonic k is harmonic b = k mod nx; a bin b > nx/2 is
    read as bin nx - b with the conjugate profile, and bin 0 (and bin nx/2
    for even nx) takes twice the profile, since the inverse transform reads
    only the real part there.  So harmonics the grid cannot resolve give on
    the nodes exactly what the direct sum gives.
    """
    nx, ny = grid.x_count, grid.y_count
    y = grid.y_nodes()
    spectrum = np.zeros((3, nx // 2 + 1, ny), dtype=complex)
    for k in sorted(contributions):
        if k < 1:
            raise ValueError(f"harmonic k must be >= 1, got {k}")
        sol = contributions[k]
        if not isinstance(sol, ModeSolution):
            raise TypeError(f"contribution {k} is not a ModeSolution")
        if sol.mode.constants != constants:
            raise ValueError(f"contribution {k} has mismatched fluid constants")
        expected = grid.wavenumber(k)
        got = sol.mode.xi
        if len(got) != 1 or abs(got[0] - expected) > 1.0e-12 * max(1.0, abs(expected)):
            raise ValueError(
                f"contribution {k} has xi = {got}, expected ({expected},)"
            )

        uhat = np.vstack((sol.velocity.evaluate(y), sol.pressure(y)))  # (3, ny)
        b = k % nx
        if 2 * b > nx:
            spectrum[:, nx - b] += np.conj(uhat)
        elif b == 0 or 2 * b == nx:
            spectrum[:, b] += 2.0 * uhat
        else:
            spectrum[:, b] += uhat

    samples = np.fft.irfft(spectrum, n=nx, axis=1, norm="forward")  # (3, nx, ny)
    return SampledField(grid, constants, samples[:2], samples[2])


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("x", "y", "u_x", "u_y", "p")


def write_field_csv(path, field: SampledField) -> None:
    """Write the field as CSV with fixed columns x,y,u_x,u_y,p.

    Rows run over x (outer) then y (inner); floats are printed with repr,
    which round-trips exactly, so re-reading and re-writing is
    byte-identical.

    The file is streamed one x-row at a time: each x and y node is
    formatted once, a row's values are read as plain floats through
    tolist(), and only that row's text is held in memory.
    """
    u_x, u_y, p = (
        np.asarray(a, dtype=np.float64) for a in (*field.velocity, field.pressure)
    )
    y_text = [repr(v) for v in field.y.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for i, x in enumerate(field.x.tolist()):
            x_text = repr(x)
            fh.write(
                "".join(
                    f"{x_text},{y},{a!r},{b!r},{c!r}\n"
                    for y, a, b, c in zip(
                        y_text, u_x[i].tolist(), u_y[i].tolist(), p[i].tolist()
                    )
                )
            )


def read_field_csv(path) -> dict:
    """Read a field CSV back into arrays (inverse of write_field_csv).

    Returns a dict with 1-d node arrays 'x', 'y' and full arrays 'u_x',
    'u_y', 'p' of shape (nx, ny).
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    header = tuple(lines[0].split(","))
    if header != _CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    x_nodes = rows[:, 0]
    nx = len(np.unique(x_nodes))
    ny = len(rows) // nx
    if nx * ny != len(rows):
        raise ValueError("CSV rows do not form a full tensor grid")
    shaped = rows.reshape(nx, ny, 5)
    return {
        "x": shaped[:, 0, 0].copy(),
        "y": shaped[0, :, 1].copy(),
        "u_x": shaped[:, :, 2].copy(),
        "u_y": shaped[:, :, 3].copy(),
        "p": shaped[:, :, 4].copy(),
    }


def field_manifest(field: SampledField, data_file: str, config: dict | None = None) -> dict:
    """Pure-data description of a written field (grid, constants, file)."""
    manifest = {
        "format": "stokesbc-field",
        "version": 1,
        "columns": list(_CSV_COLUMNS),
        "data_file": data_file,
        "grid": {
            "x_length": field.grid.x_length,
            "x_count": field.grid.x_count,
            "y_max": field.grid.y_max,
            "y_count": field.grid.y_count,
            "y_grading": field.grid.y_grading,
            "y_kind": field.grid.y_kind,
        },
        "constants": {
            "rho": field.constants.rho,
            "mu": field.constants.mu,
            "epsilon": field.constants.epsilon,
        },
    }
    if config is not None:
        manifest["config"] = config
    return manifest


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(canonical_json(manifest), encoding="utf-8")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
