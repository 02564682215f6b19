"""Kinetic-energy functionals, boundary-power audits, and the empirical
boundary-condition classification.

Conventions (2-d strip, wall at y = 0, outer normal nu = -e_y there):

    (grad u)_{ij} = d_i u_j,
    D = (grad u + grad u^T)/2,     R = (grad u - grad u^T)/2,
    S = 2 mu D - p I,              T = 2 mu R - p I.

Multiplying the momentum equation by u and integrating by parts gives two
equivalent balances for divergence-free fields (E = int rho |u|^2 / 2):

    dE/dt + int_G rho/2 |u|^2 (u.nu) + 2 mu int |D|^2 - int_G u.(nu^T S) = 0,
    dE/dt + int_G rho/2 |u|^2 (u.nu) + 2 mu int |R|^2 - int_G u.(nu^T T) = 0,

where the boundary contraction is on the left index, (nu^T X)_j = nu_i X_ij
(the order matters for the antisymmetric T).  The convective cubic term is
present for the nonlinear equations and absent for the linear ones.

At the wall the traces reduce to

    u.nu = -w,
    (nu^T S)_x = -mu (d_y v + d_x w),   (nu^T S)_y = p - 2 mu d_y w,
    (nu^T T)_x = -mu (d_y v - d_x w),   (nu^T T)_y = p,

and each boundary-condition pair (alpha, beta) with homogeneous data zeroes
its two wall rows (BcSpec.tangential_row and BcSpec.normal_row: a velocity
trace or the matching component of nu^T S or nu^T T), which pins part of
the integrand.

Classes (see BcSpec): B1 (all beta = 0 pairs) kills the full convective
boundary power, B2 kills the linear one, B3 ((+1,-1) and (-1,+1)) kills
neither.  The vanishing happens pointwise in the adapted stress form: T
when alpha = -1 or beta = -1, else S.  classify_bc measures these powers on
random fields drawn from the constraint surface and compares with the
prediction.  It and the audits share one face density of each boundary term
(_stress_power, _kinetic_flux: contracted with e_y, times the face's nu_y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AuditError
from .halfspace import SampledField
from .symbols import BcSpec

__all__ = [
    "kinetic_energy",
    "dissipation",
    "boundary_power",
    "convective_flux",
    "EnergyReport",
    "energy_balance_residual",
    "ClassificationReport",
    "classify_bc",
    "CompatibilityEntry",
    "check_compatibility",
]


# ---------------------------------------------------------------------------
# discrete differential calculus on sampled fields
# ---------------------------------------------------------------------------


def _spectrum(a: np.ndarray) -> np.ndarray:
    """rfft along x of real samples (..., nx, ny), laid out (..., ny, n_modes).

    Each y node's modes are one row, so a real wall-normal operator acts on
    every mode at once as one product (_apply).
    """
    return np.fft.rfft(a.swapaxes(-1, -2), axis=-1)


def _samples(spec: np.ndarray, nx: int) -> np.ndarray:
    """The real samples (..., nx, ny) of a _spectrum layout spectrum."""
    return np.fft.irfft(spec, n=nx, axis=-1).swapaxes(-1, -2)


def _apply(op: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real (r, n) op applied to each column of complex z (n, K).

    z's real and imaginary parts are the 2K columns of one real (n, 2K)
    right-hand side, so all K columns take a single (r, n) x (n, 2K) product.
    The result is written to out (r, K), whose rows must be contiguous, when
    it is given.
    """
    real = np.ascontiguousarray(z).view(np.float64)
    if out is None:
        return (op @ real).view(np.complex128)
    np.matmul(op, real, out=out.view(np.float64))
    return out


def _gradient_spectrum(grid, spec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Spectrum of grad[i, j] = d_i u_j from the velocity spectrum (2, ny, n_modes).

    x by i xi (the unpaired Nyquist mode of an even nx has no x-derivative
    and is dropped), y by the grid's y_derivative, one product per component.
    The (2, 2, ny, n_modes) result is written to out when it is given.
    """
    grad = np.empty((2, *spec.shape), dtype=complex) if out is None else out
    np.multiply(spec, 1j * grid.wavenumbers(), out=grad[0])
    if grid.x_count % 2 == 0:
        grad[0, ..., -1] = 0.0
    for ddy, comp in zip(grad[1], spec):
        _apply(grid.y_derivative, comp, out=ddy)
    return grad


def _velocity_gradient(field: SampledField) -> np.ndarray:
    """grad[i, j] = d_i u_j of the sampled velocity, shape (2, 2, nx, ny).

    Both parts are taken on the rfft spectrum of the two components, per
    Fourier mode (_gradient_spectrum); one irfft returns them to the grid.
    """
    grid = field.grid
    return _samples(_gradient_spectrum(grid, _spectrum(field.velocity)), grid.x_count)


def kinetic_energy(field: SampledField) -> float:
    """E = int rho |u|^2 / 2 over the strip, with the grid's quadrature."""
    grid = field.grid
    dens = 0.5 * field.constants.rho * np.sum(field.velocity**2, axis=0)
    return float(grid.x_weight * np.sum(dens @ grid.y_weights))


def dissipation(field: SampledField, form: str = "S", grad: np.ndarray | None = None) -> float:
    """2 mu int |D|^2 (form 'S') or 2 mu int |R|^2 (form 'T'); grad reuses
    the field's _velocity_gradient."""
    g = grad if grad is not None else _velocity_gradient(field)
    sign = 1.0 if _check_form(form) == "S" else -1.0
    rate = 0.5 * (g + sign * g.transpose(1, 0, 2, 3))
    grid = field.grid
    dens = np.sum(rate**2, axis=(0, 1))
    return float(2.0 * field.constants.mu * grid.x_weight * np.sum(dens @ grid.y_weights))


def _check_form(form: str) -> str:
    if form not in ("S", "T"):
        raise ValueError(f"form must be 'S' or 'T', got {form!r}")
    return form


def _stress_power(form: str, mu, v, w, dv, dxw, dw, p):
    """u . (e_y^T X), X = S or T, from the face traces of v, w, d_y v, d_x w,
    d_y w and p; the outward power is nu_y times this."""
    if form == "S":
        return mu * v * (dv + dxw) + w * (2.0 * mu * dw - p)
    return mu * v * (dv - dxw) - w * p


def _kinetic_flux(rho, v, w):
    """rho/2 |u|^2 (u . e_y); the outward flux is nu_y times this."""
    return 0.5 * rho * (v**2 + w**2) * w


def _face(field: SampledField, face: str) -> tuple[int, float]:
    """(y index, outward normal-y component) for 'wall' or 'top'."""
    if face == "wall":
        return 0, -1.0
    if face == "top":
        return len(field.y) - 1, 1.0
    raise ValueError(f"face must be 'wall' or 'top', got {face!r}")


def boundary_power(
    field: SampledField,
    form: str = "S",
    face: str = "wall",
    grad: np.ndarray | None = None,
) -> float:
    """int u . (nu^T X) dx over the chosen horizontal face, X = S or T; grad
    reuses the field's _velocity_gradient."""
    g = grad if grad is not None else _velocity_gradient(field)
    j, nu_y = _face(field, face)
    v, w = field.velocity[:, :, j]
    dv, dxw, dw = g[1, 0, :, j], g[0, 1, :, j], g[1, 1, :, j]
    density = _stress_power(
        _check_form(form), field.constants.mu, v, w, dv, dxw, dw, field.pressure[:, j]
    )
    return float(field.grid.x_weight * np.sum(nu_y * density))


def convective_flux(field: SampledField, face: str = "wall") -> float:
    """int rho/2 |u|^2 (u . nu) dx over the chosen horizontal face."""
    j, nu_y = _face(field, face)
    v, w = field.velocity[:, :, j]
    density = _kinetic_flux(field.constants.rho, v, w)
    return float(field.grid.x_weight * np.sum(nu_y * density))


# ---------------------------------------------------------------------------
# discrete energy balance
# ---------------------------------------------------------------------------

_TOP_FACE_REL_TOL = 1.0e-8


@dataclass(frozen=True)
class EnergyReport:
    """Residuals of the discrete kinetic-energy balance along a time series.

    residuals[i] corresponds to series index i+1 (centered time derivative):

        (E[i+2] - E[i]) / (2 dt) + conv[i+1] + diss[i+1] - power[i+1].
    """

    dt: float
    form: str
    convective: bool
    energies: tuple[float, ...]
    dissipations: tuple[float, ...]
    boundary_powers: tuple[float, ...]
    convective_fluxes: tuple[float, ...]
    residuals: tuple[float, ...]


def energy_balance_residual(
    series,
    dt: float,
    form: str = "S",
    convective: bool = True,
) -> EnergyReport:
    """Audit the kinetic-energy balance on a uniformly sampled time series.

    series is a sequence of at least three SampledField snapshots spaced dt
    apart on a common grid.  The time derivative is the centered difference,
    and space uses the grid's own calculus (GridSpec.y_derivative and
    y_weights).  On 'uniform' and 'graded' grids the trapezoid rule makes
    the space error second order, so the residual of an exact solution is
    O(dt^2 + h^2); on 'cheb' grids the space error is spectrally small and
    the residual is O(dt^2).  Raises AuditError when the truncation face
    y = y_max carries boundary power above 1e-8 of the audit scale (the
    balance then has no business being checked on this window).
    """
    series = list(series)
    if len(series) < 3:
        raise AuditError("energy audit needs at least 3 snapshots")
    if dt <= 0.0 or not math.isfinite(dt):
        raise AuditError(f"dt must be positive, got {dt}")
    _check_form(form)
    g0 = series[0].grid
    for f in series[1:]:
        if f.grid != g0 or f.constants != series[0].constants:
            raise AuditError("energy audit needs a common grid and constants")

    energies, diss, bpow, conv, top = [], [], [], [], []
    for f in series:
        g = _velocity_gradient(f)
        energies.append(kinetic_energy(f))
        diss.append(dissipation(f, form, g))
        bpow.append(boundary_power(f, form, "wall", g))
        c = convective_flux(f, "wall") if convective else 0.0
        top_power = boundary_power(f, form, "top", g)
        if convective:
            top_power -= convective_flux(f, "top")
        conv.append(c)
        top.append(abs(top_power))

    scale = max(max(energies) / dt, max(diss), 1.0e-300)
    if max(top) > _TOP_FACE_REL_TOL * scale:
        raise AuditError(
            f"truncation face carries boundary power {max(top):.3e} "
            f"(> {_TOP_FACE_REL_TOL:.0e} of the audit scale {scale:.3e}); "
            "enlarge y_max"
        )

    residuals = tuple(
        (energies[i + 1] - energies[i - 1]) / (2.0 * dt)
        + conv[i]
        + diss[i]
        - bpow[i]
        for i in range(1, len(series) - 1)
    )
    return EnergyReport(
        dt=dt,
        form=form,
        convective=convective,
        energies=tuple(energies),
        dissipations=tuple(diss),
        boundary_powers=tuple(bpow),
        convective_fluxes=tuple(conv),
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# empirical classification of the boundary-condition pairs
# ---------------------------------------------------------------------------


# trials evaluated per array pass: about 25 kB of temporaries per trial
_TRIAL_BLOCK = 1024


@dataclass(frozen=True)
class ClassificationReport:
    bc: BcSpec
    predicted_class: str
    empirical_class: str
    adapted_form: str
    n_trials: int
    max_abs_linear_power: float  # adapted-form linear boundary power
    max_abs_full_power: float  # linear minus convective cubic flux
    zero_tol: float
    witness_floor: float

    @property
    def passed(self) -> bool:
        return self.empirical_class == self.predicted_class


def _project_onto_bc(amps: np.ndarray, bc: BcSpec, mu: float, xi: np.ndarray) -> None:
    """Project wall amplitudes (..., harmonic, (v, w, d_y v, d_y w, p)) in
    place onto the homogeneous constraint surface of bc (d_x w = i xi w):
    beta's row first, then alpha's, which reads w after beta's row."""
    if bc.beta == 0:
        amps[..., 1] = 0.0
    elif bc.beta == 1:
        amps[..., 4] = 2.0 * mu * amps[..., 3]
    else:
        amps[..., 4] = 0.0
    if bc.alpha == 0:
        amps[..., 0] = 0.0
    else:
        amps[..., 2] = -bc.alpha * 1j * xi * amps[..., 1]


def classify_bc(
    bc: BcSpec,
    rho: float = 1.0,
    mu: float = 1.0,
    n_trials: int = 100,
    seed: int = 0,
    x_length: float = 2.0 * math.pi,
) -> ClassificationReport:
    """Measure the wall boundary powers on random constraint-surface fields.

    Each trial draws wall traces (v, w, d_y v, d_y w, p) for the harmonics
    k = 1, 2 of the periodic strip, projects them onto the homogeneous
    constraint surface of bc, normalizes to unit trace magnitude, and
    evaluates the adapted-form linear power and the full (convective)
    power exactly (the integrands are trigonometric polynomials, integrated
    on a grid beyond their Nyquist limit).  Two harmonics are essential:
    the cubic flux of a single harmonic integrates to zero regardless of bc,
    which would make B2 indistinguishable from B1.  The powers are the face
    densities of boundary_power and convective_flux times the wall's nu_y =
    -1, evaluated on all trials as one array (in blocks of _TRIAL_BLOCK).

    The empirical class is B1 if both powers stay below zero_tol over all
    trials, B2 if only the linear power does, and B3 if the linear power
    exceeds the witness floor on some trial.
    """
    rng = np.random.default_rng(seed)
    form = bc.adapted_form
    nx = 64
    x = np.linspace(0.0, x_length, nx, endpoint=False)
    wx = x_length / nx
    xi = 2.0 * math.pi * np.arange(1, 3) / x_length

    scale = x_length * max(1.0, rho, mu)
    zero_tol = 1.0e-10 * scale
    witness_floor = 1.0e-3

    # amps[trial, harmonic] = (v, w, d_y v, d_y w, p), each from two normals
    raw = rng.standard_normal((n_trials, 2, 10))
    amps = raw[..., 0::2] + 1j * raw[..., 1::2]
    _project_onto_bc(amps, bc, mu, xi)
    # |d_y w| > 0 keeps every magnitude positive; hypot and complex division
    # by the real magnitude round as the scalar abs() and amp / mag do
    mag = np.max(np.hypot(amps.real, amps.imag), axis=-1)
    amps = amps / mag[..., None]
    amps = np.concatenate((amps, 1j * xi[:, None] * amps[..., 1:2]), axis=-1)  # d_x w
    phase = np.exp(1j * xi[:, None] * x)

    lin, conv = np.empty((2, n_trials))
    for lo in range(0, n_trials, _TRIAL_BLOCK):
        block = slice(lo, lo + _TRIAL_BLOCK)
        # harmonic k contributes 2 Re(amp_k e^{i xi_k x}); k = 1 first, then 2
        wall = np.sum(2.0 * np.real(amps[block, :, :, None] * phase[:, None, :]), axis=1)
        v, w, dv, dw, p, dxw = wall.transpose(1, 0, 2)
        lin[block] = wx * np.sum(-_stress_power(form, mu, v, w, dv, dxw, dw, p), axis=-1)
        conv[block] = wx * np.sum(-_kinetic_flux(rho, v, w), axis=-1)
    max_lin = float(np.max(np.abs(lin), initial=0.0))
    max_full = float(np.max(np.abs(lin - conv), initial=0.0))

    if max_lin <= zero_tol and max_full <= zero_tol:
        empirical = "B1"
    elif max_lin <= zero_tol:
        empirical = "B2"
    elif max_lin >= witness_floor:
        empirical = "B3"
    else:
        empirical = "indeterminate"

    return ClassificationReport(
        bc=bc,
        predicted_class=bc.preservation_class,
        empirical_class=empirical,
        adapted_form=form,
        n_trials=n_trials,
        max_abs_linear_power=max_lin,
        max_abs_full_power=max_full,
        zero_tol=zero_tol,
        witness_floor=witness_floor,
    )


# ---------------------------------------------------------------------------
# initial-data compatibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompatibilityEntry:
    condition: str
    checked: bool
    reason: str
    residual: float
    passed: bool


#: the C3 entry of a pressure-type normal row (beta = +-1)
_PRESSURE_ROW_ENTRY = CompatibilityEntry(
    "C3",
    False,
    "pressure-type normal row is met by the initial pressure, not a constraint on the velocity",
    0.0,
    True,
)


def check_compatibility(
    field: SampledField,
    bc: BcSpec,
    p_exponent: float,
    h_tangential=0.0,
    h_normal=0.0,
    tol: float = 1.0e-6,
) -> tuple[CompatibilityEntry, ...]:
    """Check the initial-data compatibility conditions that the integrability
    exponent makes meaningful; one entry per condition, in order.

    C1 (always): the initial field is divergence free.
    C2 (the tangential row BcSpec.tangential_row = h): requires p > 3/2
       for the velocity trace (alpha = 0) and p > 3 for the stress trace
       (alpha = +-1).
    C3 (the normal row BcSpec.normal_row = h): only the velocity-type row
       beta = 0 constrains the initial velocity (for p > 3/2); the
       pressure-type rows are met by the initial pressure and impose
       nothing on u0.
    """
    mu = field.constants.mu
    u, w_comp = field.velocity[0], field.velocity[1]
    grad = _velocity_gradient(field)
    entries = []

    div = grad[0, 0] + grad[1, 1]
    grad_scale = max(1.0, float(np.max(np.abs(grad))))
    res = float(np.max(np.abs(div))) / grad_scale
    entries.append(
        CompatibilityEntry("C1", True, "divergence-free initial field", res, res <= tol)
    )

    h_t = np.broadcast_to(np.asarray(h_tangential, dtype=float), field.x.shape)
    h_n = np.broadcast_to(np.asarray(h_normal, dtype=float), field.x.shape)
    vel_scale = max(1.0, float(np.max(np.abs(field.velocity))))
    tangential = bc.tangential_row(mu, u[:, 0], grad[1, 0, :, 0], grad[0, 1, :, 0])
    normal = bc.normal_row(mu, w_comp[:, 0], grad[1, 1, :, 0], field.pressure[:, 0])

    # (condition, defect against the datum, trace, residual scale, the
    # exponent above which the trace exists and its label)
    if bc.alpha == 0:
        c2 = ("tangential velocity trace", vel_scale, 1.5, "3/2")
    else:
        c2 = ("tangential stress trace", max(1.0, mu * vel_scale), 3.0, "3")
    rows = [("C2", tangential - h_t, *c2)]
    if bc.beta == 0:
        rows.append(("C3", normal - h_n, "normal velocity trace", vel_scale, 1.5, "3/2"))
    for condition, defect, trace, scale, p_min, p_label in rows:
        checked = p_exponent > p_min
        res = float(np.max(np.abs(defect))) / scale if checked else 0.0
        reason = f"{trace} (p > {p_label})" if checked else f"{trace} undefined for p <= {p_label}"
        entries.append(CompatibilityEntry(condition, checked, reason, res, res <= tol))
    if bc.beta != 0:
        entries.append(_PRESSURE_ROW_ENTRY)

    return tuple(entries)
