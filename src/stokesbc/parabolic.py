"""Reflection kernels for the divergence-form parabolic problem and the
kernel-route mode solver, with a finite-difference oracle and the trace
verification sweep.

The special velocity solutions driven by a decaying harmonic pressure
p(y) = P e^{-|xi| y} solve, per mode,

    omega^2 vhat - mu vhat'' = -i xi phat,
    omega^2 what - mu what'' = -phat',

subject to the homogeneous tangential wall row of alpha (BcSpec.tangential_row:
the velocity trace for alpha = 0, a stress trace for alpha = +-1) and the
divergence trace i xi.[vhat] + [d_y what] = 0.

They are represented by reflected heat kernels.  With the free-space kernel

    G(y, eta) = (1 / (2 sqrt(mu) omega)) e^{-m |y - eta|},  m = omega/sqrt(mu),

and its image Gr(y, eta) := G(y, -eta), set G± = G ± Gr and

    vhat = - int K_v(y, eta) (i xi phat)(eta) d eta,
    what = - int K_w(y, eta) phat'(eta) d eta,

where for alpha = 0:  K_v = G_-,  K_w = G_+,  and for alpha = +-1:

    K_v^± = (1 - c_v^±) G_+ + c_v^± G_-,    c_v^± = ± |z|(omega+|z|) / (omega^2 ± |z|^2),
    K_w^± = (1 - c_w^±) G_+ + c_w^± G_-,    c_w^± = - |z|(omega-+|z|) / (omega^2 ± |z|^2),

with |z| = |zeta| = sqrt(mu)|xi|.  (Equivalently K = G + R Gr with image
coefficient R = 1 - 2c.)  The coefficients follow from imposing the two
boundary rows on the half-line traces of G/Gr; the denominators are
omega^2 + |zeta|^2 = rho lambda_eps + 2 mu |xi|^2 and
omega^2 - |zeta|^2 = rho lambda_eps, both with positive real part for
admissible modes.  The minus denominator is evaluated as rho lambda_eps:
the difference omega^2 - |zeta|^2 cancels when rho lambda_eps << mu |xi|^2.
The resulting wall traces reproduce the closed trace relations

    (T00)  omega(omega + |zeta|) [what](0)        = h   (alpha = 0)
    (T10)  (omega^2 ± |zeta|^2)  [what](0)        = h   (alpha = +-1)
    (T11)  S^alpha (-2 mu [d_y what](0) + [p](0)) = [p](0)

for Neumann-driven (-d_y p(0) = h) resp. Dirichlet-driven pressures, with
S^alpha the beta = +1 trace multiplier.  verify_trace_relations sweeps these
identities with adaptive quadrature on the kernel side.

Three tables hold these concepts: KERNEL_WEIGHTS maps each kernel kind to
its weight c (K_v^- and K_w^- share one formula), ALPHA_KERNELS maps alpha
to its (K_v, K_w) kinds, and TRACE_RELATIONS maps each relation to the beta
of the pair whose trace multiplier it checks and the alphas it applies to.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ProfileError, ZeroModeError
from .profiles import (
    ScalarModeProfile,
    VectorModeProfile,
    apply_reflected_exp,
    convolve_abs_exp,
)
from .quadrature import QuadratureCfg, adaptive_integrate, adaptive_integrate_stack
from .symbols import BcSpec, ModeBatch, ModeParams, trace_multiplier

__all__ = [
    "KERNEL_WEIGHTS",
    "ALPHA_KERNELS",
    "TRACE_RELATIONS",
    "REPORT_COLUMNS",
    "KernelSpec",
    "KernelApplication",
    "VerificationReport",
    "kernel_weight",
    "eval_kernel",
    "eval_kernel_dy",
    "apply_kernel",
    "parabolic_solve_mode",
    "oracle_fd_solve",
    "FdOracleSolution",
    "verify_trace_relations",
]


def _minus_weight(omega, az, rho_lam):
    return -az * (omega + az) / rho_lam


#: kernel kind -> its weight c on G_- in K = (1-c) G_+ + c G_-, as a function
#: of (omega, |zeta|, rho lambda_eps)
KERNEL_WEIGHTS = {
    "G": lambda *_: 0.5,
    "G_plus": lambda *_: 0.0,
    "G_minus": lambda *_: 1.0,
    "Kv_plus": lambda omega, az, _: az * (omega + az) / (omega**2 + az**2),
    "Kv_minus": _minus_weight,
    "Kw_plus": lambda omega, az, _: -az * (omega - az) / (omega**2 + az**2),
    "Kw_minus": _minus_weight,
}

#: alpha -> the kinds of its velocity kernels (K_v, K_w)
ALPHA_KERNELS = {
    0: ("G_minus", "G_plus"),
    1: ("Kv_plus", "Kw_plus"),
    -1: ("Kv_minus", "Kw_minus"),
}


@dataclass(frozen=True)
class KernelSpec:
    """A kernel kind bound to a mode-parameter point."""

    kind: str
    mode: ModeParams

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_WEIGHTS:
            raise ValueError(f"kind must be one of {tuple(KERNEL_WEIGHTS)}, got {self.kind!r}")


def kernel_weight(kind: str, mode: ModeParams | ModeBatch):
    """Weight c on G_- in K = (1-c) G_+ + c G_- for the given kernel kind
    (per mode, for a ModeBatch)."""
    if kind not in KERNEL_WEIGHTS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return KERNEL_WEIGHTS[kind](mode.omega, mode.abs_zeta, mode.rho_lam)


def _image_coefficient(kind: str, mode: ModeParams | ModeBatch):
    """R in K = G + R Gr (Gr the image kernel); R = 1 - 2c."""
    return 1.0 - 2.0 * kernel_weight(kind, mode)


def _prefactor(mode: ModeParams | ModeBatch):
    return 1.0 / (2.0 * mode.sqmu * mode.omega)


def _kernel_values(m, r, pref, y, eta, dy: bool):
    """pref (e^{-m|y-eta|} + r e^{-m(y+eta)}), or its d/dy (the |y - eta|
    kink contributes sign(y - eta)), for eta >= 0.  The shape is that of y
    and eta broadcast together; m, r and pref broadcast to it.

    On the wall row, y the scalar 0, |y - eta| and y + eta are both eta, so
    one exponential serves both terms.  The result is built in place in the
    array of the image term, each step rounded as the plain expression
    rounds it.  A real factor is cast to complex before it meets m: numpy
    multiplies a broadcast (P, 1) complex column into a (P, 15) real array
    row by row through its casting buffer, about ten times slower.
    """
    if np.ndim(y) == 0 and y == 0.0:
        refl = np.array(eta, dtype=complex)
        np.multiply(-m, refl, out=refl)
        np.exp(refl, out=refl)
        base = refl if dy else refl.copy()
    else:
        base = np.exp(-m * np.abs(y - eta))
        refl = np.asarray(-m * (y + eta))
        np.exp(refl, out=refl)
    if dy:
        slope = np.array(np.sign(y - eta), dtype=complex)
        np.multiply(-m, slope, out=slope)
        slope *= base
        base = slope
        np.multiply(-m, refl, out=refl)
    np.multiply(r, refl, out=refl)
    refl += base
    return np.multiply(pref, refl, out=refl)


def _eval(spec: KernelSpec, y, eta, dy: bool):
    mode = spec.mode
    out = _kernel_values(
        mode.rate_fast,
        _image_coefficient(spec.kind, mode),
        _prefactor(mode),
        np.asarray(y, dtype=float),
        np.asarray(eta, dtype=float),
        dy,
    )
    return out if out.shape else complex(out)


def eval_kernel(spec: KernelSpec, y, eta):
    """Evaluate the kernel pointwise (vectorized over y/eta broadcasts)."""
    return _eval(spec, y, eta, dy=False)


def eval_kernel_dy(spec: KernelSpec, y, eta):
    """d/dy of the kernel (the |y - eta| kink contributes sign(y - eta))."""
    return _eval(spec, y, eta, dy=True)


def _kernel_closed_form(
    spec: KernelSpec, rhs: ScalarModeProfile, y_max: float | None = None
) -> ScalarModeProfile:
    """int_0^inf K(y, eta) rhs(eta) d eta as an exponential-sum profile."""
    mode = spec.mode
    m = mode.rate_fast
    r = _image_coefficient(spec.kind, mode)
    out = convolve_abs_exp(m, rhs, y_max=y_max)
    if r != 0.0:
        out = out + r * apply_reflected_exp(m, rhs)
    return _prefactor(mode) * out


@dataclass(frozen=True)
class KernelApplication:
    """apply_kernel result: tabulated values, the closed form, and their
    observed disagreement."""

    y: np.ndarray
    values: np.ndarray
    closed_form: ScalarModeProfile
    max_mismatch: float


def _decay_sum(m: complex, rhs: ScalarModeProfile) -> float:
    """Decay rate of e^{-m eta} rhs(eta): Re m plus the slowest decaying
    rate of rhs.  Past eta = y the kernel factor is e^{-m (eta -+ y)}, so the
    integrand falls off at the sum of the two rates, not at the smaller one."""
    rates = [t.rate.real for t in rhs.terms if t.rate.real > 0.0]
    return m.real + min(rates, default=0.0)


def _truncation_bound(
    mode: ModeParams, rhs: ScalarModeProfile, y_grid: np.ndarray, cfg: QuadratureCfg
) -> float:
    tail = cfg.truncation_multiplier / _decay_sum(mode.rate_fast, rhs)
    return float(np.max(y_grid)) + tail


def apply_kernel(
    spec: KernelSpec,
    rhs: ScalarModeProfile,
    y_grid,
    cfg: QuadratureCfg | None = None,
) -> KernelApplication:
    """Tabulate int_0^inf K(y, eta) rhs(eta) d eta on y_grid.

    Each point is integrated adaptively with a breakpoint at eta = y (the
    kernel kink); the domain is truncated past max(y_grid) where the integrand
    has decayed by e^{-truncation_multiplier} (see _decay_sum).  The
    closed-form exponential-sum result is computed alongside and the maximal
    relative disagreement reported.
    """
    if cfg is None:
        cfg = QuadratureCfg()
    y_grid = np.atleast_1d(np.asarray(y_grid, dtype=float))
    upper = _truncation_bound(spec.mode, rhs, y_grid, cfg)
    closed = _kernel_closed_form(spec, rhs, y_max=float(np.max(y_grid)) or None)

    values = np.empty(y_grid.shape, dtype=complex)
    for i, y in enumerate(y_grid):
        f = lambda eta, y=y: eval_kernel(spec, y, eta) * rhs(eta)
        brk = (float(y),) if 0.0 < y < upper else ()
        values[i], _, _ = adaptive_integrate(
            f,
            0.0,
            upper,
            rel_tol=cfg.rel_tol,
            max_subdivisions=cfg.max_subdivisions,
            breakpoints=brk,
        )

    ref = closed(y_grid)
    scale = float(np.max(np.abs(ref))) or 1.0
    mismatch = float(np.max(np.abs(values - ref))) / scale
    return KernelApplication(
        y=y_grid,
        values=values,
        closed_form=closed,
        max_mismatch=mismatch,
    )


# ---------------------------------------------------------------------------
# kernel-route mode solve
# ---------------------------------------------------------------------------

def _check_harmonic(pressure: ScalarModeProfile) -> None:
    r = pressure.abs_xi
    if r == 0.0:
        raise ZeroModeError("kernel solve needs |xi| > 0")
    for t in pressure.terms:
        if t.power != 0 or abs(t.rate - r) > 1e-12 * max(1.0, r):
            raise ProfileError(
                "parabolic_solve_mode needs a decaying harmonic pressure "
                f"(pure e^(-|xi| y) shape); got rate {t.rate}, power {t.power} "
                f"at |xi| = {r}"
            )


def parabolic_solve_mode(
    mode: ModeParams,
    alpha: int,
    pressure: ScalarModeProfile,
) -> VectorModeProfile:
    """Velocity profile of the kernel-route special solution.

    pressure must be the decaying harmonic extension of its wall datum
    (shape P e^{-|xi| y}).  The profile fixes the solution whether that
    datum was a Dirichlet trace (beta = +1 route) or an outward normal
    derivative (beta = 0 route), so the route is not an argument.  The
    returned velocity solves the interior equations with the alpha
    tangential row and the divergence row, and i xi.vhat + d_y what = 0
    holds identically.
    """
    if alpha not in ALPHA_KERNELS:
        raise ValueError(f"alpha must be in {{-1,0,+1}}, got {alpha}")
    if tuple(pressure.xi) != tuple(mode.xi):
        raise ValueError(f"mode/pressure xi mismatch: {mode.xi} vs {pressure.xi}")
    _check_harmonic(pressure)

    kv, kw = (KernelSpec(kind, mode) for kind in ALPHA_KERNELS[alpha])
    v_base = _kernel_closed_form(kv, pressure)
    tangential = tuple((-1j * xij) * v_base for xij in mode.xi)
    w = -1.0 * _kernel_closed_form(kw, pressure.derivative())
    return VectorModeProfile(mode.xi, tangential, w)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FdOracleSolution:
    """Second-order FD solution of the reduced two-field boundary-value
    problem, tabulated on its graded grid."""

    y: np.ndarray
    v_tangential: np.ndarray  # shape (n-1, len(y)); equals i xi V
    w: np.ndarray


def oracle_fd_solve(
    mode: ModeParams,
    alpha: int,
    pressure: ScalarModeProfile,
    n_points: int,
) -> FdOracleSolution:
    """Independent second-order finite-difference solve of the kernel problem.

    The tangential field is proportional to i xi (vhat = i xi V), so the
    unknowns are the scalars (V, w) solving

        omega^2 V - mu V'' = -phat,      omega^2 w - mu w'' = -phat',

    with the alpha rows at y = 0 (V(0) = 0 for alpha = 0;
    -+ V'(0) - w(0) = 0 for alpha = +-1), the divergence row
    -|xi|^2 V(0) + w'(0) = 0, and homogeneous Dirichlet rows at the
    truncation boundary y_max = 25 / min(|xi|, Re m).  Discretized by
    central differences in the mapped coordinate of the exponential grid
    of strength 4 (uniform second order); boundary derivatives use
    one-sided second-order stencils.
    """
    if alpha not in (-1, 0, 1):
        raise ValueError(f"alpha must be in {{-1,0,+1}}, got {alpha}")
    _check_harmonic(pressure)
    r = mode.abs_xi
    mu = mode.constants.mu
    omega_sq = mode.omega**2
    y_max = 25.0 / min(r, mode.rate_fast.real)
    stretch = 4.0

    n = int(n_points)
    ds = 1.0 / (n - 1)
    s = np.linspace(0.0, 1.0, n)
    ea = math.expm1(stretch)
    y = y_max * np.expm1(stretch * s) / ea
    ys = y_max * stretch * np.exp(stretch * s) / ea  # dy/ds; y_ss = a * y_s

    # second derivative in y at interior nodes: (u_ss - a u_s)/y_s^2
    ny = 2 * n
    A = np.zeros((ny, ny), dtype=complex)
    b = np.zeros(ny, dtype=complex)

    def fill_interior(block: int, rhs_vals: np.ndarray) -> None:
        base = block * n
        for i in range(1, n - 1):
            row = base + i
            inv = 1.0 / (ys[i] ** 2)
            c_m = inv * (1.0 / ds**2 + stretch / (2.0 * ds))
            c_0 = inv * (-2.0 / ds**2)
            c_p = inv * (1.0 / ds**2 - stretch / (2.0 * ds))
            A[row, base + i - 1] = -mu * c_m
            A[row, base + i] = omega_sq - mu * c_0
            A[row, base + i + 1] = -mu * c_p
            b[row] = rhs_vals[i]

    fill_interior(0, -pressure(y))
    fill_interior(1, -pressure.derivative()(y))

    # one-sided d/dy at y = 0 in mapped coordinate: u_y(0) = u_s(0)/y_s(0)
    d0 = np.array([-1.5, 2.0, -0.5]) / (ds * ys[0])

    row_v0 = 0
    if alpha == 0:
        A[row_v0, 0] = 1.0  # V(0) = 0
    else:
        # -+ V'(0) - w(0) = 0
        A[row_v0, 0:3] = -float(alpha) * d0
        A[row_v0, n] = -1.0
    # divergence row: -|xi|^2 V(0) + w'(0) = 0
    row_w0 = n
    A[row_w0, 0] = -(r**2)
    A[row_w0, n : n + 3] += d0

    # truncation rows
    A[n - 1, n - 1] = 1.0
    A[ny - 1, ny - 1] = 1.0

    sol = np.linalg.solve(A, b)
    v_scalar = sol[:n]  # V with vhat = i xi V
    w = sol[n:]
    xi = np.asarray(mode.xi, dtype=float)
    v_tan = (1j * xi)[:, None] * v_scalar[None, :]
    return FdOracleSolution(y=y, v_tangential=v_tan, w=w)


# ---------------------------------------------------------------------------
# trace-relation verification sweep
# ---------------------------------------------------------------------------

#: relation -> (beta of the pair whose trace multiplier it checks, the
#: alphas it applies to); beta = 0 drives the kernels by the Neumann
#: extension of the datum, beta = +1 by its Dirichlet extension
TRACE_RELATIONS = {"T00": (0, (0,)), "T10": (0, (1, -1)), "T11": (1, (0, 1, -1))}

#: the per-mode columns of a VerificationReport beside intervals, and the
#: keys of its worst mode
REPORT_COLUMNS = ("abs_xi", "lambda_re", "lambda_im", "rho", "mu", "epsilon", "rel_error")

_NO_MODES = ModeBatch(*(np.zeros(0) for _ in range(3)), np.zeros(0, complex), np.zeros((0, 1)))


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of a trace-relation sweep, as one array entry per mode.

    The REPORT_COLUMNS arrays and intervals (each mode's final quadrature
    partition size) are parallel; panel_evals, rounds and zero_values count
    the GK15 panels evaluated, the refinement rounds of the stacked
    quadrature and the modes whose quadrature returned exactly 0.
    """

    relation: str
    alpha: int
    rel_tol: float
    abs_xi: np.ndarray = field(repr=False)
    lambda_re: np.ndarray = field(repr=False)
    lambda_im: np.ndarray = field(repr=False)
    rho: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    epsilon: np.ndarray = field(repr=False)
    rel_error: np.ndarray = field(repr=False)
    intervals: np.ndarray = field(repr=False)
    panel_evals: int = 0
    rounds: int = 0
    zero_values: int = 0

    @property
    def n_modes(self) -> int:
        return len(self.rel_error)

    @property
    def max_rel_error(self) -> float:
        """The largest rel_error (0 for no modes; NaN if one is NaN)."""
        return float(np.max(self.rel_error, initial=0.0))

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.rel_tol

    @property
    def worst(self) -> dict:
        """The REPORT_COLUMNS of the mode of largest rel_error.  Modes within
        a relative 1e-12 of the largest tie, and the first of them is the
        worst, so that a last-bit change in the errors does not rename it; a
        NaN error is the worst of all."""
        if not self.n_modes:
            return {}
        errors, top = self.rel_error, self.max_rel_error
        ties = np.isnan(errors) if np.isnan(top) else errors >= top - 1.0e-12 * top
        i = int(np.argmax(ties))
        return {name: getattr(self, name)[i].item() for name in REPORT_COLUMNS}


def _unit_datum_source(batch: ModeBatch, dirichlet: bool):
    """(amp, rate) with d_y p = amp e^{-rate y} for the unit-datum harmonic
    pressure p: the ModeBatch form of dirichlet_extend_mode(xi, 1) (p(0) = 1)
    or neumann_extend_mode(xi, 1) (-d_y p(0) = 1), differentiated."""
    rate = batch.abs_xi
    datum = np.ones(batch.size) if dirichlet else 1.0 / rate
    return -datum * rate, rate


def _wall_traces(batch: ModeBatch, kind: str, dirichlet: bool, cfg: QuadratureCfg):
    """Stacked quadrature of int K(0, eta) p'(eta) d eta per mode (of d_y K
    for a Dirichlet datum), each on [0, T / (Re m + |xi|)]: the kernel's wall
    row decays at Re m and the source at |xi|, so the integrand decays at
    their sum (T the truncation multiplier)."""
    m = batch.rate_fast
    r = np.broadcast_to(_image_coefficient(kind, batch), m.shape)
    pref = _prefactor(batch)
    amp, rate = _unit_datum_source(batch, dirichlet)

    def integrand(rows, eta):
        kernel = _kernel_values(
            m[rows, None], r[rows, None], pref[rows, None], 0.0, eta, dirichlet
        )
        source = np.multiply(-rate[rows, None], eta)
        np.exp(source, out=source)
        np.multiply(amp[rows, None], source, out=source)
        return np.multiply(kernel, source, out=kernel)

    upper = cfg.truncation_multiplier / (m.real + rate)
    return adaptive_integrate_stack(
        integrand,
        np.zeros(batch.size),
        upper,
        rel_tol=cfg.rel_tol,
        max_subdivisions=cfg.max_subdivisions,
    )


def verify_trace_relations(
    modes: ModeBatch | Iterable[ModeParams],
    alpha: int,
    relation: str,
    cfg: QuadratureCfg | None = None,
    rel_tol: float = 1.0e-7,
) -> VerificationReport:
    """Check one closed trace relation against kernel quadrature.

    The relations are linear in the wall datum, so each is checked at the
    unit datum, with the beta and the alphas TRACE_RELATIONS gives it.
    beta = 0 ('T00' at alpha = 0, 'T10' at alpha = +-1) drives the kernels
    by the Neumann-extended pressure of the datum (-d_y p(0) = 1) and tests
    multiplier * [what](0) = 1.  beta = +1 ('T11', any alpha) drives by the
    Dirichlet extension (p(0) = 1) and tests
    S^alpha * (-2 mu [d_y what](0) + [p](0)) = 1.  modes is a ModeBatch or
    ModeParams of one dimension, possibly none; all modes are integrated as
    one stack (adaptive_integrate_stack).
    """
    if relation not in TRACE_RELATIONS:
        raise ValueError(f"relation must be one of {sorted(TRACE_RELATIONS)}")
    beta, alphas = TRACE_RELATIONS[relation]
    if alpha not in alphas:
        raise ValueError(f"relation {relation} does not apply to alpha = {alpha}")
    if cfg is None:
        cfg = QuadratureCfg()
    if not isinstance(modes, ModeBatch):
        modes = list(modes)
        modes = ModeBatch.from_modes(modes) if modes else _NO_MODES

    quad = _wall_traces(modes, ALPHA_KERNELS[alpha][1], beta == 1, cfg)
    # the wall trace the multiplier maps to the datum: [what](0) = -quad for
    # beta = 0; for beta = +1, [d_y what](0) = -quad and p(0) = 1
    trace = 2.0 * modes.mu * quad.value + 1.0 if beta else -quad.value
    recovered = trace_multiplier(modes, BcSpec(alpha, beta)) * trace
    return VerificationReport(
        relation,
        alpha,
        rel_tol,
        abs_xi=modes.abs_xi,
        lambda_re=modes.lam.real,
        lambda_im=modes.lam.imag,
        rho=modes.rho,
        mu=modes.mu,
        epsilon=modes.epsilon,
        rel_error=np.abs(recovered - 1.0),
        intervals=quad.intervals,
        panel_evals=int(quad.panel_evals.sum()),
        rounds=quad.rounds,
        zero_values=int(np.count_nonzero(quad.value == 0.0)),
    )
