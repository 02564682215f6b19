"""Boundary-symbol algebra for the shifted Stokes resolvent problem on a halfspace.

Geometry and conventions
------------------------
The fluid fills R^n_+ = {(x, y) : x in R^{n-1}, y > 0}; the boundary is
{y = 0} with *outer* normal nu = -e_y.  Velocity fields split as u = (v, w)
into a tangential part v and the wall-normal component w.  Applying the
tangential Fourier transform (x -> xi) and the time Laplace transform
(t -> lambda) to

    rho eps u + rho d_t u - mu lap u + grad p = 0,   div u = 0,

gives, per mode, with lambda_eps = eps + lambda and
omega = sqrt(rho lambda_eps + mu |xi|^2) (principal branch, Re omega > 0):

    omega^2 vhat - mu d_y^2 vhat + i xi phat = 0
    omega^2 what - mu d_y^2 what + d_y phat  = 0
    i xi . vhat + d_y what = 0.

Derived symbols: zeta = sqrt(mu) xi, kappa = rho sqrt(mu), and the identity
omega^2 - |zeta|^2 = rho lambda_eps.

Decaying solutions are spanned by the exponential ansatz

    [vhat; what; phat](y) = A [ z_v e^{-(omega/sqrt(mu)) y} ; z_w e^{-|xi| y} ]

    A = [[ omega I_{n-1},   -i zeta          ],           ((n+1) x n)
         [ i zeta^T,         |zeta|          ],
         [ 0,                kappa lambda_eps ]].

A boundary condition indexed by (alpha, beta) closes the system through an
n x n boundary symbol B acting on the coefficient vector (z_v, z_w):

    B [z_v; z_w] = [0; h_w],

where h_w is the e_y-component of the boundary datum (h_w = -h.nu).  alpha
selects the tangential condition (0: velocity trace; +1/-1: symmetric /
antisymmetric viscous stress), beta the normal one (0: normal velocity;
+1: normal stress; -1: pressure trace).  BcSpec.tangential_row and
BcSpec.normal_row are the one definition of these wall rows.  beta = -1
prescribes the pressure trace directly and needs no symbol solve, so the
symbol constructors reject it; solve_coefficients solves its rows in closed
form.

Rows of B, the wall rows applied to the ansatz:

    alpha = 0 :  [ omega I,  -i zeta ]                      (velocity trace)
    alpha = +-1: [ sqrt(mu) (omega^2 I - alpha (i zeta)(i zeta)^T),
                   -sqrt(mu) (1 + alpha) i zeta |zeta| ]    (stress trace)
    beta = 0 :   [ i zeta^T,  |zeta| ]                      (normal velocity)
    beta = +1:   [ 2 sqrt(mu) omega i zeta^T,
                   kappa lambda_eps + 2 sqrt(mu) |zeta|^2 ] (normal stress)

Each case factors as B = diag(d_t I, d_n) M with d_t = omega (alpha = 0) or
sqrt(mu) omega^2 (alpha = +-1), d_n = omega (beta = 0) or
2 sqrt(mu) omega^2 (beta = +1); the reduced matrix M has the closed-form
inverses implemented in closed_form_inverse.

The symbol functions work on a ModeBatch of N modes as (N, n, n) array
arithmetic.  ModeBatch is the one place the derived symbols are computed; a
single ModeParams is a view of a batch of one mode, so its symbols and every
symbol function applied to it run the batch code, and a batched sweep checks
exactly the numbers a single-mode solve uses.

Trace multipliers (trace_multiplier) relate the scalar datum h_w to the
pressure co-trace of the solved mode.  Since phat(0) = kappa lambda_eps z_w
and z_w = (B^-1)_nn h_w, trace_multiplier reads them off closed_form_inverse,
the inverse every solve applies; in closed form they are

    beta = 0 :  -d_y phat(0) = T^alpha h_w,
                T^0 = omega(omega + |zeta|),  T^{+-1} = omega^2 +- |zeta|^2
    beta = +1:   phat(0) = S^alpha h_w,
                S^0 = 1,
                S^{+-1} = (omega^2 +- |zeta|^2) /
                          ((omega^2 -+ |zeta|^2)
                           + 2 (omega/(omega+|zeta|)) (|zeta|^2 +- |zeta|^2))
    beta = -1:   phat(0) = h_w (multiplier 1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidModeError, SingularModeError, UnsupportedCaseError

__all__ = [
    "FluidConstants",
    "ModeParams",
    "ModeBatch",
    "BcSpec",
    "derive_mode",
    "boundary_symbol",
    "boundary_symbol_factors",
    "closed_form_inverse",
    "generic_inverse",
    "trace_multiplier",
    "solve_coefficients",
    "COND_WARN_THRESHOLD",
]

#: condition-number threshold above which closed_form_inverse warns
COND_WARN_THRESHOLD = 1.0e12


@dataclass(frozen=True)
class FluidConstants:
    """Density rho, viscosity mu and resolvent shift epsilon (all > 0)."""

    rho: float
    mu: float
    epsilon: float

    def __post_init__(self) -> None:
        for name in ("rho", "mu", "epsilon"):
            val = getattr(self, name)
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise InvalidModeError(f"{name} must be a real number, got {val!r}")
            if not math.isfinite(val) or val <= 0.0:
                raise InvalidModeError(f"{name} must be finite and > 0, got {val}")


def _entry(name: str, doc: str) -> property:
    """A ModeParams property: the one entry of its batch's symbol name, as a
    Python scalar."""
    return property(lambda self: getattr(self.batch, name).item(), doc=doc)


@dataclass(frozen=True)
class ModeParams:
    """One tangential-frequency / resolvent-parameter point: a view of a
    ModeBatch of one mode.

    batch holds the mode's parameters and derives its symbols (lambda_eps,
    kappa, omega, zeta, ...; see ModeBatch); the properties here return the
    batch's entry as a Python scalar, so a single mode and a batch share one
    derivation.  Build instances through derive_mode; construction runs the
    batch's admissibility check.
    """

    constants: FluidConstants
    lam: complex
    xi: tuple[float, ...]
    batch: ModeBatch = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lam = complex(self.lam)
        xi = tuple(float(c) for c in self.xi)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "xi", xi)
        batch = ModeBatch.of_fluid(self.constants, lam, [xi])
        object.__setattr__(self, "batch", batch.check_admissible())

    @property
    def n(self) -> int:
        """Space dimension (tangential components + 1)."""
        return len(self.xi) + 1

    @property
    def zeta(self) -> np.ndarray:
        """sqrt(mu) xi, a fresh array."""
        return self.batch.zeta[0].copy()

    lambda_eps = _entry("lambda_eps", "epsilon + lam.")
    kappa = _entry("kappa", "rho sqrt(mu).")
    omega = _entry("omega", "sqrt(rho lambda_eps + mu |xi|^2), principal branch.")
    abs_xi = _entry("abs_xi", "|xi|.")
    abs_zeta = _entry("abs_zeta", "|zeta| = sqrt(mu) |xi|.")
    sqmu = _entry("sqmu", "sqrt(mu).")
    rho_lam = _entry("rho_lam", "rho lambda_eps = omega^2 - |zeta|^2.")
    rate_fast = _entry("rate_fast", "Decay rate omega/sqrt(mu) of the viscous ansatz column.")
    rate_slow = _entry("abs_xi", "Decay rate |xi| of the pressure (harmonic) ansatz column.")


#: the stress form whose nu-component a wall row pins, by the row's alpha
#: or beta: a velocity trace (0) pins none, +1 one of nu^T S, -1 one of nu^T T
_ROW_FORM = {0: None, 1: "S", -1: "T"}
_VALID_AB = tuple(_ROW_FORM)


@dataclass(frozen=True)
class BcSpec:
    """Boundary-condition index pair (alpha, beta), each in {-1, 0, +1}.

    Each index names what its wall row pins (tangential_row, normal_row):
    0 a velocity trace, +1 a component of nu^T S with the symmetric stress
    S = 2 mu D - p I, -1 one of nu^T T with the antisymmetric T = 2 mu R - p I.
    The energy behaviour follows from that alone.  The linear boundary power
    u . nu^T S (or nu^T T) vanishes pointwise when no row pins a component of
    the other form; the convective flux |u|^2 u.nu / 2 vanishes when the
    normal row pins w.  preservation_class tags the outcome:
      B1 - beta = 0: the full (convective) boundary power vanishes,
      B2 - the rows pin at most one form: the linear power vanishes,
      B3 - one row pins S, the other T: neither vanishes identically.
    """

    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if self.alpha not in _VALID_AB or self.beta not in _VALID_AB:
            raise UnsupportedCaseError(
                f"(alpha, beta) must lie in {{-1,0,+1}}^2, got ({self.alpha}, {self.beta})"
            )

    def _forms(self) -> set:
        """The stress forms the two wall rows pin components of (None for a
        velocity trace)."""
        return {_ROW_FORM[self.alpha], _ROW_FORM[self.beta]}

    @property
    def preservation_class(self) -> str:
        if self.beta == 0:
            return "B1"
        return "B3" if self._forms() == {"S", "T"} else "B2"

    @property
    def adapted_form(self) -> str:
        """Which stress form makes the boundary power vanish pointwise.

        'S' for the symmetric stress 2 mu D - p I, 'T' for the antisymmetric
        2 mu R - p I: T when a row pins a component of nu^T T, else S.  For
        B3 neither vanishes; the tag still names the form in which the
        class's witness functionals are reported.
        """
        return "T" if "T" in self._forms() else "S"

    def __iter__(self):
        """Unpacks as (alpha, beta)."""
        return iter((self.alpha, self.beta))

    def tangential_row(self, mu, v, dv, dxw):
        """The tangential wall row of the pair, from the wall traces of the
        tangential velocity v, d_y v and d_x w (arrays broadcast).

        alpha = 0 is the velocity trace v; alpha = +-1 is the tangential
        stress -mu (d_y v + alpha d_x w), the x-component of nu^T S
        (alpha = +1) or nu^T T (alpha = -1) for the outer normal nu = -e_y.
        """
        if self.alpha == 0:
            return v
        return -mu * (dv + self.alpha * dxw)

    def normal_row(self, mu, w, dw, p):
        """The normal wall row of the pair, from the wall traces of the
        normal velocity w, d_y w and the pressure p (arrays broadcast).

        beta = 0 is the velocity trace w; beta = +1 the normal stress
        -2 mu d_y w + p, the y-component of nu^T S; beta = -1 the pressure
        trace p, the y-component of nu^T T.
        """
        if self.beta == 0:
            return w
        if self.beta == 1:
            return -2.0 * mu * dw + p
        return p


#: the nine boundary-condition pairs, normal family outermost
ALL_BCS = tuple(BcSpec(a, b) for b in (0, 1, -1) for a in (0, 1, -1))

#: the six pairs with an invertible boundary symbol (beta = -1 prescribes
#: the pressure trace directly and has no symbol to invert)
SYMBOL_BCS = tuple(bc for bc in ALL_BCS if bc.beta != -1)


def derive_mode(constants: FluidConstants, lam: complex, xi) -> ModeParams:
    """Validate and derive a mode-parameter point.

    Rejects Re lam < 0, non-finite lam or xi, an |xi|^2 or omega that
    overflows, an empty xi (n < 2) and (via FluidConstants) nonpositive
    rho/mu/epsilon.
    """
    if np.ndim(xi) == 0:
        xi = (xi,)
    return ModeParams(constants, lam, tuple(float(c) for c in np.asarray(xi).ravel()))


@dataclass(frozen=True, eq=False)
class ModeBatch:
    """N modes of one dimension n, as arrays over a leading mode axis.

    Holds each mode's parameters rho, mu, epsilon, lam (shape (N,)) and xi
    (shape (N, n-1)).  This is the one place the mode symbols are derived:
    lambda_eps = epsilon + lam, kappa = rho sqrt(mu), zeta = sqrt(mu) xi,
    omega = sqrt(rho lambda_eps + mu |xi|^2) on the principal branch and the
    decay rates, each elementwise, on first use, in the arrays' own
    precision.  A ModeParams reads its symbols from a batch of one.  The
    symbol functions of this module take a ModeBatch wherever they take a
    ModeParams and then return one result per mode.
    """

    rho: np.ndarray
    mu: np.ndarray
    epsilon: np.ndarray
    lam: np.ndarray
    xi: np.ndarray

    @classmethod
    def of_fluid(cls, constants: FluidConstants, lam: complex, xi) -> "ModeBatch":
        """The modes of one fluid and one lam, one per row of xi (N, n-1).

        Builds the arrays only; check_admissible validates them."""
        xi = np.asarray(xi, dtype=float)
        size = len(xi)
        return cls(
            rho=np.full(size, constants.rho, dtype=float),
            mu=np.full(size, constants.mu, dtype=float),
            epsilon=np.full(size, constants.epsilon, dtype=float),
            lam=np.full(size, lam, dtype=complex),
            xi=xi,
        )

    @classmethod
    def from_modes(cls, modes) -> "ModeBatch":
        """The batches of ModeParams of one dimension, one after another."""
        if len({m.n for m in modes}) != 1:
            raise InvalidModeError("a ModeBatch needs at least one mode, all of one dimension n")
        return cls.concat([m.batch for m in modes])

    @classmethod
    def concat(cls, batches) -> "ModeBatch":
        """The modes of batches, one after another."""
        fields = ("rho", "mu", "epsilon", "lam", "xi")
        return cls(*(np.concatenate([getattr(b, f) for b in batches]) for f in fields))

    def check_admissible(self) -> "ModeBatch":
        """self, after the admissibility checks: at least one tangential
        component (n >= 2); rho, mu, epsilon finite and > 0; lam finite with
        Re lam >= 0; xi finite; |xi|^2 and omega finite.  Raises
        InvalidModeError.at_mode naming the first offending mode, and the
        first of these checks it fails."""
        if self.xi.shape[1] < 1:
            raise InvalidModeError("xi must have at least one component (n >= 2)")
        checks = [
            (f"{name} must be finite and > 0", val, np.isfinite(val) & (val > 0.0))
            for name, val in (("rho", self.rho), ("mu", self.mu), ("epsilon", self.epsilon))
        ]
        checks += [
            ("lambda must be finite", self.lam, np.isfinite(self.lam)),
            ("Re lambda must be >= 0", self.lam, self.lam.real >= 0.0),
            ("xi must be finite", self.xi, np.isfinite(self.xi).all(axis=1)),
        ]
        # finite parameters can still overflow the symbols derived from them
        with np.errstate(over="ignore", invalid="ignore"):
            checks += [
                ("|xi|^2 must be finite", self.xi_sq, np.isfinite(self.xi_sq)),
                ("omega must be finite", self.omega, np.isfinite(self.omega)),
            ]
        failed = ~np.stack([ok for _, _, ok in checks])  # (check, mode)
        if failed.any():
            i = int(np.argmax(failed.any(axis=0)))
            what, val, _ = checks[int(np.argmax(failed[:, i]))]
            raise InvalidModeError.at_mode(f"{what}, got {val[i]}", i)
        return self

    def extended(self) -> "ModeBatch":
        """The same modes in np.clongdouble, so that every derived symbol is
        computed from the parameters in extended precision."""
        ld = np.longdouble
        return ModeBatch(
            rho=self.rho.astype(ld),
            mu=self.mu.astype(ld),
            epsilon=self.epsilon.astype(ld),
            lam=self.lam.astype(np.clongdouble),
            xi=self.xi.astype(ld),
        )

    @property
    def size(self) -> int:
        """Number of modes N."""
        return len(self.rho)

    @property
    def n(self) -> int:
        """Space dimension (tangential components + 1)."""
        return self.xi.shape[1] + 1

    @cached_property
    def lambda_eps(self) -> np.ndarray:
        return self.epsilon + self.lam

    @cached_property
    def rho_lam(self) -> np.ndarray:
        """rho lambda_eps = omega^2 - |zeta|^2."""
        return self.rho * self.lambda_eps

    @cached_property
    def xi_sq(self) -> np.ndarray:
        return np.sum(self.xi * self.xi, axis=1)

    @cached_property
    def abs_xi(self) -> np.ndarray:
        return np.sqrt(self.xi_sq)

    @cached_property
    def sqmu(self) -> np.ndarray:
        return np.sqrt(self.mu)

    @cached_property
    def kappa(self) -> np.ndarray:
        return self.rho * self.sqmu

    @cached_property
    def omega(self) -> np.ndarray:
        """sqrt(rho lambda_eps + mu |xi|^2) on the principal branch.

        Re(rho lambda_eps + mu |xi|^2) >= rho epsilon > 0 for an admissible
        mode, so the argument never touches the branch cut and Re omega > 0.
        """
        return np.sqrt(self.rho_lam + self.mu * self.xi_sq)

    @cached_property
    def zeta(self) -> np.ndarray:
        return self.sqmu[:, None] * self.xi

    @cached_property
    def abs_zeta(self) -> np.ndarray:
        return self.sqmu * self.abs_xi

    @cached_property
    def rate_fast(self) -> np.ndarray:
        """Decay rate omega/sqrt(mu) of the viscous ansatz column.

        The real and imaginary parts are divided separately, as a complex
        divided by a real is in Python; numpy's complex division would
        multiply by the reciprocal and round differently.
        """
        rate = np.empty_like(self.omega)
        rate.real = self.omega.real / self.sqmu
        rate.imag = self.omega.imag / self.sqmu
        return rate


def _check_bc_for_symbol(bc: BcSpec) -> None:
    if bc not in SYMBOL_BCS:
        raise UnsupportedCaseError(
            "beta = -1 prescribes the pressure trace directly; no boundary "
            "symbol exists for it (solve that case through the pressure "
            "extension path)"
        )


def _as_batch(mode: ModeParams | ModeBatch) -> ModeBatch:
    return mode if isinstance(mode, ModeBatch) else mode.batch


def _unbatch(mode: ModeParams | ModeBatch, result):
    """result for a batch; its only entry when mode is a single ModeParams."""
    return result if isinstance(mode, ModeBatch) else result[0]


def _one_minus_s2(p: ModeBatch) -> np.ndarray:
    """1 - s^2 with s = |zeta| / omega, in the stable form rho lambda_eps / omega^2.

    omega^2 - |zeta|^2 = rho lambda_eps exactly; the direct subtraction
    cancels catastrophically when rho lambda_eps << mu |xi|^2, so every
    near-singular factor of the symbol and of its inverse is built from this.
    """
    return p.rho_lam / p.omega**2


def _row_scalings(p: ModeBatch, bc: BcSpec) -> np.ndarray:
    """(N, n) row scalings d of B = diag(d) M."""
    w = p.omega
    d = np.empty((p.size, p.n), dtype=w.dtype)
    d[:, :-1] = (w if bc.alpha == 0 else p.sqmu * w**2)[:, None]
    d[:, -1] = w if bc.beta == 0 else 2.0 * p.sqmu * w**2
    return d


def _reduced_symbol(p: ModeBatch, bc: BcSpec) -> np.ndarray:
    """(N, n, n) reduced matrices M of B = diag(d) M."""
    nt = p.n - 1
    w = p.omega[:, None]
    iz = 1j * p.zeta
    m = np.empty((p.size, p.n, p.n), dtype=iz.dtype)
    if bc.alpha == 0:
        m[:, :nt, :nt] = np.eye(nt)
        m[:, :nt, nt] = -iz / w
    else:
        # I - sgn (i zeta)(i zeta)^T / omega^2 = (I - P) + (1 + sgn s^2) P with
        # P the projector onto zeta: for sgn = -1 the factor along zeta is
        # 1 - s^2, which must come in the stable form, not by subtraction.
        sgn = bc.alpha
        along = _one_minus_s2(p) if sgn < 0 else 1.0 + (p.abs_zeta / p.omega) ** 2
        zz = p.zeta[:, :, None] * p.zeta[:, None, :]
        proj = zz / np.where(p.abs_zeta > 0.0, p.abs_zeta**2, 1.0)[:, None, None]
        m[:, :nt, :nt] = (np.eye(nt) - proj) + along[:, None, None] * proj
        m[:, :nt, nt] = -sgn * (1.0 + sgn) * iz * p.abs_zeta[:, None] / w**2
    m[:, nt, :nt] = iz / w
    if bc.beta == 0:
        m[:, nt, nt] = p.abs_zeta / p.omega
    else:  # beta == +1
        # kappa lambda_eps = sqrt(mu) rho lambda_eps, so the corner entry
        # (kappa lambda_eps + 2 sqrt(mu) |zeta|^2) / (2 sqrt(mu) omega^2)
        # equals (omega^2 + |zeta|^2) / (2 omega^2).
        m[:, nt, nt] = (p.rho_lam + 2.0 * p.abs_zeta**2) / (2.0 * p.omega**2)
    return m


def boundary_symbol_factors(
    mode: ModeParams | ModeBatch, bc: BcSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Return (diag, M) with boundary symbol B = diag(diag) @ M.

    diag holds the row scalings (d_t repeated n-1 times, then d_n); M is the
    reduced matrix whose closed-form inverse closed_form_inverse implements.
    For a ModeBatch both carry a leading axis over its modes.
    """
    _check_bc_for_symbol(bc)
    p = _as_batch(mode)
    return _unbatch(mode, _row_scalings(p, bc)), _unbatch(mode, _reduced_symbol(p, bc))


def boundary_symbol(mode: ModeParams | ModeBatch, bc: BcSpec) -> np.ndarray:
    """The n x n boundary symbol B^{alpha,beta} acting on (z_v, z_w).

    For a ModeBatch the result is the (N, n, n) stack of its modes' symbols,
    in the batch's precision.
    """
    _check_bc_for_symbol(bc)
    p = _as_batch(mode)
    return _unbatch(mode, _row_scalings(p, bc)[:, :, None] * _reduced_symbol(p, bc))


def _condition_numbers(x: np.ndarray) -> np.ndarray:
    """2-norm condition number of each matrix of an (N, n, n) stack.

    For n = 2 in closed form: sigma_1 sigma_2 = |det| and
    sigma_1^2 + sigma_2^2 = ||.||_F^2, so cond = sigma_1^2 / |det| with
    sigma_1^2 = (F + sqrt((F - 2 D)(F + 2 D))) / 2.  A batched SVD otherwise.
    """
    if x.shape[-1] != 2:
        sv = np.linalg.svd(x, compute_uv=False)
        return sv[:, 0] / sv[:, -1]
    fro = np.sum(x.real**2 + x.imag**2, axis=(1, 2))
    det = np.abs(x[:, 0, 0] * x[:, 1, 1] - x[:, 0, 1] * x[:, 1, 0])
    gap = np.sqrt(np.maximum((fro - 2.0 * det) * (fro + 2.0 * det), 0.0))
    return (fro + gap) / (2.0 * det)


def closed_form_inverse(mode: ModeParams | ModeBatch, bc: BcSpec) -> np.ndarray:
    """Closed-form inverse of boundary_symbol(mode, bc).

    Uses the displayed inverse of the reduced matrix M (with
    c = i zeta / omega, s = |zeta| / omega, C = c c^T):

      (0,0):    {(1-s)s}^-1  [ (1-s)s I - C,        c        ]
                             [ -c^T,                1        ]
      (+-1,0):  {(1-s^2)s}^-1[ (1-s^2)s I - s C,    (1+-1)s c ]
                             [ -c^T,                1+-s^2   ]
      (0,+1):   {(1-s^2)/2}^-1[ (1-s^2)/2 I - C,    c        ]
                             [ -c^T,                1        ]
      (+-1,+1): delta^-1 [ delta I +- ((1+s^2)/2 -+ (1+-1)s) C,  (1+-1)s c ]
                         [ -c^T,                                 1+-s^2   ]
                with delta = (1+s^2)/2 (1+-s^2) - (s^3 +- s^3),

    each of the form delta^-1 [[delta I - k C, e c], [-c^T, f]]; then
    B^-1 = M^-1 diag(d)^-1.  The beta = 0 displays are singular at
    xi = 0 (s = 0), which raises SingularModeError; s = 1 cannot happen for
    admissible modes since 1 - s^2 = rho lambda_eps / omega^2 != 0.
    Emits a warning when cond(B) exceeds COND_WARN_THRESHOLD (cond(B) is
    read off the inverse, whose condition number is the same).

    For a ModeBatch the result is the (N, n, n) stack of the inverses, empty
    for an empty batch; the single-mode call is a batch of one through the
    same arithmetic.
    """
    _check_bc_for_symbol(bc)
    p = _as_batch(mode)
    nt = p.n - 1
    if bc.beta == 0 and not p.abs_xi.all():
        raise SingularModeError.at_mode(
            "the (alpha, 0) closed-form inverses require xi != 0 "
            "(the normal-velocity row degenerates at the mean mode)",
            int(np.argmin(p.abs_xi)),
        )
    w = p.omega
    s = p.abs_zeta / w
    c = 1j * p.zeta / w[:, None]
    one_m_s2 = _one_minus_s2(p)
    one_m_s = one_m_s2 / (1.0 + s)
    sgn = bc.alpha

    if bc.beta == 0:
        if sgn == 0:
            delta, k, e, f = one_m_s * s, 1.0, 1.0, 1.0
        else:
            delta, k, e = one_m_s2 * s, s, (1.0 + sgn) * s
            f = one_m_s2 if sgn < 0 else 1.0 + s * s
    elif sgn == 0:  # beta == +1 from here on
        delta, k, e, f = 0.5 * one_m_s2, 1.0, 1.0, 1.0
    elif sgn > 0:
        # delta = (1+s^2)^2/2 - 2 s^3 = (1-s)(1 + s + 3 s^2 - s^3)/2
        delta = 0.5 * one_m_s * (1.0 + s + 3.0 * s * s - s**3)
        k, e, f = 2.0 * s - 0.5 * (1.0 + s * s), 2.0 * s, 1.0 + s * s
    else:
        delta = 0.5 * (1.0 + s * s) * one_m_s2
        k, e, f = 0.5 * (1.0 + s * s), 0.0, one_m_s2

    pref = 1.0 / delta
    minv = np.empty((p.size, p.n, p.n), dtype=complex)
    minv[:, :nt, :nt] = np.eye(nt) - (k * pref)[:, None, None] * (c[:, :, None] * c[:, None, :])
    minv[:, :nt, nt] = (e * pref)[:, None] * c
    minv[:, nt, :nt] = -pref[:, None] * c
    minv[:, nt, nt] = f * pref
    binv = minv / _row_scalings(p, bc)[:, None, :]

    cond = _condition_numbers(binv)
    if cond.size and cond.max() > COND_WARN_THRESHOLD:
        worst = int(np.argmax(cond))
        msg = (
            f"boundary symbol poorly conditioned (cond = {cond[worst]:.3e}) at "
            f"(alpha, beta) = ({bc.alpha}, {bc.beta}), |xi| = {p.abs_xi[worst]:.3e}"
        )
        if p.size > 1:
            msg += f" ({np.count_nonzero(cond > COND_WARN_THRESHOLD)} of {p.size} modes)"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return _unbatch(mode, binv)


def _lu_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of the (N, n, n) stack a, in a's precision.

    LU factorisation with partial pivoting, P A = L U, then the triangular
    solves L U X = P.  Raises SingularModeError.at_mode naming the first
    matrix with an exactly zero pivot.
    """
    lu = a.copy()
    n = lu.shape[-1]
    rows = np.arange(lu.shape[0])
    perm = np.tile(np.arange(n), (lu.shape[0], 1))
    for k in range(n - 1):
        piv = k + np.argmax(np.abs(lu[:, k:, k]), axis=1)
        lu[rows, k], lu[rows, piv] = lu[rows, piv], lu[rows, k]
        perm[rows, k], perm[rows, piv] = perm[rows, piv], perm[rows, k]
        lu[:, k + 1 :, k] /= lu[:, k, k, None]
        lu[:, k + 1 :, k + 1 :] -= lu[:, k + 1 :, k, None] * lu[:, None, k, k + 1 :]
    singular = np.flatnonzero(np.any(np.diagonal(lu, axis1=1, axis2=2) == 0.0, axis=1))
    if singular.size:
        raise SingularModeError.at_mode("boundary symbol is exactly singular", int(singular[0]))
    x = (perm[:, :, None] == np.arange(n)).astype(lu.dtype)
    for i in range(1, n):
        x[:, i] -= np.sum(lu[:, i, :i, None] * x[:, :i], axis=1)
    for i in reversed(range(n)):
        x[:, i] -= np.sum(lu[:, i, i + 1 :, None] * x[:, i + 1 :], axis=1)
        x[:, i] /= lu[:, i, i, None]
    return x


def generic_inverse(mode: ModeParams | ModeBatch, bc: BcSpec) -> np.ndarray:
    """Invert the boundary symbol numerically: the oracle for closed_form_inverse.

    An LU inverse carries an error of about cond(B) u (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 14), and in double precision
    even rounding B's entries moves the cancelling determinant of the
    alpha = -1 symbols by about u / |1 - s^2| -- more than the closed form's
    own error, which no polishing in double can undo.  So the symbol is
    assembled afresh from each mode's parameters (rho, mu, epsilon, lambda,
    xi), omega included, in np.clongdouble, inverted there by LU with
    partial pivoting, and only the result is rounded to complex128.

    Where np.longdouble is plain double (e.g. on Windows or on arm64 macOS)
    the same steps run in double: the reference then carries the
    cond(B) u error above, and the 1e-10 gate of verify-symbols can trip at
    the worst corners of its sweep through the oracle, not the closed form.

    For a ModeBatch the result is the (N, n, n) stack of the inverses.
    """
    _check_bc_for_symbol(bc)
    ext = _as_batch(mode).extended()
    b = _row_scalings(ext, bc)[:, :, None] * _reduced_symbol(ext, bc)
    return _unbatch(mode, _lu_inverse(b).astype(complex))


def trace_multiplier(mode: ModeParams | ModeBatch, bc: BcSpec):
    """Scalar multiplier tying the boundary datum h_w to the pressure co-trace.

    beta = 0:  -d_y phat(0) = T^alpha h_w
    beta = +1:  phat(0)     = S^alpha h_w
    beta = -1:  phat(0)     = h_w           (identity; the datum IS the trace)

    T^alpha and S^alpha are read off the solve itself: for the unit datum,
    z_w is the corner (B^-1)_nn of closed_form_inverse, phat(0) =
    kappa lambda_eps z_w and -d_y phat(0) = |xi| phat(0).  So the multiplier
    is the one solve_coefficients applies, not a second statement of it, and
    it raises and warns as closed_form_inverse does (SingularModeError at
    xi = 0 for beta = 0).  The module docstring gives the closed forms.

    For a ModeBatch the result is the (N,) array of its modes' multipliers.
    """
    p = _as_batch(mode)
    if bc.beta == -1:
        return _unbatch(mode, np.ones(p.size, dtype=complex))
    mult = p.kappa * p.lambda_eps * closed_form_inverse(p, bc)[:, -1, -1]
    return _unbatch(mode, mult * p.abs_xi if bc.beta == 0 else mult)


def solve_coefficients(mode: ModeParams | ModeBatch, bc: BcSpec, h_w):
    """The ansatz coefficients (z_v, z_w) for tangential datum 0 and normal
    datum h_w, under any pair (alpha, beta).

    For beta in {0, +1} they solve B [z_v; z_w] = [0; h_w] by the
    closed-form inverse, and SingularModeError is raised when cond(B), read
    off the inverse as closed_form_inverse's warning reads it, is not
    finite: the solve then carries no digits, and the error's index names
    the first such mode of the batch.  For beta = -1 the pressure
    trace gives kappa lambda_eps z_w = h_w, and the tangential row then
    z_v = gamma i zeta in closed form.

    For a ModeBatch, h_w is one datum or one per mode, z_v is (N, n-1) and
    z_w (N,).  A ModeParams is a batch of one through the same arithmetic,
    returned as z_v of shape (n-1,) and a complex z_w.
    """
    p = _as_batch(mode)
    h_w = np.broadcast_to(np.asarray(h_w, dtype=complex), (p.size,))
    if bc.beta == -1:
        z_w = h_w / (p.kappa * p.lambda_eps)
        if bc.alpha == 0:
            gamma = z_w / p.omega
        elif bc.alpha == 1:
            gamma = 2.0 * p.abs_zeta * z_w / (p.omega**2 + p.abs_zeta**2)
        else:
            gamma = np.zeros_like(z_w)
        z_v = gamma[:, None] * (1j * p.zeta)
    else:
        binv = closed_form_inverse(p, bc)
        cond = _condition_numbers(binv)
        if not np.isfinite(cond).all():
            i = int(np.argmin(np.isfinite(cond)))
            raise SingularModeError.at_mode(
                f"boundary symbol numerically singular (cond = {cond[i]:.3e}) at "
                f"(alpha, beta) = ({bc.alpha}, {bc.beta}), |xi| = {p.abs_xi[i]:.3e}",
                i,
            )
        # the right-hand side is h_w e_n, so z is h_w times B^-1's last column
        z = binv[:, :, -1] * h_w[:, None]
        z_v, z_w = z[:, :-1], z[:, -1]
    if isinstance(mode, ModeBatch):
        return z_v, z_w
    return z_v[0], complex(z_w[0])
