"""Exponential-sum profiles in the wall-normal variable.

Everything the closed-form pipeline produces is a finite sum of terms

    amp * y^k * exp(-rate * y),        Re rate > 0,  k in N_0,

on y in (0, infinity).  (A constant term, rate = 0 and k = 0, is allowed
only for the mean mode xi = 0 and is flagged by the validator.)  This module
implements the calculus that keeps the class closed:

* pointwise evaluation, differentiation, linear combinations,
* Laplace transforms  L[f](s) = int_0^inf e^{-s y} f(y) dy,
* convolution against the two-sided kernel e^{-m|y-eta|} (the free-space
  Green function of  a q - b q'' with m = sqrt(a/b), up to 1/(2 b m)),
* the reflected-kernel application  int_0^inf e^{-m(y+eta)} f(eta) d eta,
* decaying Helmholtz solves  a q - b q'' = f on (0, inf) with a Dirichlet or
  Neumann condition at y = 0.

Convolution closed form.  For f(eta) = eta^k e^{-r eta}, split at eta = y:

    I(y) = e^{-m y} A(y) + e^{-r y} Qt(y),       s := m - r,  t := m + r,
    A(y) = int_0^y eta^k e^{s eta} d eta,
    Qt(y) = sum_{j=0..k} k!/(k-j)! y^{k-j} / t^{j+1}.

For s away from 0, A(y) = e^{s y} Pt(y) - Pt(0) with
Pt(y) = sum_j (-1)^j k!/(k-j)! y^{k-j} / s^{j+1}, giving the exponential-sum
form I = e^{-r y}(Pt + Qt) - Pt(0) e^{-m y}.  That form loses
~log10(1/|s| y) digits to cancellation as s -> 0, so for |s| <= 1e-3 |t|
the code switches to the uniformly stable series

    A(y) = sum_{i>=0} s^i / i! * y^{k+1+i} / (k+1+i),

truncated once the tail is below 1e-20 of the leading term, and at s = 0
exactly to A(y) = y^{k+1}/(k+1).  Both branches stay inside the
exponential-sum class.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ProfileError, ZeroModeError

__all__ = [
    "ExpTerm",
    "ScalarModeProfile",
    "VectorModeProfile",
    "gradient",
    "pair_integral",
    "convolve_abs_exp",
    "apply_reflected_exp",
    "helmholtz_solve_mode",
]

#: relative |m - r| below which the convolution uses the series branch
_NEAR_RESONANCE = 1.0e-3
#: relative tail size at which the series branch truncates
_SERIES_TOL = 1.0e-20
_MAX_SERIES_TERMS = 60


@dataclass(frozen=True)
class ExpTerm:
    """One term  amp * y^power * exp(-rate * y)."""

    amp: complex
    rate: complex
    power: int = 0

    def __post_init__(self) -> None:
        amp = complex(self.amp)
        rate = complex(self.rate)
        if not (
            math.isfinite(amp.real)
            and math.isfinite(amp.imag)
            and math.isfinite(rate.real)
            and math.isfinite(rate.imag)
        ):
            raise ProfileError(f"non-finite term (amp={amp}, rate={rate})")
        if not isinstance(self.power, int) or self.power < 0:
            raise ProfileError(f"power must be a nonnegative int, got {self.power!r}")
        object.__setattr__(self, "amp", amp)
        object.__setattr__(self, "rate", rate)


def _as_xi(xi) -> tuple[float, ...]:
    if np.ndim(xi) == 0:
        xi = (xi,)
    out = tuple(float(c) for c in np.asarray(xi).ravel())
    if not all(math.isfinite(c) for c in out):
        raise ProfileError(f"xi must be finite, got {out}")
    return out


class ScalarModeProfile:
    """A scalar exponential-sum profile attached to a tangential frequency xi.

    Terms with rate = 0 (constants) are admitted only when xi = 0; every
    other term must decay (Re rate > 0).
    """

    __slots__ = ("xi", "terms")

    def __init__(self, xi, terms):
        self.xi = _as_xi(xi)
        terms = tuple(
            t if isinstance(t, ExpTerm) else ExpTerm(*t) for t in terms
        )
        abs_xi = math.sqrt(sum(c * c for c in self.xi))
        for t in terms:
            if t.rate == 0:
                if abs_xi != 0.0 or t.power != 0:
                    raise ProfileError(
                        "constant terms are permitted only for the mean mode "
                        f"xi = 0 (got rate 0, power {t.power} at |xi| = {abs_xi})"
                    )
            elif t.rate.real <= 0.0:
                raise ProfileError(
                    f"profile terms must decay: Re rate = {t.rate.real} <= 0"
                )
        self.terms = _merge_terms(terms)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, xi) -> "ScalarModeProfile":
        return cls(xi, ())

    @classmethod
    def single(cls, xi, amp, rate) -> "ScalarModeProfile":
        return cls(xi, (ExpTerm(amp, rate),))

    # -- basic queries ---------------------------------------------------------

    @property
    def abs_xi(self) -> float:
        return math.sqrt(sum(c * c for c in self.xi))

    def __repr__(self) -> str:
        body = " + ".join(
            f"({t.amp:.6g}) y^{t.power} e^(-({t.rate:.6g}) y)" for t in self.terms
        )
        return f"ScalarModeProfile(xi={self.xi}, {body or '0'})"

    # -- evaluation ------------------------------------------------------------

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape, dtype=complex)
        for t in self.terms:
            out += t.amp * np.power(y, t.power) * np.exp(-t.rate * y)
        return out if out.shape else complex(out)

    def derivative(self) -> "ScalarModeProfile":
        terms = []
        for t in self.terms:
            if t.power > 0:
                terms.append(ExpTerm(t.amp * t.power, t.rate, t.power - 1))
            terms.append(ExpTerm(-t.amp * t.rate, t.rate, t.power))
        return ScalarModeProfile(self.xi, terms)

    def laplace(self, s: complex) -> complex:
        """int_0^inf e^{-s y} f(y) dy (requires Re(s + rate) > 0 termwise)."""
        total = 0.0 + 0.0j
        for t in self.terms:
            z = s + t.rate
            if z.real <= 0.0:
                raise ProfileError(
                    f"Laplace transform diverges: Re(s + rate) = {z.real} <= 0"
                )
            total += t.amp * math.factorial(t.power) / z ** (t.power + 1)
        return total

    def integral(self) -> complex:
        """int_0^inf f(y) dy."""
        return self.laplace(0.0)

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: "ScalarModeProfile") -> "ScalarModeProfile":
        if not isinstance(other, ScalarModeProfile):
            return NotImplemented
        if other.xi != self.xi:
            raise ProfileError(f"xi mismatch: {self.xi} vs {other.xi}")
        return ScalarModeProfile(self.xi, self.terms + other.terms)

    def __sub__(self, other: "ScalarModeProfile") -> "ScalarModeProfile":
        return self + (-1.0) * other

    def __neg__(self) -> "ScalarModeProfile":
        return (-1.0) * self

    def __mul__(self, c) -> "ScalarModeProfile":
        c = complex(c)
        return ScalarModeProfile(
            self.xi, tuple(ExpTerm(t.amp * c, t.rate, t.power) for t in self.terms)
        )

    __rmul__ = __mul__


def _merge_terms(terms) -> tuple[ExpTerm, ...]:
    acc: dict[tuple[complex, int], complex] = {}
    for t in terms:
        key = (t.rate, t.power)
        acc[key] = acc.get(key, 0.0 + 0.0j) + t.amp
    merged = [
        ExpTerm(amp, rate, power)
        for (rate, power), amp in acc.items()
        if amp != 0.0
    ]
    merged.sort(key=lambda t: (t.rate.real, t.rate.imag, t.power))
    return tuple(merged)


class VectorModeProfile:
    """A velocity-shaped profile: n-1 tangential components and one normal."""

    __slots__ = ("xi", "tangential", "normal")

    def __init__(self, xi, tangential, normal: ScalarModeProfile):
        self.xi = _as_xi(xi)
        tangential = tuple(tangential)
        if len(tangential) != len(self.xi):
            raise ProfileError(
                f"need {len(self.xi)} tangential components, got {len(tangential)}"
            )
        for c in tangential:
            if c.xi != self.xi:
                raise ProfileError("tangential component xi mismatch")
        if normal.xi != self.xi:
            raise ProfileError("normal component xi mismatch")
        self.tangential = tangential
        self.normal = normal

    def divergence(self) -> ScalarModeProfile:
        """i xi . v + d_y w as a profile."""
        out = self.normal.derivative()
        for xij, comp in zip(self.xi, self.tangential):
            out = out + (1j * xij) * comp
        return out

    def __add__(self, other: "VectorModeProfile") -> "VectorModeProfile":
        if not isinstance(other, VectorModeProfile):
            return NotImplemented
        if other.xi != self.xi:
            raise ProfileError(f"xi mismatch: {self.xi} vs {other.xi}")
        return VectorModeProfile(
            self.xi,
            tuple(a + b for a, b in zip(self.tangential, other.tangential)),
            self.normal + other.normal,
        )

    def __sub__(self, other: "VectorModeProfile") -> "VectorModeProfile":
        return self + (-1.0) * other

    def __mul__(self, c) -> "VectorModeProfile":
        return VectorModeProfile(
            self.xi, tuple(c * t for t in self.tangential), c * self.normal
        )

    __rmul__ = __mul__

    def evaluate(self, y) -> np.ndarray:
        """Stack [tangential..., normal] evaluated at y, shape (n, *y.shape)."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return np.stack([c(y) for c in self.tangential] + [self.normal(y)])


def gradient(p: ScalarModeProfile) -> VectorModeProfile:
    """Mode gradient (i xi p, d_y p) of a scalar profile."""
    return VectorModeProfile(
        p.xi, tuple((1j * xij) * p for xij in p.xi), p.derivative()
    )


def pair_integral(p: ScalarModeProfile, q: ScalarModeProfile) -> complex:
    """int_0^inf p(y) q(y) dy in closed form (no conjugation).

    Termwise the product is again exponential-sum, so the integral is
    sum amp_p amp_q (k_p+k_q)! / (rate_p+rate_q)^{k_p+k_q+1}.
    """
    total = 0.0 + 0.0j
    for tp in p.terms:
        for tq in q.terms:
            rate = tp.rate + tq.rate
            if rate.real <= 0.0:
                raise ProfileError("pair integral diverges: combined rate <= 0")
            k = tp.power + tq.power
            total += tp.amp * tq.amp * math.factorial(k) / rate ** (k + 1)
    return total


# ---------------------------------------------------------------------------
# kernel convolutions
# ---------------------------------------------------------------------------


def _falling_factorial_ratio(k: int, j: int) -> float:
    """k!/(k-j)!"""
    return math.factorial(k) // math.factorial(k - j)


def _convolve_term(m: complex, t: ExpTerm, y_max: float) -> list[ExpTerm]:
    """Closed form of int_0^inf e^{-m|y-eta|} eta^k e^{-r eta} d eta."""
    r, k, amp = t.rate, t.power, t.amp
    s = m - r
    tt = m + r
    if tt.real <= 0.0:
        raise ProfileError(
            f"kernel convolution diverges: Re(m + rate) = {tt.real} <= 0"
        )

    out: list[ExpTerm] = []
    # outer piece  e^{-r y} Qt(y): no cancellation, always closed form
    for j in range(k + 1):
        out.append(ExpTerm(amp * _falling_factorial_ratio(k, j) / tt ** (j + 1), r, k - j))

    if s == 0:
        # exact resonance: e^{-m y} * y^{k+1}/(k+1)
        out.append(ExpTerm(amp / (k + 1), m, k + 1))
        return out

    if abs(s) <= _NEAR_RESONANCE * abs(tt) and abs(s) * y_max <= 0.5:
        # series branch: e^{-m y} * sum_i s^i/i! y^{k+1+i}/(k+1+i)
        coef = 1.0 + 0.0j  # s^i / i!
        lead = y_max ** (k + 1) / (k + 1)
        for i in range(_MAX_SERIES_TERMS):
            out.append(ExpTerm(amp * coef / (k + 1 + i), m, k + 1 + i))
            coef *= s / (i + 1)
            if abs(coef) * y_max ** (k + 1 + i + 1) <= _SERIES_TOL * lead:
                break
        return out

    # generic closed form: e^{-r y} Pt(y) - Pt(0) e^{-m y}
    for j in range(k + 1):
        out.append(
            ExpTerm(
                amp * ((-1.0) ** j) * _falling_factorial_ratio(k, j) / s ** (j + 1),
                r,
                k - j,
            )
        )
    out.append(ExpTerm(-amp * ((-1.0) ** k) * math.factorial(k) / s ** (k + 1), m, 0))
    return out


def _slowest_decay(m: complex, profile: ScalarModeProfile) -> float:
    """Smallest decay rate of a kernel e^{-m y} applied to profile: the least
    of Re m and the profile's decaying rates."""
    return min([m.real] + [t.rate.real for t in profile.terms if t.rate.real > 0.0])


def convolve_abs_exp(
    m: complex, profile: ScalarModeProfile, y_max: float | None = None
) -> ScalarModeProfile:
    """int_0^inf e^{-m|y-eta|} profile(eta) d eta as a profile (Re m > 0).

    y_max bounds the evaluation window the result needs to be accurate on;
    it only matters for the near-resonant series truncation.
    """
    m = complex(m)
    if m.real <= 0.0:
        raise ProfileError(f"kernel rate must decay: Re m = {m.real} <= 0")
    if y_max is None:
        y_max = 40.0 / _slowest_decay(m, profile)
    terms: list[ExpTerm] = []
    for t in profile.terms:
        terms.extend(_convolve_term(m, t, y_max))
    return ScalarModeProfile(profile.xi, terms)


def apply_reflected_exp(m: complex, profile: ScalarModeProfile) -> ScalarModeProfile:
    """int_0^inf e^{-m(y+eta)} profile(eta) d eta = e^{-m y} L[profile](m)."""
    m = complex(m)
    if m.real <= 0.0:
        raise ProfileError(f"kernel rate must decay: Re m = {m.real} <= 0")
    return ScalarModeProfile.single(profile.xi, profile.laplace(m), m)


# ---------------------------------------------------------------------------
# decaying Helmholtz solves on the half-line
# ---------------------------------------------------------------------------


def helmholtz_solve_mode(
    a: complex,
    b: float,
    rhs: ScalarModeProfile,
    bc_kind: str,
    bc_value: complex = 0.0,
) -> ScalarModeProfile:
    """Solve  a q - b q'' = rhs  on (0, inf), decaying, with one condition at 0.

    bc_kind 'dirichlet' prescribes q(0) = bc_value; 'neumann' prescribes
    q'(0) = bc_value.  The particular solution is the free-space kernel
    convolution q_p = (2 b m)^{-1} int e^{-m|y-eta|} rhs, m = sqrt(a/b); the
    decaying homogeneous solution C e^{-m y} matches the boundary value.
    Requires Re a > 0 and b > 0 (so Re m > 0).
    """
    a = complex(a)
    b = float(b)
    if b <= 0.0:
        raise ProfileError(f"diffusivity must be positive, got b = {b}")
    if a.real <= 0.0:
        raise ZeroModeError(
            f"decaying Helmholtz solve needs Re a > 0, got a = {a} "
            "(the xi = 0 mode must be handled by its own 1-d routine)"
        )
    m = cmath.sqrt(a / b)
    q_p = (1.0 / (2.0 * b * m)) * convolve_abs_exp(m, rhs)
    if bc_kind == "dirichlet":
        c = complex(bc_value) - q_p(0.0)
    elif bc_kind == "neumann":
        c = (q_p.derivative()(0.0) - complex(bc_value)) / m
    else:
        raise ProfileError(f"bc_kind must be 'dirichlet' or 'neumann', got {bc_kind!r}")
    return q_p + ScalarModeProfile.single(rhs.xi, c, m)
