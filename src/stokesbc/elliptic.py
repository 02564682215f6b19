"""Mode-level weak Dirichlet/Neumann problems, Helmholtz-type projections,
and the divergence-adjusting pressure.

All routines act per tangential mode xi != 0 on decaying exponential-sum
profiles over y in (0, inf).  The mode Laplacian is d_y^2 - |xi|^2, so the
sign convention throughout is

    solve_elliptic_mode:   |xi|^2 q - q'' = rhs     (i.e. -lap q = rhs)

with either a zero Dirichlet trace q(0) = 0 or a zero Neumann datum
q'(0) = 0: the kinds 'dirichlet' and 'neumann' of
profiles.helmholtz_solve_mode, which every half-line solve shares.
Equivalent Green kernels on the half-line:

    k_-(y, eta) = (1/2|xi|) (e^{-|xi||y-eta|} - e^{-|xi|(y+eta)})   (Dirichlet)
    k_+(y, eta) = (1/2|xi|) (e^{-|xi||y-eta|} + e^{-|xi|(y+eta)})   (Neumann)

(the implementation uses the free kernel plus a decaying homogeneous
correction, which is the same thing written as image charges).

Projections.  With G the class of gradients of zero-trace potentials and S
the class of divergence-free fields with vanishing normal trace:

    weyl_project_mode(f)      = f - grad q,  where |xi|^2 q - q'' = -div f,
                                q(0) = 0     (kills G, output divergence-free)
    helmholtz_project_mode(f) = f - grad q,  where |xi|^2 q - q'' = -div f,
                                q'(0) = f_n(0)   (kills all decaying
                                gradients, output in S)

Divergence-adjusting pressure.  Given mode data (mode, g) the two-step
construction is

    (i)  q_N:  q_N'' - |xi|^2 q_N = g,  q_N'(0) = 0   (potential of the
         pairing datum (g, eta); the eta-dependence drops out below, so
         eta = 0 is used),
    (ii) C := (omega^2 - mu d_y^2) grad q_N,   q := the zero-trace potential
         with grad q = -(I - W) C,

so that  |xi|^2 q - q'' = (rho lambda_eps + mu(|xi|^2 - d_y^2)) g  and
q(0) = 0.  Step (ii) is the resolvent transport of the potential, projected
onto the gradient complement of the Weyl projection.
"""

from __future__ import annotations

from .errors import ZeroModeError
from .profiles import (
    ScalarModeProfile,
    VectorModeProfile,
    gradient,
    helmholtz_solve_mode,
)
from .symbols import ModeParams

__all__ = [
    "dirichlet_extend_mode",
    "neumann_extend_mode",
    "solve_elliptic_mode",
    "weyl_project_mode",
    "helmholtz_project_mode",
    "divergence_pressure_mode",
    "mode_pairing_sides",
]


def _abs_xi(xi) -> float:
    return ScalarModeProfile.zero(xi).abs_xi


def _require_nonzero(xi) -> float:
    r = _abs_xi(xi)
    if r == 0.0:
        raise ZeroModeError(
            "elliptic mode solves need |xi| > 0; route the mean mode through "
            "a dedicated 1-d treatment"
        )
    return r


def dirichlet_extend_mode(xi, h: complex) -> ScalarModeProfile:
    """Decaying harmonic extension with trace h: q(y) = h e^{-|xi| y}."""
    r = _require_nonzero(xi)
    return ScalarModeProfile.single(xi, complex(h), r)


def neumann_extend_mode(xi, h: complex) -> ScalarModeProfile:
    """Decaying harmonic extension whose outward normal derivative at the
    wall (outer normal -e_y) is h:  q(y) = (h/|xi|) e^{-|xi| y}, so
    -d_y q(0) = h."""
    r = _require_nonzero(xi)
    return ScalarModeProfile.single(xi, complex(h) / r, r)


def solve_elliptic_mode(xi, rhs: ScalarModeProfile, bc_kind: str) -> ScalarModeProfile:
    """Solve |xi|^2 q - q'' = rhs, decaying, with a homogeneous boundary row.

    bc_kind names the row as helmholtz_solve_mode does: 'dirichlet'
    (q(0) = 0) or 'neumann' (q'(0) = 0); any other kind raises its
    ProfileError.
    """
    r = _require_nonzero(xi)
    return helmholtz_solve_mode(r * r, 1.0, rhs, bc_kind, 0.0)


def weyl_project_mode(f: VectorModeProfile) -> VectorModeProfile:
    """Remove the zero-trace gradient part: output is divergence-free."""
    q = solve_elliptic_mode(f.xi, -1.0 * f.divergence(), "dirichlet")
    return f - gradient(q)


def helmholtz_project_mode(f: VectorModeProfile) -> VectorModeProfile:
    """Remove the full gradient part: output is divergence-free with zero
    normal trace."""
    r = _require_nonzero(f.xi)
    rhs = -1.0 * f.divergence()
    q = helmholtz_solve_mode(r * r, 1.0, rhs, "neumann", f.normal(0.0))
    return f - gradient(q)


def divergence_pressure_mode(mode: ModeParams, g: ScalarModeProfile) -> ScalarModeProfile:
    """Zero-trace pressure potential absorbing a divergence datum g.

    Returns q with  |xi|^2 q - q'' = (rho lambda_eps + mu(|xi|^2 - d_y^2)) g
    and q(0) = 0, built by the two-step construction documented in the
    module docstring (Neumann potential of g, resolvent transport,
    Weyl-complement extraction).
    """
    if tuple(g.xi) != tuple(mode.xi):
        raise ValueError(f"mode/profile xi mismatch: {mode.xi} vs {g.xi}")
    _require_nonzero(mode.xi)
    mu = mode.constants.mu

    # (i) q_N'' - |xi|^2 q_N = g with q_N'(0) = 0
    q_n = solve_elliptic_mode(mode.xi, -1.0 * g, "neumann")

    # (ii) transport by the shifted resolvent symbol and keep the gradient part
    grad_qn = gradient(q_n)
    omega_sq = mode.omega**2
    c = VectorModeProfile(
        mode.xi,
        tuple(
            omega_sq * comp - mu * comp.derivative().derivative()
            for comp in grad_qn.tangential
        ),
        omega_sq * grad_qn.normal - mu * grad_qn.normal.derivative().derivative(),
    )
    # grad q = -(I - W) C = -grad q_c with q_c the zero-trace potential of C
    q_c = solve_elliptic_mode(mode.xi, -1.0 * c.divergence(), "dirichlet")
    return -1.0 * q_c


def mode_pairing_sides(
    phi: ScalarModeProfile, v: VectorModeProfile
) -> tuple[complex, complex]:
    """Both sides of the generalized partial integration at mode level.

    Returns (volume, boundary_minus_divergence) with

        volume   = int_0^inf [ (-i xi phi) . v_t + phi' v_n ] dy
        boundary = -phi(0) v_n(0) - int_0^inf phi (div v) dy,

    which agree identically; for divergence-free v the second term drops and
    the boundary side is the trace pairing [phi] [v].nu (outer normal -e_y).
    Closed-form integrals (exponential-sum products).
    """
    from .profiles import pair_integral

    volume = 0.0 + 0.0j
    for xij, comp in zip(phi.xi, v.tangential):
        volume += pair_integral((-1j * xij) * phi, comp)
    volume += pair_integral(phi.derivative(), v.normal)

    boundary = -phi(0.0) * v.normal(0.0) - pair_integral(phi, v.divergence())
    return volume, boundary
