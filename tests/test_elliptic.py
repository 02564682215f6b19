"""Halfline elliptic solves, boundary extensions, and the two projections."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import complex_amp, draw_mode, random_profile, standard_mode
from stokesbc import (
    ProfileError,
    dirichlet_extend_mode,
    divergence_pressure_mode,
    helmholtz_project_mode,
    neumann_extend_mode,
    solve_elliptic_mode,
    weyl_project_mode,
)
from stokesbc.elliptic import mode_pairing_sides
from stokesbc.profiles import ScalarModeProfile, VectorModeProfile, gradient

Y = np.linspace(0.0, 15.0, 61)


def sup(profile_or_vec):
    vals = (
        profile_or_vec.evaluate(Y)
        if isinstance(profile_or_vec, VectorModeProfile)
        else profile_or_vec(Y)
    )
    return np.max(np.abs(vals))


def elliptic_residual(xi_abs, q, rhs):
    resid = xi_abs**2 * q - q.derivative().derivative() - rhs
    return sup(resid)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["dirichlet", "neumann"]))
def test_solve_elliptic_mode(seed, kind):
    rng = np.random.default_rng(seed)
    mode = standard_mode(abs_xi=10.0 ** rng.uniform(-1.0, 1.0))
    rhs = random_profile(mode, rng, max_power=1)
    q = solve_elliptic_mode(mode.xi, rhs, kind)
    assert elliptic_residual(mode.abs_xi, q, rhs) < 1e-11 * (sup(rhs) + 1e-30)
    if kind == "dirichlet":
        assert abs(q(0.0)) < 1e-12 * (sup(q) + 1e-30)
    else:
        assert abs(q.derivative()(0.0)) < 1e-11 * (sup(q) + 1e-30)


@pytest.mark.parametrize("kind", ["dirichlet_zero", "neumann_zero"])
def test_solve_elliptic_mode_takes_the_helmholtz_kind_names(kind):
    mode = standard_mode(abs_xi=1.3)
    rhs = ScalarModeProfile.single(mode.xi, 1.0, 2.0)
    with pytest.raises(ProfileError, match="bc_kind must be 'dirichlet' or 'neumann'"):
        solve_elliptic_mode(mode.xi, rhs, kind)


def test_extensions_are_harmonic_with_datum():
    mode = standard_mode(abs_xi=1.3)
    h = 0.7 - 0.2j
    qd = dirichlet_extend_mode(mode.xi, h)
    assert qd(0.0) == pytest.approx(h, rel=1e-14)
    assert elliptic_residual(1.3, qd, ScalarModeProfile.zero(mode.xi)) < 1e-13

    qn = neumann_extend_mode(mode.xi, h)
    # datum is the inward flux -q'(0)
    assert -qn.derivative()(0.0) == pytest.approx(h, rel=1e-14)
    assert elliptic_residual(1.3, qn, ScalarModeProfile.zero(mode.xi)) < 1e-13


@given(st.integers(0, 2**32 - 1))
def test_divergence_pressure_potential(seed):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    g = random_profile(mode, rng, max_power=1)
    q = divergence_pressure_mode(mode, g)
    rho, mu = mode.constants.rho, mode.constants.mu
    rhs = (rho * mode.lambda_eps + mu * mode.abs_xi**2) * g - mu * g.derivative().derivative()
    assert abs(q(0.0)) < 1e-10 * (sup(q) + 1e-30)
    assert elliptic_residual(mode.abs_xi, q, rhs) < 1e-9 * (sup(rhs) + 1e-30)


@given(st.integers(0, 2**32 - 1))
def test_pairing_identity(seed):
    rng = np.random.default_rng(seed)
    mode = standard_mode(abs_xi=0.8)
    phi = random_profile(mode, rng, max_power=1)
    v = VectorModeProfile(
        mode.xi,
        (random_profile(mode, rng),),
        random_profile(mode, rng),
    )
    volume, boundary = mode_pairing_sides(phi, v)
    scale = abs(volume) + abs(boundary) + 1e-30
    assert abs(volume - boundary) < 1e-12 * scale


def random_vector_field(mode, rng):
    return VectorModeProfile(
        mode.xi,
        (random_profile(mode, rng, max_power=1),),
        random_profile(mode, rng, max_power=1),
    )


def divergence_free_field(mode, rng, zero_normal_trace=False):
    """Build v with div v = 0 from a normal component: v_t = i w' / xi."""
    xi = mode.xi[0]
    if zero_normal_trace:
        a, r1, r2 = complex_amp(rng), 0.5 + rng.uniform(0, 2), 1.1 + rng.uniform(0, 2)
        w = ScalarModeProfile(mode.xi, [(a, r1, 0), (-a, r2, 0)])
    else:
        w = random_profile(mode, rng, max_power=1)
    v_t = (1j / xi) * w.derivative()
    return VectorModeProfile(mode.xi, (v_t,), w)


@given(st.integers(0, 2**32 - 1))
def test_projections_idempotent(seed):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    f = random_vector_field(mode, rng)
    for project in (weyl_project_mode, helmholtz_project_mode):
        once = project(f)
        twice = project(once)
        gap = np.max(np.abs(twice.evaluate(Y) - once.evaluate(Y)))
        assert gap < 1e-11 * (sup(once) + 1e-30)


@given(st.integers(0, 2**32 - 1))
def test_weyl_annihilates_zero_trace_gradients(seed):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    a, r1, r2 = complex_amp(rng), 0.4 + rng.uniform(0, 2), 1.2 + rng.uniform(0, 2)
    q = ScalarModeProfile(mode.xi, [(a, r1, 0), (-a, r2, 0)])  # q(0) = 0
    f = gradient(q)
    assert sup(weyl_project_mode(f)) < 1e-11 * (sup(f) + 1e-30)


@given(st.integers(0, 2**32 - 1))
def test_helmholtz_annihilates_all_gradients(seed):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    q = random_profile(mode, rng, max_power=1)  # arbitrary trace
    f = gradient(q)
    assert sup(helmholtz_project_mode(f)) < 1e-11 * (sup(f) + 1e-30)


@given(st.integers(0, 2**32 - 1))
def test_projections_preserve_divergence_free(seed):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    # Weyl fixes any decaying solenoidal field; Helmholtz additionally
    # requires a vanishing normal trace (its range has none).
    for project, zero_trace in (
        (weyl_project_mode, False),
        (helmholtz_project_mode, True),
    ):
        f = divergence_free_field(mode, rng, zero_normal_trace=zero_trace)
        out = project(f)
        gap = np.max(np.abs(out.evaluate(Y) - f.evaluate(Y)))
        assert gap < 1e-13 * (sup(f) + 1e-30)


@given(st.integers(0, 2**32 - 1))
def test_projection_outputs_divergence_free(seed):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    f = random_vector_field(mode, rng)
    for project in (weyl_project_mode, helmholtz_project_mode):
        out = project(f)
        assert sup(out.divergence()) < 1e-10 * (
            sup(f) * max(mode.abs_xi, 1.0) + 1e-30
        )


@given(st.integers(0, 2**32 - 1))
def test_helmholtz_output_has_zero_normal_trace(seed):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    f = random_vector_field(mode, rng)
    out = helmholtz_project_mode(f)
    assert abs(out.normal(0.0)) < 1e-11 * (sup(f) + 1e-30)
