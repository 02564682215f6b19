"""Reflection kernels, the kernel-route velocity solve, and trace relations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import draw_mode, random_profile, standard_mode
from stokesbc import (
    KernelSpec,
    QuadratureCfg,
    apply_kernel,
    derive_mode,
    dirichlet_extend_mode,
    eval_kernel,
    kernel_weight,
    oracle_fd_solve,
    parabolic_solve_mode,
    trace_multiplier,
    verify_trace_relations,
)
from stokesbc.parabolic import eval_kernel_dy
from stokesbc.profiles import ScalarModeProfile

SQRT2 = math.sqrt(2.0)
Y = np.linspace(0.0, 10.0, 41)

KINDS = ("G", "G_plus", "G_minus", "Kv_plus", "Kv_minus", "Kw_plus", "Kw_minus")


def test_kernel_weights_standard_mode():
    mode = standard_mode()  # omega = sqrt(2), |zeta| = 1
    assert kernel_weight("G", mode) == pytest.approx(0.5)
    assert kernel_weight("G_plus", mode) == 0.0
    assert kernel_weight("G_minus", mode) == 1.0
    assert kernel_weight("Kv_plus", mode) == pytest.approx((SQRT2 + 1.0) / 3.0)
    assert kernel_weight("Kv_minus", mode) == pytest.approx(-(SQRT2 + 1.0))
    assert kernel_weight("Kw_plus", mode) == pytest.approx(-(SQRT2 - 1.0) / 3.0)
    assert kernel_weight("Kw_minus", mode) == pytest.approx(-(SQRT2 + 1.0))


def test_unknown_kernel_kind_rejected():
    with pytest.raises(ValueError):
        KernelSpec("bogus", standard_mode())


def test_kernel_symmetry_and_wall_rows():
    mode = standard_mode()
    y = np.linspace(0.0, 5.0, 11)
    eta = np.linspace(0.0, 5.0, 11)[::-1]
    for kind in KINDS:
        spec = KernelSpec(kind, mode)
        assert np.allclose(
            eval_kernel(spec, y, eta), eval_kernel(spec, eta, y), rtol=1e-14
        )
    # G_- vanishes on the wall, G_+ has vanishing normal derivative there
    # (away from the corner y = eta = 0, where the kink meets the wall)
    eta_pos = np.linspace(0.25, 5.0, 10)
    gm = KernelSpec("G_minus", mode)
    gp = KernelSpec("G_plus", mode)
    assert np.max(np.abs(eval_kernel(gm, 0.0, eta_pos))) < 1e-15
    assert np.max(np.abs(eval_kernel_dy(gp, 0.0, eta_pos))) < 1e-15


def test_neumann_kernel_wall_integral_standard_mode():
    # int_0^inf G_+(0, eta) e^{-eta} d eta = 1 / (2 + sqrt(2))
    mode = standard_mode()
    rhs = ScalarModeProfile(mode.xi, [(1.0, 1.0, 0)])
    app = apply_kernel(KernelSpec("G_plus", mode), rhs, np.array([0.0]))
    assert app.values[0] == pytest.approx(1.0 / (2.0 + SQRT2), rel=1e-10)
    assert app.max_mismatch < 1e-9


@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
def test_apply_kernel_dual_route_agrees(seed, kind):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    rhs = random_profile(mode, rng, max_power=1)
    y = np.linspace(0.0, 6.0 / max(mode.rate_slow, 0.5), 9)
    app = apply_kernel(KernelSpec(kind, mode), rhs, y, QuadratureCfg(rel_tol=1e-11))
    closed_vals = app.closed_form(app.y)
    scale = np.max(np.abs(app.values)) + 1e-30
    assert np.max(np.abs(app.values - closed_vals)) < 1e-8 * scale
    assert app.max_mismatch < 1e-7


@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
def test_kernel_inverts_fast_operator(seed, kind):
    """q = K rhs solves omega^2 q - mu q'' = rhs (all kinds share G's bulk)."""
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    rhs = random_profile(mode, rng, max_power=1)
    app = apply_kernel(KernelSpec(kind, mode), rhs, np.array([0.0]))
    q = app.closed_form
    mu = mode.constants.mu
    resid = mode.omega**2 * q - mu * q.derivative().derivative() - rhs
    y = np.linspace(0.0, 8.0, 33)
    scale = np.max(np.abs(rhs(y))) + 1e-30
    assert np.max(np.abs(resid(y))) < 1e-9 * scale


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, -1]))
def test_kernel_route_velocity_contract(seed, alpha):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    pressure = dirichlet_extend_mode(mode.xi, complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)))
    vel = parabolic_solve_mode(mode, alpha, pressure, "dirichlet")
    mu = mode.constants.mu
    y = np.linspace(0.0, 6.0 / max(min(mode.rate_slow, mode.rate_fast.real), 0.4), 33)
    scale = np.max(np.abs(vel.evaluate(y))) * abs(mode.omega**2) + 1e-30

    v, w = vel.tangential[0], vel.normal
    grad_p = (1j * mode.xi[0]) * pressure
    resid_t = mode.omega**2 * v - mu * v.derivative().derivative() + grad_p
    resid_n = mode.omega**2 * w - mu * w.derivative().derivative() + pressure.derivative()
    assert np.max(np.abs(resid_t(y))) < 1e-9 * scale
    assert np.max(np.abs(resid_n(y))) < 1e-9 * scale

    vel_scale = np.max(np.abs(vel.evaluate(y))) + 1e-30
    assert np.max(np.abs(vel.divergence()(y))) < 1e-10 * vel_scale * max(mode.abs_xi, 1.0)
    if alpha == 0:
        assert abs(v(0.0)) < 1e-10 * vel_scale
    else:
        row = -alpha * mu * v.derivative()(0.0) - mu * 1j * mode.xi[0] * w(0.0)
        assert abs(row) < 1e-10 * vel_scale * mu * max(mode.abs_xi, abs(mode.rate_fast), 1.0)


def test_fd_oracle_grids_nest_and_rows_hold():
    mode = derive_mode(standard_mode().constants, 0.3j, (1.0,))
    pressure = dirichlet_extend_mode(mode.xi, 1.0 + 0.5j)
    coarse = oracle_fd_solve(mode, 1, pressure, 129)
    fine = oracle_fd_solve(mode, 1, pressure, 257)
    assert np.allclose(fine.y[::2], coarse.y, rtol=0.0, atol=1e-12)
    assert coarse.y[0] == 0.0 and coarse.y[-1] == pytest.approx(25.0)
    # truncation rows are homogeneous Dirichlet
    assert abs(coarse.w[-1]) < 1e-14
    assert np.max(np.abs(coarse.v_tangential[:, -1])) < 1e-14


def test_fd_oracle_tracks_kernel_route():
    mode = derive_mode(standard_mode().constants, 0.3j, (1.0,))
    pressure = dirichlet_extend_mode(mode.xi, 1.0 + 0.5j)
    closed = parabolic_solve_mode(mode, 0, pressure, "dirichlet")
    orc = oracle_fd_solve(mode, 0, pressure, 257)
    got = np.vstack([orc.v_tangential, orc.w[None, :]])
    want = np.vstack(
        [[t(orc.y) for t in closed.tangential], closed.normal(orc.y)[None, :]]
    )
    # second-order oracle on 257 points: agreement well under a part in 1e4
    assert np.max(np.abs(got - want)) < 1e-4 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "relation, alphas",
    [("T00", (0,)), ("T10", (1, -1)), ("T11", (0, 1, -1))],
)
def test_trace_relations_smoke(relation, alphas):
    rng = np.random.default_rng(99)
    modes = [draw_mode(rng) for _ in range(4)]
    for alpha in alphas:
        report = verify_trace_relations(modes, alpha, relation, rel_tol=1e-7)
        assert report.passed
        assert report.n_modes == 4
        assert len(report.entries) == 4
        assert report.max_rel_error < 1e-7
        assert report.worst in report.entries
        for entry in report.entries:
            assert set(entry) >= {
                "abs_xi", "lambda_re", "lambda_im", "rho", "mu", "epsilon", "rel_error",
            }


def test_trace_relation_rejects_unknown_alpha():
    with pytest.raises(Exception):
        verify_trace_relations([standard_mode()], 1, "T00")
