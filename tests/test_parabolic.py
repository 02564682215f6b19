"""Reflection kernels, the kernel-route velocity solve, and trace relations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    draw_mode,
    random_profile,
    reference_adaptive_integrate,
    standard_mode,
)
from stokesbc import (
    FluidConstants,
    KernelSpec,
    ModeBatch,
    QuadratureCfg,
    apply_kernel,
    derive_mode,
    dirichlet_extend_mode,
    eval_kernel,
    kernel_weight,
    neumann_extend_mode,
    oracle_fd_solve,
    parabolic_solve_mode,
    trace_multiplier,
    verify_trace_relations,
)
from stokesbc.parabolic import (
    ALPHA_KERNELS,
    REPORT_COLUMNS,
    TRACE_RELATIONS,
    VerificationReport,
    _kernel_values,
    _wall_traces,
    eval_kernel_dy,
)
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
    vel = parabolic_solve_mode(mode, alpha, pressure)
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
    closed = parabolic_solve_mode(mode, 0, pressure)
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
        assert report.max_rel_error < 1e-7
        assert report.intervals.shape == (4,)
        worst = report.worst
        assert list(worst) == [
            "abs_xi", "lambda_re", "lambda_im", "rho", "mu", "epsilon", "rel_error",
        ]
        for name, value in worst.items():
            assert type(value) is float
            assert value in getattr(report, name).tolist()


@pytest.mark.parametrize("empty", [[], "batch"])
def test_no_modes_give_an_empty_passing_report(empty):
    if empty == "batch":
        empty = ModeBatch(*(np.zeros(0) for _ in range(3)), np.zeros(0, complex), np.zeros((0, 1)))
    for relation, (_, alphas) in TRACE_RELATIONS.items():
        for alpha in alphas:
            report = verify_trace_relations(empty, alpha, relation)
            assert report.n_modes == 0 and report.max_rel_error == 0.0
            assert report.passed and report.worst == {}
            assert report.intervals.shape == (0,) and report.panel_evals == 0


def _report_of_errors(*errors):
    n = len(errors)
    columns = {name: np.zeros(n) for name in REPORT_COLUMNS}
    columns.update(abs_xi=np.arange(float(n)), rel_error=np.array(errors, dtype=float))
    return VerificationReport("T00", 0, 1e-7, **columns, intervals=np.ones(n, dtype=int))


def test_worst_breaks_last_bit_ties_by_the_lowest_index():
    low = 3.5e-15
    high = math.nextafter(low, 1.0)
    # the worst mode is the first of two rows one ulp apart, in either order
    assert _report_of_errors(low, high).worst["abs_xi"] == 0.0
    assert _report_of_errors(high, low).worst["abs_xi"] == 0.0
    # a maximum clear of the 1e-12 window still wins from any position
    assert _report_of_errors(low, low * (1.0 + 1e-9)).worst["abs_xi"] == 1.0
    assert _report_of_errors(0.0, 0.0).worst["abs_xi"] == 0.0
    assert _report_of_errors(low, math.nan, 1.0).worst["abs_xi"] == 1.0
    assert _report_of_errors().worst == {}


def test_trace_relation_rejects_unknown_alpha():
    with pytest.raises(Exception):
        verify_trace_relations([standard_mode()], 1, "T00")


# verify_traces.csv modes, as (relation, alpha, (rho, mu, epsilon, lambda, xi)),
# that the old window 40 / min(Re m, |xi|) got wrong.  At |xi| ~ 0.01 it is
# ~3000 long, and its one GK15 panel puts no node in the wall layer of width
# 1 / Re m.
OLD_WORST = (  # rel_error 8.1e-8, then the default run's worst
    "T11",
    -1,
    (5.473706133907765, 0.15105829980491725, 100.0, 41.49577493052249j, (0.012633950757312913,)),
)
WHOLE_MISS = (  # rel_error 1.0: the quadrature read 0
    "T00",
    0,
    (5.014920007632094, 0.1851475815412439, 100.0, 83.09002571720316j, (0.010486009520697554,)),
)
# rel_error 9.8e-11 while the alpha = -1 weights divided by omega^2 - |zeta|^2:
# rho lambda_eps = 0.0014 + 0.0042i against mu |xi|^2 = 2e4
CANCELLING = (
    "T10",
    -1,
    (0.13952603799440658, 5.329057917329285, 0.01, 0.030053457457912547j, (61.13223189164777,)),
)

WALL_CHECKS = [("T00", 0), ("T10", 1), ("T10", -1), ("T11", 0), ("T11", 1), ("T11", -1)]


def logged_mode(row):
    rho, mu, epsilon, lam, xi = row[2]
    return derive_mode(FluidConstants(rho, mu, epsilon), lam, xi)


@pytest.mark.parametrize("row, old_error", [(OLD_WORST, 1e-8), (WHOLE_MISS, 0.5)])
def test_trace_window_is_the_decay_sum(row, old_error):
    relation, alpha, _ = row
    mode = logged_mode(row)
    assert verify_trace_relations([mode], alpha, relation).max_rel_error < 1e-10
    # the min-rate window, reached through the multiplier, still misses
    m, r = mode.rate_fast.real, mode.abs_xi
    old = QuadratureCfg(truncation_multiplier=40.0 * (m + r) / min(m, r))
    missed = verify_trace_relations([mode], alpha, relation, cfg=old)
    assert missed.max_rel_error > old_error


def test_minus_kernel_weights_divide_by_the_stable_rho_lambda():
    relation, alpha, _ = CANCELLING
    mode = logged_mode(CANCELLING)
    assert verify_trace_relations([mode], alpha, relation).max_rel_error < 1e-13


def test_apply_kernel_window_is_the_decay_sum():
    mode = logged_mode(OLD_WORST)
    rhs = dirichlet_extend_mode(mode.xi, 1.0).derivative()
    y = np.array([0.0, 0.01, 1.0, 10.0])
    for kind in ("G_plus", "Kw_minus"):
        # 1.0 with the min-rate tail: the panel past eta = y missed the layer
        assert apply_kernel(KernelSpec(kind, mode), rhs, y).max_mismatch < 1e-10


def _sweep_modes():
    rng = np.random.default_rng(7)
    drawn = [draw_mode(rng) for _ in range(10)]
    return drawn + [logged_mode(OLD_WORST), logged_mode(WHOLE_MISS)]


@pytest.mark.parametrize("relation, alpha", WALL_CHECKS)
def test_trace_sweep_equals_its_modes_one_at_a_time(relation, alpha):
    modes = _sweep_modes()
    stack = verify_trace_relations(modes, alpha, relation)
    for i, mode in enumerate(modes):
        one = verify_trace_relations([mode], alpha, relation)
        assert one.rel_error.tolist() == [stack.rel_error[i]]
        assert one.intervals.tolist() == [stack.intervals[i]]


def test_stacked_wall_traces_match_the_scalar_loop():
    """Per mode, the stack agrees with one GK15 loop over the scalar kernel
    and profile on the same window, to the quadrature rel_tol."""
    cfg = QuadratureCfg()
    modes = _sweep_modes()
    batch = ModeBatch.from_modes(modes)
    for relation, alpha in WALL_CHECKS:
        dirichlet = TRACE_RELATIONS[relation][0] == 1
        kind = ALPHA_KERNELS[alpha][1]
        quad = _wall_traces(batch, kind, dirichlet, cfg)
        kernel = eval_kernel_dy if dirichlet else eval_kernel
        extend = dirichlet_extend_mode if dirichlet else neumann_extend_mode
        for mode, value in zip(modes, quad.value):
            spec = KernelSpec(kind, mode)
            source = extend(mode.xi, 1.0).derivative()
            upper = cfg.truncation_multiplier / (mode.rate_fast.real + mode.abs_xi)
            ref, _, _ = reference_adaptive_integrate(
                lambda eta: kernel(spec, 0.0, eta) * source(eta), 0.0, upper, cfg.rel_tol
            )
            assert abs(value - ref) <= cfg.rel_tol * abs(ref)


@pytest.mark.parametrize("dy", [False, True])
@pytest.mark.parametrize("stacked", [True, False])
def test_wall_kernel_values_are_the_two_exponential_expression(dy, stacked):
    """On the wall row y = 0 the kernel takes one exponential for both terms,
    in place; the values keep, bit for bit, those of the expression with
    e^{-m|y - eta|} and e^{-m(y + eta)} taken separately, eta = 0 included."""
    rng = np.random.default_rng(26 + 2 * dy + stacked)
    rows = 40 if stacked else 1

    def draw_complex(lo, hi):
        return rng.uniform(lo, hi, (rows, 1)) + 1j * rng.uniform(-10.0, 10.0, (rows, 1))

    m, r, pref = draw_complex(0.01, 10.0), draw_complex(-5.0, 5.0), draw_complex(-5.0, 5.0)
    eta = rng.uniform(0.0, 50.0, (rows, 15))
    eta[0, [0, 7]] = 0.0
    if not stacked:
        # one mode's scalars against a line of nodes, as eval_kernel passes them
        m, r, pref, eta = m.item(), r.item(), pref.item(), eta[0]

    base = np.exp(-m * np.abs(0.0 - eta))
    refl = np.exp(-m * (0.0 + eta))
    if dy:
        base = -m * np.sign(0.0 - eta) * base
        refl = -m * refl
    expected = pref * (base + r * refl)

    got = _kernel_values(m, r, pref, 0.0, eta, dy)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
