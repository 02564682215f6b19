"""Adaptive Gauss-Kronrod integration on finite windows."""

import numpy as np
import pytest

from helpers import reference_adaptive_integrate
from stokesbc import QuadratureBudgetError, QuadratureCfg, adaptive_integrate
from stokesbc.quadrature import adaptive_integrate_stack, gauss_kronrod_15

# a stack of decaying oscillations e^{-s t} on [0, 40 / Re s], with
# rates spread over four decades
RATES = np.array([0.02 + 3.0j, 0.5, 1.0 - 7.0j, 4.0 + 0.5j, 30.0, 150.0 - 40.0j, 2.0])
UPPER = 40.0 / RATES.real


def decaying(rows, t):
    return np.exp(-RATES[rows, None] * t)


def test_kronrod_rule_exact_on_polynomials():
    # 15-point Kronrod is exact through degree 22
    for k in (0, 3, 10, 20):
        value, _ = gauss_kronrod_15(lambda t: t**k, 0.0, 1.0)
        assert value == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_kronrod_error_estimate_sane():
    value, err = gauss_kronrod_15(np.cos, 0.0, 1.0)
    assert value == pytest.approx(np.sin(1.0), rel=1e-15)
    assert 0.0 <= err < 1e-12


def test_adaptive_returns_value_estimate_count():
    value, err, n_subdiv = adaptive_integrate(np.exp, 0.0, 2.0, rel_tol=1e-12)
    assert value == pytest.approx(np.exp(2.0) - 1.0, rel=1e-13)
    assert err <= 1e-12 * abs(value) * 10.0
    assert n_subdiv >= 1


def test_adaptive_complex_oscillatory():
    # int_0^10 e^{i 7 t} e^{-t} dt = (1 - e^{-10(1 - 7i)}) / (1 - 7i)
    exact = (1.0 - np.exp(-10.0 * (1.0 - 7.0j))) / (1.0 - 7.0j)
    value, _, _ = adaptive_integrate(
        lambda t: np.exp((7.0j - 1.0) * t), 0.0, 10.0, rel_tol=1e-12
    )
    assert value == pytest.approx(exact, rel=1e-11)


def test_breakpoints_seed_the_subdivision():
    kink = np.pi / 4.0
    exact = 2.0 - np.exp(-kink) - np.exp(kink - 3.0)

    def f(t):
        return np.exp(-abs(t - kink))

    plain = adaptive_integrate(f, 0.0, 3.0, rel_tol=1e-13)
    seeded = adaptive_integrate(f, 0.0, 3.0, rel_tol=1e-13, breakpoints=(kink,))
    assert plain[0] == pytest.approx(exact, rel=1e-12)
    assert seeded[0] == pytest.approx(exact, rel=1e-12)
    # splitting at the kink should not need more work than discovering it
    assert seeded[2] <= plain[2]


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureBudgetError, match="subdivisions"):
        adaptive_integrate(
            lambda t: np.sin(50.0 * t) / (1e-3 + t),
            0.0,
            50.0,
            rel_tol=1e-13,
            max_subdivisions=3,
        )


def test_stack_equals_its_rows_run_one_at_a_time():
    kinks = np.linspace(0.1, 0.9, RATES.size) * UPPER
    for breakpoints in ((), (kinks,)):
        stack = adaptive_integrate_stack(
            decaying, 0.0, UPPER, rel_tol=1e-11, breakpoints=breakpoints
        )
        assert stack.rounds > 0
        for i in range(RATES.size):
            one = adaptive_integrate_stack(
                lambda rows, t: decaying(np.full_like(rows, i), t),
                0.0,
                UPPER[i],
                rel_tol=1e-11,
                breakpoints=[p[i : i + 1] for p in breakpoints],
            )
            assert one.value[0] == stack.value[i]
            assert one.error[0] == stack.error[i]
            assert one.intervals[0] == stack.intervals[i]
            assert one.panel_evals[0] == stack.panel_evals[i]


def test_stack_matches_the_one_integrand_reference_loop():
    rel_tol = 1e-10
    stack = adaptive_integrate_stack(decaying, 0.0, UPPER, rel_tol=rel_tol)
    exact = (1.0 - np.exp(-RATES * UPPER)) / RATES
    for i, rate in enumerate(RATES):
        ref, _, ref_intervals = reference_adaptive_integrate(
            lambda t: np.exp(-rate * t), 0.0, UPPER[i], rel_tol
        )
        assert abs(stack.value[i] - ref) <= rel_tol * abs(ref)
        assert abs(stack.value[i] - exact[i]) <= rel_tol * abs(exact[i])
        assert stack.intervals[i] == ref_intervals
        assert stack.panel_evals[i] == 2 * ref_intervals - 1


def test_one_row_over_budget_fails_a_mixed_stack():
    def mixed(rows, t):
        hard = np.sin(50.0 * t) / (1e-3 + t)
        return np.where((rows == 2)[:, None], hard, np.exp(-t))

    budget = {"rel_tol": 1e-13, "max_subdivisions": 3}
    # the two easy rows meet rel_tol within the budget on their own...
    assert adaptive_integrate_stack(mixed, 0.0, [4.0, 4.0], **budget).rounds <= 3
    # ...the third does not, and its budget fails the whole stack
    with pytest.raises(QuadratureBudgetError, match=r"3 subdivisions .*integrand 2 of 3"):
        adaptive_integrate_stack(mixed, 0.0, [4.0, 4.0, 50.0], **budget)


def test_cfg_defaults():
    cfg = QuadratureCfg()
    assert cfg.rel_tol == 1e-10
    assert cfg.truncation_multiplier == 40.0
    assert cfg.max_subdivisions == 2000
