"""Boundary-symbol assembly, closed-form inversion, trace multipliers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import ALL_BCS, SYMBOL_BCS, draw_mode, standard_mode
from stokesbc import (
    BcSpec,
    FluidConstants,
    InvalidModeError,
    ModeBatch,
    SingularModeError,
    UnsupportedCaseError,
    boundary_symbol,
    boundary_symbol_factors,
    closed_form_inverse,
    derive_mode,
    generic_inverse,
    solve_coefficients,
    trace_multiplier,
)
from stokesbc.halfspace import ModeSolution
from stokesbc.symbols import COND_WARN_THRESHOLD

SQRT2 = math.sqrt(2.0)

mode_st = st.builds(
    draw_mode, st.integers(0, 2**32 - 1).map(np.random.default_rng)
)


def test_derived_quantities():
    mode = derive_mode(FluidConstants(2.0, 3.0, 0.5), 1.0 + 4.0j, (1.5,))
    assert mode.lambda_eps == 1.5 + 4.0j
    assert mode.kappa == pytest.approx(2.0 * math.sqrt(3.0))
    # omega^2 - mu |xi|^2 = rho lambda_eps holds exactly by construction
    assert mode.omega**2 - 3.0 * 1.5**2 == pytest.approx(2.0 * (1.5 + 4.0j))
    assert mode.rate_fast == pytest.approx(mode.omega / math.sqrt(3.0))
    assert mode.rate_slow == pytest.approx(1.5)
    assert mode.abs_zeta == pytest.approx(math.sqrt(3.0) * 1.5)


@given(mode_st)
def test_omega_identity_over_box(mode):
    rho_lam = mode.constants.rho * mode.lambda_eps
    lhs = mode.omega**2 - mode.constants.mu * mode.abs_xi**2
    assert abs(lhs - rho_lam) <= 1e-13 * abs(mode.omega**2)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("slot", range(3))
def test_constants_validated(bad, slot):
    args = [1.0, 1.0, 1.0]
    args[slot] = bad
    with pytest.raises(InvalidModeError):
        FluidConstants(*args)


@pytest.mark.parametrize("lam", [-2.0, -1e-3 + 5.0j, complex("nan")])
def test_bad_lambda_rejected(lam):
    with pytest.raises(InvalidModeError):
        derive_mode(FluidConstants(1.0, 1.0, 1.0), lam, (1.0,))


def test_mode_without_tangential_component_rejected():
    with pytest.raises(InvalidModeError, match="n >= 2"):
        derive_mode(FluidConstants(1, 1, 1), 0.0, ())
    ones = np.ones(3)
    batch = ModeBatch(ones, ones, ones, ones.astype(complex), np.empty((3, 0)))
    with pytest.raises(InvalidModeError, match="n >= 2"):
        batch.check_admissible()


def test_overflowing_symbols_rejected():
    # finite parameters whose |xi|^2 or omega^2 = rho lambda_eps + mu |xi|^2
    # is past the largest double
    with pytest.raises(InvalidModeError, match=r"\|xi\|\^2 must be finite, got inf at mode 0"):
        derive_mode(FluidConstants(1.0, 1.0, 1.0), 0.0, (1e300,))
    with pytest.raises(InvalidModeError, match="omega must be finite"):
        derive_mode(FluidConstants(10.0, 1.0, 1.0), 1e308j, (1.0,))


def test_bc_spec_validated():
    with pytest.raises(UnsupportedCaseError):
        BcSpec(2, 0)
    with pytest.raises(UnsupportedCaseError):
        BcSpec(0, -2)


def test_classes_and_forms_follow_from_the_wall_rows():
    # (alpha, beta, preservation_class, adapted_form), in ALL_BCS order
    assert [(*bc, bc.preservation_class, bc.adapted_form) for bc in ALL_BCS] == [
        (0, 0, "B1", "S"), (1, 0, "B1", "S"), (-1, 0, "B1", "T"),
        (0, 1, "B2", "S"), (1, 1, "B2", "S"), (-1, 1, "B3", "T"),
        (0, -1, "B2", "T"), (1, -1, "B3", "T"), (-1, -1, "B2", "T"),
    ]
    assert [tuple(bc) for bc in SYMBOL_BCS] == [
        (0, 0), (1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1),
    ]


@given(mode_st, st.sampled_from(SYMBOL_BCS))
def test_symbol_factorization(mode, bc):
    d, m = boundary_symbol_factors(mode, bc)
    b = boundary_symbol(mode, bc)
    assert np.allclose(np.diag(d) @ m, b, rtol=1e-14, atol=0.0)


@given(mode_st, st.sampled_from(SYMBOL_BCS), st.integers(0, 2**32 - 1))
def test_symbol_maps_coefficients_to_boundary_rows(mode, bc, seed):
    """B [z_v; z_w] must equal the assembled solution's boundary rows."""
    rng = np.random.default_rng(seed)
    z_v = rng.uniform(-1, 1, mode.n - 1) + 1j * rng.uniform(-1, 1, mode.n - 1)
    z_w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    sol = ModeSolution.from_coefficients(mode, bc, z_v, z_w)
    b = boundary_symbol(mode, bc)
    lhs = b @ np.concatenate([z_v, [z_w]])
    rows = np.concatenate([sol.tangential_row(), [sol.normal_row()]])
    scale = np.max(np.abs(b)) * max(np.max(np.abs(z_v)), abs(z_w))
    assert np.max(np.abs(lhs - rows)) < 1e-13 * scale


@given(mode_st, st.sampled_from(SYMBOL_BCS))
def test_closed_inverse_is_inverse(mode, bc):
    b = boundary_symbol(mode, bc)
    x = closed_form_inverse(mode, bc)
    eye = np.eye(b.shape[0])
    scale = np.max(np.abs(b)) * np.max(np.abs(x))
    assert np.max(np.abs(b @ x - eye)) < 1e-12 * scale
    assert np.max(np.abs(x @ b - eye)) < 1e-12 * scale


@given(mode_st, st.sampled_from(SYMBOL_BCS))
def test_closed_inverse_matches_generic(mode, bc):
    x = closed_form_inverse(mode, bc)
    g = generic_inverse(mode, bc)
    assert np.max(np.abs(x - g)) < 1e-10 * np.max(np.abs(g))


def test_closed_inverse_standard_mode_exact():
    mode = standard_mode()
    for bc in SYMBOL_BCS:
        b = boundary_symbol(mode, bc)
        x = closed_form_inverse(mode, bc)
        assert np.max(np.abs(b @ x - np.eye(2))) < 1e-14


def test_mean_mode_is_singular_for_velocity_dirichlet():
    mode = derive_mode(FluidConstants(1.0, 1.0, 1.0), 0.5, (0.0,))
    for alpha in (0, 1, -1):
        with pytest.raises(SingularModeError):
            closed_form_inverse(mode, BcSpec(alpha, 0))
    # the traction-type normal rows stay regular at xi = 0
    for alpha in (0, 1, -1):
        x = closed_form_inverse(mode, BcSpec(alpha, 1))
        b = boundary_symbol(mode, BcSpec(alpha, 1))
        assert np.max(np.abs(b @ x - np.eye(2))) < 1e-13


def test_pressure_dirichlet_has_no_symbol():
    mode = standard_mode()
    for alpha in (0, 1, -1):
        with pytest.raises(UnsupportedCaseError):
            boundary_symbol(mode, BcSpec(alpha, -1))
        with pytest.raises(UnsupportedCaseError):
            closed_form_inverse(mode, BcSpec(alpha, -1))


def test_near_singular_mode_warns():
    # rho lambda_eps / omega^2 ~ 1e-14 drives cond(B) past the threshold
    mode = derive_mode(FluidConstants(1.0, 1.0, 1e-14), 0.0, (1.0,))
    assert COND_WARN_THRESHOLD == 1e12
    with pytest.warns(RuntimeWarning, match="poorly conditioned"):
        closed_form_inverse(mode, BcSpec(1, 1))


def test_trace_multiplier_standard_values():
    mode = standard_mode()  # omega = sqrt(2), |zeta| = 1
    assert trace_multiplier(mode, BcSpec(0, 0)) == pytest.approx(2.0 + SQRT2)
    assert trace_multiplier(mode, BcSpec(1, 0)) == pytest.approx(3.0)
    assert trace_multiplier(mode, BcSpec(-1, 0)) == pytest.approx(1.0)
    assert trace_multiplier(mode, BcSpec(0, 1)) == pytest.approx(1.0)
    assert trace_multiplier(mode, BcSpec(-1, 1)) == pytest.approx(1.0 / 3.0)
    # S^{+1} = (omega^2+|zeta|^2) / (rho lam_eps + 4 |zeta|^2 omega/(omega+|zeta|))
    expected = 3.0 / (1.0 + 4.0 * SQRT2 / (SQRT2 + 1.0))
    assert trace_multiplier(mode, BcSpec(1, 1)) == pytest.approx(expected)
    for alpha in (0, 1, -1):
        assert trace_multiplier(mode, BcSpec(alpha, -1)) == 1.0


@given(mode_st)
def test_velocity_trace_multipliers_from_rates(mode):
    om, az = mode.omega, mode.abs_zeta
    rho_lam = mode.constants.rho * mode.lambda_eps
    assert trace_multiplier(mode, BcSpec(0, 0)) == pytest.approx(om * (om + az))
    assert trace_multiplier(mode, BcSpec(1, 0)) == pytest.approx(om**2 + az**2)
    # omega^2 - |zeta|^2 collapses to rho lambda_eps; must be evaluated that way
    assert trace_multiplier(mode, BcSpec(-1, 0)) == pytest.approx(rho_lam)


@given(mode_st, st.sampled_from(SYMBOL_BCS), st.integers(0, 2**32 - 1))
def test_solve_coefficients_satisfies_symbol_rows(mode, bc, seed):
    rng = np.random.default_rng(seed)
    h_w = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    z_v, z_w = solve_coefficients(mode, bc, h_w)
    b = boundary_symbol(mode, bc)
    rhs = np.concatenate([np.zeros(mode.n - 1), [h_w]])
    got = b @ np.concatenate([z_v, [z_w]])
    scale = np.max(np.abs(b)) * max(np.max(np.abs(z_v)), abs(z_w))
    assert np.max(np.abs(got - rhs)) < 1e-12 * scale


def test_two_tangential_directions_supported():
    rng = np.random.default_rng(3)
    mode = draw_mode(rng, n_tangential=2)
    assert mode.n == 3
    for bc in SYMBOL_BCS:
        b = boundary_symbol(mode, bc)
        x = closed_form_inverse(mode, bc)
        scale = np.max(np.abs(b)) * np.max(np.abs(x))
        assert np.max(np.abs(b @ x - np.eye(3))) < 1e-12 * scale
        g = generic_inverse(mode, bc)
        assert np.max(np.abs(x - g)) < 1e-10 * np.max(np.abs(g))


# A mode of the verify-symbols sweep (seed 72, 1000 modes) where
# 1 - s^2 = rho lambda_eps / omega^2 is about 1.8e-7: a direct subtraction
# 1 - s s loses about u / |1 - s^2| there.
SEED72_MODE = dict(
    rho=0.18366498659748431,
    mu=1.3636371154272553,
    epsilon=0.01,
    lam=0.007318159016433956j,
    abs_xi=97.05313243217542,
)


def _seed72_mode():
    m = SEED72_MODE
    return derive_mode(FluidConstants(m["rho"], m["mu"], m["epsilon"]), m["lam"], (m["abs_xi"],))


def _generic_gap(mode, bc):
    x = closed_form_inverse(mode, bc)
    g = generic_inverse(mode, bc)
    return np.max(np.abs(x - g)) / np.max(np.abs(g))


@pytest.mark.parametrize("bc", SYMBOL_BCS, ids=str)
def test_closed_inverse_matches_generic_at_cancelling_mode(bc):
    assert _generic_gap(_seed72_mode(), bc) < 1e-10


def test_generic_gap_rejects_cancelling_closed_form(monkeypatch):
    """The oracle is sharp enough to catch 1 - s s in place of rho lambda_eps / omega^2."""
    from stokesbc import symbols

    mode = _seed72_mode()
    monkeypatch.setattr(symbols, "_one_minus_s2", lambda p: 1.0 - (p.abs_zeta / p.omega) ** 2)
    assert max(_generic_gap(mode, bc) for bc in SYMBOL_BCS) > 1e-10


@pytest.mark.parametrize("beta", [0, 1])
def test_antisymmetric_stress_row_is_stable(beta):
    """B's (-1, beta) tangential entry is sqrt(mu) omega^2 (1 - s^2) = sqrt(mu) rho lambda_eps."""
    m = SEED72_MODE
    expected = math.sqrt(m["mu"]) * m["rho"] * (m["epsilon"] + m["lam"])
    b = boundary_symbol(_seed72_mode(), BcSpec(-1, beta))
    assert abs(b[0, 0] - expected) < 1e-14 * abs(expected)


@pytest.mark.parametrize("n_tangential", [1, 2])
def test_batch_is_the_stacked_single_mode_results(n_tangential):
    rng = np.random.default_rng(11)
    modes = [draw_mode(rng, n_tangential) for _ in range(40)]
    batch = ModeBatch.from_modes(modes)
    # a mode's symbols are its batch-of-one entries, so they match the
    # stacked batch to the last bit
    for i, mode in enumerate(modes):
        for name in ("omega", "rate_fast", "lambda_eps", "kappa", "rho_lam", "abs_zeta"):
            assert getattr(mode, name) == getattr(batch, name)[i], name
        assert np.array_equal(mode.zeta, batch.zeta[i])
    for bc in SYMBOL_BCS:
        for fn in (boundary_symbol, closed_form_inverse, generic_inverse):
            stacked = np.array([fn(mode, bc) for mode in modes])
            assert np.array_equal(fn(batch, bc), stacked)
        d, m = boundary_symbol_factors(batch, bc)
        assert d.shape == (40, n_tangential + 1)
        assert m.shape == (40, n_tangential + 1, n_tangential + 1)


@pytest.mark.parametrize("n_tangential", [1, 2])
def test_batched_solve_coefficients_are_the_one_mode_solves(n_tangential):
    rng = np.random.default_rng(12)
    modes = [draw_mode(rng, n_tangential) for _ in range(40)]
    batch = ModeBatch.from_modes(modes)
    h_w = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    for bc in ALL_BCS:
        for data in (h_w, h_w[0]):
            z_v, z_w = solve_coefficients(batch, bc, data)
            assert z_v.shape == (40, n_tangential) and z_w.shape == (40,)
            for i, mode in enumerate(modes):
                one_v, one_w = solve_coefficients(mode, bc, np.broadcast_to(data, 40)[i])
                assert one_v.shape == (n_tangential,) and type(one_w) is complex
                assert z_v[i].tobytes() == one_v.tobytes(), (bc, i)
                assert z_w[i].tobytes() == np.complex128(one_w).tobytes(), (bc, i)


@pytest.mark.parametrize("n_tangential", [1, 2])
def test_empty_batch_gives_empty_stacks(n_tangential):
    n = n_tangential + 1
    empty = ModeBatch(
        *(np.zeros(0) for _ in range(3)), np.zeros(0, complex), np.zeros((0, n_tangential))
    )
    assert empty.check_admissible() is empty
    for bc in SYMBOL_BCS:
        for fn in (boundary_symbol, closed_form_inverse, generic_inverse):
            assert fn(empty, bc).shape == (0, n, n)
    for bc in ALL_BCS:
        assert trace_multiplier(empty, bc).shape == (0,)
        z_v, z_w = solve_coefficients(empty, bc, 1.0)
        assert z_v.shape == (0, n_tangential) and z_w.shape == (0,)


def test_singular_mode_error_names_its_mode():
    # xi = 10^20: |xi|^2 and omega are finite, but cond(B) read off the
    # closed-form inverse is not, so the solve at index 2 carries no digits
    batch = ModeBatch.of_fluid(FluidConstants(1.0, 1.0, 1.0), 0.0, [[1.0], [2.0], [1e20], [3.0]])
    assert batch.check_admissible() is batch
    with pytest.warns(RuntimeWarning, match=r"cond = inf.*\(1 of 4 modes\)"):
        with pytest.raises(SingularModeError) as err:
            solve_coefficients(batch, BcSpec(0, 0), 1.0)
    assert err.value.index == 2
    assert err.value.reason.startswith("boundary symbol numerically singular (cond = inf)")
    assert str(err.value) == f"{err.value.reason} at mode 2"
    # the mean mode, where the beta = 0 inverses degenerate, is named too
    mean = ModeBatch.of_fluid(FluidConstants(1.0, 1.0, 1.0), 0.0, [[1.0], [0.0]])
    with pytest.raises(SingularModeError) as err:
        closed_form_inverse(mean, BcSpec(0, 0))
    assert err.value.index == 1


def test_check_admissible_names_the_first_offending_mode():
    # mode 1 fails only the last check (mu |xi|^2 overflows omega), mode 2
    # an earlier one (|xi|^2 overflows): the error names mode 1
    batch = ModeBatch.of_fluid(FluidConstants(1.0, 1e10, 1.0), 0.0, [[1.0], [1e150], [1e300]])
    with pytest.raises(InvalidModeError) as err:
        batch.check_admissible()
    assert err.value.index == 1
    assert err.value.reason.startswith("omega must be finite")


def test_mode_batch_of_fluid_is_the_batch_of_its_modes():
    constants = FluidConstants(2.0, 0.5, 0.1)
    xi = [[0.5, -1.0], [3.0, 0.25]]
    batch = ModeBatch.of_fluid(constants, 0.3 + 2.0j, xi)
    single = ModeBatch.from_modes([derive_mode(constants, 0.3 + 2.0j, row) for row in xi])
    for name in ("rho", "mu", "epsilon", "lam", "xi", "omega", "rate_fast"):
        got, want = getattr(batch, name), getattr(single, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_closed_form_condition_number_matches_svd():
    from stokesbc.symbols import _condition_numbers

    rng = np.random.default_rng(4)
    for n in (2, 3):
        x = rng.normal(size=(200, n, n)) + 1j * rng.normal(size=(200, n, n))
        x[0] = np.diag([1.0, *[1e-9] * (n - 1)])  # cond 1e9
        assert np.allclose(_condition_numbers(x), np.linalg.cond(x), rtol=1e-10, atol=0.0)


def test_mode_batch_rejects_mixed_dimensions():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidModeError):
        ModeBatch.from_modes([draw_mode(rng, 1), draw_mode(rng, 2)])
    with pytest.raises(InvalidModeError):
        ModeBatch.from_modes([])


@pytest.mark.parametrize(
    "slot, value, named",
    [
        ("rho", 0.0, "rho"),
        ("mu", np.nan, "mu"),
        ("epsilon", -1.0, "epsilon"),
        ("lam", complex(np.inf, 0.0), "lambda must be finite"),
        ("lam", -1.0 + 2.0j, "Re lambda"),
        ("xi", np.nan, "xi"),
        ("xi", 1e300, r"\|xi\|\^2 must be finite"),
    ],
)
def test_mode_batch_admissibility_check(slot, value, named):
    rng = np.random.default_rng(3)
    good = ModeBatch.from_modes([draw_mode(rng) for _ in range(5)])
    assert good.check_admissible() is good
    names = ("rho", "mu", "epsilon", "lam", "xi")
    fields = {name: getattr(good, name).copy() for name in names}
    fields[slot][3] = value
    with pytest.raises(InvalidModeError, match=named) as err:
        ModeBatch(**fields).check_admissible()
    assert "at mode 3" in str(err.value)
