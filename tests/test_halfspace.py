"""Mode solver boundary contract, splitting round-trip, sampled-field I/O."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    ALL_BCS,
    assert_solves,
    complex_amp,
    draw_mode,
    field_of_solutions,
    manufacture_solution,
    per_mode_synthesize_field,
    reference_synthesize_field,
    reference_write_field_csv,
    solution_profiles,
    solution_sup_gap,
)
from stokesbc import (
    BcSpec,
    FluidConstants,
    GridSpec,
    InvalidModeError,
    ModeBatch,
    NsStepper,
    ProfileError,
    SampledField,
    canonical_json,
    derive_mode,
    field_manifest,
    forward_data,
    read_field_csv,
    read_manifest,
    solve_coefficients,
    solve_mode,
    splitting_solve_mode,
    synthesize_field,
    write_field_csv,
    write_manifest,
)
from stokesbc import halfspace
from stokesbc.grids import diff_matrix, trapezoid_weights
from stokesbc.halfspace import (
    ModeSolution,
    ansatz_amplitudes,
    ansatz_residuals,
    graded_grid,
    sample_ansatz,
)
from stokesbc.profiles import ScalarModeProfile, VectorModeProfile

Y = np.linspace(0.0, 30.0, 41)


def trio_scales(sol):
    vel = np.max(np.abs(sol.velocity.evaluate(Y)))
    prs = np.max(np.abs(sol.pressure(Y)))
    return vel, prs


@given(st.integers(0, 2**32 - 1), st.sampled_from(ALL_BCS))
def test_solve_mode_contract(seed, bc):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    h_w = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    sol = solve_mode(mode, bc, h_w)
    vel, prs = trio_scales(sol)
    mom_scale = max(abs(mode.omega**2) * vel, prs * max(mode.abs_xi, mode.rate_slow, 1.0))

    resid = sol.momentum_residual()
    assert np.max(np.abs(resid.evaluate(Y))) < 1e-9 * mom_scale
    assert np.max(np.abs(sol.divergence()(Y))) < 1e-10 * vel * max(mode.abs_xi, 1.0)
    assert abs(sol.normal_row() - h_w) < 1e-9 * abs(h_w)
    assert np.max(np.abs(sol.tangential_row())) < 1e-9 * mom_scale


def test_solve_mode_two_rate_structure():
    rng = np.random.default_rng(1)
    mode = draw_mode(rng)
    sol = solve_mode(mode, BcSpec(0, 0), 1.0)
    rates = {t.rate for t in sol.velocity.normal.terms}
    assert rates <= {complex(mode.rate_fast), complex(mode.rate_slow)}
    # pressure rides only on the slow (harmonic) rate
    assert {t.rate for t in sol.pressure.terms} <= {complex(mode.rate_slow)}


@given(st.integers(0, 2**32 - 1), st.sampled_from(ALL_BCS))
def test_forward_data_recovers_interior_forcing(seed, bc):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    made = manufacture_solution(mode, bc, rng)
    f, g, h_w = forward_data(made, tol=1e-7)
    rho = mode.constants.rho
    # rho f = omega^2 u - mu u'' + grad p, g = div u, h_w = the normal row
    resid = made.momentum_residual()
    for want, got in zip(resid.tangential, f.tangential):
        assert np.allclose(rho * got(Y), want(Y), rtol=0, atol=1e-11 * (np.max(np.abs(want(Y))) + 1))
    assert np.allclose(rho * f.normal(Y), resid.normal(Y), rtol=0, atol=1e-11 * (np.max(np.abs(resid.normal(Y))) + 1))
    assert np.allclose(g(Y), made.divergence()(Y), rtol=0, atol=1e-13)
    assert h_w == pytest.approx(made.normal_row(), rel=1e-12)


def test_forward_data_rejects_inhomogeneous_tangential_row():
    mode = derive_mode(FluidConstants(1.0, 1.0, 1.0), 2.0j, (1.0,))
    v = ScalarModeProfile(mode.xi, [(1.0, 1.0, 0)])  # v(0) = 1
    w = ScalarModeProfile(mode.xi, [(0.5, 2.0, 0)])
    p = ScalarModeProfile(mode.xi, [(0.2, 1.5, 0)])
    bad = ModeSolution(mode, BcSpec(0, 0), VectorModeProfile(mode.xi, (v,), w), p)
    with pytest.raises(ProfileError, match="tangential"):
        forward_data(bad, tol=1e-9)


def test_solutions_of_different_problems_do_not_add():
    left_mode = derive_mode(FluidConstants(1.0, 1.0, 1.0), 0.3j, (1.0,))
    right_mode = derive_mode(FluidConstants(2.0, 1.0, 1.0), 5.0j, (1.0,))
    left = solve_mode(left_mode, BcSpec(0, 0), 1.0)
    for right in (
        solve_mode(right_mode, BcSpec(1, 1), 1.0),
        solve_mode(right_mode, BcSpec(0, 0), 1.0),
        solve_mode(left_mode, BcSpec(1, 1), 1.0),
    ):
        with pytest.raises(ProfileError, match="one mode and one bc pair"):
            left + right
    both = left + solve_mode(left_mode, BcSpec(0, 0), 0.5j)
    assert both.normal_row() == pytest.approx(1.0 + 0.5j, rel=1e-12)


@given(st.integers(0, 2**32 - 1), st.sampled_from(ALL_BCS))
def test_splitting_round_trip(seed, bc):
    rng = np.random.default_rng(seed)
    mode = draw_mode(rng)
    made = manufacture_solution(mode, bc, rng)
    f, g, h_w = forward_data(made, tol=1e-7)
    recovered = splitting_solve_mode(mode, bc, f, g, h_w)
    y = np.linspace(0.0, 20.0, 81)
    assert solution_sup_gap(made, recovered, y) < 1e-8
    assert_solves(recovered, f, g, h_w, y)


def test_splitting_pure_boundary_drive_matches_solve_mode():
    rng = np.random.default_rng(7)
    mode = draw_mode(rng)
    for bc in ALL_BCS:
        direct = solve_mode(mode, bc, 0.8 - 0.3j)
        zero_vec = VectorModeProfile(
            mode.xi, (ScalarModeProfile.zero(mode.xi),), ScalarModeProfile.zero(mode.xi)
        )
        split = splitting_solve_mode(
            mode, bc, zero_vec, ScalarModeProfile.zero(mode.xi), 0.8 - 0.3j
        )
        y = np.linspace(0.0, 20.0, 81)
        assert solution_sup_gap(direct, split, y) < 1e-10


def test_graded_grid_shape():
    y = graded_grid(10.0, 65, a=4.0)
    assert y[0] == 0.0
    assert y[-1] == pytest.approx(10.0)
    assert np.all(np.diff(y) > 0.0)
    # grading concentrates points near the wall
    assert y[32] < 5.0
    fine = graded_grid(10.0, 129, a=4.0)
    assert np.allclose(fine[::2], y, atol=1e-12)


def test_grid_spec_validation_and_wavenumber():
    with pytest.raises(ValueError):
        GridSpec(2 * np.pi, 8, 8.0, 33, y_kind="spline")
    grid = GridSpec(4.0 * np.pi, 16, 8.0, 33)
    assert grid.wavenumber(1) == pytest.approx(0.5)
    assert grid.wavenumber(3) == pytest.approx(1.5)


def test_grid_spec_grades_only_the_graded_kind():
    with pytest.raises(ValueError, match="y_grading"):
        GridSpec(2 * np.pi, 8, 8.0, 5, y_grading=3.0)
    with pytest.raises(ValueError, match="y_grading"):
        GridSpec(2 * np.pi, 8, 8.0, 5, y_kind="graded")
    uniform = GridSpec(2 * np.pi, 8, 8.0, 5)
    assert np.array_equal(uniform.y_nodes(), np.linspace(0.0, 8.0, 5))
    graded = GridSpec(2 * np.pi, 8, 8.0, 5, y_grading=3.0, y_kind="graded")
    assert np.array_equal(graded.y_nodes(), graded_grid(8.0, 5, 3.0))


def test_cheb_grid_calculus_is_spectral():
    grid = GridSpec(2 * np.pi, 8, 16.0, 33, y_kind="cheb")
    y, w = grid.y_nodes(), grid.y_weights
    assert abs(w @ np.exp(-y) - (1.0 - np.exp(-16.0))) < 1e-14
    assert w.sum() == pytest.approx(16.0, rel=1e-14)
    slope = grid.y_derivative @ y**3
    assert np.max(np.abs(slope - 3.0 * y**2)) < 1e-12 * 3.0 * 16.0**2


@pytest.mark.parametrize(
    "grid",
    [
        GridSpec(2 * np.pi, 8, 8.0, 33),
        GridSpec(2 * np.pi, 8, 8.0, 33, y_grading=3.0, y_kind="graded"),
    ],
    ids=["uniform", "graded"],
)
def test_stencil_grid_calculus_is_trapezoid_and_five_point(grid):
    y = grid.y_nodes()
    assert np.array_equal(grid.y_weights, trapezoid_weights(y))
    assert np.array_equal(grid.y_derivative, diff_matrix(y, npts=5))
    assert grid.x_weight == grid.x_length / len(grid.x_nodes())


def test_grid_calculus_is_cached_and_read_only():
    grid = GridSpec(2 * np.pi, 8, 12.0, 17, y_kind="cheb")
    stepper = NsStepper(FluidConstants(1.0, 1.0, 1.0), grid)
    assert stepper.dy is grid.y_derivative
    assert grid.y_weights is grid.y_weights
    for cached in (grid.y_derivative, grid.y_weights):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 1.0


@pytest.mark.parametrize("n_tangential", [1, 2])
def test_batched_ansatz_is_the_per_mode_profiles(n_tangential):
    # samples bit for bit; residuals, which are rounding noise of scale
    # |omega|^2 |u| in the momentum column, to well within that noise
    rng = np.random.default_rng(29)
    modes = [draw_mode(rng, n_tangential) for _ in range(40)]
    batch = ModeBatch.from_modes(modes)
    h_w = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    y = np.linspace(0.0, 6.0, 17)
    for bc in ALL_BCS:
        amps = ansatz_amplitudes(batch, *solve_coefficients(batch, bc, h_w))
        samples = sample_ansatz(batch, amps, y)
        residuals = ansatz_residuals(batch, bc, amps, h_w, y)
        assert samples.shape == (n_tangential + 2, 40, len(y))
        for i, mode in enumerate(modes):
            sol = solve_mode(mode, bc, h_w[i])
            profiles = np.vstack((sol.velocity.evaluate(y), sol.pressure(y)))
            assert samples[:, i].tobytes() == profiles.tobytes(), (bc, i)
            scale = max(np.max(np.abs(sol.velocity.evaluate(y))), abs(h_w[i]))
            per_mode = (
                np.max(np.abs(sol.momentum_residual().evaluate(y))) / scale,
                np.max(np.abs(sol.divergence()(y))) / scale,
                abs(sol.normal_row() - h_w[i]) / abs(h_w[i]),
                np.max(np.abs(sol.tangential_row())) / scale,
            )
            tol = 1e-13 * max(1.0, abs(mode.omega) ** 4)
            assert np.max(np.abs(residuals[:, i] - per_mode)) <= tol, (bc, i)


def synthesized_field(tmp_path=None):
    constants = FluidConstants(1.0, 1.0, 1.0)
    grid = GridSpec(2.0 * np.pi, 16, 8.0, 33)
    mode = derive_mode(constants, 0.5j, (grid.wavenumber(1),))
    sol = solve_mode(mode, BcSpec(0, 1), 1.0 + 0.7j)
    return field_of_solutions(constants, {1: sol}, grid)


def test_synthesize_field_is_real_and_shaped():
    field = synthesized_field()
    assert field.velocity.shape == (2, 16, 33)
    assert field.pressure.shape == (16, 33)
    assert field.velocity.dtype.kind == "f"
    assert np.max(np.abs(field.velocity)) > 0.0


@pytest.mark.parametrize("k", [0, -1])
def test_synthesize_field_rejects_harmonics_below_one(k):
    constants = FluidConstants(1.0, 1.0, 1.0)
    grid = GridSpec(2.0 * np.pi, 16, 8.0, 33)
    mode = derive_mode(constants, 0.5j, (grid.wavenumber(k),))
    sol = solve_mode(mode, BcSpec(0, 1), 1.0)
    with pytest.raises(ValueError, match=">= 1"):
        synthesize_field(constants, *solution_profiles({k: sol}), grid)


def lattice_solutions(constants, grid, harmonics, seed=3):
    rng = np.random.default_rng(seed)
    return {
        k: solve_mode(
            derive_mode(constants, 0.5j, (grid.wavenumber(k),)),
            BcSpec(1, 1),
            complex(*rng.standard_normal(2)) / k,
        )
        for k in harmonics
    }


def stacked(field):
    return np.concatenate((field.velocity, field.pressure[None]))


@pytest.mark.parametrize("x_count", [1, 2, 15, 16])
@pytest.mark.parametrize(
    "y_kind, y_grading", [("uniform", 0.0), ("graded", 3.0), ("cheb", 0.0)]
)
def test_synthesize_field_is_the_direct_phase_sum(x_count, y_kind, y_grading):
    constants = FluidConstants(1.0, 1.0, 1.0)
    grid = GridSpec(2.0 * np.pi, x_count, 8.0, 17, y_grading, y_kind)
    # the Nyquist harmonic x_count / 2, harmonics past it that alias onto the
    # conjugate bin x_count - b, x_count itself (bin 0) and wrapped harmonics
    n = x_count
    harmonics = {1, 2, n // 2, n // 2 + 1, n, n + 1, n + n // 2, 2 * n + 3} - {0}
    sols = lattice_solutions(constants, grid, harmonics)
    field = field_of_solutions(constants, sols, grid)
    reference = reference_synthesize_field(constants, sols, grid)
    scale = np.max(np.abs(stacked(reference)))
    assert scale > 0.0
    assert np.max(np.abs(stacked(field) - stacked(reference))) <= 1e-13 * scale


def test_synthesize_field_is_no_less_accurate_than_the_phase_sum():
    # the exact field at x_j = j L / nx, in extended precision from the same
    # double profiles: harmonic k has phase 2 pi (k j mod nx) / nx there
    constants = FluidConstants(1.0, 1.0, 1.0)
    nx = 64
    grid = GridSpec(2.0 * np.pi, nx, 8.0, 9)
    sols = lattice_solutions(constants, grid, range(1, 41))
    y, j = grid.y_nodes(), np.arange(nx)
    two_pi = 2 * np.arccos(np.longdouble(-1.0))
    exact = np.zeros((3, nx, len(y)), dtype=np.longdouble)
    for k, sol in sols.items():
        uhat = np.vstack((sol.velocity.evaluate(y), sol.pressure(y)))[:, None, :]
        theta = two_pi * ((k * j) % nx) / nx
        cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
        re, im = uhat.real.astype(np.longdouble), uhat.imag.astype(np.longdouble)
        exact += 2 * (re * cos - im * sin)
    scale = float(np.max(np.abs(exact)))
    fft_error = float(np.max(np.abs(stacked(field_of_solutions(constants, sols, grid)) - exact)))
    sum_error = float(
        np.max(np.abs(stacked(reference_synthesize_field(constants, sols, grid)) - exact))
    )
    assert fft_error <= sum_error
    assert fft_error <= 2e-15 * scale


def test_synthesize_field_keeps_its_checks():
    constants = FluidConstants(1.0, 1.0, 1.0)
    grid = GridSpec(2.0 * np.pi, 16, 8.0, 33)
    harmonics, sample = solution_profiles(lattice_solutions(constants, grid, [2, 3]))
    # one profile per harmonic, three components, one value per y node
    for bad in (
        (harmonics[:1], sample),
        (harmonics, lambda y: sample(y)[:2]),
        (harmonics, lambda y: sample(y)[:, :, :-1]),
    ):
        with pytest.raises(ValueError, match=r"sample\(y\) must have shape \(3, "):
            synthesize_field(constants, *bad, grid)


def test_synthesize_field_samples_the_grid_in_blocks():
    # a y grid of several blocks and a short last one, sampled node by node
    constants = FluidConstants(1.0, 1.0, 1.0)
    grid = GridSpec(2.0 * np.pi, 16, 8.0, 2 * halfspace._Y_BLOCK + 5)
    harmonics, sample = solution_profiles(lattice_solutions(constants, grid, [1, 3, 8, 17]))
    asked = []

    def logged(y):
        asked.append(y)
        return sample(y)

    field = synthesize_field(constants, harmonics, logged, grid)
    assert [len(y) for y in asked] == [halfspace._Y_BLOCK, halfspace._Y_BLOCK, 5]
    assert np.array_equal(np.concatenate(asked), grid.y_nodes())
    whole = per_mode_synthesize_field(
        constants, lattice_solutions(constants, grid, [1, 3, 8, 17]), grid
    )
    assert stacked(field).tobytes() == stacked(whole).tobytes()


def test_sampled_field_nodes_come_from_the_grid():
    field = synthesized_field()
    assert np.array_equal(field.x, field.grid.x_nodes())
    assert np.array_equal(field.y, field.grid.y_nodes())
    # computed on first use and cached on the field
    assert field.y is field.y


def test_field_csv_round_trip(tmp_path):
    field = synthesized_field()
    path = tmp_path / "field.csv"
    write_field_csv(path, field)
    data = read_field_csv(path)
    assert np.array_equal(data["u_x"], field.velocity[0])
    assert np.array_equal(data["u_y"], field.velocity[1])
    assert np.array_equal(data["p"], field.pressure)
    assert np.array_equal(data["x"], field.x)
    assert np.array_equal(data["y"], field.y)
    # repr-formatted floats survive a second trip byte-identically
    write_field_csv(tmp_path / "again.csv", field)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("x_count", [15, 16])
@pytest.mark.parametrize(
    "y_kind, y_grading", [("uniform", 0.0), ("graded", 3.0), ("cheb", 0.0)]
)
def test_field_csv_matches_the_per_cell_writer(tmp_path, x_count, y_kind, y_grading):
    constants = FluidConstants(1.0, 1.0, 1.0)
    grid = GridSpec(2.0 * np.pi, x_count, 8.0, 33, y_grading, y_kind)
    sols = {
        k: solve_mode(
            derive_mode(constants, 0.5j, (grid.wavenumber(k),)),
            BcSpec(0, 1),
            (1.0 + 0.7j) / k,
        )
        for k in (1, 2, 3)
    }
    field = field_of_solutions(constants, sols, grid)
    write_field_csv(tmp_path / "streamed.csv", field)
    reference_write_field_csv(tmp_path / "reference.csv", field)
    assert (tmp_path / "streamed.csv").read_bytes() == (
        tmp_path / "reference.csv"
    ).read_bytes()


def test_field_csv_matches_the_per_cell_writer_on_special_floats(tmp_path):
    grid = GridSpec(2.0 * np.pi, 3, 1.0, 4)
    special = [-0.0, 5e-324, 1e16, 1.0, np.nan, np.inf, -np.inf, 0.1 + 0.2]
    values = np.resize(np.array(special), 3 * 3 * 4).reshape(3, 3, 4)
    field = SampledField(grid, FluidConstants(1.0, 1.0, 1.0), values[:2], values[2])
    write_field_csv(tmp_path / "streamed.csv", field)
    reference_write_field_csv(tmp_path / "reference.csv", field)
    text = (tmp_path / "streamed.csv").read_bytes()
    assert text == (tmp_path / "reference.csv").read_bytes()
    for token in (b"-0.0", b"5e-324", b"1e+16", b"nan", b"-inf", b"0.30000000000000004"):
        assert token in text
    # integer samples are written as floats, as the per-cell writer's float() did
    ints = SampledField(grid, field.constants, np.ones((2, 3, 4), int), np.zeros((3, 4), int))
    write_field_csv(tmp_path / "streamed.csv", ints)
    reference_write_field_csv(tmp_path / "reference.csv", ints)
    text = (tmp_path / "streamed.csv").read_bytes()
    assert text == (tmp_path / "reference.csv").read_bytes()
    assert text.splitlines()[1] == b"0.0,0.0,1.0,1.0,0.0"


def test_field_csv_is_written_one_row_at_a_time(tmp_path):
    # the whole-file writer peaks near 20 MB on this grid, the streamed one
    # near 0.1 MB: the file's text is never held in memory at once
    grid = GridSpec(2.0 * np.pi, 256, 8.0, 257)
    rng = np.random.default_rng(7)
    field = SampledField(
        grid,
        FluidConstants(1.0, 1.0, 1.0),
        rng.standard_normal((2, 256, 257)),
        rng.standard_normal((256, 257)),
    )
    tracemalloc.start()
    try:
        write_field_csv(tmp_path / "field.csv", field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "field.csv").stat().st_size > 5_000_000
    assert peak < 2_000_000


def test_manifest_round_trip_bit_exact(tmp_path):
    field = synthesized_field()
    manifest = field_manifest(field, "field.csv", config={"modes": [1], "note": 7})
    path = tmp_path / "manifest.json"
    write_manifest(path, manifest)
    loaded = read_manifest(path)
    assert loaded == manifest
    write_manifest(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    # canonical serialization is key-sorted with a trailing newline
    text = path.read_text()
    assert text == canonical_json(manifest)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == loaded
