"""Acceptance gate: one test per criterion, `pytest -v` lines are the record.

Criteria (tolerances asserted inside each test):
 1. closed-form symbol inverses over a 10^4-mode sweep, < 10 s
 2. trace-identity quadrature vs multipliers over 300 modes, < 60 s
 3. finite-difference oracle order 2.0 +- 0.2, Richardson gap < 1e-6
 4. mode-solver boundary contract, nine pairs x 100 modes
 5. splitting round-trip sup-gap < 1e-8 for every normal family
 6. projection idempotence/annihilation/preservation
 7. empirical wall-power classes match the static table
 8. energy-balance residual order 2.0 +- 0.3, both forms
 9. nonlinear 2D desk run: Picard, energy decay, divergence, < 5 min
10. byte-identical reruns of every CLI campaign
"""

import cmath
import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    ALL_BCS,
    CliRunner,
    assert_solves,
    complex_amp,
    draw_mode,
    field_of_solutions,
    manufacture_solution,
    random_profile,
    solution_sup_gap,
)
from stokesbc import (
    BcSpec,
    FluidConstants,
    GridSpec,
    classify_bc,
    derive_mode,
    dirichlet_extend_mode,
    energy_balance_residual,
    forward_data,
    helmholtz_project_mode,
    oracle_fd_solve,
    parabolic_solve_mode,
    solve_mode,
    splitting_solve_mode,
    weyl_project_mode,
)
from stokesbc.cli import main
from stokesbc.halfspace import ModeSolution
from stokesbc.profiles import ScalarModeProfile, VectorModeProfile, gradient


def run_cli(args, out_dir):
    runner = CliRunner()
    start = time.perf_counter()
    result = runner.invoke(main, [*args, "--out", str(out_dir)])
    return result, time.perf_counter() - start


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


def test_criterion_01_symbol_algebra_sweep(tmp_path):
    out = tmp_path / "symbols"
    result, elapsed = run_cli(["verify-symbols"], out)
    assert result.exit_code == 0, result.output
    report = json.loads((out / "verify_symbols.json").read_text())
    assert report["n_modes"] == 10_000
    assert report["worst_identity_residual"] < 1e-12
    assert report["worst_generic_gap"] < 1e-10
    assert elapsed < 10.0, f"sweep took {elapsed:.2f} s"


def test_criterion_02_trace_identities(tmp_path):
    out = tmp_path / "traces"
    result, elapsed = run_cli(["verify-traces"], out)
    assert result.exit_code == 0, result.output
    report = json.loads((out / "verify_traces.json").read_text())
    seen = {(s["relation"], s["alpha"]) for s in report["relations"]}
    assert seen == {("T00", 0), ("T10", 1), ("T10", -1), ("T11", 0), ("T11", 1), ("T11", -1)}
    for section in report["relations"]:
        assert section["n_modes"] == 300
        assert section["max_rel_error"] < 1e-7
    assert elapsed < 60.0, f"campaign took {elapsed:.2f} s"


def test_criterion_03_fd_oracle_convergence():
    mode = derive_mode(FluidConstants(1.0, 1.0, 1.0), 0.3j, (1.0,))
    pressure = dirichlet_extend_mode(mode.xi, 1.0 + 0.5j)

    def stacked(orc):
        return np.vstack([orc.v_tangential, orc.w[None, :]])

    for alpha in (0, 1, -1):
        closed = parabolic_solve_mode(mode, alpha, pressure)

        def closed_on(y):
            return np.vstack(
                [[t(y) for t in closed.tangential], closed.normal(y)[None, :]]
            )

        errs, oracles = [], {}
        for n in (129, 257, 513):
            orc = oracle_fd_solve(mode, alpha, pressure, n)
            oracles[n] = orc
            errs.append(np.max(np.abs(stacked(orc) - closed_on(orc.y))))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.8 <= order <= 2.2, f"alpha={alpha}: observed orders {orders}"

        fine, mid = oracles[513], oracles[257]
        assert np.allclose(fine.y[::2], mid.y, atol=1e-12)
        richardson = (4.0 * stacked(fine)[:, ::2] - stacked(mid)) / 3.0
        gap = np.max(np.abs(richardson - closed_on(mid.y)))
        assert gap < 1e-6, f"alpha={alpha}: Richardson gap {gap:.3e}"


def test_criterion_04_mode_solver_boundary_contract():
    rng = np.random.default_rng(7)
    y = np.linspace(0.0, 30.0, 41)
    for _ in range(100):
        mode = draw_mode(rng)
        h_w = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        for bc in ALL_BCS:
            sol = solve_mode(mode, bc, h_w)
            vel = np.max(np.abs(sol.velocity.evaluate(y)))
            prs = np.max(np.abs(sol.pressure(y)))
            mom_scale = max(abs(mode.omega**2) * vel, prs * max(mode.abs_xi, 1.0))
            resid = np.max(np.abs(sol.momentum_residual().evaluate(y)))
            assert resid < 1e-9 * mom_scale
            div = np.max(np.abs(sol.divergence()(y)))
            assert div < 1e-10 * vel * max(mode.abs_xi, 1.0)
            assert abs(sol.normal_row() - h_w) < 1e-9 * abs(h_w)
            assert np.max(np.abs(sol.tangential_row())) < 1e-9 * mom_scale


def test_criterion_05_splitting_round_trip():
    rng = np.random.default_rng(11)
    y = np.linspace(0.0, 20.0, 81)
    for _ in range(30):
        mode = draw_mode(rng)
        for bc in ALL_BCS:  # normal families beta = 0, +1, -1 all covered
            made = manufacture_solution(mode, bc, rng)
            f, g, h_w = forward_data(made, tol=1e-7)
            recovered = splitting_solve_mode(mode, bc, f, g, h_w)
            gap = solution_sup_gap(made, recovered, y)
            assert gap < 1e-8, f"{bc}: sup-gap {gap:.3e}"
            assert_solves(recovered, f, g, h_w, y)


def test_criterion_06_projection_suite():
    rng = np.random.default_rng(13)
    y = np.linspace(0.0, 15.0, 61)

    def sup(v):
        return np.max(np.abs(v.evaluate(y) if isinstance(v, VectorModeProfile) else v(y)))

    for _ in range(40):
        mode = draw_mode(rng)
        xi = mode.xi[0]
        f = VectorModeProfile(
            mode.xi,
            (random_profile(mode, rng, max_power=1),),
            random_profile(mode, rng, max_power=1),
        )
        for project in (weyl_project_mode, helmholtz_project_mode):
            once = project(f)
            twice = project(once)
            gap = np.max(np.abs(twice.evaluate(y) - once.evaluate(y)))
            assert gap < 1e-10 * max(sup(once), 1e-30)

        # annihilation: Weyl kills gradients of zero-trace potentials,
        # Helmholtz kills gradients of arbitrary decaying potentials
        a = complex_amp(rng)
        r1, r2 = 0.4 + rng.uniform(0, 2), 1.2 + rng.uniform(0, 2)
        q0 = ScalarModeProfile(mode.xi, [(a, r1, 0), (-a, r2, 0)])
        grad0 = gradient(q0)
        assert sup(weyl_project_mode(grad0)) < 1e-10 * max(sup(grad0), 1e-30)
        q = random_profile(mode, rng, max_power=1)
        grad_q = gradient(q)
        assert sup(helmholtz_project_mode(grad_q)) < 1e-10 * max(sup(grad_q), 1e-30)

        # preservation of solenoidal inputs (zero normal trace for Helmholtz)
        w_free = random_profile(mode, rng, max_power=1)
        free = VectorModeProfile(mode.xi, ((1j / xi) * w_free.derivative(),), w_free)
        out = weyl_project_mode(free)
        assert np.max(np.abs(out.evaluate(y) - free.evaluate(y))) < 1e-12 * sup(free)
        b = complex_amp(rng)
        w_zt = ScalarModeProfile(mode.xi, [(b, r1, 0), (-b, r2, 0)])
        free_zt = VectorModeProfile(mode.xi, ((1j / xi) * w_zt.derivative(),), w_zt)
        out = helmholtz_project_mode(free_zt)
        assert np.max(np.abs(out.evaluate(y) - free_zt.evaluate(y))) < 1e-12 * sup(free_zt)

        # Helmholtz output carries no normal trace
        assert abs(helmholtz_project_mode(f).normal(0.0)) < 1e-10 * max(sup(f), 1e-30)


EXPECTED_CLASS = {
    (0, 0): "B1", (1, 0): "B1", (-1, 0): "B1",
    (0, 1): "B2", (1, 1): "B2", (0, -1): "B2", (-1, -1): "B2",
    (-1, 1): "B3", (1, -1): "B3",
}


def test_criterion_07_energy_classification():
    for (alpha, beta), expected in EXPECTED_CLASS.items():
        report = classify_bc(BcSpec(alpha, beta), n_trials=100, seed=0)
        assert report.predicted_class == expected
        assert report.empirical_class == expected, (alpha, beta)
        assert report.n_trials == 100
        if expected == "B1":
            assert report.max_abs_full_power < report.zero_tol
        elif expected == "B2":
            assert report.max_abs_linear_power < report.zero_tol
        else:
            assert report.max_abs_linear_power > report.witness_floor
            assert report.witness_floor == pytest.approx(1e-3)


def test_criterion_08_energy_balance_convergence():
    constants = FluidConstants(1.0, 1.0, 1.0)
    bc = BcSpec(0, 1)
    t0 = 0.1

    def field_at(t, ny):
        grid = GridSpec(2.0 * np.pi, 16, 14.0, ny)
        mode = derive_mode(constants, 0.3j, (grid.wavenumber(1),))
        sol = solve_mode(mode, bc, 1.0)
        c = cmath.exp(mode.lambda_eps * t)
        scaled = ModeSolution(mode, bc, c * sol.velocity, c * sol.pressure)
        return field_of_solutions(constants, {1: scaled}, grid)

    ladder = ((65, 0.4), (129, 0.2), (257, 0.1))  # dt and grid refine together
    for form in ("S", "T"):
        residuals = []
        for ny, dt in ladder:
            series = [field_at(t0 - dt, ny), field_at(t0, ny), field_at(t0 + dt, ny)]
            report = energy_balance_residual(series, dt, form=form, convective=False)
            residuals.append(max(abs(r) for r in report.residuals))
        orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.7 <= order <= 2.3, f"form {form}: observed orders {orders}"


def test_criterion_09_nonlinear_desk_run(tmp_path):
    out = tmp_path / "ns"
    result, elapsed = run_cli(["run-ns"], out)
    assert result.exit_code == 0, result.output
    assert elapsed < 300.0, f"run took {elapsed:.1f} s"

    report = json.loads((out / "run_ns.json").read_text())
    assert report["status"] == "completed"
    assert report["n_steps_accepted"] == 50
    assert report["config"]["grid"]["x_count"] == 16
    assert report["config"]["grid"]["y_count"] == 129
    assert report["config"]["initial"]["amplitude"] == 1e-3
    assert report["max_divergence"] < 1e-6
    assert report["max_picard_iterations"] <= 10

    with open(out / "energy.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    e0 = report["initial_energy"]
    previous = e0
    for row in rows:
        assert row["converged"] == "true"
        assert int(row["picard_iterations"]) <= 10
        assert float(row["picard_gap"]) < 1e-8
        assert float(row["max_divergence"]) < 1e-6
        energy = float(row["kinetic_energy"])
        assert energy - previous <= 1e-8 * e0, "energy increased beyond budget"
        previous = energy


def test_criterion_10_campaign_determinism(tmp_path):
    campaigns = [
        ("verify-symbols", {"n_modes": 64, "seed": 5}, ()),
        ("verify-traces", {"n_modes": 4, "relations": ["T00", "T11"]}, ()),
        (
            "run-ns",
            {"grid": {"x_count": 8, "y_count": 49, "y_max": 12.0}, "n_steps": 3, "dt": 0.02},
            (),
        ),
    ]
    for verb, config, extra in campaigns:
        cfg_path = tmp_path / f"{verb}.json"
        cfg_path.write_text(json.dumps(config))
        outputs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{verb}-{tag}"
            result, _ = run_cli([verb, "--config", str(cfg_path), *extra], out)
            assert result.exit_code == 0, result.output
            outputs.append(tree_bytes(out))
        assert outputs[0] == outputs[1], f"{verb}: reruns differ"
    # worker-count variation must not affect artifacts either
    cfg_path = tmp_path / "jobs.json"
    cfg_path.write_text(json.dumps({"n_modes": 48, "seed": 9}))
    serial_out = tmp_path / "jobs-serial"
    parallel_out = tmp_path / "jobs-parallel"
    serial, _ = run_cli(["verify-symbols", "--config", str(cfg_path)], serial_out)
    parallel, _ = run_cli(
        ["verify-symbols", "--config", str(cfg_path), "--jobs", "4"], parallel_out
    )
    assert serial.exit_code == parallel.exit_code == 0
    assert tree_bytes(serial_out) == tree_bytes(parallel_out)
