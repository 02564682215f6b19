"""Shared random draws and manufactured solutions used across the suite."""

from __future__ import annotations

import heapq
import math
from pathlib import Path

import numpy as np

from stokesbc import FluidConstants, derive_mode
from stokesbc.energy import ClassificationReport
from stokesbc.cli import _csv_cell, _draw_modes, _max_abs
from stokesbc.halfspace import ModeSolution, SampledField
from stokesbc.profiles import ScalarModeProfile, VectorModeProfile
from stokesbc.quadrature import gauss_kronrod_15
from stokesbc.symbols import (  # noqa: F401  (ALL_BCS, BcSpec re-exported to the tests)
    ALL_BCS,
    SYMBOL_BCS,
    BcSpec,
    boundary_symbol,
    closed_form_inverse,
    generic_inverse,
)

STANDARD = FluidConstants(1.0, 1.0, 1.0)


def standard_mode(abs_xi=1.0, lam=0.0):
    return derive_mode(STANDARD, lam, (abs_xi,))


def draw_mode(rng, n_tangential=1):
    """One admissible mode from the standard sweep box.

    log-uniform |xi| in [1e-2, 1e2], lambda on i[0, 1e2], epsilon from
    {1e-2, 1, 1e2}, rho and mu log-uniform in [0.1, 10].
    """
    abs_xi = 10.0 ** rng.uniform(-2.0, 2.0)
    lam = 1j * rng.uniform(0.0, 100.0)
    eps = float(rng.choice([1e-2, 1.0, 1e2]))
    rho = 10.0 ** rng.uniform(-1.0, 1.0)
    mu = 10.0 ** rng.uniform(-1.0, 1.0)
    if n_tangential == 1:
        xi = (abs_xi,)
    else:
        direction = rng.normal(size=n_tangential)
        direction /= np.linalg.norm(direction)
        xi = tuple(abs_xi * direction)
    return derive_mode(FluidConstants(rho, mu, eps), lam, xi)


def complex_amp(rng):
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def random_profile(mode, rng, n_terms=3, max_power=1):
    terms = []
    for i in range(n_terms):
        rate = 0.3 + rng.uniform(0.0, 3.0) + 0.8 * i
        power = int(rng.integers(0, max_power + 1))
        terms.append((complex_amp(rng), rate, power))
    return ScalarModeProfile(mode.xi, terms)


def manufacture_solution(mode, bc, rng):
    """A decaying profile trio satisfying the homogeneous tangential row.

    The wall rows are kept consistent by construction: v(0) = 0 for
    alpha = 0, and v'(0) = -alpha i xi w(0) otherwise, which zeroes the
    traction row for alpha = +-1.  A power-1 term in each component
    exercises the polynomial-carrying convolution paths downstream.
    """
    xi = mode.xi[0]
    r1, r2, r3 = 0.4 + rng.uniform(0.0, 2.6, 3) + np.array([0.0, 0.9, 1.7])
    a1, b1, b2, d1 = (complex_amp(rng) for _ in range(4))
    w0 = b1 + b2
    if bc.alpha == 0:
        a2 = -a1
    else:
        a2 = (bc.alpha * 1j * xi * w0 - a1 * r1 + d1) / r2
    v = ScalarModeProfile(mode.xi, [(a1, r1, 0), (a2, r2, 0), (d1, r3, 1)])
    w = ScalarModeProfile(
        mode.xi, [(b1, r1, 0), (b2, r3, 0), (complex_amp(rng), r2, 1)]
    )
    p = ScalarModeProfile(
        mode.xi,
        [(complex_amp(rng), r2, 0), (complex_amp(rng), r3, 0), (complex_amp(rng), r1, 1)],
    )
    return ModeSolution(mode, bc, VectorModeProfile(mode.xi, (v,), w), p)


def solution_sup_gap(a, b, y):
    """sup over y of the velocity/pressure mismatch, relative to a's scale."""
    vel_gap = np.max(np.abs(a.velocity.evaluate(y) - b.velocity.evaluate(y)))
    p_gap = np.max(np.abs(a.pressure(y) - b.pressure(y)))
    scale = max(
        np.max(np.abs(a.velocity.evaluate(y))), np.max(np.abs(a.pressure(y)))
    )
    return max(vel_gap, p_gap) / scale


def reference_adaptive_integrate(f, a, b, rel_tol, max_subdivisions=2000):
    """The one-integrand GK15 loop the stacked integrator replaced: a heap of
    intervals, bisecting the worst until the summed |K - G| estimate is at
    most rel_tol * |integral|.  Returns (value, error_estimate, intervals)."""
    total, total_err = gauss_kronrod_15(f, a, b)
    heap = [(-total_err, 0, a, b, total)]
    counter = 1
    while total_err > rel_tol * abs(total):
        assert counter < 2 * max_subdivisions, "reference ran out of budget"
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = gauss_kronrod_15(f, lo, mid)
        v2, e2 = gauss_kronrod_15(f, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2))
        counter += 2
    return total, total_err, len(heap)


def reference_write_field_csv(path, field):
    """The per-cell field writer the streamed halfspace.write_field_csv
    replaced: every cell read by index and repr'd, the whole file joined in
    memory and written at once."""
    lines = ["x,y,u_x,u_y,p"]
    for i in range(len(field.x)):
        xv = float(field.x[i])
        for j in range(len(field.y)):
            lines.append(
                ",".join(
                    repr(float(v))
                    for v in (
                        xv,
                        field.y[j],
                        field.velocity[0, i, j],
                        field.velocity[1, i, j],
                        field.pressure[i, j],
                    )
                )
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_synthesize_field(constants, contributions, grid):
    """The per-mode phase sum the FFT synthesis in
    halfspace.synthesize_field replaced: each harmonic k adds
    2 Re(e^{i xi_k x} uhat_k(y)) at every node."""
    field = SampledField(
        grid,
        constants,
        np.zeros((2, grid.x_count, grid.y_count)),
        np.zeros((grid.x_count, grid.y_count)),
    )
    x, y, u, p = field.x, field.y, field.velocity, field.pressure
    for k in sorted(contributions):
        sol = contributions[k]
        vhat = sol.velocity.evaluate(y)  # (2, ny)
        phat = np.atleast_1d(sol.pressure(y))
        phase = np.exp(1j * grid.wavenumber(k) * x)  # (nx,)
        u += 2.0 * np.real(phase[None, :, None] * vhat[:, None, :])
        p += 2.0 * np.real(phase[:, None] * phat[None, :])
    return field


def reference_write_csv(path, header, rows):
    """The per-cell loop cli._write_csv replaced: every cell through
    _csv_cell, one write per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def reference_symbols_chunk(task) -> list[tuple]:
    """The per-chunk pass verify-symbols' stacks of whole chunks replaced:
    the rows of one (chunk, count, cfg) chunk, its modes drawn from the
    chunk's own stream and checked on their own."""
    chunk, count, cfg = task
    batch = _draw_modes(np.random.default_rng([cfg["seed"], chunk]), cfg, count)
    eye = np.eye(batch.n)
    worst_id = np.zeros(count)
    worst_gap = np.zeros(count)
    worst_pair = np.full(count, "", dtype=object)
    for bc in SYMBOL_BCS:
        b = boundary_symbol(batch, bc)
        closed = closed_form_inverse(batch, bc)
        generic = generic_inverse(batch, bc)
        rid = _max_abs(b @ closed - eye) / (_max_abs(b) * _max_abs(closed))
        gap = _max_abs(closed - generic) / _max_abs(generic)
        worse = np.maximum(rid, gap) >= np.maximum(worst_id, worst_gap)
        worst_pair[worse] = f"({bc.alpha},{bc.beta})"
        worst_id = np.maximum(worst_id, rid)
        worst_gap = np.maximum(worst_gap, gap)
    columns = (
        batch.abs_xi,
        batch.lam.imag,
        batch.epsilon,
        batch.rho,
        batch.mu,
        worst_id,
        worst_gap,
        worst_pair,
    )
    return [(chunk, idx, *row) for idx, row in enumerate(zip(*(c.tolist() for c in columns)))]


def _reference_wall_field(x: np.ndarray, harmonics: dict[float, complex]) -> np.ndarray:
    out = np.zeros_like(x)
    for xi, amp in harmonics.items():
        out += 2.0 * np.real(amp * np.exp(1j * xi * x))
    return out


def reference_classify_bc(
    bc: BcSpec,
    rho: float = 1.0,
    mu: float = 1.0,
    n_trials: int = 100,
    seed: int = 0,
    x_length: float = 2.0 * math.pi,
) -> ClassificationReport:
    """The per-trial, per-harmonic loop energy.classify_bc replaced: each
    trial's two harmonics drawn, projected and normalized one at a time, the
    wall traces summed from dicts, and the S/T integrands and cubic flux
    written out by hand."""
    rng = np.random.default_rng(seed)
    form = bc.adapted_form
    nx = 64
    x = np.linspace(0.0, x_length, nx, endpoint=False)
    wx = x_length / nx

    scale = x_length * max(1.0, rho, mu)
    zero_tol = 1.0e-10 * scale
    witness_floor = 1.0e-3

    max_lin = 0.0
    max_full = 0.0
    for _ in range(n_trials):
        traces: dict[str, dict[float, complex]] = {
            name: {} for name in ("v", "w", "dv", "dw", "p")
        }
        for k in (1, 2):
            xi = 2.0 * math.pi * k / x_length
            raw = rng.standard_normal(10)
            v0, w0, dv0, dw0, p0 = (
                raw[0] + 1j * raw[1],
                raw[2] + 1j * raw[3],
                raw[4] + 1j * raw[5],
                raw[6] + 1j * raw[7],
                raw[8] + 1j * raw[9],
            )
            # project onto the homogeneous constraint surface
            if bc.beta == 0:
                w0 = 0.0
            elif bc.beta == 1:
                p0 = 2.0 * mu * dw0
            else:
                p0 = 0.0
            if bc.alpha == 0:
                v0 = 0.0
            else:
                dv0 = -bc.alpha * 1j * xi * w0
            mag = max(abs(v0), abs(w0), abs(dv0), abs(dw0), abs(p0))
            if mag == 0.0:
                continue
            for name, amp in zip(("v", "w", "dv", "dw", "p"), (v0, w0, dv0, dw0, p0)):
                traces[name][xi] = amp / mag

        v = _reference_wall_field(x, traces["v"])
        w = _reference_wall_field(x, traces["w"])
        dv = _reference_wall_field(x, traces["dv"])
        dw = _reference_wall_field(x, traces["dw"])
        p = _reference_wall_field(x, traces["p"])
        dxw = _reference_wall_field(x, {xi: 1j * xi * amp for xi, amp in traces["w"].items()})

        if form == "S":
            integrand = -mu * v * (dv + dxw) + w * (p - 2.0 * mu * dw)
        else:
            integrand = -mu * v * (dv - dxw) + w * p
        pi_lin = wx * float(np.sum(integrand))
        conv = wx * float(np.sum(0.5 * rho * (v**2 + w**2) * (-w)))
        max_lin = max(max_lin, abs(pi_lin))
        max_full = max(max_full, abs(pi_lin - conv))

    if max_lin <= zero_tol and max_full <= zero_tol:
        empirical = "B1"
    elif max_lin <= zero_tol:
        empirical = "B2"
    elif max_lin >= witness_floor:
        empirical = "B3"
    else:
        empirical = "indeterminate"

    return ClassificationReport(
        bc=bc,
        predicted_class=bc.preservation_class,
        empirical_class=empirical,
        adapted_form=form,
        n_trials=n_trials,
        max_abs_linear_power=max_lin,
        max_abs_full_power=max_full,
        zero_tol=zero_tol,
        witness_floor=witness_floor,
    )
