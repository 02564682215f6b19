"""Re-check, with an independent oracle, the rows a verification sweep flagged.

    python perfbench/recheck.py VERB OUT_DIR

Run with src/ on PYTHONPATH, after ``stokesbc VERB`` wrote OUT_DIR and exited
with code 1 (its own gate failed).  Prints one JSON object: ``flagged``, the
rows over the campaign's tolerance; ``failures``, those the re-check could
not clear; ``worst_share``, the largest re-checked error as a share of what
the re-check allows.

Both sweeps fail their own gate on some seeds through known defects, so a
failed gate alone does not make a benchmark run wrong; a flagged row that
this re-check cannot clear does.

- verify-traces: on a vacuous quadrature call (one GK15 panel whose 15 nodes
  miss the kernel's fast layer and return exactly 0) the oracle, not the
  closed trace relation, is wrong.  Each flagged row is re-evaluated with the
  same kernels and multipliers on a partition seeded with geometric
  breakpoints, and must then pass the campaign's own ``rel_tol``.
- verify-symbols: the closed-form inverse itself loses accuracy at some modes
  (over seeds 1-130 at 1000 modes, 13 seeds flag a row and the closed form is
  up to 3.0e-9 from the exact inverse, against a 1e-10 gate; at the alpha = -1
  pairs of seeds 3, 20 and 21 the generic LU inverse is exact to 1e-16 and
  the closed form is off by up to 3.8e-10).  Each flagged row must keep its
  identity residual under ``identity_tol``, and every pair's closed form must
  lie within ``CLOSED_FORM_SLACK * generic_tol`` of the inverse of the
  boundary symbol computed in 50-digit arithmetic (mpmath).  A wrong closed
  form is off by order one and fails.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import mpmath
import numpy as np

from stokesbc import cli, parabolic, symbols
from stokesbc.quadrature import QuadratureCfg

#: how far past generic_tol the closed-form inverse may be from the exact one
CLOSED_FORM_SLACK = 1000.0
#: the dense partition starts from [a, a + (b - a) 2^-j] for j up to this
BREAKPOINT_DEPTH = 47

_MODE_COLUMNS = {
    "abs_xi": lambda m: m.abs_xi,
    "lambda_im": lambda m: m.lam.imag,
    "epsilon": lambda m: m.constants.epsilon,
    "rho": lambda m: m.constants.rho,
    "mu": lambda m: m.constants.mu,
}


def _redraw(rng, cfg: dict, row: dict):
    """The mode of a CSV row, drawn again from its chunk's generator."""
    for _ in range(int(row["index"]) + 1):
        mode = cli._draw_constants(rng, cfg)
    for column, value in _MODE_COLUMNS.items():
        if repr(float(value(mode))) != row[column]:
            raise ValueError(f"{column} {row[column]} is not what the config draws")
    return mode


def _dense_integrate(integrate):
    def dense(f, a, b, **kwargs):
        marks = tuple(a + (b - a) * 2.0**-j for j in range(1, BREAKPOINT_DEPTH + 1))
        return integrate(f, a, b, breakpoints=marks, **kwargs)

    return dense


def recheck_traces(cfg: dict, row: dict) -> float:
    relation, alpha, chunk = row["relation"], int(row["alpha"]), int(row["chunk"])
    ri = cfg["relations"].index(relation)
    mode = _redraw(np.random.default_rng([cfg["seed"], ri, alpha + 1, chunk]), cfg, row)
    q = cfg["quadrature"]
    qcfg = QuadratureCfg(
        rel_tol=q["rel_tol"],
        truncation_multiplier=q["truncation_multiplier"],
        max_subdivisions=q["max_subdivisions"],
    )
    integrate = parabolic.adaptive_integrate
    parabolic.adaptive_integrate = _dense_integrate(integrate)
    try:
        report = parabolic.verify_trace_relations([mode], alpha, relation, cfg=qcfg, rel_tol=cfg["rel_tol"])
    finally:
        parabolic.adaptive_integrate = integrate
    return report.max_rel_error / cfg["rel_tol"]


def _exact_inverse(b: np.ndarray) -> np.ndarray:
    with mpmath.workdps(50):
        inv = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in b]) ** -1
        return np.array([[complex(inv[i, j]) for j in range(inv.cols)] for i in range(inv.rows)])


def recheck_symbols(cfg: dict, row: dict) -> float:
    if float(row["identity_residual"]) >= cfg["identity_tol"]:
        return float("inf")
    mode = _redraw(np.random.default_rng([cfg["seed"], int(row["chunk"])]), cfg, row)
    worst = 0.0
    for alpha, beta in cli.SYMBOL_BCS:
        bc = symbols.BcSpec(alpha, beta)
        exact = _exact_inverse(symbols.boundary_symbol(mode, bc))
        closed = symbols.closed_form_inverse(mode, bc)
        worst = max(worst, float(np.max(np.abs(closed - exact)) / np.max(np.abs(exact))))
    return worst / (CLOSED_FORM_SLACK * cfg["generic_tol"])


#: verb -> (CSV, columns with their config tolerance, re-check returning the
#: row's error as a share of what the re-check allows)
SWEEPS = {
    "verify-traces": ("verify_traces", {"rel_error": "rel_tol"}, recheck_traces),
    "verify-symbols": (
        "verify_symbols",
        {"identity_residual": "identity_tol", "generic_gap": "generic_tol"},
        recheck_symbols,
    ),
}


def recheck(verb: str, out: Path) -> dict:
    stem, columns, check = SWEEPS[verb]
    cfg = json.loads((out / f"{stem}.json").read_text(encoding="utf-8"))["config"]
    with open(out / f"{stem}.csv", newline="", encoding="utf-8") as fh:
        flagged = [
            row
            for row in csv.DictReader(fh)
            if any(float(row[col]) >= cfg[tol] for col, tol in columns.items())
        ]
    failures, worst = [], 0.0
    for row in flagged:
        try:
            share = check(cfg, row)
        except Exception as exc:  # any error leaves the row uncleared
            share, row = float("inf"), {**row, "error": repr(exc)}
        worst = max(worst, share)
        if not share < 1.0:
            failures.append(row)
    return {"flagged": len(flagged), "failures": failures, "worst_share": worst}


if __name__ == "__main__":
    print(json.dumps(recheck(sys.argv[1], Path(sys.argv[2])), default=str))
