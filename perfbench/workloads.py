"""The four campaign workloads of the stokesbc benchmark.

Each workload turns the benchmark seed into a CLI config (the program sees
only that config) and says what one *item* of work is.  ``toy=True`` shrinks
a workload to a size the self-test can afford; the benchmark itself always
runs full size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: boundary-condition pairs verify-symbols checks per mode
SYMBOL_PAIRS = 6
#: trace checks (adaptive_integrate calls) per mode over T00, T10, T11:
#: T00 at alpha 0, T10 at alpha +-1, T11 at alpha 0, +-1
TRACE_CHECKS_PER_MODE = 6


def _data_rows(path: Path) -> int:
    """Lines of a CSV artifact after its header."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _symbol_config(seed: int, toy: bool) -> dict:
    return {"seed": seed, "n_modes": 24 if toy else 1000}


def _trace_config(seed: int, toy: bool) -> dict:
    return {"seed": seed, "n_modes": 8 if toy else 300}


def _ns_config(seed: int, toy: bool) -> dict:
    # |amplitude| in [0.2, 0.3] at harmonic 1 keeps Picard at exactly three
    # iterations on every one of the 50 steps; other harmonics and smaller
    # amplitudes mix 2- and 4-iteration steps, so the seed would change the
    # amount of work by up to 20 % and the timing spread with it.
    rng = random.Random(seed)
    amplitude = rng.uniform(0.2, 0.3) * rng.choice((-1.0, 1.0))
    cfg = {
        "seed": seed,
        "grid": {"x_count": 32},
        "initial": {"amplitude": amplitude, "k": 1},
    }
    if toy:
        cfg["grid"] = {"x_count": 8, "y_count": 33}
        cfg["n_steps"] = 3
    return cfg


def _solve_config(seed: int, toy: bool) -> dict:
    rng = random.Random(seed)
    n_modes = 4 if toy else 64
    modes = [
        {"k": k, "h_w": {"re": rng.gauss(0.0, 1.0) / k, "im": rng.gauss(0.0, 1.0) / k}}
        for k in range(1, n_modes + 1)
    ]
    grid = {"x_count": 16, "y_count": 17} if toy else {"x_count": 256, "y_count": 257}
    return {"seed": seed, "modes": modes, "grid": grid, "residual_tol": 1.0e-6}


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    jobs: int
    #: the report JSON the verb writes under --out
    report: str
    make_config: Callable[[int, bool], dict]
    expected_items: Callable[[dict], int]
    count_items: Callable[[Path, dict], int]
    #: the two verification sweeps fail their own gate on some seeds through
    #: known defects; for them a failed gate (exit code 1) is a correct run
    #: only if perfbench/recheck.py clears every flagged row
    recheck: bool = False


#: why each workload is in the benchmark is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="symbol-sweep",
            verb="verify-symbols",
            jobs=1,
            report="verify_symbols.json",
            make_config=_symbol_config,
            expected_items=lambda cfg: cfg["n_modes"] * SYMBOL_PAIRS,
            count_items=lambda out, rep: _data_rows(out / "verify_symbols.csv")
            * len(rep["pairs"]),
            recheck=True,
        ),
        Workload(
            name="trace-quadrature",
            verb="verify-traces",
            jobs=2,
            report="verify_traces.json",
            make_config=_trace_config,
            expected_items=lambda cfg: cfg["n_modes"] * TRACE_CHECKS_PER_MODE,
            count_items=lambda out, rep: _data_rows(out / "verify_traces.csv"),
            recheck=True,
        ),
        Workload(
            name="ns-desk",
            verb="run-ns",
            jobs=1,
            report="run_ns.json",
            make_config=_ns_config,
            expected_items=lambda cfg: cfg.get("n_steps", 50),
            count_items=lambda out, rep: _data_rows(out / "energy.csv"),
        ),
        Workload(
            name="solve-field",
            verb="solve",
            jobs=1,
            report="solve_report.json",
            make_config=_solve_config,
            expected_items=lambda cfg: cfg["grid"]["x_count"] * cfg["grid"]["y_count"],
            count_items=lambda out, rep: _data_rows(out / "field.csv"),
        ),
    )
}
