"""Command-line harness: verification campaigns, solves, audits, NS runs.

Five verbs, all sharing the global flags --config/--seed/--jobs/--out:

    stokesbc verify-symbols   closed-form inverse sweep vs the generic inverse
    stokesbc verify-traces    trace multipliers vs adaptive kernel quadrature
    stokesbc solve            synthesize a periodic-strip field from mode data
    stokesbc energy-audit     empirical boundary-power classification
    stokesbc run-ns           nonlinear backward-Euler/Picard time march

Configuration is JSON, strictly validated: unknown keys are rejected, and
every verb documents its defaults in _DEFAULTS below.  --seed overrides the
config seed.  --jobs is validated (an integer >= 1) but has no effect:
every campaign runs on one thread.  That includes BLAS: this module sets
OPENBLAS_NUM_THREADS to 1, unless the environment already sets it, before
it imports numpy.  The library's own ``import stokesbc`` loads no numpy and
changes no thread count.  Reports embed the fully resolved config.

Start-up: importing this module loads numpy, numpy.fft, argparse and the
two stokesbc submodules that every verb runs, errors and symbols.  It
registers the other eight in sys.modules, and on the package, through
importlib.util.LazyLoader, which runs a module on first use; perfbench's
tracer looks them all up in sys.modules.  Each verb then loads what it runs
(_VERB_MODULES) before it reads its config, so that loading stays start-up
work and no module runs inside a campaign: its own stokesbc submodule, which
imports the submodules it needs, and numpy.random for the verbs that draw
random numbers (verify-symbols, verify-traces, energy-audit).  numpy.random
brings in secrets and hashlib and with them OpenSSL's libcrypto: about 12 ms
and 6 MB of resident memory (4 MB of it libcrypto) on a 2-vCPU x86-64 host,
none of which solve or run-ns uses.  verify-symbols runs no submodule but
errors and symbols, so it compiles or reads no other.

Determinism contract: identical config + seed produce byte-identical output
files, whatever --jobs says.  A user-set OPENBLAS_NUM_THREADS is kept, and
another thread count can move run-ns artifacts in the last bits: the bytes
hold for a fixed thread count.  Random sweeps are split into a fixed number of
chunks, each drawn from its own seed sequence derived from (seed, chunk),
and results are written in chunk order; verify-symbols checks stacks of
consecutive whole chunks (SYMBOL_STACK), which changes no row.  No
timestamps or runtimes are written to any artifact.

Exit codes: 0 success, 1 tolerance breach (or non-converged run),
2 configuration or usage error, 3 numerical-budget failure.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
from importlib import import_module
from typing import NoReturn

# OpenBLAS reads this once, when numpy loads it.  Every product in a campaign
# is small (run-ns's are as wide as its y grid), so a second BLAS thread adds
# CPU time, and a stall of up to a second on the first call in a fresh
# process, but no speed
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

# numpy loads numpy.fft on first use; load it here, so that its import
# counts as start-up rather than as the first campaign's work
import numpy.fft  # noqa: E402, F401

from . import __version__  # noqa: E402
from .errors import (  # noqa: E402
    ConfigError,
    InvalidModeError,
    QuadratureBudgetError,
    SingularModeError,
    StokesbcError,
    canonical_json,
)
from .symbols import (  # noqa: E402
    ALL_BCS,
    SYMBOL_BCS,
    BcSpec,
    FluidConstants,
    ModeBatch,
    boundary_symbol,
    closed_form_inverse,
    derive_mode,
    generic_inverse,
)


def _lazy_import(name: str) -> None:
    """Register the submodule stokesbc.<name> in sys.modules and on the
    package without running it: LazyLoader runs it on first attribute
    access, and importing it (an import statement or import_module) reads
    one.  A submodule already imported is left as it is."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)


# every submodule but errors and symbols; perfbench's tracer looks them all
# up in sys.modules after importing this module
for _name in (
    "profiles",
    "quadrature",
    "grids",
    "elliptic",
    "halfspace",
    "parabolic",
    "energy",
    "navier_stokes",
):
    _lazy_import(_name)

from . import energy, halfspace, navier_stokes, parabolic, quadrature  # noqa: E402

#: number of sweep chunks; each chunk keys its own random stream, so the
#: modes drawn depend on the seed and the chunk alone.
N_CHUNKS = 16

#: most modes verify-symbols checks in one stack of whole chunks.  A stack
#: makes one boundary_symbol/inverse pass per pair, so below this size
#: numpy's per-call overhead, not arithmetic, is the cost; above it a stack
#: only holds more memory.
SYMBOL_STACK = 1024

TWO_PI = 2.0 * math.pi

_DEFAULTS: dict[str, dict] = {
    "verify-symbols": {
        "seed": 2024,
        "n_modes": 10_000,
        "abs_xi_range": [1.0e-2, 1.0e2],
        "lambda_im_range": [0.0, 1.0e2],
        "epsilon_choices": [1.0e-2, 1.0, 1.0e2],
        "rho_range": [0.1, 10.0],
        "mu_range": [0.1, 10.0],
        "identity_tol": 1.0e-12,
        "generic_tol": 1.0e-10,
    },
    "verify-traces": {
        "seed": 2024,
        "n_modes": 300,
        "relations": ["T00", "T10", "T11"],
        "rel_tol": 1.0e-7,
        "abs_xi_range": [1.0e-2, 1.0e2],
        "lambda_im_range": [0.0, 1.0e2],
        "epsilon_choices": [1.0e-2, 1.0, 1.0e2],
        "rho_range": [0.1, 10.0],
        "mu_range": [0.1, 10.0],
        "quadrature": {
            "rel_tol": 1.0e-10,
            "truncation_multiplier": 40.0,
            "max_subdivisions": 2000,
        },
    },
    "solve": {
        "seed": 0,
        "constants": {"rho": 1.0, "mu": 1.0, "epsilon": 1.0},
        "lambda": {"re": 0.0, "im": 0.0},
        "bc": {"alpha": 0, "beta": 0},
        "grid": {
            "x_length": TWO_PI,
            "x_count": 64,
            "y_max": 8.0,
            "y_count": 129,
            "y_kind": "uniform",
            "y_grading": 0.0,
        },
        "modes": [],
        "residual_samples": 33,
        "residual_tol": None,
    },
    "energy-audit": {
        "seed": 0,
        "constants": {"rho": 1.0, "mu": 1.0},
        "bcs": None,
        "n_trials": 100,
        "x_length": TWO_PI,
    },
    "run-ns": {
        "seed": 0,
        "constants": {"rho": 1.0, "mu": 1.0},
        "grid": {
            "x_length": TWO_PI,
            "x_count": 16,
            # the top boundary must sit deep enough that the initial tail
            # y^2 e^{-decay y} cannot feed an artificial boundary layer:
            # the discrete divergence defect scales like the datum there.
            "y_max": 16.0,
            "y_count": 129,
            "y_kind": "cheb",
            "y_grading": 0.0,
        },
        "initial": {"amplitude": 1.0e-3, "k": 1, "decay": 1.25},
        "dt": 0.02,
        "n_steps": 50,
        "picard_tol": 1.0e-8,
        "picard_max": 10,
        "dt_min": None,
    },
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _merge_config(defaults: dict, override: dict, path: str = "") -> dict:
    """Recursive merge of override into defaults, rejecting unknown keys; a
    complex default {"re": .., "im": ..} also takes a plain number."""
    merged = {}
    for key, base in defaults.items():
        merged[key] = base
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where!r}")
        base = defaults[key]
        if isinstance(base, dict) and isinstance(value, dict):
            merged[key] = _merge_config(base, value, where)
        elif isinstance(base, dict) and set(base) != {"re", "im"}:
            raise ConfigError(f"{where!r} must be an object")
        else:
            merged[key] = value
    return merged


def _finite(val) -> bool:
    """Whether the int or float val is a finite float; an int too large for
    a float is not."""
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _require_number(cfg: dict, key: str, *, positive: bool = False, path: str = ""):
    where = f"{path}.{key}" if path else key
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where!r} must be a number, got {val!r}")
    if not _finite(val):
        raise ConfigError(f"{where!r} must be finite, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(f"{where!r} must be > 0, got {val!r}")
    return val


def _require_int(cfg: dict, key: str, *, minimum: int | None = None, path: str = ""):
    where = f"{path}.{key}" if path else key
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where!r} must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{where!r} must be >= {minimum}, got {val}")
    return val


def _wavenumber(grid: halfspace.GridSpec, k: int, where: str) -> float:
    """grid.wavenumber(k) for the harmonic k read from where; a k whose
    wavenumber 2 pi k / x_length is not a finite float is a config error."""
    try:
        xi = grid.wavenumber(k)
    except OverflowError:  # k itself is too large for a float
        xi = math.inf
    if not math.isfinite(xi):
        raise ConfigError(f"{where!r} is too large: 2 pi k / x_length must be finite")
    return xi


def _require_range(cfg: dict, key: str, *, positive: bool = False) -> tuple[float, float]:
    val = cfg[key]
    if (
        not isinstance(val, (list, tuple))
        or len(val) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in val)
    ):
        raise ConfigError(f"{key!r} must be a [low, high] pair of numbers")
    if not all(_finite(v) for v in val):
        raise ConfigError(f"{key!r} must be finite, got {val!r}")
    lo, hi = float(val[0]), float(val[1])
    if lo > hi:
        raise ConfigError(f"{key!r} must be ascending, got {val!r}")
    if positive and lo <= 0:
        raise ConfigError(f"{key!r} must be positive, got {val!r}")
    return lo, hi


def _load_config(command: str, config_path: str | None, seed: int | None) -> dict:
    defaults = _DEFAULTS[command]
    override: dict = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                override = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error in {config_path}: line {exc.lineno} "
                f"column {exc.colno}: {exc.msg}"
            ) from exc
        except ValueError as exc:  # non-UTF-8 bytes, or an int past the digit limit
            raise ConfigError(f"config parse error in {config_path}: {exc}") from exc
        if not isinstance(override, dict):
            raise ConfigError("config root must be a JSON object")
    resolved = _merge_config(defaults, override)
    if seed is not None:
        resolved["seed"] = seed
    _require_int(resolved, "seed", minimum=0)
    return resolved


def _map_ordered(fn, tasks, jobs: int) -> list:
    """fn over tasks, in task order, on this thread (jobs is accepted and
    ignored).  verify-traces maps its sections through it and energy-audit
    its boundary-condition pairs; it stays a named function because
    perfbench's tracer replaces cli._map_ordered by name to count and time
    the tasks."""
    return [fn(t) for t in tasks]


def _chunk_counts(total: int) -> list[int]:
    base, rem = divmod(total, N_CHUNKS)
    return [base + (1 if c < rem else 0) for c in range(N_CHUNKS)]


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header: list[str], rows: list[tuple]) -> None:
    # a plain float is repr'd directly; numpy scalars, whose numpy-2 repr is
    # np.float64(...), and every other type go through _csv_cell.  Rows are
    # written one at a time: joining them first raised symbol-sweep's peak RSS.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(repr(v) if type(v) is float else _csv_cell(v) for v in row)
                + "\n"
            )


def _write_report(out_dir: str, name: str, report: dict) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_json(report))
    return path


def _draw_constants(rng: np.random.Generator, cfg: dict):
    """One random admissible (constants, lambda, |xi|) sample: the ModeParams
    of _draw_modes(rng, cfg, 1).

    The k-th call on a fresh generator gives, bit for bit, row k - 1 of
    _draw_modes(rng, cfg, count) on a generator of the same seed, for any
    count >= k.
    """
    batch = _draw_modes(rng, cfg, 1)
    constants = FluidConstants(
        rho=batch.rho.item(), mu=batch.mu.item(), epsilon=batch.epsilon.item()
    )
    return derive_mode(constants, batch.lam.item(), batch.xi[0])


def _draw_modes(rng: np.random.Generator, cfg: dict, count: int) -> ModeBatch:
    """count random modes, as one ModeBatch that is not yet checked for
    admissibility (_draw_chunks checks the batch it concatenates, once).

    Mode i is row i of u = rng.random((count, 5)), by column: log10 |xi|,
    Im lambda, the index floor(u k) into the k epsilon_choices, log10 rho
    and log10 mu, each but the index uniform on its config range.  Each
    double spends one generator word, so row i is bit for bit the i-th
    one-mode draw (_draw_constants) from a generator of the same seed: the
    modes of a chunk do not depend on how it is split.
    """
    u = rng.random((count, 5))

    def uniform(col: int, lo: float, hi: float) -> np.ndarray:
        return lo + (hi - lo) * u[:, col]

    def log_uniform(col: int, key: str) -> np.ndarray:
        # Python's float pow, one element at a time, so that a value does
        # not depend on its position in the array: numpy's vector power is
        # not correctly rounded and may take another path on another length
        lo, hi = cfg[key]
        logs = uniform(col, math.log10(lo), math.log10(hi))
        return np.array([10.0**x for x in logs.tolist()])

    choices = np.asarray(cfg["epsilon_choices"], dtype=float)
    # u < 1 and k < 2^53, so the correctly rounded u k stays below k
    eps = choices[(u[:, 2] * len(choices)).astype(np.intp)]
    return ModeBatch(
        rho=log_uniform(3, "rho_range"),
        mu=log_uniform(4, "mu_range"),
        epsilon=eps,
        lam=1j * uniform(1, *map(float, cfg["lambda_im_range"])),
        xi=log_uniform(0, "abs_xi_range")[:, None],
    )


def _validate_sweep_config(cfg: dict) -> None:
    _require_int(cfg, "n_modes", minimum=1)
    _require_range(cfg, "abs_xi_range", positive=True)
    lam_lo, _ = _require_range(cfg, "lambda_im_range")
    if lam_lo < 0:
        raise ConfigError("'lambda_im_range' must be non-negative")
    _require_range(cfg, "rho_range", positive=True)
    _require_range(cfg, "mu_range", positive=True)
    eps = cfg["epsilon_choices"]
    if (
        not isinstance(eps, (list, tuple))
        or not eps
        or any(
            isinstance(e, bool)
            or not isinstance(e, (int, float))
            or not _finite(e)
            or e <= 0
            for e in eps
        )
    ):
        raise ConfigError(
            "'epsilon_choices' must be a non-empty list of finite positive numbers"
        )


# ---------------------------------------------------------------------------
# verb: verify-symbols
# ---------------------------------------------------------------------------


def _symbol_stacks(counts: list[int]) -> list[list[tuple[int, int]]]:
    """The (chunk, count) of each non-empty chunk, grouped in chunk order
    into stacks of consecutive whole chunks of at most SYMBOL_STACK modes; a
    chunk larger than that is a stack alone."""
    stacks: list[list[tuple[int, int]]] = []
    size = SYMBOL_STACK
    for chunk, count in enumerate(counts):
        if count == 0:
            continue
        if size + count > SYMBOL_STACK:
            stacks.append([])
            size = 0
        stacks[-1].append((chunk, count))
        size += count
    return stacks


def _draw_chunks(cfg: dict, chunks: list[tuple[int, int]], key: tuple):
    """The modes of the (chunk, count) chunks as one batch, in chunk order,
    each chunk drawn from its own stream, keyed (seed, *key, chunk).  Returns
    the (chunk, index) label of every mode and the batch, checked for
    admissibility as a whole, so that the symbols the check derives stay
    cached on the batch the campaign reads.  An inadmissible mode raises
    InvalidModeError naming its (chunk, index) row."""
    labels = [(chunk, idx) for chunk, count in chunks for idx in range(count)]
    batch = ModeBatch.concat(
        [
            _draw_modes(np.random.default_rng([cfg["seed"], *key, chunk]), cfg, count)
            for chunk, count in chunks
        ]
    )
    try:
        batch.check_admissible()
    except InvalidModeError as exc:
        chunk, idx = labels[exc.index]
        raise InvalidModeError(f"{exc.reason} in row (chunk {chunk}, index {idx})") from None
    return labels, batch


def _check_symbol_stack(chunks: list[tuple[int, int]], cfg: dict) -> list[tuple]:
    """The rows of the (chunk, count) chunks, checked as one stack, each row
    labelled (chunk, index)."""
    labels, batch = _draw_chunks(cfg, chunks, ())
    eye = np.eye(batch.n)
    worst_id = np.zeros(batch.size)
    worst_gap = np.zeros(batch.size)
    worst_pair = np.full(batch.size, "", dtype=object)
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
    return [(*label, *row) for label, row in zip(labels, zip(*(c.tolist() for c in columns)))]


def _max_abs(stack: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each matrix of an (N, n, n) stack."""
    return np.max(np.abs(stack), axis=(1, 2))


def _cmd_verify_symbols(cfg: dict, jobs: int, out_dir: str) -> int:
    _validate_sweep_config(cfg)
    _require_number(cfg, "identity_tol", positive=True)
    _require_number(cfg, "generic_tol", positive=True)

    rows = [
        row
        for chunks in _symbol_stacks(_chunk_counts(cfg["n_modes"]))
        for row in _check_symbol_stack(chunks, cfg)
    ]

    worst_id = max((r[7] for r in rows), default=0.0)
    worst_gap = max((r[8] for r in rows), default=0.0)
    worst_row = max(rows, key=lambda r: max(r[7], r[8]), default=None)
    passed = worst_id < cfg["identity_tol"] and worst_gap < cfg["generic_tol"]

    header = [
        "chunk",
        "index",
        "abs_xi",
        "lambda_im",
        "epsilon",
        "rho",
        "mu",
        "identity_residual",
        "generic_gap",
        "worst_pair",
    ]
    _write_csv(os.path.join(out_dir, "verify_symbols.csv"), header, rows)
    # generic_inverse works in np.longdouble, which is plain double on some platforms
    extended = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
    report = {
        "command": "verify-symbols",
        "config": cfg,
        "pairs": [f"({a},{b})" for a, b in SYMBOL_BCS],
        "oracle_precision": "extended" if extended else "double",
        "n_modes": len(rows),
        "worst_identity_residual": worst_id,
        "worst_generic_gap": worst_gap,
        "worst_mode": dict(zip(header, worst_row)) if worst_row else None,
        "passed": passed,
    }
    _write_report(out_dir, "verify_symbols.json", report)
    print(
        f"verify-symbols: {len(rows)} modes x {len(SYMBOL_BCS)} pairs, "
        f"worst identity residual {worst_id:.3e} (tol {cfg['identity_tol']:.1e}), "
        f"worst generic gap {worst_gap:.3e} (tol {cfg['generic_tol']:.1e}): "
        f"{'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# verb: verify-traces
# ---------------------------------------------------------------------------

def _traces_section(task):
    """One (relation, alpha) section as one stack.  Returns the
    (chunk, index) label of every mode and the section's report."""
    relation, alpha, ri, cfg = task
    chunks = [(c, n) for c, n in enumerate(_chunk_counts(cfg["n_modes"])) if n > 0]
    try:
        labels, batch = _draw_chunks(cfg, chunks, (ri, alpha + 1))
    except InvalidModeError as exc:
        raise InvalidModeError(f"{exc} of {relation} alpha={alpha:+d}") from None
    qcfg = quadrature.QuadratureCfg(
        rel_tol=cfg["quadrature"]["rel_tol"],
        truncation_multiplier=cfg["quadrature"]["truncation_multiplier"],
        max_subdivisions=cfg["quadrature"]["max_subdivisions"],
    )
    return labels, parabolic.verify_trace_relations(
        batch, alpha, relation, cfg=qcfg, rel_tol=cfg["rel_tol"]
    )


def _cmd_verify_traces(cfg: dict, jobs: int, out_dir: str) -> int:
    _validate_sweep_config(cfg)
    _require_number(cfg, "rel_tol", positive=True)
    relations = cfg["relations"]
    if not isinstance(relations, (list, tuple)) or not relations:
        raise ConfigError("'relations' must be a non-empty list")
    alphas = parabolic._RELATION_ALPHAS
    for rel in relations:
        if rel not in alphas:
            raise ConfigError(f"unknown relation {rel!r}; choose from {sorted(alphas)}")
    q = cfg["quadrature"]
    _require_number(q, "rel_tol", positive=True, path="quadrature")
    _require_number(q, "truncation_multiplier", positive=True, path="quadrature")
    _require_int(q, "max_subdivisions", minimum=1, path="quadrature")

    tasks = [
        (relation, alpha, ri, cfg)
        for ri, relation in enumerate(relations)
        for alpha in alphas[relation]
    ]
    header = [
        "relation",
        "alpha",
        "chunk",
        "index",
        "abs_xi",
        "lambda_im",
        "epsilon",
        "rho",
        "mu",
        "rel_error",
    ]
    rows = []
    sections = []
    for (relation, alpha, _, _), (labels, rep) in zip(
        tasks, _map_ordered(_traces_section, tasks, jobs)
    ):
        for (chunk, idx), entry in zip(labels, rep.entries):
            rows.append((relation, alpha, chunk, idx, *(entry[k] for k in header[4:])))
        sections.append(
            {
                "relation": relation,
                "alpha": alpha,
                "n_modes": rep.n_modes,
                "max_rel_error": rep.max_rel_error,
                "worst_mode": rep.worst,
                "passed": rep.passed,
                "counters": {
                    "quadrature_intervals": {
                        "sum": sum(rep.intervals),
                        "min": min(rep.intervals),
                        "max": max(rep.intervals),
                    },
                    "panel_evals": rep.panel_evals,
                    "adaptive_rounds": rep.rounds,
                    "zero_values": rep.zero_values,
                },
            }
        )
    all_passed = all(s["passed"] for s in sections)
    _write_csv(os.path.join(out_dir, "verify_traces.csv"), header, rows)
    report = {
        "command": "verify-traces",
        "config": cfg,
        "relations": sections,
        "max_rel_error": max((s["max_rel_error"] for s in sections), default=0.0),
        "passed": all_passed,
    }
    _write_report(out_dir, "verify_traces.json", report)
    for s in sections:
        print(
            f"verify-traces: {s['relation']} alpha={s['alpha']:+d} over "
            f"{s['n_modes']} modes, max rel error {s['max_rel_error']:.3e} "
            f"(tol {cfg['rel_tol']:.1e}): {'PASS' if s['passed'] else 'FAIL'}"
        )
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# verb: solve
# ---------------------------------------------------------------------------


def _parse_complex(obj, where: str) -> complex:
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        parts = (obj.get("re", 0.0), obj.get("im", 0.0))
    else:
        parts = (obj, 0.0)
    if all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and _finite(v)
        for v in parts
    ):
        return complex(*parts)
    raise ConfigError(f"{where!r} must be a finite number or {{'re': .., 'im': ..}}")


def _bc_from_config(entry, where: str) -> BcSpec:
    """BcSpec of {'alpha': a, 'beta': b} with a, b integers in -1, 0, +1."""
    if not isinstance(entry, dict) or set(entry) != {"alpha", "beta"}:
        raise ConfigError(f"{where!r} must be {{'alpha': a, 'beta': b}}")
    for key in ("alpha", "beta"):
        val = entry[key]
        if isinstance(val, bool) or not isinstance(val, int) or val not in (-1, 0, 1):
            raise ConfigError(f"'{where}.{key}' must be one of -1, 0, +1, got {val!r}")
    return BcSpec(entry["alpha"], entry["beta"])


def _grid_from_config(cfg: dict) -> halfspace.GridSpec:
    g = cfg["grid"]
    _require_number(g, "x_length", positive=True, path="grid")
    _require_int(g, "x_count", minimum=1, path="grid")
    _require_number(g, "y_max", positive=True, path="grid")
    _require_int(g, "y_count", minimum=2, path="grid")
    _require_number(g, "y_grading", path="grid")
    if g["y_kind"] not in ("uniform", "graded", "cheb"):
        raise ConfigError("grid.y_kind must be 'uniform', 'graded' or 'cheb'")
    try:
        return halfspace.GridSpec(
            x_length=float(g["x_length"]),
            x_count=int(g["x_count"]),
            y_max=float(g["y_max"]),
            y_count=int(g["y_count"]),
            y_grading=float(g["y_grading"]),
            y_kind=g["y_kind"],
        )
    except ValueError as exc:  # GridSpec pairs y_grading with y_kind
        raise ConfigError(f"grid: {exc}") from exc


def _constants_from_config(cfg: dict, *, epsilon_key: bool = True) -> FluidConstants:
    c = cfg["constants"]
    _require_number(c, "rho", positive=True, path="constants")
    _require_number(c, "mu", positive=True, path="constants")
    if epsilon_key:
        _require_number(c, "epsilon", positive=True, path="constants")
        eps = float(c["epsilon"])
    else:
        eps = 1.0
    return FluidConstants(rho=float(c["rho"]), mu=float(c["mu"]), epsilon=eps)


def _cmd_solve(cfg: dict, jobs: int, out_dir: str) -> int:
    constants = _constants_from_config(cfg)
    lam = _parse_complex(cfg["lambda"], "lambda")
    bc = _bc_from_config(cfg["bc"], "bc")
    grid = _grid_from_config(cfg)
    n_samples = _require_int(cfg, "residual_samples", minimum=2)
    if cfg["residual_tol"] is not None:
        _require_number(cfg, "residual_tol", positive=True)

    if not isinstance(cfg["modes"], list):
        raise ConfigError("'modes' must be a list")
    contributions = {}
    data = []
    for i, entry in enumerate(cfg["modes"]):
        where = f"modes[{i}]"
        if not isinstance(entry, dict) or set(entry) - {"k", "h_w"}:
            raise ConfigError(f"{where} must be an object with keys 'k' and 'h_w'")
        k = entry.get("k")
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ConfigError(f"{where}.k must be an integer >= 1")
        if k in contributions:
            raise ConfigError(f"duplicate mode k = {k}")
        h_w = _parse_complex(entry.get("h_w", 1.0), f"{where}.h_w")
        try:
            mode = derive_mode(constants, lam, (_wavenumber(grid, k, f"{where}.k"),))
        except InvalidModeError as exc:
            # a one-mode batch: its "mode 0" is this entry, named instead
            msg = str(exc).removesuffix(" at mode 0")
            raise ConfigError(f"'{where}.k' gives an inadmissible mode: {msg}") from exc
        try:
            contributions[k] = halfspace.solve_mode(mode, bc, h_w)
        except SingularModeError as exc:
            raise ConfigError(f"'{where}.k' gives an unsolvable mode: {exc}") from exc
        data.append((k, h_w))

    field = halfspace.synthesize_field(constants, contributions, grid)

    y_samples = np.linspace(0.0, grid.y_max, n_samples)
    mode_rows = []
    for k, h_w in data:
        sol = contributions[k]
        scale = max(
            float(np.max(np.abs(sol.velocity.evaluate(y_samples)))), abs(h_w), 1.0e-300
        )
        momentum = float(np.max(np.abs(sol.momentum_residual().evaluate(y_samples))))
        divergence = float(np.max(np.abs(sol.divergence()(y_samples))))
        datum = abs(sol.normal_row() - h_w)
        tangential = float(np.max(np.abs(sol.tangential_row())))
        mode_rows.append(
            (
                k,
                momentum / scale,
                divergence / scale,
                datum / max(abs(h_w), 1.0e-300),
                tangential / scale,
            )
        )

    halfspace.write_field_csv(os.path.join(out_dir, "field.csv"), field)
    manifest = halfspace.field_manifest(field, "field.csv", config=cfg)
    halfspace.write_manifest(os.path.join(out_dir, "manifest.json"), manifest)

    header = ["k", "momentum", "divergence", "datum_normal", "datum_tangential"]
    _write_csv(os.path.join(out_dir, "solve_residuals.csv"), header, mode_rows)
    worst = max((max(r[1:]) for r in mode_rows), default=0.0)
    passed = cfg["residual_tol"] is None or worst < cfg["residual_tol"]
    report = {
        "command": "solve",
        "config": cfg,
        "n_modes": len(mode_rows),
        "residuals": [dict(zip(header, row)) for row in mode_rows],
        "max_residual": worst,
        "passed": passed,
    }
    _write_report(out_dir, "solve_report.json", report)
    print(
        f"solve: {len(mode_rows)} mode(s) on {grid.x_count}x{grid.y_count} grid, "
        f"max residual {worst:.3e}: {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# verb: energy-audit
# ---------------------------------------------------------------------------


def _cmd_energy_audit(cfg: dict, jobs: int, out_dir: str) -> int:
    constants = _constants_from_config(cfg, epsilon_key=False)
    n_trials = _require_int(cfg, "n_trials", minimum=1)
    _require_number(cfg, "x_length", positive=True)
    bcs = cfg["bcs"]
    if bcs is None:
        bcs = [{"alpha": a, "beta": b} for a, b in ALL_BCS]
    if not isinstance(bcs, list) or not bcs:
        raise ConfigError("'bcs' must be a non-empty list (or null for all nine)")
    specs = [_bc_from_config(entry, f"bcs[{i}]") for i, entry in enumerate(bcs)]

    def _one(bc: BcSpec):
        return energy.classify_bc(
            bc,
            rho=constants.rho,
            mu=constants.mu,
            n_trials=n_trials,
            seed=cfg["seed"],
            x_length=float(cfg["x_length"]),
        )

    section = [
        {
            "alpha": rep.bc.alpha,
            "beta": rep.bc.beta,
            "predicted_class": rep.predicted_class,
            "empirical_class": rep.empirical_class,
            "adapted_form": rep.adapted_form,
            "n_trials": rep.n_trials,
            "max_abs_linear_power": rep.max_abs_linear_power,
            "max_abs_full_power": rep.max_abs_full_power,
            "zero_tol": rep.zero_tol,
            "witness_floor": rep.witness_floor,
            "witness_found": rep.empirical_class == "B3",
            "passed": rep.passed,
        }
        for rep in _map_ordered(_one, specs, jobs)
    ]
    all_passed = all(s["passed"] for s in section)

    header = [
        "alpha",
        "beta",
        "predicted_class",
        "empirical_class",
        "adapted_form",
        "max_abs_linear_power",
        "max_abs_full_power",
        "zero_tol",
        "witness_floor",
        "passed",
    ]
    rows = [tuple(s[k] for k in header) for s in section]
    _write_csv(os.path.join(out_dir, "energy_audit.csv"), header, rows)
    report = {
        "command": "energy-audit",
        "config": cfg,
        "classification": section,
        "passed": all_passed,
    }
    _write_report(out_dir, "energy_audit.json", report)
    for s in section:
        print(
            f"energy-audit: (alpha,beta)=({s['alpha']:+d},{s['beta']:+d}) "
            f"predicted {s['predicted_class']} empirical {s['empirical_class']} "
            f"[form {s['adapted_form']}]: {'PASS' if s['passed'] else 'FAIL'}"
        )
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# verb: run-ns
# ---------------------------------------------------------------------------


def _cmd_run_ns(cfg: dict, jobs: int, out_dir: str) -> int:
    constants = _constants_from_config(cfg, epsilon_key=False)
    grid = _grid_from_config(cfg)
    if grid.y_kind != "cheb":
        raise ConfigError("run-ns requires grid.y_kind = 'cheb'")
    init = cfg["initial"]
    _require_number(init, "amplitude", path="initial")
    k = _require_int(init, "k", minimum=1, path="initial")
    # the march keeps the harmonics below the Nyquist one: a higher k would
    # be dropped or aliased onto another harmonic
    if 2 * k >= grid.x_count:
        raise ConfigError(
            f"'initial.k' must be below grid.x_count / 2 = {grid.x_count / 2:g}, got {k}"
        )
    _wavenumber(grid, k, "initial.k")
    _require_number(init, "decay", positive=True, path="initial")
    dt = _require_number(cfg, "dt", positive=True)
    n_steps = _require_int(cfg, "n_steps", minimum=1)
    picard_tol = _require_number(cfg, "picard_tol", positive=True)
    picard_max = _require_int(cfg, "picard_max", minimum=1)
    dt_min = cfg["dt_min"]
    if dt_min is not None:
        dt_min = _require_number(cfg, "dt_min", positive=True)

    initial = navier_stokes.stream_function_field(
        constants, grid, float(init["amplitude"]), k=k, decay=float(init["decay"])
    )
    stepper = navier_stokes.NsStepper(constants, grid)
    result = navier_stokes.run_simulation(
        stepper,
        initial,
        dt,
        n_steps,
        dt_min=dt_min,
        picard_tol=picard_tol,
        picard_max=picard_max,
        keep_states=False,
    )

    rows = []
    for i, rep in enumerate(result.reports):
        rows.append(
            (
                i + 1,
                rep.time,
                rep.dt,
                rep.n_iterations,
                rep.gaps[-1] if rep.gaps else 0.0,
                rep.converged,
                rep.max_divergence,
                rep.energy,
            )
        )
    header = [
        "step",
        "time",
        "dt",
        "picard_iterations",
        "picard_gap",
        "converged",
        "max_divergence",
        "kinetic_energy",
    ]
    _write_csv(os.path.join(out_dir, "energy.csv"), header, rows)

    final_field = result.states[-1].field
    halfspace.write_field_csv(os.path.join(out_dir, "final_field.csv"), final_field)
    halfspace.write_manifest(
        os.path.join(out_dir, "final_manifest.json"),
        halfspace.field_manifest(final_field, "final_field.csv", config=cfg),
    )

    completed = result.status == "completed"
    report = {
        "command": "run-ns",
        "config": cfg,
        "status": result.status,
        "n_steps_accepted": len(result.reports),
        "final_dt": result.final_dt,
        "final_time": result.states[-1].time,
        "initial_energy": result.energies[0],
        "final_energy": result.energies[-1],
        "max_divergence": max((r.max_divergence for r in result.reports), default=0.0),
        "max_picard_iterations": max(
            (r.n_iterations for r in result.reports), default=0
        ),
        "counters": {
            "picard_iterations": result.picard_iterations,
            "rejected_steps": result.rejected_steps,
            "dt_halvings": result.dt_halvings,
        },
        "passed": completed,
    }
    _write_report(out_dir, "run_ns.json", report)
    print(
        f"run-ns: {len(result.reports)} step(s), status {result.status}, "
        f"energy {result.energies[0]:.6e} -> {result.energies[-1]:.6e}: "
        f"{'PASS' if completed else 'FAIL'}"
    )
    return 0 if completed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "verify-symbols": _cmd_verify_symbols,
    "verify-traces": _cmd_verify_traces,
    "solve": _cmd_solve,
    "energy-audit": _cmd_energy_audit,
    "run-ns": _cmd_run_ns,
}

_HELP = {
    "verify-symbols": (
        "Sweep random admissible modes and compare the closed-form boundary-symbol "
        "inverse against the identity and against an extended-precision LU inverse "
        "of the symbol rebuilt from each mode's parameters."
    ),
    "verify-traces": (
        "Verify the closed trace multipliers against adaptive quadrature of the "
        "reflection kernels over random admissible modes."
    ),
    "solve": (
        "Solve the listed lattice modes for a boundary datum and synthesize the "
        "periodic-strip velocity/pressure field (CSV + manifest)."
    ),
    "energy-audit": (
        "Classify each boundary condition by the sign structure of its wall "
        "boundary power on random constraint-surface trial fields."
    ),
    "run-ns": (
        "Run the nonlinear backward-Euler/Picard time march on a periodic strip "
        "and emit per-step energy diagnostics plus the final field."
    ),
}

#: the modules each verb loads before it reads its config, so that loading
#: them counts as start-up rather than as part of the campaign: numpy.random
#: for the verbs that draw, and the stokesbc submodule the verb runs, which
#: loads the submodules it imports (see the module docstring)
_VERB_MODULES = {
    "verify-symbols": ("numpy.random",),
    "verify-traces": ("numpy.random", "stokesbc.parabolic"),
    "solve": ("stokesbc.halfspace",),
    "energy-audit": ("numpy.random", "stokesbc.energy"),
    "run-ns": ("stokesbc.navier_stokes",),
}


def _config_file(path: str) -> str:
    if not os.path.isfile(path):
        what = "is a directory" if os.path.isdir(path) else "does not exist"
        raise argparse.ArgumentTypeError(f"file {path!r} {what}")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {path!r} is not readable")
    return path


def _out_dir(path: str) -> str:
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"directory {path!r} is a file")
    return path


def _parser(prog_name: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog_name or "stokesbc",
        description="Halfspace Stokes boundary-symbol toolbox.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--version", action="version", version=f"stokesbc, version {__version__}"
    )
    verbs = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, help_text in _HELP.items():
        verb = verbs.add_parser(
            name, help=help_text, description=help_text, allow_abbrev=False
        )
        verb.add_argument(
            "--config",
            dest="config_path",
            type=_config_file,
            metavar="FILE",
            help="JSON config file merged over the verb's defaults.",
        )
        verb.add_argument("--seed", type=int, help="Override the config seed.")
        verb.add_argument(
            "--jobs",
            type=int,
            help="Accepted for compatibility, no effect (default: 1).",
        )
        verb.add_argument(
            "--out",
            dest="out_dir",
            type=_out_dir,
            required=True,
            metavar="DIRECTORY",
            help="Output directory for reports and data files.",
        )
    return parser


def _run(command: str, config_path, seed, jobs, out_dir) -> int:
    """Run the verb command; its exit code."""
    for name in _VERB_MODULES[command]:
        import_module(name)
    try:
        cfg = _load_config(command, config_path, seed)
        if jobs is not None and jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {jobs}")
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[command](cfg, jobs or 1, out_dir)
    except (ConfigError, InvalidModeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuadratureBudgetError as exc:
        print(f"numerical budget exhausted: {exc}", file=sys.stderr)
        return 3
    except StokesbcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """The ``stokesbc`` console script: run the verb that args (default
    sys.argv[1:]) name and raise SystemExit with its exit code; a usage
    error exits 2."""
    ns = _parser(prog_name).parse_args(args)
    sys.exit(_run(ns.command, ns.config_path, ns.seed, ns.jobs, ns.out_dir))


if __name__ == "__main__":
    main()
