"""Command-line harness: verification campaigns, solves, audits, NS runs.

Five verbs, all sharing the global flags --config/--seed/--jobs/--out:

    stokesbc verify-symbols   closed-form inverse sweep vs the generic inverse
    stokesbc verify-traces    trace multipliers vs adaptive kernel quadrature
    stokesbc solve            synthesize a periodic-strip field from mode data
    stokesbc energy-audit     empirical boundary-power classification
    stokesbc run-ns           nonlinear backward-Euler/Picard time march

solve runs all of its modes as one ModeBatch: one admissibility check, one
closed-form solve of the boundary symbols, residuals in closed form per
decay rate, and the field sampled and transformed in blocks of y nodes.  A
bad mode is named by its entry, 'modes[i].k', and the "poorly conditioned"
symbol warning comes once per solve, for its worst mode, with a
"(j of N modes)" count.

Configuration is JSON, strictly validated.  _CONFIG declares each verb's
config once: every leaf holds its default and its check, and _DEFAULTS is
the plain dict of the defaults.  A config file is merged over the defaults,
which rejects unknown keys, and checked in one walk of the table; an error
names its dotted key, "'grid.y_kind' must be ...", or a list key's entry,
"'bcs[1]' is a duplicate of 'bcs[0]'".  The verbs check only what reads two
keys or builds a library object, and the sweeps reject a drawn mode whose
|xi|^2 underflows to 0, by its (chunk, index) row.  --seed overrides the
config seed.  --jobs is validated (an integer >= 1) but has no effect:
every campaign runs on one thread.  That includes BLAS: this module sets
OPENBLAS_NUM_THREADS to 1, unless the environment already sets it, before
it imports numpy.  The library's own ``import stokesbc`` loads no numpy and
changes no thread count.  Reports embed the fully resolved config.

Start-up: importing this module loads numpy, numpy.fft, argparse and the
two stokesbc submodules that every verb runs, errors and symbols.  It
registers the other nine in sys.modules, and on the package, through
importlib.util.LazyLoader, which runs a module on first use; perfbench's
tracer looks them all up in sys.modules.  Each verb then loads what it runs
(_VERB_MODULES) before it reads its config, so that loading stays start-up
work and no module runs inside a campaign: its own stokesbc submodules,
which import the submodules they need.  The sweeps draw from pcg64, which
computes numpy's default_rng(key).random streams, and only energy-audit
loads numpy.random.  That brings in secrets and hashlib and with them
OpenSSL's libcrypto: about 12 ms and 6 MB of resident memory (4 MB of it
libcrypto) on a 2-vCPU x86-64 host.  verify-symbols runs no submodule but
errors, symbols and pcg64, so it compiles or reads no other.

Determinism contract: identical config + seed produce byte-identical output
files, whatever --jobs says.  A user-set OPENBLAS_NUM_THREADS is kept, and
another thread count can move run-ns artifacts in the last bits: the bytes
hold for a fixed thread count.  Random sweeps are split into a fixed number of
chunks, each drawn from its own seed sequence derived from (seed, chunk),
and results are written in chunk order; verify-symbols checks stacks of
consecutive whole chunks (SYMBOL_STACK), which changes no row.  No
timestamps or runtimes are written to any artifact.

Exit codes: 0 success, 1 tolerance breach (or non-converged run),
2 configuration or usage error, 3 numerical-budget failure.  A non-zero
exit takes away the --out directories the run made while they are empty.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
from importlib import import_module
from typing import Callable, NamedTuple, NoReturn

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
    solve_coefficients,
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
    "pcg64",
):
    _lazy_import(_name)

from . import energy, halfspace, navier_stokes, parabolic, pcg64, quadrature  # noqa: E402

#: number of sweep chunks; each chunk keys its own random stream, so the
#: modes drawn depend on the seed and the chunk alone.
N_CHUNKS = 16

#: most modes verify-symbols checks in one stack of whole chunks.  A stack
#: makes one boundary_symbol/inverse pass per pair, so below this size
#: numpy's per-call overhead, not arithmetic, is the cost; above it a stack
#: only holds more memory.
SYMBOL_STACK = 1024

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# config tables
# ---------------------------------------------------------------------------


class _Key(NamedTuple):
    """One config leaf: its default, and check(value, where), which raises
    ConfigError naming the dotted key where."""

    default: object
    check: Callable[[object, str], None]


def _real(val) -> bool:
    """Whether val is an int or float, not a bool, that is a finite float;
    an int too large for a float is not."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _number(default, *, positive: bool = False) -> _Key:
    """A finite number, > 0 if positive; null as well if the default is."""
    what = "a finite number" + (" > 0" if positive else "")
    what += " or null" if default is None else ""

    def check(val, where):
        if not (val is None and default is None) and (
            not _real(val) or (positive and val <= 0)
        ):
            raise ConfigError(f"{where!r} must be {what}, got {val!r}")

    return _Key(default, check)


def _integer(default: int, *, minimum: int) -> _Key:
    def check(val, where):
        if isinstance(val, bool) or not isinstance(val, int) or val < minimum:
            raise ConfigError(f"{where!r} must be an integer >= {minimum}, got {val!r}")

    return _Key(default, check)


def _range(default: list, *, positive: bool) -> _Key:
    """An ascending [low, high] pair of finite numbers, with low > 0 if
    positive and low >= 0 otherwise."""
    what = "an ascending [low, high] pair of finite numbers with low " + (
        "> 0" if positive else ">= 0"
    )

    def check(val, where):
        if not (
            isinstance(val, list)
            and len(val) == 2
            and all(_real(v) for v in val)
            and val[0] <= val[1]
            and (val[0] > 0 if positive else val[0] >= 0)
        ):
            raise ConfigError(f"{where!r} must be {what}, got {val!r}")

    return _Key(default, check)


def _positive_list(default: list) -> _Key:
    def check(val, where):
        if not isinstance(val, list) or not val or not all(_real(v) and v > 0 for v in val):
            raise ConfigError(
                f"{where!r} must be a non-empty list of finite numbers > 0, got {val!r}"
            )

    return _Key(default, check)


def _one_of(val, where: str, choices) -> None:
    # by type as well as value, since True == 1.0 == 1; and by ==, not a
    # lookup, since a list or dict is not hashable
    if not any(type(val) is type(c) and val == c for c in choices):
        raise ConfigError(f"{where!r} must be one of {list(choices)}, got {val!r}")


def _choice(default, choices: tuple) -> _Key:
    return _Key(default, lambda val, where: _one_of(val, where, choices))


def _list_of(default, entry: Callable[[object, str], None]) -> _Key:
    """A non-empty list, null as well if the default is, of entries that
    pass entry(item, where) and are all distinct."""

    def check(val, where):
        if val is None and default is None:
            return
        if not isinstance(val, list) or not val:
            raise ConfigError(f"{where!r} must be a non-empty list, got {val!r}")
        for i, item in enumerate(val):
            entry(item, f"{where}[{i}]")
            if item in val[:i]:
                raise ConfigError(
                    f"'{where}[{i}]' is a duplicate of '{where}[{val.index(item)}]'"
                )

    return _Key(default, check)


def _parse_complex(obj, where: str) -> complex:
    """A number, or {'re': .., 'im': ..} with either part left out for 0, as
    a complex; anything else is a config error."""
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        parts = (obj.get("re", 0.0), obj.get("im", 0.0))
    else:
        parts = (obj, 0.0)
    if all(_real(v) for v in parts):
        return complex(*parts)
    raise ConfigError(f"{where!r} must be a finite number or {{'re': .., 'im': ..}}")


def _check_lambda(val, where: str) -> None:
    lam = _parse_complex(val, where)
    if lam.real < 0.0:
        raise ConfigError(f"{where!r} must have Re lambda >= 0, got {lam}")


def _check_list(val, where: str) -> None:
    if not isinstance(val, list):
        raise ConfigError(f"{where!r} must be a list, got {val!r}")


def _check_relation(val, where: str) -> None:
    # parabolic loads on first use, with the verb that checks relations
    _one_of(val, where, sorted(parabolic.TRACE_RELATIONS))


def _check_bc(val, where: str) -> None:
    if not isinstance(val, dict) or set(val) != set(_BC):
        raise ConfigError(f"{where!r} must be {{'alpha': a, 'beta': b}}, got {val!r}")
    _check_config(_BC, val, where)


def _check_config(table: dict, cfg: dict, path: str = "") -> None:
    """Check every leaf of cfg, which _merge_config resolved from table's
    defaults, against table."""
    for key, spec in table.items():
        where = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            _check_config(spec, cfg[key], where)
        else:
            spec.check(cfg[key], where)


def _defaults(table: dict) -> dict:
    return {
        key: _defaults(spec) if isinstance(spec, dict) else spec.default
        for key, spec in table.items()
    }


def _grid_table(x_count: int, y_max: float, y_kinds: tuple) -> dict:
    """A verb's grid keys; y_kind defaults to the first of y_kinds."""
    return {
        "x_length": _number(TWO_PI, positive=True),
        "x_count": _integer(x_count, minimum=1),
        "y_max": _number(y_max, positive=True),
        "y_count": _integer(129, minimum=2),
        "y_kind": _choice(y_kinds[0], y_kinds),
        "y_grading": _number(0.0),
    }


_BC = {"alpha": _choice(0, (-1, 0, 1)), "beta": _choice(0, (-1, 0, 1))}

_FLUID = {"rho": _number(1.0, positive=True), "mu": _number(1.0, positive=True)}

#: the mode draws of both sweeps (_draw_modes)
_SWEEP = {
    "abs_xi_range": _range([1.0e-2, 1.0e2], positive=True),
    "lambda_im_range": _range([0.0, 1.0e2], positive=False),
    "epsilon_choices": _positive_list([1.0e-2, 1.0, 1.0e2]),
    "rho_range": _range([0.1, 10.0], positive=True),
    "mu_range": _range([0.1, 10.0], positive=True),
}

#: every verb's config, each leaf's default and check: _merge_config
#: resolves a config file over the defaults, and _check_config walks it
_CONFIG: dict[str, dict] = {
    "verify-symbols": {
        "seed": _integer(2024, minimum=0),
        "n_modes": _integer(10_000, minimum=1),
        **_SWEEP,
        "identity_tol": _number(1.0e-12, positive=True),
        "generic_tol": _number(1.0e-10, positive=True),
    },
    "verify-traces": {
        "seed": _integer(2024, minimum=0),
        "n_modes": _integer(300, minimum=1),
        "relations": _list_of(["T00", "T10", "T11"], _check_relation),
        "rel_tol": _number(1.0e-7, positive=True),
        **_SWEEP,
        "quadrature": {
            "rel_tol": _number(1.0e-10, positive=True),
            "truncation_multiplier": _number(40.0, positive=True),
            "max_subdivisions": _integer(2000, minimum=1),
        },
    },
    "solve": {
        "seed": _integer(0, minimum=0),
        "constants": {**_FLUID, "epsilon": _number(1.0, positive=True)},
        "lambda": _Key({"re": 0.0, "im": 0.0}, _check_lambda),
        "bc": _BC,
        "grid": _grid_table(64, 8.0, ("uniform", "graded", "cheb")),
        "modes": _Key([], _check_list),
        "residual_samples": _integer(33, minimum=2),
        "residual_tol": _number(None, positive=True),
    },
    "energy-audit": {
        "seed": _integer(0, minimum=0),
        "constants": _FLUID,
        "bcs": _list_of(None, _check_bc),
        "n_trials": _integer(100, minimum=1),
        "x_length": _number(TWO_PI, positive=True),
    },
    "run-ns": {
        "seed": _integer(0, minimum=0),
        "constants": _FLUID,
        # the top boundary must sit deep enough that the initial tail
        # y^2 e^{-decay y} cannot feed an artificial boundary layer: the
        # discrete divergence defect scales like the datum there.
        "grid": _grid_table(16, 16.0, ("cheb",)),
        "initial": {
            "amplitude": _number(1.0e-3),
            "k": _integer(1, minimum=1),
            "decay": _number(1.25, positive=True),
        },
        "dt": _number(0.02, positive=True),
        "n_steps": _integer(50, minimum=1),
        "picard_tol": _number(1.0e-8, positive=True),
        "picard_max": _integer(10, minimum=1),
        "dt_min": _number(None, positive=True),
    },
}

#: every verb's defaults, as a plain dict
_DEFAULTS: dict[str, dict] = {verb: _defaults(table) for verb, table in _CONFIG.items()}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _merge_config(defaults: dict, override: dict, path: str = "") -> dict:
    """Recursive merge of override into defaults, rejecting unknown keys; a
    complex default {"re": .., "im": ..} also takes a plain number."""
    merged = dict(defaults)
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


def _load_config(command: str, config_path: str | None, seed: int | None) -> dict:
    """The verb's defaults, with the config file at config_path merged over
    them and seed, if given, in place of the config seed; checked against
    the verb's table."""
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
    resolved = _merge_config(_DEFAULTS[command], override)
    if seed is not None:
        resolved["seed"] = seed
    _check_config(_CONFIG[command], resolved)
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
    """count random modes, of the rows of rng.random((count, 5)).  Each
    double spends one generator word, so row i is bit for bit the i-th
    one-mode draw (_draw_constants) from a generator of the same seed."""
    return _modes_from_uniforms(rng.random((count, 5)), cfg)


def _modes_from_uniforms(u: np.ndarray, cfg: dict) -> ModeBatch:
    """The modes of the rows of u, (count, 5) uniforms on [0, 1), as one
    ModeBatch that is not yet checked for admissibility (_draw_chunks checks
    the batch it draws, once).

    Mode i is row i of u, by column: log10 |xi|, Im lambda, the index
    floor(u k) into the k epsilon_choices, log10 rho and log10 mu, each but
    the index uniform on its config range.  A mode reads its row alone.
    """

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
    each chunk from its own stream: the modes _draw_modes draws from
    default_rng([seed, *key, chunk]).  Returns the (chunk, index) label of
    every mode and the batch, checked for admissibility as a whole, so that
    the symbols the check derives stay cached on the batch the campaign
    reads.  An inadmissible mode, or else one whose |xi|^2 underflows to 0,
    raises InvalidModeError naming its (chunk, index) row."""
    labels = [(chunk, idx) for chunk, count in chunks for idx in range(count)]
    streams = pcg64.uniforms(
        [[cfg["seed"], *key, chunk] for chunk, _ in chunks],
        5 * max(count for _, count in chunks),
    )
    rows = [row[: 5 * count].reshape(count, 5) for row, (_, count) in zip(streams, chunks)]
    batch = _modes_from_uniforms(np.concatenate(rows), cfg)
    try:
        batch.check_admissible()
        # a positive |xi| can square to 0, and the (alpha, 0) inverses and
        # the trace kernels divide by |xi|^2
        zero = batch.xi_sq == 0.0
        if zero.any():
            raise InvalidModeError.at_mode("|xi|^2 must be > 0, got 0.0", int(np.argmax(zero)))
    except InvalidModeError as exc:
        raise InvalidModeError(_in_row(exc, labels)) from None
    return labels, batch


def _in_row(exc, labels: list[tuple[int, int]]) -> str:
    """The reason of a ModeIndexedError, naming its mode's (chunk, index)
    label."""
    chunk, idx = labels[exc.index]
    return f"{exc.reason} in row (chunk {chunk}, index {idx})"


def _check_symbol_stack(chunks: list[tuple[int, int]], cfg: dict) -> list[tuple]:
    """The rows of the (chunk, count) chunks, checked as one stack, each row
    labelled (chunk, index).  A drawn mode whose symbol is exactly singular
    under some pair raises ConfigError naming the pair and its row."""
    labels, batch = _draw_chunks(cfg, chunks, ())
    eye = np.eye(batch.n)
    worst_id = np.zeros(batch.size)
    worst_gap = np.zeros(batch.size)
    worst_pair = np.full(batch.size, "", dtype=object)
    for bc in SYMBOL_BCS:
        b = boundary_symbol(batch, bc)
        closed = closed_form_inverse(batch, bc)
        try:
            generic = generic_inverse(batch, bc)
        except SingularModeError as exc:
            raise ConfigError(f"{_in_row(exc, labels)} at (alpha, beta) = {tuple(bc)}") from None
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
    relation, alpha, ri, cfg, qcfg = task
    chunks = [(c, n) for c, n in enumerate(_chunk_counts(cfg["n_modes"])) if n > 0]
    try:
        labels, batch = _draw_chunks(cfg, chunks, (ri, alpha + 1))
    except InvalidModeError as exc:
        raise InvalidModeError(f"{exc} of {relation} alpha={alpha:+d}") from None
    return labels, parabolic.verify_trace_relations(
        batch, alpha, relation, cfg=qcfg, rel_tol=cfg["rel_tol"]
    )


def _cmd_verify_traces(cfg: dict, jobs: int, out_dir: str) -> int:
    table = parabolic.TRACE_RELATIONS
    qcfg = quadrature.QuadratureCfg(**cfg["quadrature"])

    # a section's stream key is the relation's index in the config's list
    tasks = [
        (relation, alpha, ri, cfg, qcfg)
        for ri, relation in enumerate(cfg["relations"])
        for alpha in table[relation][1]
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
    for (relation, alpha, *_), (labels, rep) in zip(
        tasks, _map_ordered(_traces_section, tasks, jobs)
    ):
        columns = zip(*(getattr(rep, name).tolist() for name in header[4:]))
        rows += [(relation, alpha, *label, *row) for label, row in zip(labels, columns)]
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
                        "sum": int(rep.intervals.sum()),
                        "min": int(rep.intervals.min()),
                        "max": int(rep.intervals.max()),
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


def _grid_from_config(cfg: dict) -> halfspace.GridSpec:
    g = cfg["grid"]
    try:
        return halfspace.GridSpec(
            x_length=float(g["x_length"]),
            x_count=g["x_count"],
            y_max=float(g["y_max"]),
            y_count=g["y_count"],
            y_grading=float(g["y_grading"]),
            y_kind=g["y_kind"],
        )
    except ValueError as exc:  # GridSpec pairs y_grading with y_kind
        raise ConfigError(f"'grid.y_grading' does not fit 'grid.y_kind': {exc}") from exc


def _constants_from_config(cfg: dict) -> FluidConstants:
    """cfg["constants"] as FluidConstants; a verb whose constants have no
    epsilon key gets epsilon = 1."""
    c = cfg["constants"]
    return FluidConstants(
        rho=float(c["rho"]), mu=float(c["mu"]), epsilon=float(c.get("epsilon", 1.0))
    )


def _cmd_solve(cfg: dict, jobs: int, out_dir: str) -> int:
    constants = _constants_from_config(cfg)
    lam = _parse_complex(cfg["lambda"], "lambda")
    bc = BcSpec(**cfg["bc"])
    grid = _grid_from_config(cfg)

    data = {}  # k -> (h_w, xi), in entry order
    for i, entry in enumerate(cfg["modes"]):
        where = f"modes[{i}]"
        if not isinstance(entry, dict) or set(entry) - {"k", "h_w"}:
            raise ConfigError(f"{where!r} must be an object with keys 'k' and 'h_w'")
        k = entry.get("k")
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ConfigError(f"'{where}.k' must be an integer >= 1, got {k!r}")
        if k in data:
            raise ConfigError(f"'{where}.k' is a duplicate of 'modes[{list(data).index(k)}].k'")
        h_w = _parse_complex(entry.get("h_w", 1.0), f"{where}.h_w")
        data[k] = (h_w, _wavenumber(grid, k, f"{where}.k"))

    # every mode in one batch: its mode i is entry modes[i]
    harmonics = list(data)
    h_w = np.array([d[0] for d in data.values()], dtype=complex)
    xi = np.array([d[1] for d in data.values()], dtype=float)
    batch = ModeBatch.of_fluid(constants, lam, xi[:, None])
    try:
        batch.check_admissible()
    except InvalidModeError as exc:
        raise ConfigError(
            f"'modes[{exc.index}].k' gives an inadmissible mode: {exc.reason}"
        ) from exc
    try:
        z_v, z_w = solve_coefficients(batch, bc, h_w)
    except SingularModeError as exc:
        raise ConfigError(
            f"'modes[{exc.index}].k' gives an unsolvable mode: {exc.reason}"
        ) from exc
    amps = halfspace.ansatz_amplitudes(batch, z_v, z_w)

    y_samples = np.linspace(0.0, grid.y_max, cfg["residual_samples"])
    residuals = halfspace.ansatz_residuals(batch, bc, amps, h_w, y_samples)
    mode_rows = list(zip(harmonics, *residuals.tolist()))
    field = halfspace.synthesize_field(
        constants, harmonics, lambda y: halfspace.sample_ansatz(batch, amps, y), grid
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
    constants = _constants_from_config(cfg)
    bcs = cfg["bcs"]
    specs = ALL_BCS if bcs is None else [BcSpec(**entry) for entry in bcs]

    def _one(bc: BcSpec):
        return energy.classify_bc(
            bc,
            rho=constants.rho,
            mu=constants.mu,
            n_trials=cfg["n_trials"],
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
    constants = _constants_from_config(cfg)
    grid = _grid_from_config(cfg)
    init = cfg["initial"]
    k = init["k"]
    # the march keeps the harmonics below the Nyquist one: a higher k would
    # be dropped or aliased onto another harmonic
    if 2 * k >= grid.x_count:
        raise ConfigError(
            f"'initial.k' must be below grid.x_count / 2 = {grid.x_count / 2:g}, got {k}"
        )
    _wavenumber(grid, k, "initial.k")

    initial = navier_stokes.stream_function_field(
        constants, grid, float(init["amplitude"]), k=k, decay=float(init["decay"])
    )
    stepper = navier_stokes.NsStepper(constants, grid)
    result = navier_stokes.run_simulation(
        stepper,
        initial,
        cfg["dt"],
        cfg["n_steps"],
        dt_min=cfg["dt_min"],
        picard_tol=cfg["picard_tol"],
        picard_max=cfg["picard_max"],
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
#: them counts as start-up rather than as part of the campaign: the stokesbc
#: submodules the verb runs, which load the submodules they import, and
#: numpy.random for energy-audit's draws (see the module docstring)
_VERB_MODULES = {
    "verify-symbols": ("stokesbc.pcg64",),
    "verify-traces": ("stokesbc.pcg64", "stokesbc.parabolic"),
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
    if not path:
        raise argparse.ArgumentTypeError("directory must not be empty")
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
    made = []  # the directories makedirs makes, deepest first
    code = 1
    try:
        cfg = _load_config(command, config_path, seed)
        if jobs is not None and jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {jobs}")
        path = os.path.abspath(out_dir)
        while not os.path.exists(path):
            made.append(path)
            path = os.path.dirname(path)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            # a usage error; code is still 1, so the cleanup below runs
            print(f"error: cannot create --out {out_dir!r}: {exc.strerror}", file=sys.stderr)
            return 2
        code = _COMMANDS[command](cfg, jobs or 1, out_dir)
    except (ConfigError, InvalidModeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except QuadratureBudgetError as exc:
        print(f"numerical budget exhausted: {exc}", file=sys.stderr)
        code = 3
    except StokesbcError as exc:
        print(f"error: {exc}", file=sys.stderr)
    finally:
        if code:
            for path in filter(os.path.isdir, made):
                if os.listdir(path):
                    break
                os.rmdir(path)
    return code


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """The ``stokesbc`` console script: run the verb that args (default
    sys.argv[1:]) name and raise SystemExit with its exit code; a usage
    error exits 2."""
    ns = _parser(prog_name).parse_args(args)
    sys.exit(_run(ns.command, ns.config_path, ns.seed, ns.jobs, ns.out_dir))


if __name__ == "__main__":
    main()
