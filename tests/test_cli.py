"""CLI verbs: artifacts, exit codes, config validation, determinism."""

import csv
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    CliRunner,
    reference_solve,
    reference_symbols_chunk,
    reference_write_csv,
)

import stokesbc
from stokesbc import QuadratureCfg, cli, halfspace, symbols, verify_trace_relations
from stokesbc.cli import main
from stokesbc.symbols import generic_inverse


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, verb, tmp_path, config=None, *, name="out", extra=()):
    args = [verb]
    if config is not None:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config))
        args += ["--config", str(cfg_path)]
    out_dir = tmp_path / name
    args += ["--out", str(out_dir), *extra]
    result = runner.invoke(main, args)
    return result, out_dir


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


def test_help_lists_verbs(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for verb in ("verify-symbols", "verify-traces", "solve", "energy-audit", "run-ns"):
        assert verb in result.output


def probe_env(blas_threads=None):
    """The environment of a fresh interpreter that runs stokesbc from src/,
    with OPENBLAS_NUM_THREADS set to `blas_threads` (unset for None:
    importing stokesbc.cli in this process has set it)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def run_probe(code, blas_threads=None):
    """stdout of `code` run in a fresh interpreter with probe_env(blas_threads)."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=probe_env(blas_threads),
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


#: prints the stokesbc modules that have run, in sorted order.  type()
#: reads no attribute, so it does not run a lazily registered module, which
#: is a LazyLoader subclass of ModuleType until it runs
_EXECUTED = (
    "import sys, types\n"
    "def executed():\n"
    "    return sorted(n for n, m in sys.modules.items()\n"
    "                  if n.split('.')[0] == 'stokesbc' and type(m) is types.ModuleType)\n"
)


def test_cli_import_leaves_unused_modules_unloaded():
    # numpy.random brings in OpenSSL's libcrypto through hashlib (_hashlib)
    probe = _EXECUTED + (
        "import json, stokesbc, stokesbc.cli\n"
        "print(json.dumps([\n"
        "    [m for m in ('scipy', 'click', 'numpy.random', '_hashlib') if m in sys.modules],\n"
        "    executed(),\n"
        "    sorted(n for n in sys.modules if n.startswith('stokesbc.')),\n"
        "    stokesbc.halfspace is sys.modules['stokesbc.halfspace'],\n"
        "]))\n"
    )
    unwanted, executed, registered, same = json.loads(run_probe(probe))
    assert unwanted == []
    assert executed == ["stokesbc", "stokesbc.cli", "stokesbc.errors", "stokesbc.symbols"]
    # perfbench's tracer looks up every module it wraps in sys.modules
    assert registered == sorted(
        f"stokesbc.{m.name}" for m in pkgutil.iter_modules(stokesbc.__path__)
    )
    assert same


#: the CI smoke config of solve: four modes under the (1, 1) pair
_SMOKE_SOLVE = {
    "modes": [
        {"k": 1, "h_w": 1.0},
        {"k": 2, "h_w": {"re": 0.5, "im": -0.25}},
        {"k": 3, "h_w": {"re": -0.3, "im": 0.1}},
        {"k": 4, "h_w": 0.2},
    ],
    "bc": {"alpha": 1, "beta": 1},
}


def loaded_after_run(tmp_path, verb, config):
    """The exit code of a run of verb on config in a fresh interpreter, and
    which of numpy.random and the modules it brings in, secrets and OpenSSL's
    _hashlib, the run has loaded."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    args = [verb, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    probe = (
        "import json, sys\n"
        "from stokesbc.cli import main\n"
        "try:\n"
        f"    main({args!r})\n"
        "except SystemExit as exc:\n"
        "    print(json.dumps([exc.code, [m for m in ('numpy.random', 'secrets', '_hashlib')\n"
        "                                 if m in sys.modules]]))\n"
    )
    return json.loads(run_probe(probe).splitlines()[-1])


@pytest.mark.parametrize(
    "verb, config",
    [
        ("solve", _SMOKE_SOLVE),
        ("run-ns", {"grid": {"x_count": 8, "y_count": 33}, "n_steps": 3}),
    ],
)
def test_campaigns_that_draw_nothing_never_load_numpy_random(tmp_path, verb, config):
    assert loaded_after_run(tmp_path, verb, config) == [0, []]


@pytest.mark.parametrize(
    "verb, config",
    [
        ("verify-symbols", {"n_modes": 32}),
        ("verify-traces", {"n_modes": 16, "relations": ["T00"]}),
    ],
)
def test_sweeps_draw_without_numpy_random(tmp_path, verb, config):
    """The sweeps draw their modes from stokesbc.pcg64, so they load neither
    numpy.random nor, through it, hashlib and OpenSSL's libcrypto."""
    assert loaded_after_run(tmp_path, verb, config) == [0, []]


#: a small campaign of each verb, and the stokesbc modules it runs beside
#: stokesbc, stokesbc.cli, stokesbc.errors and stokesbc.symbols
_VERB_RUNS = {
    "verify-symbols": ({"n_modes": 32}, ["stokesbc.pcg64"]),
    "verify-traces": (
        {"n_modes": 16, "relations": ["T00"]},
        ["stokesbc.parabolic", "stokesbc.pcg64", "stokesbc.profiles", "stokesbc.quadrature"],
    ),
    "solve": (
        _SMOKE_SOLVE,
        ["stokesbc.elliptic", "stokesbc.grids", "stokesbc.halfspace", "stokesbc.profiles"],
    ),
    "energy-audit": (
        {"n_trials": 2, "bcs": [{"alpha": 0, "beta": 0}]},
        [
            "stokesbc.elliptic",
            "stokesbc.energy",
            "stokesbc.grids",
            "stokesbc.halfspace",
            "stokesbc.profiles",
        ],
    ),
    "run-ns": (
        {"grid": {"x_count": 8, "y_count": 33}, "n_steps": 2},
        [
            "stokesbc.elliptic",
            "stokesbc.energy",
            "stokesbc.grids",
            "stokesbc.halfspace",
            "stokesbc.navier_stokes",
            "stokesbc.profiles",
        ],
    ),
}


@pytest.mark.parametrize("verb", list(_VERB_RUNS))
def test_each_verb_loads_its_modules_before_its_config(tmp_path, verb):
    """Every module a campaign runs has run when its config is read, so
    that loading counts as start-up: none runs inside the verb body.
    energy-audit, which draws from numpy.random, has loaded it by then too;
    the sweeps draw from stokesbc.pcg64 and never load it."""
    config, modules = _VERB_RUNS[verb]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    args = [verb, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    probe = _EXECUTED + (
        "import json\n"
        "from stokesbc import cli\n"
        "seen = {}\n"
        f"load_config, body = cli._load_config, cli._COMMANDS[{verb!r}]\n"
        "def loading(*args):\n"
        "    seen['config'] = executed()\n"
        "    seen['random'] = 'numpy.random' in sys.modules\n"
        "    return load_config(*args)\n"
        "def running(*args):\n"
        "    try:\n"
        "        return body(*args)\n"
        "    finally:\n"
        "        seen['body'] = executed()\n"
        "cli._load_config = loading\n"
        f"cli._COMMANDS[{verb!r}] = running\n"
        "try:\n"
        f"    cli.main({args!r})\n"
        "except SystemExit as exc:\n"
        "    seen['code'] = exc.code\n"
        "print(json.dumps(seen))\n"
    )
    seen = json.loads(run_probe(probe).splitlines()[-1])
    assert seen["code"] == 0
    assert seen["random"] == (verb == "energy-audit")
    assert seen["config"] == seen["body"]
    base = ["stokesbc", "stokesbc.cli", "stokesbc.errors", "stokesbc.symbols"]
    assert seen["body"] == sorted(base + modules)


def test_version_runs_from_the_source_tree():
    done = subprocess.run(
        [sys.executable, "-m", "stokesbc.cli", "--version"],
        env=probe_env(),
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout) == (0, f"stokesbc, version {stokesbc.__version__}\n")


def test_package_import_loads_no_numpy_and_keeps_blas_threads():
    probe = (
        "import os, sys, stokesbc; "
        "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    assert run_probe(probe) == "False None"


@pytest.mark.parametrize(("preset", "expected"), [(None, "1"), ("3", "3")])
def test_cli_import_defaults_blas_to_one_thread(preset, expected):
    probe = "import os, stokesbc.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_probe(probe, blas_threads=preset) == expected


#: the loaded OpenBLAS's own thread counts, found as perfbench's environment
#: probe finds them
_OPENBLAS_THREADS_PROBE = r"""
import ctypes, json, os
import stokesbc.cli
threads = {}
with open("/proc/self/maps") as maps:
    paths = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
for path in paths:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            fn = getattr(lib, sym)
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads[os.path.basename(path)] = fn()
            break
print(json.dumps(threads))
"""


def test_cli_import_runs_openblas_on_one_thread():
    if not Path("/proc/self/maps").is_file():
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS in")
    threads = json.loads(run_probe(_OPENBLAS_THREADS_PROBE))
    if not threads:
        pytest.skip("numpy loaded no library exporting an OpenBLAS *_get_num_threads* symbol")
    assert set(threads.values()) == {1}


def test_out_flag_is_required(runner):
    result = runner.invoke(main, ["verify-symbols"])
    assert result.exit_code == 2
    assert "--out" in result.output


def test_missing_config_file(runner, tmp_path):
    result = runner.invoke(
        main,
        ["verify-symbols", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["bogus", "--out", "{tmp}/o"],
        ["solve", "--seed", "x", "--out", "{tmp}/o"],
        ["solve", "--jobs", "1.5", "--out", "{tmp}/o"],
        ["solve", "--conf", "c.json", "--out", "{tmp}/o"],
        ["solve", "--config", "{tmp}", "--out", "{tmp}/o"],
        ["solve", "--out", "{tmp}/file"],
    ],
)
def test_usage_errors_exit_2(runner, tmp_path, args):
    (tmp_path / "file").write_text("")
    result = runner.invoke(main, [a.replace("{tmp}", str(tmp_path)) for a in args])
    assert result.exit_code == 2, result.output
    assert "usage:" in result.output.lower()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "out, message",
    [
        ("afile/sub", "error: cannot create --out 'afile/sub': Not a directory\n"),
        ("", "argument --out: directory must not be empty\n"),
    ],
    ids=["under-a-file", "empty"],
)
def test_out_that_cannot_be_created_exits_2(runner, tmp_path, monkeypatch, out, message):
    """An --out that cannot be made is a usage error: one line, exit 2, no
    traceback, and nothing left on disk."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    result = runner.invoke(main, ["solve", "--out", out])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert result.output.endswith(message)
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_malformed_json_reports_position(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"n_modes": 5,,}')
    result = runner.invoke(
        main, ["verify-symbols", "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2
    assert "line" in result.output and "column" in result.output


def test_unknown_key_rejected(runner, tmp_path):
    result, _ = invoke(runner, "verify-symbols", tmp_path, {"n_mode": 5})
    assert result.exit_code == 2
    assert "n_mode" in result.output


def test_negative_tolerance_rejected(runner, tmp_path):
    result, _ = invoke(
        runner, "verify-symbols", tmp_path, {"n_modes": 4, "identity_tol": -1e-12}
    )
    assert result.exit_code == 2
    assert "identity_tol" in result.output


@pytest.mark.parametrize(
    "verb, config, named",
    [
        ("solve", {"grid": {"x_count": 0}}, "grid.x_count"),
        ("solve", {"grid": {"y_count": 1}}, "grid.y_count"),
        ("solve", {"grid": {"y_kind": "hex"}}, "grid.y_kind"),
        ("solve", {"grid": {"y_max": 0}}, "grid.y_max"),
        ("solve", {"grid": {"y_kind": "graded"}}, "y_grading"),
        ("solve", {"grid": {"y_grading": 3.0}}, "y_grading"),
        ("solve", {"constants": {"rho": 0}}, "constants.rho"),
        ("solve", {"bc": {"alpha": 2}}, "bc.alpha"),
        ("solve", {"modes": [{"k": 0}]}, "modes[0].k"),
        ("solve", {"lambda": {"re": "x"}}, "lambda"),
        ("energy-audit", {"bcs": [{"alpha": 5, "beta": 0}]}, "bcs[0]"),
        ("energy-audit", {"n_trials": 0}, "n_trials"),
        ("run-ns", {"grid": {"y_kind": "uniform"}}, "grid.y_kind"),
        ("run-ns", {"dt": -1}, "dt"),
        ("verify-traces", {"relations": ["T99"]}, "T99"),
        ("verify-symbols", {"rho_range": [1, 0.1]}, "rho_range"),
        ("verify-symbols", {"rho_range": [0.1, float("inf")]}, "rho_range"),
        ("verify-symbols", {"abs_xi_range": [float("nan"), 1.0]}, "abs_xi_range"),
        ("verify-traces", {"lambda_im_range": [0, float("inf")]}, "lambda_im_range"),
        ("verify-traces", {"epsilon_choices": [float("inf")]}, "epsilon_choices"),
        ("solve", {"bc": {"alpha": True, "beta": 0}}, "bc.alpha"),
        ("energy-audit", {"bcs": [{"alpha": 1.0, "beta": False}]}, "bcs[0]"),
        ("solve", {"modes": [{"k": 1, "h_w": {"re": float("nan")}}]}, "modes[0].h_w"),
        ("solve", {"lambda": {"re": float("nan")}}, "lambda"),
        # a relation that is not a string cannot be looked up in the table
        ("verify-traces", {"relations": [["T00"]]}, "'relations[0]' must be one of"),
        ("verify-traces", {"relations": [{"T00": 1}]}, "'relations[0]' must be one of"),
        # a section or pair listed twice would repeat its rows' labels
        (
            "verify-traces",
            {"relations": ["T00", "T10", "T00"]},
            "'relations[2]' is a duplicate of 'relations[0]'",
        ),
        (
            "energy-audit",
            {"bcs": [{"alpha": 1, "beta": 0}, {"beta": 0, "alpha": 1}]},
            "'bcs[1]' is a duplicate of 'bcs[0]'",
        ),
    ],
)
def test_invalid_config_exits_2_naming_the_key(runner, tmp_path, verb, config, named):
    result, _ = invoke(runner, verb, tmp_path, config)
    assert result.exit_code == 2, result.output
    assert "config error" in result.output
    assert named in result.output


def table_leaves(table, path=()):
    """(dotted key, leaf) of every leaf of a verb's config table."""
    for key, spec in table.items():
        if isinstance(spec, dict):
            yield from table_leaves(spec, (*path, key))
        else:
            yield ".".join((*path, key)), spec


@pytest.mark.parametrize(
    "verb, key",
    [(verb, key) for verb, table in cli._CONFIG.items() for key, _ in table_leaves(table)],
)
def test_every_config_leaf_checks_its_value(runner, tmp_path, verb, key):
    """A leaf's default passes its own check, and a string, a bool and a
    nested list each exit 2 naming the key (or, for a list key, its entry)."""
    leaf = dict(table_leaves(cli._CONFIG[verb]))[key]
    leaf.check(leaf.default, key)
    named = re.compile(rf"'{re.escape(key)}(\[0\])?' ")
    for i, bad in enumerate(("x", True, [["x"]])):
        config = bad
        for part in reversed(key.split(".")):
            config = {part: config}
        result, _ = invoke(runner, verb, tmp_path, config, name=f"bad{i}")
        assert result.exit_code == 2, result.output
        assert result.output.startswith("config error: "), result.output
        assert named.search(result.output), result.output


#: json writes and reads this int, but no float holds it
_TOO_LARGE = 10**400


@pytest.mark.parametrize(
    "verb, config, named",
    [
        ("solve", {"constants": {"rho": _TOO_LARGE}}, "constants.rho"),
        ("solve", {"modes": [{"k": 1, "h_w": _TOO_LARGE}]}, "modes[0].h_w"),
        ("solve", {"lambda": {"im": -_TOO_LARGE}}, "lambda"),
        ("verify-symbols", {"rho_range": [1, _TOO_LARGE]}, "rho_range"),
        ("verify-traces", {"epsilon_choices": [1.0, _TOO_LARGE]}, "epsilon_choices"),
        ("run-ns", {"dt": _TOO_LARGE}, "dt"),
        # harmonics: 2 pi k / x_length must be a finite float as well as k
        ("solve", {"modes": [{"k": 1}, {"k": _TOO_LARGE}]}, "modes[1].k"),
        ("solve", {"modes": [{"k": 10**308}]}, "modes[0].k"),
        ("run-ns", {"initial": {"k": _TOO_LARGE}}, "initial.k"),
    ],
)
def test_number_too_large_for_a_float_exits_2_naming_the_key(
    runner, tmp_path, verb, config, named
):
    result, _ = invoke(runner, verb, tmp_path, config)
    assert result.exit_code == 2, result.output
    assert "config error" in result.output
    assert named in result.output


def test_integer_past_the_digit_limit_is_a_config_parse_error(runner, tmp_path):
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text('{"modes": [{"k": 1' + "0" * 5000 + "}]}")
    result = runner.invoke(
        main, ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 2, result.output
    assert "config parse error" in result.output


def test_solve_takes_a_plain_number_lambda(runner, tmp_path):
    base = {
        "modes": [{"k": 1, "h_w": 1.0}, {"k": 2, "h_w": 0.5}],
        "grid": {"x_count": 8, "y_count": 17},
    }
    plain, plain_out = invoke(runner, "solve", tmp_path, {**base, "lambda": 0.5}, name="plain")
    obj, obj_out = invoke(runner, "solve", tmp_path, {**base, "lambda": {"re": 0.5}}, name="obj")
    assert plain.exit_code == 0, plain.output
    assert obj.exit_code == 0, obj.output
    assert (plain_out / "field.csv").read_bytes() == (obj_out / "field.csv").read_bytes()
    # only a complex default takes a plain number in place of an object
    result, _ = invoke(runner, "solve", tmp_path, {"constants": 1.0}, name="bad")
    assert result.exit_code == 2
    assert "'constants' must be an object" in result.output


def test_single_mode_smoke_emits_one_row(runner, tmp_path):
    result, out = invoke(runner, "verify-symbols", tmp_path, {"n_modes": 1})
    assert result.exit_code == 0, result.output
    rows = read_rows(out / "verify_symbols.csv")
    assert len(rows) == 1
    assert float(rows[0]["identity_residual"]) < 1e-12
    report = json.loads((out / "verify_symbols.json").read_text())
    assert report["passed"] is True
    assert report["n_modes"] == 1


def test_verify_symbols_records_the_oracle_precision(runner, tmp_path):
    result, out = invoke(runner, "verify-symbols", tmp_path, {"n_modes": 1})
    assert result.exit_code == 0, result.output
    report = json.loads((out / "verify_symbols.json").read_text())
    extended = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
    assert report["oracle_precision"] == ("extended" if extended else "double")


def test_verify_symbols_impossible_tolerance_fails(runner, tmp_path):
    result, out = invoke(
        runner, "verify-symbols", tmp_path, {"n_modes": 8, "identity_tol": 1e-18}
    )
    assert result.exit_code == 1
    report = json.loads((out / "verify_symbols.json").read_text())
    assert report["passed"] is False


def test_verify_symbols_deterministic_across_jobs(runner, tmp_path):
    cfg = {"n_modes": 48}
    first, out1 = invoke(runner, "verify-symbols", tmp_path, cfg, name="a")
    second, out2 = invoke(
        runner, "verify-symbols", tmp_path, cfg, name="b", extra=("--jobs", "4")
    )
    assert first.exit_code == second.exit_code == 0
    a, b = tree_bytes(out1), tree_bytes(out2)
    assert list(a) == list(b)
    assert a == b


def test_seed_flag_overrides_config(runner, tmp_path):
    base, out1 = invoke(runner, "verify-symbols", tmp_path, {"n_modes": 4}, name="a")
    seeded, out2 = invoke(
        runner, "verify-symbols", tmp_path, {"n_modes": 4}, name="b", extra=("--seed", "77")
    )
    again, out3 = invoke(
        runner, "verify-symbols", tmp_path, {"n_modes": 4}, name="c", extra=("--seed", "77")
    )
    assert base.exit_code == seeded.exit_code == again.exit_code == 0
    assert tree_bytes(out2) == tree_bytes(out3)
    assert tree_bytes(out1) != tree_bytes(out2)
    report = json.loads((out2 / "verify_symbols.json").read_text())
    assert report["config"]["seed"] == 77


def test_invalid_jobs_exits_2(runner, tmp_path):
    result, _ = invoke(runner, "verify-symbols", tmp_path, {"n_modes": 1}, extra=("--jobs", "0"))
    assert result.exit_code == 2, result.output
    assert "config error: --jobs" in result.output


def test_verify_traces_smoke_and_worst_mode(runner, tmp_path):
    cfg = {"n_modes": 4, "relations": ["T00", "T10"]}
    result, out = invoke(runner, "verify-traces", tmp_path, cfg)
    assert result.exit_code == 0, result.output
    report = json.loads((out / "verify_traces.json").read_text())
    sections = report["relations"]
    # T00 runs at alpha 0 only; T10 at alpha +-1
    assert {(s["relation"], s["alpha"]) for s in sections} == {
        ("T00", 0), ("T10", 1), ("T10", -1),
    }
    for section in sections:
        assert section["max_rel_error"] < 1e-7
        assert "worst_mode" in section and "abs_xi" in section["worst_mode"]
    rows = read_rows(out / "verify_traces.csv")
    assert len(rows) == 12


def test_verify_traces_deterministic_across_jobs_with_counters(runner, tmp_path):
    cfg = {"n_modes": 40}
    trees = []
    for jobs in ("1", "2", "4"):
        result, out = invoke(
            runner, "verify-traces", tmp_path, cfg, name=f"j{jobs}", extra=("--jobs", jobs)
        )
        assert result.exit_code == 0, result.output
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1] == trees[2]
    for section in json.loads(trees[0]["verify_traces.json"])["relations"]:
        counters = section["counters"]
        intervals = counters["quadrature_intervals"]
        assert 1 <= intervals["min"] <= intervals["max"] <= intervals["sum"]
        # one seed panel per mode, then two panels per bisection
        assert counters["panel_evals"] == 2 * intervals["sum"] - 40
        # T11 at alpha = 0 integrates d_y G_plus(0, .) = 0: one panel, value 0
        vacuous = (section["relation"], section["alpha"]) == ("T11", 0)
        assert counters["zero_values"] == (40 if vacuous else 0)
        assert (counters["adaptive_rounds"] == 0) == vacuous


# per-section (quadrature_intervals.sum, panel_evals, adaptive_rounds) of the
# default verify-traces run, seed 2024: 8,851 intervals, 15,902 panels and 30
# rounds in all; T11 at alpha = 0 is one vacuous panel per mode
DEFAULT_TRACE_COUNTERS = {
    ("T00", 0): (1733, 3166, 6),
    ("T10", 1): (1710, 3120, 6),
    ("T10", -1): (1710, 3120, 6),
    ("T11", 0): (300, 300, 0),
    ("T11", 1): (1697, 3094, 6),
    ("T11", -1): (1701, 3102, 6),
}


def test_default_verify_traces_counters_are_pinned(runner, tmp_path):
    """The quadrature does exactly the work it did: the same partitions,
    panels and rounds in every section of the default sweep."""
    result, out = invoke(runner, "verify-traces", tmp_path)
    assert result.exit_code == 0, result.output
    counters = {
        (s["relation"], s["alpha"]): (
            s["counters"]["quadrature_intervals"]["sum"],
            s["counters"]["panel_evals"],
            s["counters"]["adaptive_rounds"],
        )
        for s in json.loads((out / "verify_traces.json").read_text())["relations"]
    }
    assert counters == DEFAULT_TRACE_COUNTERS
    assert [sum(c) for c in zip(*counters.values())] == [8851, 15902, 30]


@pytest.mark.parametrize("relations", [["T00", "T11"], ["T11", "T00"]], ids="-".join)
def test_verify_traces_rows_are_their_chunks_checked_alone(runner, tmp_path, relations):
    """A section checks all its chunks as one stack; every row's rel_error
    is, bit for bit, what its chunk returns when checked on its own.  The
    sections run in the config's order, and a section's modes are drawn
    from the streams of its relation's index in that list."""
    cfg = {"n_modes": 40, "relations": relations}
    result, out = invoke(runner, "verify-traces", tmp_path, cfg)
    assert result.exit_code == 0, result.output
    resolved = json.loads((out / "verify_traces.json").read_text())["config"]
    qcfg = QuadratureCfg(**resolved["quadrature"])
    counts = cli._chunk_counts(resolved["n_modes"])
    alone = {}
    rows = read_rows(out / "verify_traces.csv")
    assert list(dict.fromkeys(row["relation"] for row in rows)) == relations
    for row in rows:
        relation, alpha, chunk = row["relation"], int(row["alpha"]), int(row["chunk"])
        key = (relation, alpha, chunk)
        if key not in alone:
            ri = resolved["relations"].index(relation)
            rng = np.random.default_rng([resolved["seed"], ri, alpha + 1, chunk])
            modes = [cli._draw_constants(rng, resolved) for _ in range(counts[chunk])]
            alone[key] = verify_trace_relations(modes, alpha, relation, cfg=qcfg)
        i = int(row["index"])
        assert float(row["abs_xi"]) == alone[key].abs_xi[i]
        assert float(row["rel_error"]) == alone[key].rel_error[i]
    # T00 at alpha 0 and T11 at alpha 0, +-1, each over 16 chunks of 2-3 modes
    assert len(alone) == 4 * 16


def test_verify_symbols_rows_are_redrawn_one_mode_at_a_time(runner, tmp_path):
    """Each row's mode is the (index + 1)-th _draw_constants call on its
    chunk's generator, column for column by repr."""
    result, out = invoke(runner, "verify-symbols", tmp_path, {"n_modes": 40})
    assert result.exit_code == 0, result.output
    resolved = json.loads((out / "verify_symbols.json").read_text())["config"]
    rows = read_rows(out / "verify_symbols.csv")
    assert len(rows) == 40
    for row in rows:
        rng = np.random.default_rng([resolved["seed"], int(row["chunk"])])
        for _ in range(int(row["index"]) + 1):
            mode = cli._draw_constants(rng, resolved)
        c = mode.constants
        drawn = (mode.abs_xi, mode.lam.imag, c.epsilon, c.rho, c.mu)
        columns = ("abs_xi", "lambda_im", "epsilon", "rho", "mu")
        assert [repr(v) for v in drawn] == [row[name] for name in columns]


@pytest.mark.parametrize(
    "cfg, code",
    [
        # one stack of 16 chunks
        ({"n_modes": 40}, 0),
        # chunks of 131-132 modes: stacks of 7 chunks and a partial last one
        ({"n_modes": 2100}, 0),
        # near-singular modes: the generic gap breaches its gate
        ({"n_modes": 37, "abs_xi_range": [1e-8, 1e8], "lambda_im_range": [0, 1e-6]}, 1),
    ],
)
def test_verify_symbols_rows_are_their_chunks_checked_alone(runner, tmp_path, cfg, code):
    """verify-symbols checks stacks of whole chunks; every row is, cell for
    cell by repr, what its chunk returns when checked on its own."""
    result, out = invoke(runner, "verify-symbols", tmp_path, cfg)
    assert result.exit_code == code, result.output
    resolved = json.loads((out / "verify_symbols.json").read_text())["config"]
    alone = [
        row
        for chunk, count in enumerate(cli._chunk_counts(resolved["n_modes"]))
        for row in reference_symbols_chunk((chunk, count, resolved))
    ]
    # the worst_pair cell "(a,b)" holds a comma: compare whole lines
    written = (out / "verify_symbols.csv").read_text().splitlines()[1:]
    assert written == [",".join(cli._csv_cell(v) for v in row) for row in alone]


@pytest.mark.parametrize("n_modes, calls", [(1000, 6), (10_000, 96)])
def test_verify_symbols_stacks_chunks_up_to_the_cap(runner, tmp_path, monkeypatch, n_modes, calls):
    """All 16 chunks of 1,000 modes fit one stack, one generic_inverse call
    per pair; a 625-mode chunk of 10,000 modes is a stack of its own."""
    seen = []

    def counted(batch, bc):
        seen.append(batch.size)
        return generic_inverse(batch, bc)

    monkeypatch.setattr(cli, "generic_inverse", counted)
    result, _ = invoke(runner, "verify-symbols", tmp_path, {"n_modes": n_modes})
    assert result.exit_code == 0, result.output
    assert len(seen) == calls
    assert max(seen) <= cli.SYMBOL_STACK
    assert sum(seen) == 6 * n_modes


def test_verify_symbols_names_a_drawn_mode_with_an_exactly_singular_symbol(runner, tmp_path):
    """rho lambda_eps = 1e-300 leaves the generic inverse an exactly zero
    pivot: a config error naming the pair and the row, not a tolerance
    breach."""
    cfg = {"n_modes": 64, "epsilon_choices": [1e-300], "lambda_im_range": [0.0, 0.0]}
    result, out = invoke(runner, "verify-symbols", tmp_path, cfg)
    assert result.exit_code == 2, result.output
    assert (
        "config error: boundary symbol is exactly singular in row (chunk 0, index 0) "
        "at (alpha, beta) = (0, 0)" in result.output
    )
    assert not out.exists()


def test_verify_traces_checks_the_coefficients_solve_uses(runner, tmp_path, monkeypatch):
    """Scale beta = +1's normal row of B by 1.25: B and its closed-form
    inverse stay consistent, so verify-symbols passes, but the solve is
    wrong.  verify-traces reads its multipliers off that inverse and fails
    every T11 section."""
    row_scalings = symbols._row_scalings

    def scaled(p, bc):
        d = row_scalings(p, bc)
        if bc.beta == 1:
            d[:, -1] *= 1.25
        return d

    monkeypatch.setattr(symbols, "_row_scalings", scaled)
    cfg = {"n_modes": 40}
    result, _ = invoke(runner, "verify-symbols", tmp_path, cfg, name="symbols")
    assert result.exit_code == 0, result.output
    result, out = invoke(runner, "verify-traces", tmp_path, cfg, name="traces")
    assert result.exit_code == 1, result.output
    sections = json.loads((out / "verify_traces.json").read_text())["relations"]
    failed = {(s["relation"], s["alpha"]) for s in sections if not s["passed"]}
    assert failed == {("T11", 0), ("T11", 1), ("T11", -1)}


def test_verify_traces_budget_exhaustion_exit_code(runner, tmp_path):
    cfg = {
        "n_modes": 2,
        "relations": ["T00"],
        "quadrature": {"max_subdivisions": 2},
    }
    result, _ = invoke(runner, "verify-traces", tmp_path, cfg)
    assert result.exit_code == 3
    assert "subdivisions" in result.output


def test_solve_empty_mode_list_zero_field(runner, tmp_path):
    cfg = {"modes": [], "grid": {"x_count": 8, "y_count": 17}}
    result, out = invoke(runner, "solve", tmp_path, cfg)
    assert result.exit_code == 0
    rows = read_rows(out / "field.csv")
    values = [float(v) for row in rows for k, v in row.items() if k not in ("x", "y")]
    assert values and max(abs(v) for v in values) == 0.0


def test_solve_single_mode_artifacts(runner, tmp_path):
    cfg = {
        "modes": [{"k": 1, "h_w": {"re": 1.0, "im": 0.5}}],
        "bc": {"alpha": 0, "beta": 1},
        "lambda": {"re": 0.0, "im": 0.4},
        "grid": {"x_count": 16, "y_count": 65, "y_max": 10.0},
    }
    result, out = invoke(runner, "solve", tmp_path, cfg)
    assert result.exit_code == 0, result.output
    for name in ("field.csv", "manifest.json", "solve_residuals.csv", "solve_report.json"):
        assert (out / name).exists()
    report = json.loads((out / "solve_report.json").read_text())
    assert report["passed"] is True
    worst = max(
        max(abs(row["momentum"]), abs(row["divergence"]), abs(row["datum_normal"]))
        for row in report["residuals"]
    )
    assert worst < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["modes"][0]["k"] == 1


def test_solve_overflowing_mode_is_a_config_error(runner, tmp_path):
    # xi = 2 pi 10^300 / x_length is finite, |xi|^2 is not
    result, _ = invoke(runner, "solve", tmp_path, {"modes": [{"k": 10**300}]})
    assert result.exit_code == 2, result.output
    assert "'modes[0].k'" in result.output
    assert "|xi|^2 must be finite" in result.output
    # the error names the config entry, not the position in a one-mode batch
    cfg = {"modes": [{"k": 1}, {"k": 10**300}]}
    result, _ = invoke(runner, "solve", tmp_path, cfg, name="second")
    assert result.exit_code == 2, result.output
    assert "'modes[1].k'" in result.output
    assert "|xi|^2 must be finite" in result.output
    assert "mode 0" not in result.output
    # of two bad entries the first is named, though it fails a later check:
    # mu |xi|^2 overflows omega at k = 10^150, |xi|^2 itself at 10^300
    constants = {"rho": 1.0, "mu": 1e10, "epsilon": 1.0}
    cfg = {"constants": constants, "modes": [{"k": 1}, {"k": 10**150}, {"k": 10**300}]}
    result, _ = invoke(runner, "solve", tmp_path, cfg, name="first")
    assert result.exit_code == 2, result.output
    assert "'modes[1].k' gives an inadmissible mode: omega must be finite" in result.output


def test_solve_mode_with_a_singular_symbol_is_a_config_error(runner, tmp_path):
    # k = 10^20: |xi|^2 is finite, but the no-slip symbol's condition number
    # read off its inverse is not, and the solve would carry no digits
    cfg = {"modes": [{"k": 1}, {"k": 10**20}]}
    with pytest.warns(RuntimeWarning, match="cond = inf"):
        result, out = invoke(runner, "solve", tmp_path, cfg)
    assert result.exit_code == 2, result.output
    assert "'modes[1].k' gives an unsolvable mode" in result.output
    assert "cond = inf" in result.output
    assert not (out / "solve_report.json").exists()
    # a poorly conditioned but finite symbol still solves, with its warning
    with pytest.warns(RuntimeWarning, match="poorly conditioned"):
        result, _ = invoke(runner, "solve", tmp_path, {"modes": [{"k": 10**7}]}, name="finite")
    assert result.exit_code == 0, result.output


def test_solve_names_the_unsolvable_mode_among_solvable_ones(runner, tmp_path):
    cfg = {"modes": [{"k": 1}, {"k": 10**20}, {"k": 2}], "bc": {"alpha": 0, "beta": 0}}
    with pytest.warns(RuntimeWarning, match=r"cond = inf.*\(1 of 3 modes\)"):
        result, out = invoke(runner, "solve", tmp_path, cfg)
    assert result.exit_code == 2, result.output
    assert "'modes[1].k' gives an unsolvable mode" in result.output
    assert "at mode" not in result.output
    assert not (out / "field.csv").exists()


@pytest.mark.parametrize("modes", [[{"k": 1}], []], ids=["one-mode", "no-modes"])
def test_solve_rejects_an_inadmissible_lambda(runner, tmp_path, modes):
    # Re lambda < 0 is the config's lambda at fault, with or without modes
    result, out = invoke(runner, "solve", tmp_path, {"modes": modes, "lambda": {"re": -1}})
    assert result.exit_code == 2, result.output
    assert "'lambda' must have Re lambda >= 0" in result.output
    assert "modes[" not in result.output
    assert not (out / "solve_report.json").exists()


def _solve_field_config(seed):
    """The 64-mode, 256 x 257 solve config of perfbench's solve-field
    workload at seed."""
    rng = random.Random(seed)
    modes = [
        {"k": k, "h_w": {"re": rng.gauss(0.0, 1.0) / k, "im": rng.gauss(0.0, 1.0) / k}}
        for k in range(1, 65)
    ]
    grid = {"x_count": 256, "y_count": 257}
    return {"seed": seed, "modes": modes, "grid": grid, "residual_tol": 1.0e-6}


#: the CI smoke configs, and solves off their pairs, lambda and grid
_SOLVE_CONFIGS = {
    "no-modes": {},
    "smoke": _SMOKE_SOLVE,
    "smoke-anti": {**_SMOKE_SOLVE, "bc": {"alpha": -1, "beta": 1}},
    "smoke-pressure": {**_SMOKE_SOLVE, "bc": {"alpha": 0, "beta": -1}},
    "smoke-alias": {
        "grid": {"x_count": 8},
        "modes": [
            {"k": 1, "h_w": 1.0},
            {"k": 4, "h_w": {"re": 0.5, "im": -0.25}},
            {"k": 9, "h_w": {"re": -0.3, "im": 0.1}},
        ],
    },
    # harmonics 1, 7 (conjugate), 9 and 17 all fold onto bin 1 of 8 x nodes,
    # listed out of order: they are summed there in ascending k
    "unsorted-alias": {
        "grid": {"x_count": 8},
        "modes": [
            {"k": 17, "h_w": {"re": 0.2, "im": 0.3}},
            {"k": 1, "h_w": 1.0},
            {"k": 9, "h_w": {"re": -0.3, "im": 0.1}},
            {"k": 7, "h_w": {"re": 0.5, "im": -0.25}},
        ],
    },
    "complex-lambda": {**_SMOKE_SOLVE, "lambda": {"re": 0.3, "im": 2.5}},
    "antisymmetric-velocity": {**_SMOKE_SOLVE, "bc": {"alpha": -1, "beta": 0}},
    "solve-field": _solve_field_config(1),
}


@pytest.mark.parametrize("name", list(_SOLVE_CONFIGS))
def test_solve_is_the_per_mode_pass(runner, tmp_path, name):
    result, out = invoke(runner, "solve", tmp_path, _SOLVE_CONFIGS[name])
    assert result.exit_code == 0, result.output
    cfg = cli._load_config("solve", str(tmp_path / "out.json"), None)
    field, rows = reference_solve(cfg)
    ref = tmp_path / "reference"
    ref.mkdir()
    halfspace.write_field_csv(ref / "field.csv", field)
    halfspace.write_manifest(
        ref / "manifest.json", halfspace.field_manifest(field, "field.csv", config=cfg)
    )
    for artifact in ("field.csv", "manifest.json"):
        assert (out / artifact).read_bytes() == (ref / artifact).read_bytes(), artifact
    # the residuals are rounding noise, which in the momentum column grows
    # like |xi|^4 (it divides mu |xi|^2 u'' by |u|)
    got = read_rows(out / "solve_residuals.csv")
    assert [int(r["k"]) for r in got] == [row[0] for row in rows]
    x_length = cfg["grid"]["x_length"]
    for want, have in zip(rows, got):
        tol = 1e-12 * max(1.0, (2 * np.pi * want[0] / x_length) ** 4)
        cells = [float(have[c]) for c in ("momentum", "divergence", "datum_normal", "datum_tangential")]
        assert np.max(np.abs(np.subtract(cells, want[1:]))) <= tol, (want, have)


def test_solve_is_one_batched_pass(runner, tmp_path, monkeypatch):
    calls = []
    batched_solve = cli.solve_coefficients

    def counted(modes, bc, h_w):
        calls.append(modes.size)
        return batched_solve(modes, bc, h_w)

    def no_profile(self, *args, **kwargs):
        raise AssertionError("solve built a ScalarModeProfile")

    monkeypatch.setattr(cli, "solve_coefficients", counted)
    monkeypatch.setattr(halfspace.ScalarModeProfile, "__init__", no_profile)
    result, _ = invoke(runner, "solve", tmp_path, _SMOKE_SOLVE)
    assert result.exit_code == 0, result.output
    assert calls == [4]


def test_solve_duplicate_mode_rejected(runner, tmp_path):
    cfg = {"modes": [{"k": 1, "h_w": 1.0}, {"k": 1, "h_w": {"im": 1.0}}]}
    result, _ = invoke(runner, "solve", tmp_path, cfg)
    assert result.exit_code == 2
    assert "duplicate" in result.output.lower()


def test_solve_residual_gate(runner, tmp_path):
    cfg = {
        "modes": [{"k": 1, "h_w": 1.0}],
        "residual_tol": 1e-30,
        "grid": {"x_count": 8, "y_count": 33},
    }
    result, out = invoke(runner, "solve", tmp_path, cfg)
    assert result.exit_code == 1
    report = json.loads((out / "solve_report.json").read_text())
    assert report["passed"] is False


def test_energy_audit_no_slip(runner, tmp_path):
    cfg = {"bcs": [{"alpha": 0, "beta": 0}], "n_trials": 20}
    result, out = invoke(runner, "energy-audit", tmp_path, cfg)
    assert result.exit_code == 0, result.output
    report = json.loads((out / "energy_audit.json").read_text())
    entry = report["classification"][0]
    assert entry["predicted_class"] == entry["empirical_class"] == "B1"
    rows = read_rows(out / "energy_audit.csv")
    assert len(rows) == 1


def test_energy_audit_b3_lists_witness(runner, tmp_path):
    cfg = {"bcs": [{"alpha": -1, "beta": 1}], "n_trials": 100}
    result, out = invoke(runner, "energy-audit", tmp_path, cfg)
    assert result.exit_code == 0, result.output
    entry = json.loads((out / "energy_audit.json").read_text())["classification"][0]
    assert entry["empirical_class"] == "B3"
    assert entry["witness_found"] is True
    assert entry["max_abs_linear_power"] > 1e-3


def test_run_ns_small_campaign(runner, tmp_path):
    cfg = {
        "grid": {"x_count": 8, "y_count": 49, "y_max": 12.0},
        "n_steps": 3,
        "dt": 0.02,
    }
    result, out = invoke(runner, "run-ns", tmp_path, cfg)
    assert result.exit_code == 0, result.output
    rows = read_rows(out / "energy.csv")
    assert len(rows) == 3
    assert all(row["converged"] == "true" for row in rows)
    report = json.loads((out / "run_ns.json").read_text())
    assert report["status"] == "completed"
    assert report["n_steps_accepted"] == 3
    assert report["counters"] == {
        "picard_iterations": sum(int(row["picard_iterations"]) for row in rows),
        "rejected_steps": 0,
        "dt_halvings": 0,
    }
    assert (out / "final_field.csv").exists()
    assert (out / "final_manifest.json").exists()


@pytest.mark.parametrize("x_count", [1, 2])
def test_run_ns_with_only_the_mean_and_nyquist_modes(x_count):
    # no mode needs a stage-3 correction, so the stepper solves an empty
    # batch.  run-ns itself rejects every harmonic on these grids (see
    # test_run_ns_rejects_a_harmonic_its_grid_cannot_hold), so the march
    # runs through the library, on run-ns's default constants and datum
    constants = stokesbc.FluidConstants(1.0, 1.0, 1.0)
    grid = stokesbc.GridSpec(2.0 * np.pi, x_count, 16.0, 33, y_kind="cheb")
    initial = stokesbc.stream_function_field(constants, grid, 1.0e-3, k=1, decay=1.25)
    result = stokesbc.run_simulation(
        stokesbc.NsStepper(constants, grid), initial, dt=0.02, n_steps=3
    )
    assert result.status == "completed"
    assert len(result.reports) == 3


@pytest.mark.parametrize(("k", "exit_code"), [(15, 0), (16, 2), (17, 2)])
def test_run_ns_rejects_a_harmonic_its_grid_cannot_hold(runner, tmp_path, k, exit_code):
    """On 32 x nodes the march keeps harmonics 1-15: it drops the Nyquist
    harmonic 16 and would alias 17 onto 15."""
    cfg = {"grid": {"x_count": 32, "y_count": 33}, "initial": {"k": k}, "n_steps": 2}
    result, _ = invoke(runner, "run-ns", tmp_path, cfg)
    assert result.exit_code == exit_code, result.output
    if exit_code == 2:
        assert "'initial.k'" in result.output


_BUDGET_TRACES = {"n_modes": 2, "relations": ["T00"], "quadrature": {"max_subdivisions": 2}}


@pytest.mark.parametrize(
    "verb, config, code",
    [
        ("verify-symbols", {"n_modes": 20, "abs_xi_range": [1e-300, 1e-300]}, 2),
        ("verify-traces", {"n_modes": 20, "abs_xi_range": [1e-300, 1e-300]}, 2),
        ("run-ns", {"grid": {"x_count": 8}, "initial": {"k": 4}}, 2),
        ("verify-traces", _BUDGET_TRACES, 3),
    ],
    ids=["verify-symbols-config0", "verify-traces-config1", "run-ns-config2", "budget"],
)
def test_config_error_in_the_verb_body_leaves_no_new_directory(
    runner, tmp_path, verb, config, code
):
    """A config error that the verb body finds, past the config walk, or an
    exhausted quadrature budget, takes away the --out directories the run
    made, if they are still empty, as an error the walk finds makes none; a
    directory that was there stays."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "new" / "out"
    args = [verb, "--config", str(cfg_path), "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert {2: "config error: ", 3: "numerical budget exhausted: "}[code] in result.output
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    out.mkdir(parents=True)
    assert runner.invoke(main, args).exit_code == code
    assert out.is_dir() and not any(out.iterdir())


def test_run_ns_deterministic(runner, tmp_path):
    cfg = {"grid": {"x_count": 8, "y_count": 49, "y_max": 12.0}, "n_steps": 2, "dt": 0.02}
    first, out1 = invoke(runner, "run-ns", tmp_path, cfg, name="a")
    second, out2 = invoke(runner, "run-ns", tmp_path, cfg, name="b")
    assert first.exit_code == second.exit_code == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_write_csv_matches_the_per_cell_writer(tmp_path):
    header = ["flag", "a", "b", "n", "m", "name", "c"]
    rows = [
        (True, np.float64(0.1), 0.30000000000000004, np.int64(-3), 7, "T00", -0.0),
        (False, np.float64(-0.0), float("nan"), np.int64(0), -2, "a,b", float("inf")),
        (np.bool_(True), np.float32(0.1), 5e-324, np.int32(5), 0, "", 1e16),
    ]
    cli._write_csv(tmp_path / "fast.csv", header, rows)
    reference_write_csv(tmp_path / "reference.csv", header, rows)
    text = (tmp_path / "fast.csv").read_bytes()
    assert text == (tmp_path / "reference.csv").read_bytes()
    assert b"np." not in text
    assert text.splitlines()[1] == b"true,0.1,0.30000000000000004,-3,7,T00,-0.0"


_REPORTS = {
    "verify-symbols": ({"n_modes": 8}, "verify_symbols.json"),
    "verify-traces": ({"n_modes": 3}, "verify_traces.json"),
    "solve": (
        {**_SMOKE_SOLVE, "lambda": {"im": 0.3}, "grid": {"x_count": 8, "y_count": 17}},
        "solve_report.json",
    ),
    "energy-audit": ({"n_trials": 10}, "energy_audit.json"),
    "run-ns": ({"grid": {"x_count": 8, "y_count": 33}, "n_steps": 2}, "run_ns.json"),
}


@pytest.mark.parametrize("verb", list(_REPORTS))
def test_embedded_config_reruns_to_the_same_bytes(runner, tmp_path, verb):
    """The resolved config a report embeds, fed back as --config, is a fixed
    point: the run writes the same bytes."""
    config, report = _REPORTS[verb]
    first, out1 = invoke(runner, verb, tmp_path, config, name="a")
    resolved = json.loads((out1 / report).read_text())["config"]
    again, out2 = invoke(runner, verb, tmp_path, resolved, name="b")
    assert first.exit_code == again.exit_code == 0, again.output
    assert first.output == again.output
    assert tree_bytes(out1) == tree_bytes(out2)


def test_reports_embed_resolved_config(runner, tmp_path):
    result, out = invoke(runner, "verify-symbols", tmp_path, {"n_modes": 2})
    report = json.loads((out / "verify_symbols.json").read_text())
    cfg = report["config"]
    # resolved config spells out every knob, including untouched defaults
    assert cfg["n_modes"] == 2
    assert cfg["seed"] == 2024
    assert cfg["identity_tol"] == 1e-12
    assert cfg["abs_xi_range"] == [0.01, 100.0]


# ---------------------------------------------------------------------------
# mode draws
# ---------------------------------------------------------------------------

MODE_FIELDS = ("rho", "mu", "epsilon", "lam", "xi", "omega")


def single_draws(key, cfg, count):
    """count one-mode draws, one after another, from one generator."""
    rng = np.random.default_rng(key)
    return cli.ModeBatch.from_modes([cli._draw_constants(rng, cfg) for _ in range(count)])


def assert_same_modes(batch, reference):
    for name in MODE_FIELDS:
        got, want = getattr(batch, name), getattr(reference, name)
        assert np.array_equal(got, want), name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("seed", [2024, 1, 72])
@pytest.mark.parametrize("choices", [[2.5], [0.5, 3], [1.0e-2, 1.0, 1.0e2]])
def test_batch_draw_is_the_scalar_loop(seed, choices):
    """Row i of a count-mode draw is, byte for byte, the i-th one-mode draw
    from a generator on the same key."""
    cfg = {**cli._DEFAULTS["verify-symbols"], "epsilon_choices": choices}
    for count in (1, 2, 19, 625):
        for key in ([seed, 5], [seed, 1, 0, 11]):
            batch = cli._draw_modes(np.random.default_rng(key), cfg, count)
            assert_same_modes(batch, single_draws(key, cfg, count))


def test_draw_reads_one_row_of_five_uniforms_per_mode():
    cfg = {**cli._DEFAULTS["verify-symbols"], "lambda_im_range": [1.0, 3.0]}
    rng = np.random.default_rng(11)
    batch = cli._draw_modes(rng, cfg, 50)
    u = np.random.default_rng(11).random((50, 5))
    # the draw spends exactly the words of its rows
    assert rng.random() == np.random.default_rng(11).random(50 * 5 + 1)[-1]
    assert np.allclose(np.log10(batch.abs_xi), -2.0 + 4.0 * u[:, 0], rtol=0, atol=1e-13)
    assert np.array_equal(batch.lam.imag, 1.0 + 2.0 * u[:, 1])
    assert np.array_equal(batch.epsilon, np.array([1.0e-2, 1.0, 1.0e2])[(3 * u[:, 2]).astype(int)])
    assert np.allclose(np.log10(batch.rho), -1.0 + 2.0 * u[:, 3], rtol=0, atol=1e-13)
    assert np.allclose(np.log10(batch.mu), -1.0 + 2.0 * u[:, 4], rtol=0, atol=1e-13)


def test_batch_draw_validates_like_the_scalar_loop():
    """_draw_modes leaves the check to _draw_chunks, which rejects the mode
    the scalar loop rejects, named by its (chunk, index) row."""
    cfg = {**cli._DEFAULTS["verify-symbols"], "epsilon_choices": [-1.0, 1.0]}
    key = [cfg["seed"], 0]
    drawn = cli._draw_modes(np.random.default_rng(key), cfg, 16)
    first = int(np.argmax(drawn.epsilon < 0.0))
    assert drawn.epsilon[first] == -1.0
    rng = np.random.default_rng(key)
    for _ in range(first):
        cli._draw_constants(rng, cfg)
    with pytest.raises(cli.InvalidModeError, match="epsilon"):
        cli._draw_constants(rng, cfg)
    with pytest.raises(
        cli.InvalidModeError, match=rf"^epsilon .* in row \(chunk 0, index {first}\)$"
    ):
        cli._draw_chunks(cfg, [(0, 16)], ())


def test_each_drawn_batch_is_checked_once_and_keeps_its_symbols(
    runner, tmp_path, monkeypatch
):
    """One admissibility check per verify-traces section and per
    verify-symbols stack, on the batch the campaign then reads, with the
    omega it derived still cached there."""
    checked = []
    check = cli.ModeBatch.check_admissible

    def counted(batch):
        checked.append(batch.size)
        return check(batch)

    kept = []
    verify = stokesbc.parabolic.verify_trace_relations

    def reading(batch, *args, **kwargs):
        kept.append("omega" in vars(batch))
        return verify(batch, *args, **kwargs)

    monkeypatch.setattr(cli.ModeBatch, "check_admissible", counted)
    monkeypatch.setattr(stokesbc.parabolic, "verify_trace_relations", reading)
    result, _ = invoke(runner, "verify-traces", tmp_path, {"n_modes": 40})
    assert result.exit_code == 0, result.output
    assert checked == [40] * 6
    assert kept == [True] * 6

    checked.clear()
    result, _ = invoke(runner, "verify-symbols", tmp_path, {"n_modes": 2100}, name="sym")
    assert result.exit_code == 0, result.output
    stacks = cli._symbol_stacks(cli._chunk_counts(2100))
    assert len(stacks) == 3
    assert checked == [sum(count for _, count in stack) for stack in stacks]


def first_overflow_row(cfg, key, chunks):
    """(chunk, index) of the first mode, in chunk order, whose |xi|^2
    overflows."""
    labels = [(chunk, idx) for chunk, count in chunks for idx in range(count)]
    with np.errstate(over="ignore"):
        xi_sq = np.concatenate(
            [
                cli._draw_modes(np.random.default_rng([cfg["seed"], *key, chunk]), cfg, count).xi_sq
                for chunk, count in chunks
            ]
        )
    return labels[int(np.argmax(~np.isfinite(xi_sq)))]


@pytest.mark.parametrize("verb", ["verify-traces", "verify-symbols"])
def test_inadmissible_draw_names_its_row(runner, tmp_path, verb):
    """|xi| up to 1e156 overflows |xi|^2 on some rows: the error names the
    first of them by (chunk, index), and verify-traces also by its section."""
    override = {"abs_xi_range": [1.0e100, 1.0e156]}
    if verb == "verify-traces":
        override["relations"] = ["T10"]
    cfg = {**cli._DEFAULTS[verb], **override}
    counts = cli._chunk_counts(cfg["n_modes"])
    if verb == "verify-traces":
        # the first section: T10 at alpha = +1, keyed (relation 0, alpha + 1)
        chunks = [(c, n) for c, n in enumerate(counts) if n > 0]
        chunk, idx = first_overflow_row(cfg, (0, 2), chunks)
        where = " of T10 alpha=+1"
    else:
        chunk, idx = first_overflow_row(cfg, (), cli._symbol_stacks(counts)[0])
        where = ""
    # the row is not the first of its section, nor of its chunk
    assert idx > 0
    result, _ = invoke(runner, verb, tmp_path, override)
    assert result.exit_code == 2
    assert result.output.strip() == (
        f"config error: |xi|^2 must be finite, got inf in row (chunk {chunk}, index {idx}){where}"
    )


@pytest.mark.parametrize(
    "verb, where", [("verify-symbols", ""), ("verify-traces", " of T00 alpha=+0")]
)
def test_draw_whose_xi_squared_underflows_names_its_row(runner, tmp_path, verb, where):
    """|xi| = 1e-300 is positive but squares to 0, which the (alpha, 0)
    inverses and the trace kernels divide by."""
    result, _ = invoke(runner, verb, tmp_path, {"n_modes": 20, "abs_xi_range": [1e-300, 1e-300]})
    assert result.exit_code == 2, result.output
    assert result.output.strip() == (
        f"config error: |xi|^2 must be > 0, got 0.0 in row (chunk 0, index 0){where}"
    )


# first and last mode of chunks 0 and 15 at seed 2024, for the verify-symbols
# stream keying [seed, chunk] and the verify-traces keying
# [seed, ri, alpha + 1, chunk] of T00: (rho, mu, epsilon, lam, xi, omega)
PINNED_DRAWS = {
    (2024, 0): (
        "(3.971295407453055, 9.808536165558511, 0.01, 21.432320123825765j, "
        "(5.050395064732896,), (16.039357336936686+2.6532881801568697j))",
        "(0.4283808221755594, 0.10740300581619217, 100.0, 39.41460266618647j, "
        "(15.59099846711987,), (8.364460777736003+1.0092975712675916j))",
    ),
    (2024, 15): (
        "(0.26997576959248104, 1.2557034410742998, 100.0, 59.86544477989519j, "
        "(0.831806271805181,), (5.480902459810009+1.4744122564633846j))",
        "(4.597827127544852, 0.5516815614302584, 0.01, 42.67295113852752j, "
        "(27.447045208915014,), (20.91985503809728+4.689393210416888j))",
    ),
    (2024, 0, 1, 0): (
        "(0.8587700453317249, 8.09334598371778, 100.0, 75.90495139660773j, "
        "(17.845210346017023,), (51.61021450579898+0.6315116026541892j))",
        "(1.7171322609225457, 0.81585579794979, 100.0, 11.669635910705633j, "
        "(1.6863775415910172,), (13.213944139867722+0.7582258591148201j))",
    ),
    (2024, 0, 1, 15): (
        "(1.3613137924089436, 2.5649521958745836, 0.01, 86.61990818221726j, "
        "(0.03238724358556108,), (7.678970648305486+7.677909000190625j))",
        "(9.879618608173478, 2.4903055250289863, 1.0, 48.83478457474501j, "
        "(0.27880667950280574,), (15.694702755833733+15.370442305173947j))",
    ),
}


@pytest.mark.parametrize("key", list(PINNED_DRAWS))
def test_mode_stream_is_pinned(key):
    verb = "verify-symbols" if len(key) == 2 else "verify-traces"
    cfg = cli._DEFAULTS[verb]
    count = cli._chunk_counts(cfg["n_modes"])[key[-1]]
    batch = cli._draw_modes(np.random.default_rng(list(key)), cfg, count)
    for i, pinned in zip((0, -1), PINNED_DRAWS[key]):
        mode = tuple(getattr(batch, name)[i].item() for name in ("rho", "mu", "epsilon", "lam"))
        mode += (tuple(batch.xi[i].tolist()), batch.omega[i].item())
        assert repr(mode) == pinned


@pytest.mark.parametrize(
    "verb, config",
    [("verify-symbols", {"n_modes": 3}), ("verify-traces", {"n_modes": 3, "relations": ["T00"]})],
)
def test_sweeps_skip_empty_chunks(runner, tmp_path, verb, config):
    result, out = invoke(runner, verb, tmp_path, config)
    assert result.exit_code == 0, result.output
    rows = read_rows(out / f"{verb.replace('-', '_')}.csv")
    assert [(r["chunk"], r["index"]) for r in rows] == [("0", "0"), ("1", "0"), ("2", "0")]
