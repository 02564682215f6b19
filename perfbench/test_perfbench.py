"""Self-test of the benchmark, mostly at toy size.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import recheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stokesbc import cli, parabolic, symbols  # noqa: E402


def _result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_metric_with_its_unit(trace, capsys):
    code = run.main(
        ["--workload", "all", "--seed", "7", "--seconds", "0", "--trace", str(trace)], toy=True
    )
    result = _result_line(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    table = run.PER_LAYER if trace else run.END_TO_END
    expected = {
        f"{name}.{metric}": unit for name in workloads.WORKLOADS for metric, unit in table.items()
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_item_count_is_counted_as_failed(monkeypatch, capsys):
    wl = workloads.WORKLOADS["solve-field"]
    broken = dataclasses.replace(wl, expected_items=lambda cfg: wl.expected_items(cfg) + 1)
    monkeypatch.setitem(workloads.WORKLOADS, "solve-field", broken)
    code = run.main(
        ["--workload", "solve-field", "--seed", "7", "--seconds", "0", "--trace", "0"], toy=True
    )
    result = _result_line(capsys)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_RUNS


def test_measurement_stops_at_the_budget(monkeypatch):
    monkeypatch.setattr(run, "BUDGET_S", 4.0)
    record = run.measure(REPO, "solve-field", seed=7, seconds=60, trace=False, toy=True)
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert record["wall_s"] < run.BUDGET_S + 1.0


def _flag_first_row(out: Path, stem: str, column: str) -> None:
    """Set one row of a sweep's CSV over its tolerance, as a vacuous oracle would."""
    path = out / f"{stem}.csv"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    cells = first.split(",")
    cells[header.split(",").index(column)] = "1.0"
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")


def _sweep(verb: str, out: Path) -> None:
    cfg = cli._merge_config(cli._DEFAULTS[verb], {"seed": 7, "n_modes": 8})
    cli._COMMANDS[verb](cfg, 1, str(out))


def test_recheck_clears_a_vacuous_trace_row_but_not_a_wrong_multiplier(tmp_path, monkeypatch):
    _sweep("verify-traces", tmp_path)
    _flag_first_row(tmp_path, "verify_traces", "rel_error")
    verdict = recheck.recheck("verify-traces", tmp_path)
    assert verdict["flagged"] == 1 and verdict["failures"] == []
    multiplier = parabolic.trace_multiplier
    monkeypatch.setattr(parabolic, "trace_multiplier", lambda mode, bc: 1.001 * multiplier(mode, bc))
    assert len(recheck.recheck("verify-traces", tmp_path)["failures"]) == 1


def test_recheck_clears_a_generic_gap_row_but_not_a_wrong_closed_form(tmp_path, monkeypatch):
    _sweep("verify-symbols", tmp_path)
    _flag_first_row(tmp_path, "verify_symbols", "generic_gap")
    verdict = recheck.recheck("verify-symbols", tmp_path)
    assert verdict["flagged"] == 1 and verdict["failures"] == []
    closed = symbols.closed_form_inverse
    monkeypatch.setattr(symbols, "closed_form_inverse", lambda mode, bc: 1.001 * closed(mode, bc))
    assert len(recheck.recheck("verify-symbols", tmp_path)["failures"]) == 1


def test_trace_counters_repeat_and_match_the_verify_traces_baseline():
    # seed 2024 makes the trace-quadrature config equal to the verify-traces
    # defaults; failed == 0 includes the two traced runs agreeing exactly
    record = run.measure(REPO, "trace-quadrature", seed=2024, seconds=0, trace=True)
    assert record["failed"] == 0
    counts = record["exact_counts"]
    assert counts["quadrature.calls"] == 1800
    assert counts["quadrature.intervals"] == 14199
    assert counts["quadrature.panel_evals"] == 26598
    assert counts["quadrature.zero_value_calls"] == 303
    assert record["per_layer"]["quadrature.useful_ratio"] == 1497 / 1800


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbol-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
