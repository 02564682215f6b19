"""stokesbc benchmark: one campaign workload, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of workloads.WORKLOADS, or ``all`` to run each in turn.  The
seed makes the campaign config; the program sees only that config.  One
client, closed loop: the campaign runs as a fresh ``stokesbc`` process
(perfbench/child.py), the next starting only after the previous exits,
for S seconds and at least MIN_RUNS times, but never past BUDGET_S.  Every
run is checked: item count, artifact sha256 equal across runs, and exit code
0 with ``passed: true`` -- or, for the two verification sweeps, exit code 1
with every row over the campaign's tolerance cleared by perfbench/recheck.py.
A failed check counts into ``failed``.

--trace 0 reports the end-to-end metrics (medians over the runs).  --trace 1
runs the untraced loop for S/2 seconds, then two traced runs whose exact
work counters must agree, and reports the per-layer metrics.  The last stdout
line is the JSON result; the full record (environment, every run, artifact
hashes) goes to .perfbench-work/<workload>/result.json.  Exit code 0 when
every check passed, 1 when one failed, 2 when src/stokesbc is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench-work"

#: fewest untraced runs per measurement, whatever --seconds says
MIN_RUNS = 3
TRACED_RUNS = 2
IMPORT_PROBES = 3
#: no run starts that would end past this many seconds of the measurement,
#: and a child still running then is killed
BUDGET_S = 170.0
IMPORT_PACKAGES = ["numpy", "scipy", "click", "stokesbc"]

#: metric name -> unit, as BENCHMARK.json lists them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

_ENV_PROBE = r"""
import ctypes, json, os, sys
from importlib import metadata
import numpy, scipy.linalg
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
threads = {}
for path in sorted({ln.split()[-1] for ln in open("/proc/self/maps") if "openblas" in ln.lower()}):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            fn = getattr(lib, sym)
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads[os.path.basename(path)] = fn()
            break
print(json.dumps({
    "nproc": os.cpu_count(),
    "cpus_allowed": len(os.sched_getaffinity(0)),
    "python": sys.version.split()[0],
    **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    "blas_threads": threads,
    "thread_env": {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "STOKESBC_JOBS")},
}))
"""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def _probe(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=_child_env(root),
        cwd=root,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


def environment(root: Path) -> dict:
    return json.loads(_probe(root, ["-c", _ENV_PROBE]).stdout)


def import_breakdown(root: Path) -> dict:
    """Median self time of each package's modules under ``-X importtime``."""
    pattern = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*([\w.]+)")
    samples = []
    for _ in range(IMPORT_PROBES):
        stderr = _probe(root, ["-X", "importtime", "-c", "import stokesbc.cli"]).stderr
        totals = dict.fromkeys(IMPORT_PACKAGES, 0)
        for match in pattern.finditer(stderr):
            top = match.group(2).split(".")[0]
            if top in totals:
                totals[top] += int(match.group(1))
        samples.append(totals)
    return {
        f"setup.import.{pkg}_s": statistics.median(s[pkg] for s in samples) / 1e6
        for pkg in IMPORT_PACKAGES
    }


def _hashes(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def _recheck(root: Path, wl, out: Path) -> dict:
    """perfbench/recheck.py's verdict on the rows a failed sweep flagged."""
    return json.loads(_probe(root, [str(HERE / "recheck.py"), wl.verb, str(out)]).stdout)


def _check(root: Path, wl, cfg: dict, code: int, out: Path, rechecks: dict) -> tuple[str | None, dict]:
    """(reason the run failed or None, what the artifacts say).

    rechecks caches recheck.py's verdicts by artifact hashes: the artifacts
    of one config are checked to be identical, so one verdict serves them all.
    """
    try:
        report = json.loads((out / wl.report).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"exit code {code}, no readable {wl.report}: {exc}", {}
    seen = {"passed": report.get("passed"), "hashes": _hashes(out), "gate_breaches": 0}
    seen["bytes_written"] = sum((out / name).stat().st_size for name in seen["hashes"])
    items, expected = wl.count_items(out, report), wl.expected_items(cfg)
    seen["items"] = items
    if items != expected:
        return f"{items} items, configured {expected}", seen
    verdict = (code, report.get("passed"))
    if verdict == (0, True):
        return None, seen
    if verdict != (1, False) or not wl.recheck:
        return f"exit code {code} with passed = {report.get('passed')}", seen
    key = json.dumps(seen["hashes"], sort_keys=True)
    if key not in rechecks:
        rechecks[key] = _recheck(root, wl, out)
    seen["recheck"] = rechecked = rechecks[key]
    seen["gate_breaches"] = rechecked["flagged"]
    if not rechecked["flagged"]:
        return "the campaign failed its gate, but no row is over its tolerance", seen
    if rechecked["failures"]:
        return f"{len(rechecked['failures'])} of {rechecked['flagged']} rows over tolerance fail the re-check", seen
    return None, seen


def run_once(
    root: Path, work: Path, wl, cfg: dict, index: int, trace: bool, deadline: float, rechecks: dict
) -> dict:
    """One campaign process; returns its timings, checks and trace summary."""
    out = work / "out"  # only the last run's artifacts are kept
    shutil.rmtree(out, ignore_errors=True)
    result_path = work / f"child-{index}.json"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        str(result_path),
        "1" if trace else "0",
        wl.verb,
        "--config",
        str(work / "config.json"),
        "--jobs",
        str(wl.jobs),
        "--out",
        str(out),
    ]
    with open(work / f"child-{index}.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=_child_env(root), cwd=root)
        killer = threading.Timer(max(1.0, deadline - spawned), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        exited = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    run = {"index": index, "trace": trace, "code": code}
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        run["failure"] = f"exit code {code} and no result from the child"
        return run
    stamps = result["stamps"]
    run.update(
        setup_s=stamps["config"] - spawned,
        campaign_s=stamps["body_end"] - stamps["body_start"],
        total_s=exited - spawned,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        trace_summary=result.get("trace"),
    )
    run["failure"], seen = _check(root, wl, cfg, code, out, rechecks)
    run.update(seen)
    if trace:
        (work / f"spans-{index}.json").write_text(json.dumps(result["spans"]), encoding="utf-8")
    result_path.unlink()
    return run


def _exact_counts(run: dict) -> dict:
    summary = run["trace_summary"]
    counts = {f"{name}.calls": s["calls"] for name, s in summary["spans"].items()}
    counts.update(summary["counts"])
    counts["cli.bytes_written"] = run.get("bytes_written")
    return counts


def end_to_end(runs: list[dict]) -> dict:
    """Medians over runs that passed every check."""
    if not runs:
        return {}
    values = {name: statistics.median(r[name] for r in runs) for name in END_TO_END if name != "items_per_s"}
    values["items_per_s"] = statistics.median(r["items"] / r["campaign_s"] for r in runs)
    return values


def per_layer(traced: list[dict], untraced_campaign_s: float, imports: dict) -> dict:
    """Every PER_LAYER metric from the traced runs.

    ``<span>.calls`` and ``<span>.self_s`` come from the span of that name, or
    summed over a layer's spans when the name is a bare layer (``grids``);
    counts are those of the first traced run, times are medians over the runs.
    Exact counters from spans.install are reported by their own name.
    """
    summaries = [r["trace_summary"] for r in traced]
    first = summaries[0]

    def matches(base: str):
        if "." in base:
            return lambda name: name == base
        return lambda name: name.startswith(base + ".")

    def self_s(match) -> float:
        return statistics.median(
            sum(s["self_s"] for name, s in summ["spans"].items() if match(name))
            for summ in summaries
        )

    def calls(match) -> int:
        return sum(s["calls"] for name, s in first["spans"].items() if match(name))

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    def pool(summ, key) -> float:
        return summ["sums"].get(f"cli.pool.{key}", 0.0)

    q_calls = calls(matches("quadrature.adaptive_integrate"))
    derived = {
        "quadrature.useful_ratio": ratio(q_calls - first["counts"].get("quadrature.zero_value_calls", 0), q_calls),
        "cli.gate_breaches": traced[0]["gate_breaches"],
        "cli.pool.busy_s": statistics.median(pool(s, "busy_s") for s in summaries),
        "cli.pool.parallel_efficiency": statistics.median(
            ratio(pool(s, "busy_s"), pool(s, "capacity_s")) for s in summaries
        ),
        "navier_stokes.factor_per_solve": ratio(
            calls(matches("navier_stokes.lu_factor")), calls(matches("navier_stokes.lu_solve"))
        ),
        "cli.bytes_written": traced[0]["bytes_written"],
        "trace.campaign_s": statistics.median(r["campaign_s"] for r in traced),
        **imports,
    }
    derived["trace.overhead_s"] = derived["trace.campaign_s"] - untraced_campaign_s
    values = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif kind == "calls":
            values[name] = calls(matches(base))
        elif kind == "self_s":
            values[name] = self_s(matches(base))
        else:
            values[name] = first["counts"].get(name, 0)
    return values


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run one workload for ``seconds``; return the full result record."""
    wl = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + BUDGET_S
    work = root / WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = wl.make_config(seed, toy)
    (work / "config.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "config": cfg}
    record["loadavg_before"] = _loadavg()
    ticks = _cpu_ticks()
    record["environment"] = environment(root)
    _probe(root, ["-c", "import stokesbc.cli"])  # compile bytecode before timing

    # a traced measurement gives half its time to the untraced runs that
    # trace.overhead_s is measured against, and the rest to the traced runs
    untraced_seconds = seconds / 2 if trace else seconds
    runs: list[dict] = []
    rechecks: dict = {}
    loop_start = time.monotonic()
    last = 0.0

    def room() -> bool:
        """Whether a run as long as the last one would end before the deadline."""
        return time.monotonic() + last < deadline

    while room() and (len(runs) < MIN_RUNS or time.monotonic() - loop_start + last <= untraced_seconds):
        began = time.monotonic()
        runs.append(run_once(root, work, wl, cfg, len(runs), False, deadline, rechecks))
        last = time.monotonic() - began
    untraced = list(runs)

    if trace:
        for _ in range(TRACED_RUNS):
            if room():
                runs.append(run_once(root, work, wl, cfg, len(runs), True, deadline, rechecks))
        record["imports"] = import_breakdown(root)

    # artifacts must be byte-identical across every run of one config
    reference = next((r["hashes"] for r in runs if not r.get("failure")), None)
    for r in runs:
        if not r.get("failure") and r["hashes"] != reference:
            r["failure"] = "artifact bytes differ from the first run"
    traced = [r for r in runs if r["trace"] and not r.get("failure")]
    for r in traced[1:]:
        if _exact_counts(r) != _exact_counts(traced[0]):
            r["failure"] = "exact work counters differ between traced runs"

    record["loadavg_after"] = _loadavg()
    # the share of CPU time the hypervisor gave to other guests: on a shared
    # host this, not the program, is what moves a run set's medians
    after = _cpu_ticks()
    if ticks and after and after[1] > ticks[1]:
        record["steal_share"] = (after[0] - ticks[0]) / (after[1] - ticks[1])
    record["wall_s"] = time.monotonic() - started
    record["attempted"] = len(runs)
    record["failed"] = sum(bool(r.get("failure")) for r in runs)
    record["failed_frac"] = record["failed"] / len(runs)
    record["artifact_sha256"] = reference
    record["end_to_end"] = end_to_end([r for r in untraced if not r.get("failure")])
    record["samples"] = sum(not r.get("failure") for r in untraced)
    if trace:
        good = [r for r in runs if r["trace"] and not r.get("failure")]
        if good and record["end_to_end"]:
            record["per_layer"] = per_layer(good, record["end_to_end"]["campaign_s"], record["imports"])
            record["exact_counts"] = _exact_counts(good[0])
    record["runs"] = runs
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    return record


def _print_record(record: dict) -> None:
    name = record["workload"]
    print(f"== {name} seed={record['seed']} runs={record['attempted']} failed={record['failed']}")
    for r in record["runs"]:
        if r.get("failure"):
            print(f"   run {r['index']} FAILED: {r['failure']}")
    n = record["samples"]
    print(f"   medians over {n} untraced runs (no tail percentile: fewer than 20 samples)" if n < 20
          else f"   medians over {n} untraced runs")
    for metric, value in record["end_to_end"].items():
        print(f"   {metric:<14} {value:12.6g} {END_TO_END[metric]}")
    print(f"   {'failed_frac':<14} {record['failed_frac']:12.6g} ratio")
    for metric, value in record.get("per_layer", {}).items():
        print(f"   {metric:<40} {value:14.6g} {PER_LAYER[metric]}")
    recheck = next((r["recheck"] for r in record["runs"] if "recheck" in r), None)
    if recheck:
        print(
            f"   {WORKLOADS[name].verb} failed its own gate on {recheck['flagged']} rows; "
            f"{len(recheck['failures'])} fail the re-check, worst at "
            f"{recheck['worst_share']:.3g} of the re-check's allowance"
        )
    print(f"   artifact sha256: {json.dumps(record['artifact_sha256'])}")
    print(f"   loadavg before/after: {record['loadavg_before']} / {record['loadavg_after']}")
    if "steal_share" in record:
        print(f"   CPU time stolen by the hypervisor: {record['steal_share']:.1%}")
    print(f"   environment: {json.dumps(record['environment'])}")


def main(argv=None, toy: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stokesbc" / "cli.py").is_file():
        print(f"perfbench: no stokesbc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [measure(ROOT, name, args.seed, args.seconds, bool(args.trace), toy) for name in names]
    metrics: dict = {}
    complete = True
    for record in records:
        _print_record(record)
        table = dict(record.get("per_layer", {})) if args.trace else dict(record["end_to_end"])
        units = PER_LAYER if args.trace else END_TO_END
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        complete = complete and table.keys() == units.keys()
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in table.items()})
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
