"""Smoke test of the benchmark: every workload at the shortest length.

    python -m pytest perfbench/tests

Each workload runs with ``--seconds 1`` (its task still runs the minimum
number of repeats), untraced and traced.  The test asserts that the run
passes its own checks and prints every metric of ``BENCHMARK.json`` by name
with a unit, in the report and on the JSON line, and that the metrics the
benchmark prints only for the workloads that do the work appear on those.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
# every workload the command runs, also conc-delay, which BENCHMARK.json
# leaves out (see README.md)
WORKLOADS = ["seq-fill", "conc-delay", "net-seq", "shrink-seq"]

# metrics printed in the report of the workloads that exercise them
REPORTED = {
    "seq-fill": ["fuzz_rps", "fuzz_rps_tail", "failed_ratio", "plan_digest"],
    "conc-delay": ["fuzz_rps", "fuzz_rps_tail", "failed_ratio"],
    "net-seq": ["fuzz_rps", "fuzz_rps_tail", "failed_ratio"],
    "shrink-seq": ["shrink_s", "failed_ratio", "oracle_calls",
                   "replayed_requests", "shrunk_events",
                   "trace_recreate.oracle_hit_ratio",
                   "trace_recreate.replays_per_call",
                   "trace_recreate.producer_deps_s"],
}
REPORTED_TRACED = {
    "conc-delay": ["state_tracker.snapshot_us"],
    "shrink-seq": ["trace_recreate.bind_symbols_us", "trace_recreate.replay_ms"],
}

_runs: dict = {}


def run(workload: str, trace: int, cwd: str = ROOT):
    key = (workload, trace, cwd)
    if key not in _runs:
        _runs[key] = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=300)
    return _runs[key]


def printed_units(stdout: str) -> dict[str, str]:
    """``  name value unit...`` report lines -> {name: unit}."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            out[parts[0]] = " ".join(parts[2:])
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_a_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    units = printed_units(proc.stdout)
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert units.get(metric["name"], "").startswith(metric["unit"])

    extra = REPORTED[workload] + (REPORTED_TRACED.get(workload, []) if trace else [])
    for name in extra:
        assert units.get(name), f"{name} not printed with a unit"


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
