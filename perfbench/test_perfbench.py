"""Self-test of the benchmark harness.

    python -m pytest perfbench      (under a minute; runs real nlhomog children)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import compare
import run
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY_EFFECTIVE = {
    "schema_version": 1, "kind": "effective",
    "environment": {"dim": 1, "n_alpha": 2, "n_beta": 2},
    "numerics": {"eps_list": [0.0625], "seeds": [0, 1]},
    "experiment": {"phi_index": 4}, "workers": 1,
}


def _result(argv, cwd):
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def test_malformed_config_counts_as_failed(tmp_path):
    runner = run.Runner(WORKLOADS["solve-2d"], 0, tmp_path)
    runner.paths[0].write_text('{"schema_version": 1, "kind": "nope"}')
    assert runner.run(0).rc == 2
    result = runner.result({})
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_traced_counters_repeat(tmp_path):
    tiny = Workload("tiny", lambda seed: [TINY_EFFECTIVE], lambda *args: [])
    runner = run.Runner(tiny, 1, tmp_path)
    metrics = run.measure_traced(runner, 0, tmp_path / "trace.json")
    # measure_traced fails the run when two traced runs disagree on a counter
    assert runner.failures == []
    assert runner.attempted == 2 * run.TRACED_RUNS
    assert metrics["solve.solves"]["value"] > 0
    assert metrics["homog.bisection_steps"]["value"] == metrics["homog.mbar_estimates"]["value"]
    assert json.loads((tmp_path / "trace.json").read_text())["spans"]


def test_emitted_metrics_match_benchmark_json():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc, lines = _result([HERE / "run.py", "--workload", "converge-1d", "--seed", "0",
                               "--seconds", "0", "--trace", str(trace)], HERE.parent)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc, lines = _result([Path(HERE.name) / "run.py", "--workload", "solve-2d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_compare_marks_wide_spread_unresolved():
    steady, noisy = [1.0, 1.01, 0.99, 1.0], [0.7, 1.3, 1.0, 0.8]
    assert compare.verdict(steady, [1.0, 1.02, 1.01, 0.99], 0.1, "lower") == "within"
    assert compare.verdict(steady, [1.3, 1.31, 1.29, 1.3], 0.1, "lower") == "worse"
    assert compare.verdict(steady, noisy, 0.1, "lower") == "unresolved"
    assert compare.verdict(noisy, [0.5, 0.55, 0.6, 0.5], 0.1, "lower") == "better"
