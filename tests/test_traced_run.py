"""The benchmark's tracer still runs on the program.

`perfbench/traced.py` wraps functions and methods of nlhomog by name, so a
rename under src/ breaks the benchmark while every other test passes.  These
run the tracer as the benchmark does, on four tiny configs, and read nothing
back but its counters; nothing under perfbench/ is changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CONFIGS = {
    "converge-1d": {
        "kind": "converge",
        "environment": {"dim": 1, "n_alpha": 2, "n_beta": 2, "coeff_law": "uniform",
                        "forcing_law": "uniform", "f_bound": 1.0},
        "numerics": {"eps_list": [0.25, 0.125], "seeds": [0, 1]},
        "experiment": {"exterior": "cosine"},
    },
    "effective-1d": {
        "kind": "effective",
        "environment": {"dim": 1, "n_alpha": 2, "n_beta": 2, "coeff_law": "uniform",
                        "forcing_law": "uniform", "f_bound": 1.0},
        "numerics": {"eps_list": [0.125], "seeds": [0], "bisect_tol": 0.125},
        "experiment": {"phi_index": 4},
    },
    "obstacle-1d": {
        "kind": "obstacle",
        "environment": {"dim": 1, "n_alpha": 2, "n_beta": 2, "coeff_law": "uniform",
                        "forcing_law": "uniform", "f_bound": 1.0},
        "numerics": {"eps_list": [0.0625], "seeds": [0]},
        "experiment": {"exterior": "cosine", "rhs": 2.0},
    },
    "solve-2d": {
        "kind": "solve",
        "environment": {"dim": 2, "kernel_class": "a", "n_alpha": 2, "n_beta": 2,
                        "coeff_law": "uniform", "forcing_law": "uniform"},
        "numerics": {"eps_list": [0.5], "h": 0.125, "seeds": [0]},
        "experiment": {"exterior": "cosine", "eps": 0.5, "seed": 0},
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_run_counts_lattices_and_evaluations(tmp_path, name):
    config = {"schema_version": 1, "kernel": {"sigma": 1.0}, "workers": 1, **CONFIGS[name]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "trace", str(spans),
         "run", str(cfg), "--out", str(tmp_path / "out")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(spans.read_text())["counters"]
    assert counters["solve.lattice_builds"] > 0
    assert counters["solve.F_evals"] > 0
    # the fields are read by their names in env, the points fourth
    assert counters["env.field_calls"] > 0 and counters["env.field_points"] > 0
    if name in ("effective-1d", "obstacle-1d"):
        # the tracer finds the obstacle solves, their active-set steps and
        # their dense solves by the names it wraps, held system or not
        for key in ("solve.solves", "solve.newton_steps", "solve.dense_solves"):
            assert counters[key] > 0, key
