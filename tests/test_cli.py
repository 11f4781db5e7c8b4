"""End-to-end command tests: configs in, artifacts and exit codes out."""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import concurrent.futures

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlhomog
from nlhomog import cli, solve
from nlhomog.cli import main
from nlhomog.env import EnvironmentSpec
from nlhomog.errors import ConfigurationError
from nlhomog.homog import CSV_COLUMNS, RowLog, fam_of, quadratic_bank
from nlhomog.operators import Box, unit_moment
from nlhomog.solve import default_quadrature


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "schema_version": 1,
        "kind": "solve",
        "environment": {"dim": 1, "coeff_law": "fixed", "coeff_value": 1.0,
                        "forcing_law": "fixed", "forcing_value": 0.0},
        "kernel": {"sigma": 1.0},
        "numerics": {"eps_list": [0.25], "seeds": [0]},
        "experiment": {},
        "out_dir": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key] = {**cfg[key], **value}
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_check_on_a_fixed_law_effective_inverts_K_only_in_the_bisection(
        tmp_path, count_calls, capsys):
    # the direct-constant check builds one lattice of the smallest eps and no
    # inverse; the bisection inverts each eps's K once, by Trench's
    # recurrence, never by LAPACK
    inverses = count_calls(solve, "_toeplitz_inverse")
    lapack = count_calls(np.linalg, "inv")
    lattices = count_calls(solve._Lattice1D, "__init__")
    cfg = write_config(tmp_path, kind="effective",
                       numerics={"eps_list": [0.25, 0.125], "seeds": [0, 1]},
                       experiment={"phi_index": 4})
    assert main(["run", str(cfg), "--check"]) == 0
    assert "PASS matches-direct-constant" in capsys.readouterr().out
    assert len(inverses) == 2 and not lapack
    assert len(lattices) == 2 * 2 + 1


def read_rows(out_dir):
    with open(out_dir / "rows.csv") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# happy paths

def test_trivial_solve_writes_all_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    for fname in ("rows.csv", "summary.json", "replay.json", "solution.csv"):
        assert (out / fname).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["kind"] == "solve"
    assert summary["sup_norm"] == 0.0
    with open(out / "solution.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "u"]
    # the dense engine may emit negative zeros, so compare numerically
    assert all(float(r[1]) == 0.0 for r in rows[1:])
    assert "wrote" in capsys.readouterr().out


def test_wall_clock_column_is_pinned_without_timings(tmp_path):
    cfg = write_config(tmp_path)
    main(["run", str(cfg)])
    rows = read_rows(tmp_path / "out")
    assert rows[0][-1] == "wall_ms"
    assert all(r[-1] == "0" for r in rows[1:])


def test_replay_pins_timings_off(tmp_path):
    cfg = write_config(tmp_path, timings=True)
    assert main(["run", str(cfg)]) == 0
    replay = json.loads((tmp_path / "out" / "replay.json").read_text())
    assert replay["timings"] is False
    assert replay["schema_version"] == 1


MIXED_ENV = {"n_alpha": 2, "n_beta": 2, "coeff_law": "uniform",
             "forcing_law": "uniform", "f_bound": 1.0}


def replay_at_one_worker(tmp_path, cfg):
    """Run cfg on two workers, replay it on one; returns the first run's rows."""
    assert main(["run", str(cfg), "--workers", "2"]) == 0
    out1 = tmp_path / "out"
    out2 = tmp_path / "out2"
    assert main(["run", str(out1 / "replay.json"), "--out", str(out2),
                 "--workers", "1"]) == 0
    for fname in ("rows.csv", "summary.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
    return read_rows(out1)


def test_replay_reproduces_run_byte_for_byte(tmp_path):
    cfg = write_config(
        tmp_path, kind="mbar", environment=MIXED_ENV,
        numerics={"eps_list": [0.25], "seeds": [0, 1, 2]},
        experiment={"phi_index": 4, "level": 12.0},
    )
    replay_at_one_worker(tmp_path, cfg)


def test_effective_replay_is_worker_invariant(tmp_path):
    # warm starts make `iterations` depend on the level history, which the
    # threads must reproduce exactly
    cfg = write_config(
        tmp_path, kind="effective", environment=MIXED_ENV,
        numerics={"eps_list": [0.25, 0.125], "seeds": [0, 1, 2],
                  "bisect_tol": 2.0**-4},
        experiment={"phi_index": 4},
    )
    rows = replay_at_one_worker(tmp_path, cfg)
    assert len(rows) > 1 + 6  # header plus more than one level of 6 solves


@pytest.mark.parametrize("kind, numerics, experiment", [
    ("solve", {"eps_list": [2.0**-6], "seeds": [0], "h": 2.0**-9},
     {"exterior": "cosine"}),
    ("mbar", {"eps_list": [2.0**-6], "seeds": [0, 1]},
     {"phi_index": 4, "level": 12.0}),
], ids=["solve", "mbar"])
def test_replay_bytes_do_not_depend_on_blas_threads(tmp_path, kind, numerics, experiment):
    # a fresh interpreter per run, so that the package sets the BLAS thread
    # count before numpy loads; a 512-node dense solve and 256-node obstacle
    # solves are large enough for threaded OpenBLAS to change last bits
    cfg = write_config(tmp_path, kind=kind, environment=MIXED_ENV,
                       numerics=numerics, experiment=experiment)
    src = str(Path(nlhomog.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = {"unset": ({}, "1"), "one": ({"OPENBLAS_NUM_THREADS": "1"}, "1"),
            "two": ({"OPENBLAS_NUM_THREADS": "2"}, "1"), "pool": ({}, "2")}
    for name, (threads, workers) in runs.items():
        subprocess.run([sys.executable, "-m", "nlhomog.cli", "run", str(cfg),
                        "--out", str(tmp_path / name), "--workers", workers],
                       env={**base, **threads}, capture_output=True, check=True)
    for fname in ("rows.csv", "summary.json"):
        first = (tmp_path / "unset" / fname).read_bytes()
        for name in runs:
            assert (tmp_path / name / fname).read_bytes() == first, (name, fname)


REPLAY_CONFIGS = {
    "mbar": dict(kind="mbar", environment=MIXED_ENV,
                 numerics={"eps_list": [0.25, 0.125], "seeds": [0, 1, 2]},
                 experiment={"phi_index": 4, "level": 12.0}),
    "effective": dict(kind="effective", environment=MIXED_ENV,
                      numerics={"eps_list": [0.25, 0.125], "seeds": [0, 1, 2],
                                "bisect_tol": 2.0**-4},
                      experiment={"phi_index": 4}),
    "converge-2d": dict(kind="converge",
                        environment={"dim": 2, "kernel_class": "a", **MIXED_ENV},
                        numerics={"eps_list": [1.0, 0.5], "seeds": [0, 1],
                                  "h": 2.0**-3, "r_out_factor": 2.0}),
}


@pytest.mark.parametrize("name", sorted(REPLAY_CONFIGS))
def test_runs_and_replays_match_at_one_two_and_three_workers(tmp_path, name):
    # the threads of one run share the level-free parts, and each
    # (eps, seed) keeps its warm start across levels; neither may show
    # in the artifacts
    cfg = write_config(tmp_path, **REPLAY_CONFIGS[name])
    for w in ("1", "2", "3"):
        assert main(["run", str(cfg), "--workers", w, "--out", str(tmp_path / w)]) == 0
    assert main(["run", str(tmp_path / "3" / "replay.json"), "--workers", "2",
                 "--out", str(tmp_path / "replay")]) == 0
    for fname in ("rows.csv", "summary.json"):
        first = (tmp_path / "1" / fname).read_bytes()
        for out in ("2", "3", "replay"):
            assert (tmp_path / out / fname).read_bytes() == first, (out, fname)


def test_repeated_two_worker_effective_runs_are_identical(tmp_path):
    # threads finish in any order, and a short switch interval interleaves
    # them often; the artifacts must not notice
    cfg = write_config(tmp_path, kind="effective", environment=MIXED_ENV,
                       numerics={"eps_list": [0.25, 0.125], "seeds": [0, 1],
                                 "bisect_tol": 2.0**-3},
                       experiment={"phi_index": 4})
    outputs = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i in range(20):
            out = tmp_path / f"run{i}"
            assert main(["run", str(cfg), "--workers", "2", "--out", str(out)]) == 0
            outputs.add(tuple((out / f).read_bytes() for f in ("rows.csv", "summary.json")))
    finally:
        sys.setswitchinterval(interval)
    assert len(outputs) == 1


def test_converge_replay_is_worker_invariant(tmp_path):
    # a 1d converge is one batch; a 2d one maps as the bisection does
    cfg = write_config(
        tmp_path, kind="converge", environment=MIXED_ENV,
        numerics={"eps_list": [0.25, 0.125], "seeds": [0, 1], "h": 2.0**-5},
    )
    rows = replay_at_one_worker(tmp_path, cfg)
    assert [r[0] for r in rows[1:]] == ["converge"] * 4 + ["converge-shift"]


def record_worker_counts(monkeypatch):
    """Stub run_experiment; returns the list of worker counts it is handed."""
    seen = []

    def record(resolved, spec, fam, workers):
        seen.append(workers)
        return {}, RowLog(), None

    monkeypatch.setattr(cli, "run_experiment", record)
    return seen


def test_worker_rule_is_flag_then_config_then_one(tmp_path, monkeypatch):
    seen = record_worker_counts(monkeypatch)
    configured = write_config(tmp_path, name="configured.json", workers=2)
    bare = write_config(tmp_path, name="bare.json")
    assert main(["run", str(configured), "--workers", "4"]) == 0
    assert main(["run", str(configured)]) == 0
    assert main(["run", str(bare)]) == 0
    assert seen == [4, 2, 1]
    # the replay keeps the unset config value, so it too runs on one worker
    assert json.loads((tmp_path / "out" / "replay.json").read_text())["workers"] is None


def test_worker_count_ignores_environment_and_cores(tmp_path, monkeypatch):
    seen = record_worker_counts(monkeypatch)
    # neither the environment nor the core count is a source
    monkeypatch.setenv("NONLOCAL_HOMOG_WORKERS", "3")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    configured = write_config(tmp_path, name="configured.json", workers=2)
    bare = write_config(tmp_path, name="bare.json")
    assert main(["run", str(configured), "--workers", "4"]) == 0
    assert main(["run", str(configured)]) == 0
    assert main(["run", str(bare)]) == 0
    assert seen == [4, 2, 1]


def test_certified_bracket_holds_for_its_table(tmp_path):
    # with a non-default table radius, every solve at the certified high
    # end is in full contact and none at the low end touches
    numerics = {"eps_list": [0.0625], "seeds": list(range(8)), "r_out_factor": 2.0}
    cfg = write_config(tmp_path, kind="effective", environment=MIXED_ENV,
                       numerics={**numerics, "max_steps": 1, "bisect_tol": 1e3},
                       experiment={"phi_index": 4})
    assert main(["run", str(cfg)]) == 0
    certificates = json.loads((tmp_path / "out" / "summary.json").read_text())["certificates"]
    for end, fraction in (("hi", "1.0"), ("lo", "0.0")):
        level = certificates[end][1]
        out = tmp_path / end
        cfg = write_config(tmp_path, kind="mbar", environment=MIXED_ENV,
                           numerics=numerics, out_dir=str(out),
                           experiment={"phi_index": 4, "level": level})
        assert main(["run", str(cfg)]) == 0
        rows = read_rows(out)[1:]
        assert len(rows) == 8
        assert all(row[4] == fraction for row in rows)


def test_effective_run_with_check_gate(tmp_path):
    cfg = write_config(
        tmp_path, kind="effective",
        environment={"coeff_value": 1.5, "forcing_value": 0.25},
        experiment={"phi_index": 4},
    )
    assert main(["run", str(cfg), "--check"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["width"] <= 2.0**-6 * (1 + 1e-9)
    lo, hi = summary["bracket"]
    assert lo <= summary["value"] <= hi


def test_one_eps_fixed_law_effective_needs_no_bisection(tmp_path, capsys):
    # a constant environment makes F(0) one value on every cell, so the
    # certified bracket is already within bisect_tol of the direct constant
    cfg = write_config(
        tmp_path, kind="effective",
        environment={"coeff_value": 1.5, "forcing_value": 0.25},
        numerics={"eps_list": [0.125], "seeds": [0, 1]},
        experiment={"phi_index": 4},
    )
    assert main(["run", str(cfg), "--check"]) == 0
    assert "PASS matches-direct-constant: gap=0.000e+00 " in capsys.readouterr().out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["bisection_steps"] == 0
    assert summary["bracket"] == [summary["certificates"]["lo"][1],
                                  summary["certificates"]["hi"][1]]
    assert read_rows(tmp_path / "out") == [list(CSV_COLUMNS)]


def test_check_gate_fails_on_stalled_corrector(tmp_path, capsys):
    # fixed environment two levels above its exact effective level: the
    # corrector sup norms stall at a positive floor, so the 10x decay
    # gate must fail (exit 4) while the artifacts are still written
    cfg = write_config(
        tmp_path, kind="corrector",
        environment={"coeff_value": 1.5, "forcing_value": 0.25},
        numerics={"eps_list": [0.125, 0.0625], "seeds": [0]},
        experiment={"phi_index": 4, "level": 40.0},
    )
    assert main(["run", str(cfg), "--check"]) == 4
    assert (tmp_path / "out" / "summary.json").exists()
    captured = capsys.readouterr()
    assert "FAIL sup-decays-10x" in captured.out
    assert json.loads(captured.err.splitlines()[-1])["error"]["type"] == "CheckFailure"


TRIVIAL_ENV = {"coeff_law": "fixed", "coeff_value": 1.5,
               "forcing_law": "fixed", "forcing_value": 0.25}
PERIODIC_ENV = {**MIXED_ENV, "interpolation": "constant", "layout": "periodic",
                "period": 8}


@pytest.mark.parametrize("environment, gate, doctor", [
    (TRIVIAL_ENV, "trivial-environment-flat", ("cauchy_gaps", "0.25->0.125")),
    (TRIVIAL_ENV, "trivial-environment-flat", ("seed_discrepancy", "0.0625")),
    (PERIODIC_ENV, "periodic-seed-independent", ("seed_discrepancy", "0.125")),
], ids=["trivial-cauchy", "trivial-seeds", "periodic-seeds"])
def test_converge_checks_hold_seed_and_eps_free_environments_exact(
        tmp_path, environment, gate, doctor):
    cfg = write_config(tmp_path, kind="converge", environment=environment,
                       numerics={"eps_list": [0.25, 0.125, 0.0625], "seeds": [0, 1]})
    resolved, spec, fam = cli.load_config(cfg)
    summary = {"seed_discrepancy": {"0.25": 0.0, "0.125": 0.0, "0.0625": 0.0},
               "cauchy_gaps": {"0.25->0.125": 0.0, "0.125->0.0625": 0.0},
               "translation_gap": 0.0}
    if environment is PERIODIC_ENV:
        summary["cauchy_gaps"] = {"0.25->0.125": 2.4e-3, "0.125->0.0625": 1.6e-3}
    clean = {name: ok for name, ok, _ in cli.run_checks(resolved, spec, fam, summary)}
    assert clean[gate] and all(clean.values())
    group, key = doctor
    summary[group][key] = 1e-17  # one last bit of seed or eps dependence
    doctored = {name: ok for name, ok, _ in cli.run_checks(resolved, spec, fam, summary)}
    assert not doctored[gate]
    assert all(ok for name, ok in doctored.items() if name != gate)


ONE_D_A = {"dim": 1, "kernel_class": "a"}
TWO_D_A = {"dim": 2, "kernel_class": "a"}


@pytest.mark.parametrize("kind, environment, experiment, summary, doctors", [
    ("solve", None, {}, {"residual": 1e-9},
     {"residual-within-tol": ("residual", 2e-7)}),
    ("obstacle", None, {}, {"residual": 1e-9, "min_value": 0.0},
     {"residual-within-tol": ("residual", 2e-7),
      "solution-nonnegative": ("min_value", -1e-300)}),
    ("abp", ONE_D_A, {}, {"amplitude_ratios": [2.0, 2.0, 2.0], "support_slope": 0.82},
     {"amplitude-doubling-linear": ("amplitude_ratios", [2.0, 2.06, 2.0]),
      "support-slope-floor": ("support_slope", 0.34)}),
    # in 1d doubling is exact: one last bit off 2.0 fails
    ("abp", ONE_D_A, {}, {"amplitude_ratios": [2.0, 2.0, 2.0], "support_slope": 0.82},
     {"amplitude-doubling-linear": ("amplitude_ratios", [2.0, 2.0000000000000004, 2.0])}),
    # in 2d the same ratio is within ABP_RATIO_TOL
    ("abp", TWO_D_A, {}, {"amplitude_ratios": [2.0, 2.0000000000000004, 2.0],
                          "support_slope": 0.82},
     {"amplitude-doubling-linear": ("amplitude_ratios", [2.0, 2.06, 2.0])}),
    ("cmi", ONE_D_A, {},
     {"rows": [{"sup_v": 3.0}, {"sup_v": 2.0}, {"sup_v": 1.0}], "fitted_slope": 0.5},
     {"sup-monotone-in-measure": ("rows", [{"sup_v": 3.0}, {"sup_v": 1.0}, {"sup_v": 2.0}]),
      "positive-slope": ("fitted_slope", 0.0)}),
    ("mbar", None, {"phi_index": 0, "level": 0.0}, {}, {}),
], ids=["solve", "obstacle", "abp", "abp-1d-last-bit", "abp-2d-last-bit", "cmi", "mbar"])
def test_checks_pass_clean_summaries_and_fail_only_the_doctored_gate(
        tmp_path, kind, environment, experiment, summary, doctors):
    overrides = {"kind": kind, "experiment": experiment}
    if environment is not None:
        overrides["environment"] = environment
    resolved, spec, fam = cli.load_config(write_config(tmp_path, **overrides))
    clean = {name: ok for name, ok, _ in cli.run_checks(resolved, spec, fam, summary)}
    assert all(clean.values()) and set(doctors) <= set(clean)
    if not doctors:  # mbar has no gate of its own
        assert clean == {"no-thresholds": True}
    for gate, (key, value) in doctors.items():
        doctored = {name: ok for name, ok, _ in
                    cli.run_checks(resolved, spec, fam, {**summary, key: value})}
        assert doctored == {**clean, gate: False}


def _raise_on_constant(name):
    raise ValueError(f"summary.json holds the non-JSON constant {name}")


@pytest.mark.parametrize("kind, environment, numerics, experiment, key", [
    # one measure: no slope to fit
    ("cmi", ONE_D_A, {"h": 0.0625}, {"sizes": [0.5]}, "fitted_slope"),
    # a constant environment at its exact level: every sup norm is zero
    ("corrector", TRIVIAL_ENV, {"eps_list": [0.25, 0.125], "h": 2.0**-5, "seeds": [0]},
     {"phi_index": 4}, "decay_ratio"),
], ids=["cmi-one-measure", "corrector-at-its-level"])
def test_non_finite_summary_numbers_are_written_as_null(
        tmp_path, kind, environment, numerics, experiment, key):
    if kind == "corrector":
        spec = EnvironmentSpec(dim=1, **TRIVIAL_ENV)
        quad = default_quadrature(fam_of(spec), Box((0.0,), 1.0, numerics["h"]), 8.0)
        moment = unit_moment(quadratic_bank(1)[4], np.zeros(1), quad)
        experiment = {**experiment, "level": float(1.5 * moment + 0.25)}
    cfg = write_config(tmp_path, kind=kind, environment=environment,
                       numerics=numerics, experiment=experiment)
    assert main(["run", str(cfg)]) == 0
    strict = {name: json.loads((tmp_path / "out" / name).read_text(),
                               parse_constant=_raise_on_constant)
              for name in ("summary.json", "replay.json")}
    assert strict["summary.json"][key] is None
    if kind == "corrector":
        assert strict["summary.json"]["sup_norms"] == [0.0, 0.0]


def test_a_pool_asks_for_at_most_one_worker_per_item(tmp_path, monkeypatch):
    # a map asks for no more threads than it has items, and a map of one
    # item builds no executor; the stand-in starts no thread
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    converge_2d = write_config(tmp_path, name="converge2d.json", kind="converge",
                               environment={"dim": 2, "kernel_class": "a", **MIXED_ENV},
                               numerics={"eps_list": [1.0, 0.5], "seeds": [0],
                                         "h": 2.0**-3, "r_out_factor": 2.0})
    assert main(["run", str(converge_2d), "--workers", "8"]) == 0
    assert asked == []  # one set of maps, one batch, on the calling thread
    converge_1d = write_config(tmp_path, name="converge.json", kind="converge",
                               environment=MIXED_ENV,
                               numerics={"eps_list": [0.25, 0.125], "seeds": [0, 1],
                                         "h": 2.0**-5})
    assert main(["run", str(converge_1d), "--workers", "8"]) == 0
    assert asked == []  # one K, one batch, on the calling thread
    mbar_2 = write_config(tmp_path, name="mbar2.json", kind="mbar", environment=MIXED_ENV,
                          numerics={"eps_list": [0.25], "seeds": [0, 1]},
                          experiment={"phi_index": 4, "level": 12.0})
    assert main(["run", str(mbar_2), "--workers", "8"]) == 0
    assert asked == [2]  # two (eps, seed) items, two threads
    mbar = write_config(tmp_path, name="mbar.json", kind="mbar", environment=MIXED_ENV,
                        numerics={"eps_list": [0.25], "seeds": [0]},
                        experiment={"phi_index": 4, "level": 12.0})
    assert main(["run", str(mbar), "--workers", "2"]) == 0
    assert asked == [2]  # one item runs on the calling thread


def test_a_2d_converge_builds_one_set_of_maps_and_reads_each_exterior_once(
        tmp_path, monkeypatch, count_calls):
    # two eps, two seeds and the translated route share one grid: one batch
    # builds the moment maps once and reads each distinct exterior (the plain
    # one and the translated route's) once, whatever the worker count
    cfg = write_config(tmp_path, kind="converge",
                       environment={"dim": 2, "kernel_class": "a", **MIXED_ENV},
                       numerics={"eps_list": [1.0, 0.5], "seeds": [0, 1],
                                 "h": 2.0**-3, "r_out_factor": 2.0})
    maps = count_calls(solve._Lattice2D, "moment_maps")
    read, fixed = solve._Lattice._read_exterior, []

    def recorded(self, shared):
        read(self, shared)
        fixed.append(self.fixed)  # kept, so no two reads share an id

    monkeypatch.setattr(solve._Lattice, "_read_exterior", recorded)
    for workers in ("1", "2"):
        assert main(["run", str(cfg), "--workers", workers, "--out", str(tmp_path / workers)]) == 0
        assert len(maps) == 1 and len(fixed) == 5 and len({id(a) for a in fixed}) == 2
        maps.clear()
        fixed.clear()
    for name in ("rows.csv", "summary.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_converge_runs_in_process_at_any_worker_count(tmp_path, dim):
    # every converge problem shares the grid, so K in 1d, or the moment maps
    # in 2d, and the run is one batch: a fresh interpreter at 2 workers
    # builds no executor and loads neither pool module, and writes what
    # 1 worker writes
    if dim == 1:
        cfg = write_config(tmp_path, kind="converge", environment=MIXED_ENV,
                           numerics={"eps_list": [0.25, 0.125], "seeds": [0, 1], "h": 2.0**-5})
    else:
        cfg = write_config(tmp_path, kind="converge",
                           environment={"dim": 2, "kernel_class": "a", **MIXED_ENV},
                           numerics={"eps_list": [1.0, 0.5], "seeds": [0, 1],
                                     "h": 2.0**-3, "r_out_factor": 2.0})
    script = (
        "import json, sys, concurrent.futures\n"
        "built = []\n"
        "class StandIn:\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        built.append(kwargs.get('max_workers'))\n"
        "        raise RuntimeError('no pool expected')\n"
        "concurrent.futures.ThreadPoolExecutor = StandIn\n"
        "from nlhomog.cli import main\n"
        "cfg, out = sys.argv[1:]\n"
        "codes = [main(['run', cfg, '--workers', w, '--out', out + w]) for w in ('2', '1')]\n"
        "print(json.dumps([codes, built, sorted(m for m in sys.modules\n"
        "                                        if m.startswith('concurrent.futures.')\n"
        "                                        and m != 'concurrent.futures._base')]))\n"
    )
    src = str(Path(nlhomog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / "w")],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], [], []]
    two, one = tmp_path / "w2", tmp_path / "w1"
    assert [r[:-1] for r in read_rows(two)] == [r[:-1] for r in read_rows(one)]
    assert (two / "summary.json").read_bytes() == (one / "summary.json").read_bytes()


def test_2d_cmi_passes_its_checks(tmp_path):
    cfg = write_config(tmp_path, kind="cmi", environment={"dim": 2, "kernel_class": "a"},
                       numerics={"h": 2.0**-3, "r_out_factor": 2.0},
                       experiment={"sizes": [1.0, 0.25, 0.0625]})
    assert main(["run", str(cfg), "--check"]) == 0
    # squares of 8, 4 and 2 cells a side measure exactly what was asked
    assert [float(row[3]) for row in read_rows(tmp_path / "out")[1:]] == [1.0, 0.25, 0.0625]


def test_check_subcommand_is_an_argparse_error():
    # run is the only subcommand; suites of checks are `run --check` configs
    for argv in (["check", "invariants"], ["check", "nonsense"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("command", [["run"], ["run", "--check"]], ids=["run", "run-check"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_nonpositive_worker_flag_exits_2(tmp_path, capsys, command, workers):
    # a run would otherwise write a replay.json that refuses to replay
    assert main([*command, str(write_config(tmp_path)), "--workers", workers]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "ConfigurationError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_dir_blocked_by_a_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch,
                                                          under):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if under else taken
    runs = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args: runs.append(args))
    assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert json.loads(err[0])["error"]["type"] == "ConfigurationError"
    assert not runs and taken.read_text() == ""


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# config validation

@pytest.mark.parametrize("overrides", [
    {"bogus_key": 1},
    {"schema_version": 2},
    {"kind": "explode"},
    {"environment": {"flavor": "sour"}},
    {"kernel": {"sigma": 2.5}},
    {"numerics": {"eps_list": []}},
    {"numerics": {"eps_list": [4.0]}},
    {"numerics": {"seeds": []}},
    {"numerics": {"seeds": [-1]}},
    {"numerics": {"seeds": [3, 3]}},
    {"numerics": {"h": 0.25}},        # violates h <= eps_min / 4
    {"numerics": {"method": "magic"}},
    {"numerics": {"method": "auto"}},  # the engine follows the problem
    {"numerics": {"theta": 1.5}},
    {"experiment": {"rhs": 0.0, "shape": "triangle"}},
    {"experiment": {"exterior": "noise"}},
    {"workers": 0},
    {"out_dir": ""},
    {"timings": "false"},
    {"timings": 0},
    {"kind": "cmi", "experiment": {"conjecture_cs": "false"}},
    {"kind": "cmi", "environment": {"kernel_class": "a"},
     "experiment": {"conjecture_cs": 1}},
    {"kind": "cmi", "environment": {"dim": 2, "kernel_class": "cs"},
     "numerics": {"h": 2.0**-4}, "experiment": {"conjecture_cs": True}},
    {"numerics": {"richardson": "no"}},
    {"numerics": {"richardson": False}},  # an old replay file carries the key
    {"environment": {"layout": "periodic", "period": 2**63}},
    {"experiment": {"eps": 4.0}},
    {"experiment": {"eps": -1.0}},
    {"kind": "obstacle", "experiment": {"eps": 4.0}},
], ids=[
    "unknown-top-key", "schema-version", "unknown-kind", "unknown-env-key",
    "sigma-range", "empty-eps", "eps-above-one", "empty-seeds",
    "negative-seed", "repeated-seeds", "h-vs-eps", "bad-method", "method-key", "theta-range",
    "bad-shape", "bad-exterior", "zero-workers", "empty-out-dir",
    "timings-string", "timings-int", "conjecture-cs-string", "conjecture-cs-int", "cmi-2d-cs",
    "richardson-string", "richardson-key", "period-past-int64", "experiment-eps-above-one",
    "experiment-eps-negative", "obstacle-experiment-eps-above-one",
])
def test_bad_configs_exit_2(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["type"] == "ConfigurationError"


@pytest.mark.parametrize("overrides, key", [
    ({"environment": {"layout": "periodic", "period": 2**63}}, "period"),
    ({"experiment": {"eps": 4.0}}, "experiment.eps must lie in (0, 1]"),
    ({"experiment": {"eps": -1.0}}, "experiment.eps must lie in (0, 1]"),
], ids=["period", "eps-above-one", "eps-negative"])
def test_range_errors_name_their_key(tmp_path, capsys, overrides, key):
    assert main(["run", str(write_config(tmp_path, **overrides))]) == 2
    assert key in one_error_line(capsys)["message"]


def test_largest_period_runs(tmp_path):
    # 2**63 - 1 is the largest period whose fold stays in int64
    cfg = write_config(tmp_path, environment={"layout": "periodic", "period": 2**63 - 1,
                                              "coeff_law": "uniform", "forcing_law": "uniform"})
    assert main(["run", str(cfg)]) == 0


@pytest.fixture
def refuse_builds(monkeypatch):
    """Sentinels on every table, lattice and inverse a run could build: each
    records its call and raises; returns the list of what was built."""
    built = []

    def sentinel(name):
        def refuse(*args, **kwargs):
            built.append(name)
            raise AssertionError(f"{name} ran")
        return refuse

    monkeypatch.setattr(solve, "build_quadrature", sentinel("build_quadrature"))
    monkeypatch.setattr(solve._Lattice1D, "__init__", sentinel("_Lattice1D.__init__"))
    monkeypatch.setattr(solve._Lattice2D, "__init__", sentinel("_Lattice2D.__init__"))
    monkeypatch.setattr(solve, "_toeplitz_inverse", sentinel("_toeplitz_inverse"))
    return built


def one_error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


class Cleared(Exception):
    """Raised by the first exterior read of a run: every size check has passed."""


def clears_every_size_check(monkeypatch, path):
    # each limit is checked before the array it bounds, and the first lattice
    # reads its exterior only after every grid and dense array of the run passed
    def stop(self, shared):
        raise Cleared

    with monkeypatch.context() as m:
        m.setattr(solve._Lattice, "_read_exterior", stop)
        with pytest.raises(Cleared):
            cli.run_experiment(*cli.load_config(path), workers=1)


@pytest.mark.parametrize("overrides, per_axis", [
    ({"numerics": {"eps_list": [1e-300]}}, "inf per axis"),          # h = eps / 4
    ({"numerics": {"r_out_factor": 1e9}}, "J = inf"),                 # the table's reach
    ({"environment": {"dim": 2, "kernel_class": "a"},
      "numerics": {"eps_list": [1.0], "h": 2.0**-7}}, "16384 nodes (128 per axis)"),
    ({"kind": "corrector", "numerics": {"eps_list": [0.25, 2.0**-16]},
      "experiment": {"phi_index": 4, "level": 1.0}}, "524288 per axis"),
    # every grid is checked before the inverses of K are counted
    ({"kind": "effective", "numerics": {"eps_list": [0.25, 2.0**-16]},
      "experiment": {"phi_index": 4}}, "262144 per axis"),
    ({"kind": "mbar", "environment": {"dim": 2, "kernel_class": "a"},
      "numerics": {"eps_list": [1.0, 2.0**-5]}, "experiment": {"phi_index": 4, "level": 1.0}},
     "16384 nodes (128 per axis)"),
], ids=["tiny-eps", "huge-r-out-factor", "2d-fine-h", "corrector-one-fine-eps",
        "effective-one-fine-eps", "2d-mbar-one-fine-eps"])
def test_oversized_grids_exit_2(tmp_path, capsys, refuse_builds, count_calls, overrides,
                                per_axis):
    # each grid is checked with its ghost nodes before its table is built, so
    # none of these allocates or raises a numpy error; the corrector checks
    # its fine eps before it solves its coarse one
    solves = count_calls(solve, "solve_dirichlet_many")
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == 2
    err = one_error_line(capsys)
    assert err["type"] == "ConfigurationError"
    assert "MAX_GRID_POINTS" in err["message"]
    assert per_axis in err["message"]
    assert refuse_builds == []
    if overrides.get("kind") == "corrector":
        assert not solves  # not even the coarse eps 0.25


def test_grid_limit_is_fixed_and_documented(tmp_path):
    # the limit is a constant, stated in the README; no config key sets it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"`MAX_GRID_POINTS` = 2^22 = {solve.MAX_GRID_POINTS}" in readme
    assert solve.MAX_GRID_POINTS == 2**22
    # the largest desk grids stay under it: m = 2048 in 1d (an effective run
    # at eps 2^-9), and a 2d box at h = 2^-5; check_grid returns the table's radius
    assert solve.check_grid(Box((0.0,), 0.5, 2.0**-11), 8.0) == 8.0
    assert solve.check_grid(Box((0.0, 0.0), 0.5, 2.0**-5), 8.0) == 8.0 * math.sqrt(2.0)
    with pytest.raises(ConfigurationError, match="unknown keys"):
        cli.load_config(write_config(tmp_path, name="key.json",
                                     numerics={"max_grid_points": 2**40}))


@pytest.mark.parametrize("overrides", [
    {"kind": "obstacle", "numerics": {"eps_list": [2.0**-12]}, "experiment": {"rhs": 2.0}},
    {"kind": "mbar", "numerics": {"eps_list": [2.0**-12]},
     "experiment": {"phi_index": 4, "level": 1.0}},
    {"kind": "effective", "numerics": {"eps_list": [0.25, 2.0**-12]},
     "experiment": {"phi_index": 4}},
    # three eps on one m = 8192 grid: each G alone is under the limit, together 1.5 GiB
    {"kind": "mbar", "numerics": {"eps_list": [2.0**-9, 2.0**-10, 2.0**-11], "h": 2.0**-13},
     "experiment": {"phi_index": 4, "level": 1.0}},
    # every 1d Dirichlet batch holds the G of its grid too
    {"kind": "solve", "numerics": {"eps_list": [2.0**-12]}},
    {"kind": "converge", "numerics": {"eps_list": [0.25, 2.0**-12]}},
    {"kind": "abp", "environment": ONE_D_A, "numerics": {"h": 2.0**-13}},
    # the corrector's finest grid, on the ball of half-width 1, before its coarse eps
    {"kind": "corrector", "numerics": {"eps_list": [0.25, 2.0**-11]},
     "experiment": {"phi_index": 4, "level": 1.0}},
    # a 2d grid of 128 x 128 cells with a short reach pads to 96100 points,
    # but the policy engine's maps and policy matrix take 5 x 8 x 16384^2 bytes
    {"kind": "solve", "environment": {"dim": 2, "kernel_class": "a"},
     "numerics": {"eps_list": [0.5], "h": 2.0**-7, "r_out_factor": 0.5},
     "experiment": {"eps": 0.5}},
    {"kind": "effective", "environment": {"dim": 2, "kernel_class": "a"},
     "numerics": {"eps_list": [0.5], "h": 2.0**-7, "r_out_factor": 0.5},
     "experiment": {"phi_index": 4}},
], ids=["obstacle", "mbar", "effective", "mbar-three-eps", "solve", "converge", "abp",
        "corrector", "solve-2d", "effective-2d"])
def test_runs_holding_too_large_an_inverse_exit_2(tmp_path, capsys, refuse_builds, overrides):
    # 1d: m = 16384 pads to 278528 points, under MAX_GRID_POINTS, but its G
    # alone is 2 GiB; 2d: the moment maps of n = 16384 active cells.  The run
    # exits 2 before any table, lattice, G or map is built
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == 2
    err = one_error_line(capsys)
    assert err["type"] == "ConfigurationError"
    assert f"MAX_DENSE_BYTES = {2**30}" in err["message"]
    if overrides.get("environment", {}).get("dim") == 2:
        assert "moment maps" in err["message"] and "n = 16384" in err["message"]
    assert refuse_builds == []


def test_dense_limit_is_fixed_documented_and_clears_every_shipped_config(tmp_path,
                                                                         monkeypatch):
    # a constant beside MAX_GRID_POINTS, stated in the README, not a config key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "`MAX_DENSE_BYTES` = 2^30" in readme and solve.MAX_DENSE_BYTES == 2**30
    with pytest.raises(ConfigurationError, match="unknown keys"):
        cli.load_config(write_config(tmp_path, name="key.json",
                                     numerics={"max_dense_bytes": 2**40}))
    # the largest grid under it: one m = 8192 inverse, 512 MiB, or two (1 GiB)
    for i, eps_list in enumerate(([2.0**-11], [2.0**-11, 2.0**-11], [2.0**-10, 2.0**-11])):
        for kind, experiment in (("obstacle", {"eps": eps_list[0]}),
                                 ("effective", {"phi_index": 4})):
            cfg = write_config(tmp_path, name=f"{kind}{i}.json", kind=kind,
                               numerics={"eps_list": eps_list, "h": 2.0**-13},
                               experiment=experiment)
            clears_every_size_check(monkeypatch, cfg)
    # every golden and every benchmark config passes every size check
    root = Path(__file__).resolve().parents[1]
    for path in sorted((root / "tests" / "golden").glob("*/config.json")):
        clears_every_size_check(monkeypatch, path)
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks it up
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for j, config in enumerate(workload.configs(0)):
            path = tmp_path / f"{workload.name}-{j}.json"
            path.write_text(json.dumps(config))
            clears_every_size_check(monkeypatch, path)


@pytest.mark.parametrize("h, refused", [
    (2.0**-13, True), (2.0**-11, True), (2.0**-10, False), (2.0**-9, False),
], ids=["h-2^-13", "h-2^-11", "h-2^-10", "h-2^-9"])
def test_cs_extremal_moment_buffers_are_checked_before_the_lattice_reads_its_exterior(
        tmp_path, capsys, monkeypatch, h, refused):
    # the pointwise cs extremal's moments hold two m x J buffers of 8-byte
    # entries: 2 x 17 GB at h 2^-13, 2 x 1.07 GB at 2^-11, 2 x 268 MB at 2^-10
    cfg = write_config(tmp_path, kind="cmi", numerics={"h": h},
                       experiment={"conjecture_cs": True})
    if not refused:
        clears_every_size_check(monkeypatch, cfg)
        return
    built = []

    def refuse(self, *args):
        built.append(self)
        raise AssertionError("a lattice read its exterior or swept")

    monkeypatch.setattr(solve._Lattice, "_read_exterior", refuse)
    monkeypatch.setattr(solve._Lattice, "sweep_solve", refuse)
    assert main(["run", str(cfg)]) == 2
    err = one_error_line(capsys)
    assert err["type"] == "ConfigurationError"
    assert f"MAX_DENSE_BYTES = {2**30}" in err["message"] and "m x J" in err["message"]
    assert built == []


@pytest.mark.parametrize("kind, overrides", [
    ("solve", {"numerics": {"eps_list": [1e-323]}}),
    ("solve", {"experiment": {"eps": 1e-323}}),
    ("effective", {"numerics": {"eps_list": [1e-323]}, "experiment": {"phi_index": 4}}),
    ("converge", {"numerics": {"eps_list": [1e-323]}}),
    ("converge", {"numerics": {"eps_list": [0.25, 1e-323]}}),
], ids=["solve", "solve-experiment-eps", "effective", "converge", "converge-two-eps"])
def test_eps_whose_default_spacing_underflows_exits_2(tmp_path, capsys, kind, overrides):
    # eps / 4 rounds to 0.0, which no grid can take
    cfg = write_config(tmp_path, kind=kind, **overrides)
    assert main(["run", str(cfg)]) == 2
    err = one_error_line(capsys)
    assert err["type"] == "ConfigurationError" and "eps/4 = 0.0" in err["message"]


def test_eps_that_underflows_leaves_abp_alone(tmp_path):
    # abp reads no eps: its grid is PROBE_H, so eps_list [1e-323] runs as before
    cfg = write_config(tmp_path, kind="abp", environment={"kernel_class": "a"},
                       numerics={"eps_list": [1e-323]},
                       experiment={"amplitudes": [1.0, 2.0], "supports": [0.5, 0.125]})
    assert main(["run", str(cfg)]) == 0


@pytest.mark.parametrize("kind, experiment", [
    ("solve", {}), ("effective", {"phi_index": 4}), ("corrector", {"phi_index": 4, "level": 1.0}),
], ids=["solve", "effective", "corrector"])
def test_eps_whose_grid_has_no_finite_cell_count_exits_2(tmp_path, capsys, refuse_builds,
                                                         kind, experiment):
    # eps / 4 = 2.5e-311 is positive, but 1 / 2.5e-311 overflows: the box refuses it
    cfg = write_config(tmp_path, kind=kind, numerics={"eps_list": [1e-310]},
                       experiment=experiment)
    assert main(["run", str(cfg)]) == 2
    err = one_error_line(capsys)
    assert err["type"] == "ConfigurationError" and "finite number" in err["message"]
    assert refuse_builds == []


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("overrides", [
    {"kernel": {"sigma": "abc"}},
    {"numerics": {"eps_list": 0.5}},
    {"numerics": {"eps_list": [0.25, "x"]}},
    {"numerics": {"solver_tol": NAN}},
    {"numerics": {"solver_tol": INF}},
    {"numerics": {"bisect_tol": NAN}},
    {"numerics": {"r_out_factor": INF}},
    {"numerics": {"h": NAN}},
    {"numerics": {"max_steps": "x"}},
    {"numerics": {"max_steps": INF}},
    {"experiment": {"rhs": NAN}},
    {"experiment": {"rhs": -INF}},
    {"experiment": {"rhs": "high"}},
    {"experiment": {"eps": INF}},
    {"experiment": {"seed": "x"}},
    {"kind": "mbar", "experiment": {"phi_index": 4, "level": NAN}},
    {"kind": "effective", "experiment": {"phi_index": "x"}},
    {"kind": "effective", "experiment": {"phi_index": 4, "x0": [NAN]}},
    {"kind": "effective", "experiment": {"phi_index": 4, "x0": 0.0}},
    {"kind": "abp", "experiment": {"amplitudes": [1.0, INF]}},
    {"environment": {"forcing_value": NAN}},
    {"environment": {"lam_big": INF}},
    {"workers": "two"},
    {"environment": {"n_alpha": 3.0}},
    {"environment": {"dim": True}},
    {"environment": {"lam": True}},
    {"numerics": {"seeds": [True]}},
    {"experiment": {"rhs": None}},
    {"experiment": {"seed": True}},
    {"kind": "effective", "experiment": {"phi_index": 4.5}},
    {"numerics": {"max_steps": True}},
    {"workers": 4.5},
    {"kernel": {"sigma": True}},
], ids=[
    "sigma-string", "eps-list-scalar", "eps-list-string-entry", "solver-tol-nan",
    "solver-tol-inf", "bisect-tol-nan", "r-out-factor-inf", "h-nan",
    "max-steps-string", "max-steps-inf", "rhs-nan", "rhs-minus-inf",
    "rhs-string", "eps-inf", "seed-string", "level-nan", "phi-index-string",
    "x0-nan", "x0-scalar", "amplitude-inf", "forcing-value-nan",
    "lam-big-inf", "workers-string", "n-alpha-float", "dim-bool", "lam-bool",
    "seed-bool", "rhs-null", "experiment-seed-true", "phi-index-4.5",
    "max-steps-bool", "workers-4.5", "sigma-bool",
])
def test_malformed_numbers_exit_2(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "ConfigurationError"


@pytest.mark.parametrize("key, overrides", [
    ("kernel.sigma", {"kernel": {"sigma": "1.5"}}),
    ("numerics.eps_list", {"numerics": {"eps_list": [0.25, "0.125"]}}),
    ("experiment.rhs", {"experiment": {"rhs": "2.0"}}),
    ("experiment.level", {"kind": "mbar", "experiment": {"phi_index": 4, "level": "18"}}),
    ("environment.lam", {"environment": {"lam": "1.0"}}),
], ids=["sigma", "eps-list-entry", "rhs", "level", "lam"])
def test_numbers_written_as_json_strings_exit_2(tmp_path, capsys, key, overrides):
    # a number field takes a JSON integer or float; the string of a valid
    # number is refused by the key's name, not converted
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["type"] == "ConfigurationError"
    assert key in error["message"] and "must be a finite number" in error["message"]


def test_translation_shift_checked_at_the_eps_it_runs(tmp_path, capsys):
    # the translated route runs at the largest eps: 0.25 * 0.1 is not a
    # whole number of cells of width 0.0625 / 4, although 0.25 * 0.0625 is
    cfg = write_config(tmp_path, kind="converge",
                       numerics={"eps_list": [0.1, 0.0625], "seeds": [0, 1]})
    assert main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert err["type"] == "ConfigurationError"
    assert "translation" in err["message"]


@pytest.mark.parametrize("kind, experiment", [
    ("abp", {"supports": [0.0, -1.0]}),
    ("abp", {"amplitudes": [1.0, -2.0]}),
    ("abp", {"base_support": 0.0}),
    ("cmi", {"sizes": [0.5, 0.0]}),
], ids=["abp-supports", "abp-amplitudes", "abp-base-support", "cmi-sizes"])
def test_nonpositive_forcing_measures_exit_2(tmp_path, capsys, kind, experiment):
    cfg = write_config(tmp_path, kind=kind, environment={"kernel_class": "a"},
                       numerics={"h": 2.0**-5}, experiment=experiment)
    assert main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert err["type"] == "ConfigurationError"
    assert "must be positive" in err["message"]


@pytest.mark.parametrize("key", ["sizes", "supports", "base_support"])
@pytest.mark.parametrize("dim, h, fits, too_big", [
    (1, 2.0**-5, 2.0, 2.03125),     # 64 cells fill the grid of [-1, 1]; 65 do not fit
    (2, 2.0**-3, 2.25, 2.640625),   # a square of 12 cells a side lies in the disc; 13 do not
], ids=["1d", "2d"])
def test_forcing_measures_must_lie_on_active_cells(tmp_path, capsys, count_calls,
                                                   dim, h, fits, too_big, key):
    # a forcing snaps to k whole cells a side, centred in the probe domain,
    # the ball of radius 1; past its active cells the run exits 2, before any
    # solve, naming the measure, and a measure that exactly fits runs
    solves = count_calls(solve, "_solve")
    kind = "cmi" if key == "sizes" else "abp"
    for measure, code in ((too_big, 2), (fits, 0)):
        experiment = {"sizes": [measure, 0.25]} if kind == "cmi" else {
            "supports": [measure, 0.125] if key == "supports" else [0.5, 0.125],
            "base_support": measure if key == "base_support" else 0.25}
        cfg = write_config(tmp_path, kind=kind, environment={"dim": dim, "kernel_class": "a"},
                           numerics={"h": h, "r_out_factor": 2.0}, experiment=experiment)
        assert main(["run", str(cfg)]) == code
        if code == 2:
            err = one_error_line(capsys)
            assert err["type"] == "ConfigurationError"
            assert f"measure {measure!r}" in err["message"] and "active" in err["message"]
            assert not solves
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    measures = ([row["measure"] for row in summary["rows"]] if kind == "cmi"
                else [summary["base_support"]] if key == "base_support"
                else [row["measure"] for row in summary["support_rows"]])
    assert fits in measures


@pytest.mark.parametrize("kind, experiment, code", [
    ("abp", {"supports": [0.5, 0.25, 0.125]}, 0),
    ("cmi", {"sizes": [0.5, 0.25, 0.125]}, 0),
    ("effective", {"phi_index": 4}, 2),
], ids=["abp", "cmi", "effective"])
def test_eps_bounds_h_only_for_kinds_that_take_eps(tmp_path, capsys, kind, experiment, code):
    # h = 2^-4 is above eps_min/4 = 2^-6, an eps that abp and cmi never read
    cfg = write_config(tmp_path, kind=kind, environment={"kernel_class": "a"},
                       numerics={"h": 2.0**-4, "eps_list": [0.0625]},
                       experiment=experiment)
    assert main(["run", str(cfg)]) == code
    if code:
        err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert err["type"] == "ConfigurationError" and "eps_min/4" in err["message"]


def test_phi_index_bounds_checked(tmp_path, capsys):
    cfg = write_config(tmp_path, kind="effective",
                       experiment={"phi_index": 99})
    assert main(["run", str(cfg)]) == 2
    assert "bank" in json.loads(
        capsys.readouterr().err.splitlines()[-1])["error"]["message"]


def test_required_experiment_fields(tmp_path, capsys):
    cfg = write_config(tmp_path, kind="mbar", experiment={"phi_index": 4})
    assert main(["run", str(cfg)]) == 2
    msg = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]["message"]
    assert "level" in msg


def test_cmi_scalar_class_requires_conjecture_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, kind="cmi")
    assert main(["run", str(cfg)]) == 2
    msg = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]["message"]
    assert "conjecture" in msg


def test_unreadable_and_malformed_configs(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    for line in capsys.readouterr().err.splitlines():
        assert json.loads(line)["error"]["type"] == "ConfigurationError"


def test_solver_failure_exits_3(tmp_path, capsys):
    # a 2d solve's certified residual floors near rounding, far above 1e-300
    cfg = write_config(
        tmp_path,
        environment={"dim": 2, "kernel_class": "a", "n_alpha": 2, "n_beta": 2,
                     "coeff_law": "uniform", "forcing_law": "uniform"},
        numerics={"eps_list": [0.5], "h": 0.125, "solver_tol": 1e-300},
        experiment={"exterior": "cosine", "eps": 0.5},
    )
    assert main(["run", str(cfg)]) == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["type"] == "SolverError"
    # the message names the engine, its policy solves and the last residuals
    assert err["error"]["message"].startswith("policy solver did not reach tol=1e-300")
    assert "last residuals checked: " in err["error"]["message"]
    assert 1 <= err["error"]["iterations"] <= 12 and 0.0 < err["error"]["residual"] < 1e-12


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("kind, experiment", [
    ("mbar", {"phi_index": 4, "level": 12.0}),
    ("effective", {"phi_index": 4}),
])
def test_a_frozen_solve_failure_names_its_problem(tmp_path, capsys, kind, experiment,
                                                  workers):
    # the newton residual floors near 1e-13 here; the error must say which
    # of the run's problems missed the tolerance, on any worker thread, and
    # carry the residual and step count of that solve as fields
    cfg = write_config(tmp_path, kind=kind, environment=MIXED_ENV,
                       numerics={"eps_list": [0.25, 0.125], "seeds": [3, 5],
                                 "solver_tol": 1e-15},
                       experiment=experiment)
    assert main(["run", str(cfg), "--workers", workers]) == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert err["type"] == "SolverError"
    where = re.match(r"eps=(\S+), seed=(\d+), level=(\S+): newton solver did not reach",
                     err["message"])
    assert where is not None, err["message"]
    eps, seed, level = float(where[1]), int(where[2]), float(where[3])
    assert eps in (0.25, 0.125) and seed in (3, 5) and math.isfinite(level)
    if kind == "mbar":
        assert level == 12.0
    residual, iterations = err["residual"], err["iterations"]
    assert isinstance(iterations, int) and iterations >= 1
    assert 1e-15 < residual < 1e-9
    assert f"(residual {residual:.3e} after {iterations} iterations;" in err["message"]


def test_runs_load_no_scipy(tmp_path):
    # a 2d solve and a 1d obstacle solve in one fresh interpreter
    solve_2d = write_config(
        tmp_path, name="solve2d.json",
        environment={"dim": 2, "kernel_class": "a", "n_alpha": 2, "n_beta": 2,
                     "coeff_law": "uniform", "forcing_law": "uniform"},
        numerics={"eps_list": [0.5], "h": 0.125, "seeds": [0]},
        experiment={"exterior": "cosine", "eps": 0.5, "seed": 0},
        out_dir=str(tmp_path / "out2d"))
    obstacle_1d = write_config(tmp_path, name="obstacle.json", kind="obstacle",
                               experiment={"rhs": 0.05},
                               out_dir=str(tmp_path / "out1d"))
    script = (
        "import json, sys\n"
        "from nlhomog.cli import main\n"
        "codes = [main(['run', path]) for path in sys.argv[1:]]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy')]))\n"
    )
    src = str(Path(nlhomog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(solve_2d), str(obstacle_1d)],
                          capture_output=True, text=True, env=env, check=True)
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert scipy_modules == []


def test_import_loads_no_process_pool():
    # the thread-pool module is imported only when a run maps on threads,
    # and the process-pool module never
    script = ("import sys, nlhomog.cli\n"
              "print('concurrent.futures.process' in sys.modules,\n"
              "      'concurrent.futures.thread' in sys.modules)\n")
    src = str(Path(nlhomog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["False", "False"]


# ---------------------------------------------------------------------------
# fuzzed configs: every input ends in a documented exit code

_FUZZ_BASE = {
    "solve": ({}, {"rhs": 0.05}),
    "obstacle": ({}, {"rhs": 0.05}),
    "mbar": ({"seeds": [0, 1]}, {"phi_index": 4, "level": 12.0}),
    "effective": ({"seeds": [0, 1], "bisect_tol": 0.125}, {"phi_index": 4}),
    "corrector": ({"eps_list": [0.25, 0.125]}, {"phi_index": 4, "level": 12.0}),
    "converge": ({"eps_list": [0.25, 0.125], "seeds": [0, 1]}, {}),
    "abp": ({"h": 2.0**-5}, {"amplitudes": [1.0, 2.0], "supports": [0.5, 0.125]}),
    "cmi": ({"h": 2.0**-5}, {"sizes": [0.5, 0.125]}),
}
_FUZZ_KEYS = {
    None: ["schema_version", "kind", "workers", "timings", "bogus"],
    "environment": list(EnvironmentSpec._fields),
    "kernel": ["sigma"],
    "numerics": list(cli._NUMERIC_DEFAULTS),
    "experiment": sorted({k for d in cli._EXPERIMENT_DEFAULTS.values() for k in d}),
}
# small values only: a valid draw must stay a desk-second run, so no 2d
# and no tiny tolerances or grids
_FUZZ_VALUES = [None, True, -1, 0, 0.5, 3, 3.0, float("nan"), float("inf"), "x",
                "newton", [], [0.25], [0.25, 0.125], {}]
_DELETE = object()


@st.composite
def fuzz_configs(draw):
    kind = draw(st.sampled_from(sorted(_FUZZ_BASE)))
    numerics, experiment = _FUZZ_BASE[kind]
    cfg = {
        "schema_version": 1, "kind": kind,
        "environment": {"dim": 1, "kernel_class": "a" if kind in ("abp", "cmi") else "cs",
                        **MIXED_ENV},
        "kernel": {"sigma": 1.0},
        "numerics": {"eps_list": [0.25], "seeds": [0], **numerics},
        "experiment": dict(experiment),
        "workers": 1,
    }
    for _ in range(draw(st.integers(0, 3))):
        block = draw(st.sampled_from(sorted(_FUZZ_KEYS, key=str)))
        key = draw(st.sampled_from(_FUZZ_KEYS[block]))
        value = draw(st.sampled_from(_FUZZ_VALUES + [_DELETE]))
        target = cfg if block is None else cfg[block]
        if not isinstance(target, dict):
            continue
        if value is _DELETE:
            target.pop(key, None)
        else:
            target[key] = value
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fuzz_configs())
def test_fuzzed_configs_exit_cleanly(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        cfg["out_dir"] = os.path.join(tmp, "out")
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["run", path])
    assert rc in (0, 2, 3, 4)
    if rc != 0:
        report = json.loads(err.getvalue().splitlines()[-1])
        assert set(report) == {"error"}
        assert isinstance(report["error"]["type"], str)
        assert isinstance(report["error"]["message"], str)
