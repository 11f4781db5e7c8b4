"""End-to-end command tests: configs in, artifacts and exit codes out."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nlhomog
from nlhomog import cli
from nlhomog.cli import main
from nlhomog.env import EnvironmentSpec
from nlhomog.homog import RowLog


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
    # pool must reproduce exactly
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
            if k not in ("OPENBLAS_NUM_THREADS", "NONLOCAL_HOMOG_WORKERS")}
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


def test_converge_replay_is_worker_invariant(tmp_path):
    # the converge solves fan out through the same pool as the bisection
    cfg = write_config(
        tmp_path, kind="converge", environment=MIXED_ENV,
        numerics={"eps_list": [0.25, 0.125], "seeds": [0, 1], "h": 2.0**-5},
    )
    rows = replay_at_one_worker(tmp_path, cfg)
    assert [r[0] for r in rows[1:]] == ["converge"] * 4 + ["converge-shift"]


def test_environment_worker_count_beats_config(tmp_path, monkeypatch):
    seen = []

    def record(resolved, spec, fam, workers):
        seen.append(workers)
        return {}, RowLog(), None

    monkeypatch.setattr(cli, "run_experiment", record)
    cfg = write_config(tmp_path, workers=1)
    monkeypatch.setenv("NONLOCAL_HOMOG_WORKERS", "2")
    assert main(["run", str(cfg)]) == 0
    assert main(["run", str(cfg), "--workers", "3"]) == 0
    monkeypatch.delenv("NONLOCAL_HOMOG_WORKERS")
    assert main(["run", str(cfg)]) == 0
    assert seen == [2, 3, 1]


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


def test_check_suite_invariants(capsys):
    assert main(["check", "invariants"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_unknown_suite_exits_2(capsys):
    assert main(["check", "nonsense"]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["type"] == "ConfigurationError"


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_nonpositive_worker_flag_exits_2(tmp_path, capsys, command, workers):
    # a run would otherwise write a replay.json that refuses to replay
    target = str(write_config(tmp_path)) if command == "run" else "invariants"
    assert main([command, target, "--workers", workers]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "ConfigurationError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_worker_environment_exits_2(tmp_path, capsys, monkeypatch,
                                                command, workers):
    # the environment variable obeys the rule of --workers, not a clamp to 1
    monkeypatch.setenv("NONLOCAL_HOMOG_WORKERS", workers)
    target = str(write_config(tmp_path)) if command == "run" else "invariants"
    assert main([command, target]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["type"] == "ConfigurationError"
    assert not (tmp_path / "out").exists()


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
], ids=[
    "unknown-top-key", "schema-version", "unknown-kind", "unknown-env-key",
    "sigma-range", "empty-eps", "eps-above-one", "empty-seeds",
    "negative-seed", "repeated-seeds", "h-vs-eps", "bad-method", "method-key", "theta-range",
    "bad-shape", "bad-exterior", "zero-workers", "empty-out-dir",
])
def test_bad_configs_exit_2(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["type"] == "ConfigurationError"


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
    # a 2d solve runs sweeps, which stop once the residual stagnates
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
    "environment": list(EnvironmentSpec.__dataclass_fields__),
    "kernel": ["sigma"],
    "numerics": list(cli._NUMERIC_DEFAULTS),
    "experiment": sorted({k for d in cli._EXPERIMENT_DEFAULTS.values() for k in d}),
}
# small values only: a valid draw must stay a desk-second run, so no 2d
# (dim 2, which runs sweeps) and no tiny tolerances or grids
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
