"""Golden artifacts: committed run configs replayed in process against their outputs.

Each directory under tests/golden/ holds one run config and what a run of it
wrote: summary.json, rows.csv without its wall_ms column and, for a solve,
solution.csv.  checks.json beside them holds the verdicts of the kind's
`--check` gates on that run, as [name, passed] pairs; a gate that fails on
its golden is recorded failing, so a verdict that flips either way shows.
blas.json names the OpenBLAS build and kernel type the artifacts were made
with.  On that kernel type a replay must match
them byte for byte.  Kernels of another type round differently in the last
bits (see test_blas_kernels.py), so there integers, strings and the exact
identities (contact fractions, zeros, the translation gap) must still match
exactly, and every other float within REL_TOL relative or ABS_TOL absolute.

Refresh every golden, and blas.json, with

    PYTHONPATH=src python tests/test_golden.py

which prints, per golden, the artifacts that changed and the largest float
move in each; name in the change log the configs whose bytes moved, and why.
"""

import csv
import ctypes
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nlhomog import cli

GOLDEN = Path(__file__).resolve().with_name("golden")
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "config.json").is_file())
ARTIFACTS = ("summary.json", "rows.csv", "solution.csv", "checks.json")

REL_TOL = 1e-9   # last-bit drift of LAPACK/BLAS results, with room for its growth
ABS_TOL = 1e-10  # residuals sit near rounding, far below every solver tolerance
EXACT_KEYS = ("contact_fraction", "translation_gap")


def blas_identity():
    """{"config", "corename"} of numpy's bundled OpenBLAS, read through ctypes; None without one."""
    libs = sorted(Path(np.__file__).resolve().parent.parent.joinpath("numpy.libs")
                  .glob("libscipy_openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    out = {}
    for key, name in (("config", "scipy_openblas_get_config64_"),
                      ("corename", "scipy_openblas_get_corename64_")):
        fn = getattr(lib, name, None)
        if fn is None:
            return None
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        out[key] = fn().decode()
    return out


def replay(config_path):
    """{artifact name: text} of one in-process run of the config, rows.csv without
    wall_ms, and checks.json, the [name, passed] pairs of `cli.run_checks` on it."""
    resolved, spec, fam = cli.load_config(config_path)
    summary, log, solution = cli.run_experiment(resolved, spec, fam, resolved["workers"] or 1)
    with tempfile.TemporaryDirectory() as tmp:
        cli.write_outputs(tmp, resolved, summary, log, solution)
        texts = _texts(Path(tmp))
    verdicts = [[name, bool(ok)] for name, ok, _ in cli.run_checks(resolved, spec, fam, summary)]
    texts["checks.json"] = json.dumps(verdicts, indent=2) + "\n"
    rows = list(csv.reader(io.StringIO(texts["rows.csv"])))
    assert rows[0][-1] == "wall_ms"
    buf = io.StringIO()
    csv.writer(buf).writerows(row[:-1] for row in rows)
    texts["rows.csv"] = buf.getvalue()
    return texts


def _same_value(key, got, want):
    if isinstance(want, float) and isinstance(got, float):
        if key in EXACT_KEYS or want == 0.0 or not math.isfinite(want):
            return got == want
        return abs(got - want) <= max(REL_TOL * max(abs(got), abs(want)), ABS_TOL)
    return type(got) is type(want) and got == want


def _csv_cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _leaves(name, got, want):
    """[(key, got, want, path)] of an artifact against its golden: every leaf of
    a JSON file (a subtree whose shape differs is one pair), every cell of a
    csv file; None when a csv's header or row count differs."""
    if name.endswith(".json"):
        pairs = []

        def walk(key, g, w, path):
            if isinstance(w, dict) and isinstance(g, dict) and g.keys() == w.keys():
                for k in w:
                    walk(k, g[k], w[k], f"{path}.{k}")
            elif isinstance(w, list) and isinstance(g, list) and len(g) == len(w):
                for i, (gi, wi) in enumerate(zip(g, w)):
                    walk(key, gi, wi, f"{path}[{i}]")
            else:
                pairs.append((key, g, w, path))

        walk("", json.loads(got), json.loads(want), name)
        return pairs
    g_rows = list(csv.reader(io.StringIO(got)))
    w_rows = list(csv.reader(io.StringIO(want)))
    if len(g_rows) != len(w_rows) or g_rows[:1] != w_rows[:1]:
        return None
    header = w_rows[0]
    return [(col, _csv_cell(g), _csv_cell(w), f"{name}:{i}:{col}")
            for i, (g_row, w_row) in enumerate(zip(g_rows[1:], w_rows[1:]), start=2)
            for col, g, w in zip(header, g_row, w_row)]


def differences(name, got, want):
    """Where an artifact replayed on another kernel type misses its golden, under
    the rules of the module docstring; [] when it matches."""
    pairs = _leaves(name, got, want)
    if pairs is None:
        return [f"{name}: header or row count differs"]
    return [f"{path}: got {g!r}, want {w!r}" for key, g, w, path in pairs
            if not _same_value(key, g, w)]


def largest_move(name, got, want):
    """(move, path): the largest |got - want| over the finite float leaves an
    artifact shares with its golden, and where it is; (0.0, None) with no
    float moved, (nan, None) when a csv's header or row count differs."""
    pairs = _leaves(name, got, want)
    if pairs is None:
        return math.nan, None
    return max(((abs(g - w), path) for _, g, w, path in pairs
                if isinstance(g, float) and isinstance(w, float)
                and math.isfinite(g) and math.isfinite(w) and g != w),
               default=(0.0, None))


def _texts(folder):
    """{artifact name: text} of the artifacts in a folder, line ends as written."""
    texts = {}
    for name in ARTIFACTS:
        if (folder / name).is_file():
            with open(folder / name, newline="") as fh:
                texts[name] = fh.read()
    return texts


@pytest.mark.parametrize("case", CASES)
def test_golden_artifacts_replay(case):
    want = _texts(GOLDEN / case)
    got = replay(GOLDEN / case / "config.json")
    assert got.keys() == want.keys()
    recorded = json.loads((GOLDEN / "blas.json").read_text())
    if blas_identity() == recorded:
        for name in want:
            assert got[name] == want[name], f"{case}/{name} moved"
    else:
        for name in want:
            assert differences(name, got[name], want[name]) == []


def test_golden_comparison_off_the_recorded_kernel():
    rows = "eps,l,contact_fraction,sup_norm,iterations,residual\n0.5,1.0,0.25,{},3,{}\n"
    want = rows.format("0.125", "2.5e-13")
    assert differences("rows.csv", rows.format("0.12500000000000003", "3.1e-13"), want) == []
    assert differences("rows.csv", rows.format("0.1250001", "2.5e-13"), want)
    assert differences("rows.csv", want.replace("0.25", "0.2500000000000001"), want)
    assert differences("rows.csv", want.replace(",3,", ",4,"), want)
    summary = {"translation_gap": 0.0, "value": 1.5, "method": "newton", "gaps": [0.0, 2.0]}
    assert differences("summary.json", json.dumps({**summary, "value": 1.5 + 1e-15}),
                       json.dumps(summary)) == []
    assert differences("summary.json", json.dumps({**summary, "translation_gap": 1e-300}),
                       json.dumps(summary))
    assert differences("summary.json", json.dumps({**summary, "gaps": [1e-17, 2.0]}),
                       json.dumps(summary))
    assert differences("summary.json", json.dumps({**summary, "method": "sweeps"}),
                       json.dumps(summary))


def test_largest_move_reads_the_float_leaves():
    rows = "eps,l,sup_norm,iterations\n0.5,1.0,{},{}\n"
    assert largest_move("rows.csv", rows.format("0.25", 3), rows.format("0.125", 3)) == (
        0.125, "rows.csv:2:sup_norm")
    assert largest_move("rows.csv", rows.format("0.125", 4), rows.format("0.125", 3)) == (
        0.0, None)
    move, path = largest_move("rows.csv", rows.format("0.125", 3) + "0.5,2.0,1.0,1\n",
                              rows.format("0.125", 3))
    assert math.isnan(move) and path is None
    got, want = {"value": 1.5, "gaps": [0.0, 2.75], "method": "sweeps"}, {
        "value": 1.0, "gaps": [0.0, 2.0], "method": "newton"}
    assert largest_move("summary.json", json.dumps(got), json.dumps(want)) == (
        0.75, "summary.json.gaps[1]")


def refresh():
    """Rewrite every golden's artifacts and blas.json from the current tree, and
    print per golden the artifacts that changed, each with its largest float move."""
    for case in CASES:
        old = _texts(GOLDEN / case)
        for name in ARTIFACTS:
            (GOLDEN / case / name).unlink(missing_ok=True)
        new = replay(GOLDEN / case / "config.json")
        for name, text in new.items():
            with open(GOLDEN / case / name, "w", newline="") as fh:
                fh.write(text)
        moved = [name if name not in old or name not in new else
                 "{} (largest float move {:.3e} at {})".format(
                     name, *largest_move(name, new[name], old[name]))
                 for name in ARTIFACTS if old.get(name) != new.get(name)]
        print(f"{case}: " + (f"moved {', '.join(moved)}" if moved else "unchanged"))
    (GOLDEN / "blas.json").write_text(json.dumps(blas_identity(), indent=2, sort_keys=True)
                                      + "\n")


if __name__ == "__main__":
    if sys.argv[1:]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py")
    refresh()
