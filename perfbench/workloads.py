"""The benchmark's workloads: seeded `nlhomog run` configs and their output checks.

Each workload turns the benchmark seed into one or more run configs (plain
dicts in the `nlhomog run` schema) and checks the artifacts a run writes.
The default seed 0 reproduces the environment seeds the workloads were
designed with, and only at that seed are the committed reference values
and the seed-averaging gate applied.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().with_name("reference.json")

_BRANCHES_1D = {"dim": 1, "n_alpha": 2, "n_beta": 2, "coeff_law": "uniform",
                "forcing_law": "uniform", "f_bound": 1.0}


def _eight_seeds(seed):
    return list(range(8 * seed, 8 * seed + 8))


def _effective_1d(seed):
    return [{
        "schema_version": 1,
        "kind": "effective",
        "environment": dict(_BRANCHES_1D),
        "kernel": {"sigma": 1.0},
        "numerics": {"eps_list": [2.0**-4, 2.0**-5, 2.0**-6],
                     "seeds": _eight_seeds(seed)},
        "experiment": {"phi_index": 4},
        "workers": 1,
    }]


def _converge_1d(seed):
    return [{
        "schema_version": 1,
        "kind": "converge",
        "environment": dict(_BRANCHES_1D),
        "kernel": {"sigma": 1.0},
        "numerics": {"eps_list": [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6],
                     "seeds": _eight_seeds(seed), "h": 2.0**-9},
        "experiment": {"exterior": "cosine"},
        "workers": 2,
    }]


def _solve_2d(seed):
    # One environment per run, cycling over four: the sweep count moves with
    # the environment (96 to 120 over seeds 0-7), so a median over one draw
    # would mostly measure which environment the seed picked.
    return [{
        "schema_version": 1,
        "kind": "solve",
        "environment": {"dim": 2, "kernel_class": "a", "n_alpha": 2,
                        "n_beta": 2, "coeff_law": "uniform",
                        "forcing_law": "uniform"},
        "kernel": {"sigma": 1.0},
        "numerics": {"eps_list": [0.5], "h": 2.0**-3, "seeds": [env_seed]},
        "experiment": {"exterior": "cosine", "eps": 0.5, "seed": env_seed},
        "workers": 1,
    } for env_seed in range(4 * seed, 4 * seed + 4)]


# -- output checks -----------------------------------------------------------
#
# Every run: the program's own deterministic gate for its kind, re-applied to
# summary.json (the timed run itself is a plain `run`, without `--check`).
# Default seed only: the seed-averaging gate and the committed reference
# values.  Solution values get 2 * solver_tol: a solve stopped at residual
# solver_tol sits within ~0.03 * solver_tol of the exact discrete solution on
# these problems, and a gap between two solutions carries two such errors.

def _close(name, got, want, tol):
    gap = abs(got - want)
    return (name, gap <= tol, f"got={got!r} want={want!r} tol={tol:.1e}")


def _check_effective(summary, rows, replay, ref):
    bisect_tol = replay["numerics"]["bisect_tol"]
    checks = [("bracket-within-tol", summary["width"] <= bisect_tol * (1 + 1e-9),
               f"width={summary['width']:.3e}")]
    if ref is not None:
        checks.append(_close("reference-value", summary["value"],
                             ref["value"], bisect_tol))
    return checks


def _check_converge(summary, rows, replay, ref):
    checks = [("translation-bit-exact", summary["translation_gap"] == 0.0,
               f"gap={summary['translation_gap']!r}")]
    if ref is not None:
        # summary.json sorts its keys; the gate runs from largest to smallest eps
        by_eps = sorted(summary["seed_discrepancy"].items(), key=lambda kv: -float(kv[0]))
        sd = [value for _, value in by_eps]
        checks.append(("seed-discrepancy-halves", sd[-1] <= 0.5 * sd[0] + 1e-15,
                       f"ratio={sd[-1] / sd[0]:.4f}"))
        tol = 2.0 * replay["numerics"]["solver_tol"]
        for group in ("seed_discrepancy", "cauchy_gaps"):
            for key, want in ref[group].items():
                checks.append(_close(f"reference-{group}[{key}]",
                                     summary[group][key], want, tol))
        # the gaps above cancel the exterior data; the sup norms of the
        # solutions themselves do not
        sups = [float(row["sup_norm"]) for row in rows]
        checks.append(("reference-row-count", len(sups) == len(ref["sup_norms"]),
                       f"rows={len(sups)}"))
        for i, (got, want) in enumerate(zip(sups, ref["sup_norms"])):
            checks.append(_close(f"reference-sup_norm[{i}]", got, want, tol))
    return checks


def _check_solve(summary, rows, replay, ref):
    solver_tol = replay["numerics"]["solver_tol"]
    checks = [("residual-within-tol", summary["residual"] <= solver_tol * (1 + 1e-9),
               f"residual={summary['residual']:.3e}")]
    if ref is not None:
        for key in ("sup_norm", "min_value"):
            checks.append(_close(f"reference-{key}", summary[key], ref[key],
                                 2.0 * solver_tol))
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int], list]  # seed -> run configs, the same for the same seed
    check_outputs: Callable[[dict, list, dict, dict | None], list]

    def check(self, out_dir, seed, index):
        """(name, ok, detail) checks of the artifacts of one run of config `index`.

        Tolerances come from replay.json, the config as the program resolved it.
        """
        summary = json.loads((out_dir / "summary.json").read_text())
        replay = json.loads((out_dir / "replay.json").read_text())
        with open(out_dir / "rows.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ref = None
        if seed == DEFAULT_SEED:
            ref = json.loads(REFERENCE.read_text())[self.name][index]
        return self.check_outputs(summary, rows, replay, ref)


# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("effective-1d", _effective_1d, _check_effective),
    Workload("converge-1d", _converge_1d, _check_converge),
    Workload("solve-2d", _solve_2d, _check_solve),
)}
