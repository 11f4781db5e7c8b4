"""Batch experiment runner: validated configs in, replayable artifacts out.

Every run writes three files into the output directory: rows.csv (one row
per solve, fixed column order), summary.json (experiment-level results),
and replay.json (the fully resolved config, timings pinned off, suitable
for bit-identical re-runs).  With --check the run then enforces the
acceptance thresholds of its kind.  Exit codes: 0 success, 2 config error,
3 solver failure, 4 check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .env import EnvironmentSpec, sample_environment
from .errors import CheckFailure, ConfigurationError, SolverError
from .operators import Box
from .solve import (
    DirichletProblem, OperatorHandle, barrier_threshold, check_grid, check_dense_arrays,
    default_quadrature, solve_dirichlet, solve_obstacle, _lattices,
)
from .homog import (
    RowLog, abp_scaling_experiment, _frozen_problem,
    check_translation_shift, comparison_measurable_experiment,
    convergence_experiment, corrector_decay_profile, effective_value,
    estimate_mbar, fam_of, quadratic_bank, _exterior_from_tag,
)

SCHEMA_VERSION = 1

# abp gates: doubling the forcing doubles the amplitude, exactly in 1d and
# to within this tolerance in 2d, and the support slope stays above sigma/2
# minus this margin
ABP_RATIO_TOL = 0.05
ABP_SLOPE_MARGIN = 0.15

_NUMERIC_DEFAULTS = {
    "h": None,
    "r_out_factor": 8.0,
    "eps_list": [0.0625],
    "seeds": [0, 1, 2, 3],
    "solver_tol": 1e-7,
    "bisect_tol": 2.0**-6,
    "theta": None,
    "max_steps": 48,
}

_EXPERIMENT_DEFAULTS = {
    "solve": {"rhs": 0.0, "domain_half": 0.5, "shape": "cube",
              "exterior": "zero", "eps": None, "seed": None},
    "obstacle": {"rhs": 0.0, "domain_half": 0.5, "shape": "cube",
                 "exterior": "zero", "eps": None, "seed": None},
    "mbar": {"phi_index": None, "x0": None, "level": None},
    "effective": {"phi_index": None, "x0": None},
    "corrector": {"phi_index": None, "x0": None, "level": None, "seed": None},
    "converge": {"exterior": "cosine", "domain_half": 0.5,
                 "translation_shift": 0.25},
    "abp": {"amplitudes": [1.0, 2.0, 4.0, 8.0],
            "supports": [2.0**-1, 2.0**-3, 2.0**-5, 2.0**-7, 2.0**-9],
            "base_support": 2.0**-2},
    "cmi": {"sizes": [2.0**-1, 2.0**-3, 2.0**-5, 2.0**-7, 2.0**-9],
            "conjecture_cs": False},
}

KINDS = tuple(_EXPERIMENT_DEFAULTS)

# grid spacing of abp and cmi, which take no eps, unless numerics.h is given
PROBE_H = 2.0**-9

# environment fields that size arrays: JSON integers only, never 2.0 or true
_ENV_INT_FIELDS = ("dim", "n_alpha", "n_beta", "period")
# environment fields that are numbers; a fixed law's value may be null, as if unset
_ENV_NUMBER_FIELDS = ("lam", "lam_big", "coeff_value", "f_bound", "forcing_value", "cell")
_ENV_NULLABLE = ("coeff_value", "forcing_value")

_REQUIRED = {
    "mbar": ("phi_index", "level"),
    "effective": ("phi_index",),
    "corrector": ("phi_index", "level"),
}


# ---------------------------------------------------------------------------
# config loading

def _reject_unknown(block, allowed, where):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {unknown}")


def _number(value, where):
    """A finite number read from the config, as a float: a JSON integer or
    float (never "1.5" or true), or a ConfigurationError."""
    try:
        x = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        x = math.nan
    if not math.isfinite(x):
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
    return x


def _integer(value, where):
    """A JSON integer read from the config (never true or 4.5), or a ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    return value


def _boolean(value, where):
    """A JSON true or false read from the config (never "false" or 0), or a ConfigurationError."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{where} must be true or false, got {value!r}")
    return value


def _workers(value, where):
    """A worker count from the config or the command line: an integer >= 1."""
    if _integer(value, where) < 1:
        raise ConfigurationError(f"{where} must be >= 1, got {value}")
    return value


def _numbers(values, where):
    if not isinstance(values, list):
        raise ConfigurationError(f"{where} must be a list of numbers, got {values!r}")
    return [_number(v, where) for v in values]


def _dict_block(raw, name):
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    return dict(block)


def load_config(path):
    """Parse and strictly validate a run config; returns the resolved dict.

    Unknown keys anywhere are rejected, every default is materialized, and
    all cross-field constraints from the library types are re-checked so a
    bad config dies here with a named error, never downstream.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    _reject_unknown(raw, ("schema_version", "kind", "environment", "kernel",
                          "numerics", "experiment", "out_dir", "workers",
                          "timings"), "config")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigurationError(f"kind must be one of {KINDS}, got {kind!r}")

    env_block = _dict_block(raw, "environment")
    spec_fields = tuple(EnvironmentSpec.__dataclass_fields__)
    _reject_unknown(env_block, spec_fields, "environment")
    for key, value in env_block.items():
        where = f"environment.{key}"
        if key in _ENV_INT_FIELDS:
            _integer(value, where)
        elif key in _ENV_NUMBER_FIELDS:
            if value is not None or key not in _ENV_NULLABLE:
                env_block[key] = _number(value, where)
        elif isinstance(value, bool):
            raise ConfigurationError(f"{where} has the wrong type, got {value!r}")
    try:
        spec = EnvironmentSpec(**env_block).validate()
    except TypeError as exc:
        raise ConfigurationError(f"bad environment section: {exc}") from exc

    ker_block = _dict_block(raw, "kernel")
    _reject_unknown(ker_block, ("sigma",), "kernel")
    sigma = _number(ker_block.get("sigma", 1.0), "kernel.sigma")
    if not (0.0 < sigma < 2.0):
        raise ConfigurationError(f"sigma must lie in (0, 2), got {sigma}")
    fam = fam_of(spec, sigma)

    num = dict(_NUMERIC_DEFAULTS)
    num_block = _dict_block(raw, "numerics")
    _reject_unknown(num_block, tuple(num), "numerics")
    num.update(num_block)
    eps_list = _numbers(num["eps_list"], "numerics.eps_list")
    if not eps_list or any(not (0.0 < e <= 1.0) for e in eps_list):
        raise ConfigurationError("eps_list entries must lie in (0, 1]")
    num["eps_list"] = eps_list
    seeds = num["seeds"]
    if (not isinstance(seeds, list) or not seeds
            or any(not isinstance(s, int) or isinstance(s, bool) or s < 0 for s in seeds)):
        raise ConfigurationError("seeds must be a nonempty list of nonnegative ints")
    if len(set(seeds)) < len(seeds):
        # a repeated seed would be averaged twice and compared with itself
        raise ConfigurationError(f"seeds must be distinct, got {seeds}")
    if num["h"] is not None:
        h = _number(num["h"], "numerics.h")
        if not h > 0.0:
            raise ConfigurationError(f"numerics.h must be positive, got {h}")
        # abp and cmi take no eps, so no eps bounds their grid
        if kind not in ("abp", "cmi") and h > min(eps_list) / 4.0 + 1e-12:
            raise ConfigurationError(
                f"h={h} violates h <= eps_min/4 = {min(eps_list) / 4.0}"
            )
        num["h"] = h
    for key in ("r_out_factor", "solver_tol", "bisect_tol"):
        num[key] = _number(num[key], f"numerics.{key}")
        if num[key] <= 0.0:
            raise ConfigurationError(f"numerics.{key} must be positive")
    if num["theta"] is not None:
        num["theta"] = _number(num["theta"], "numerics.theta")
        if not (0.0 < num["theta"] < 1.0):
            raise ConfigurationError("theta must lie in (0, 1)")
    num["max_steps"] = _integer(num["max_steps"], "numerics.max_steps")
    if num["max_steps"] < 1:
        raise ConfigurationError("max_steps must be >= 1")

    exp = dict(_EXPERIMENT_DEFAULTS[kind])
    exp_block = _dict_block(raw, "experiment")
    _reject_unknown(exp_block, tuple(exp), f"experiment ({kind})")
    exp.update(exp_block)
    for key in _REQUIRED.get(kind, ()):
        if exp[key] is None:
            raise ConfigurationError(f"experiment.{key} is required for kind={kind}")
    if "phi_index" in exp and exp["phi_index"] is not None:
        bank = quadratic_bank(spec.dim)
        idx = _integer(exp["phi_index"], "experiment.phi_index")
        if not (0 <= idx < len(bank)):
            raise ConfigurationError(
                f"phi_index {idx} outside the bank (size {len(bank)})"
            )
        exp["phi_index"] = idx
    if "x0" in exp:
        x0 = exp["x0"] if exp["x0"] is not None else [0.0] * spec.dim
        exp["x0"] = _numbers(x0, "experiment.x0")
        if len(exp["x0"]) != spec.dim:
            raise ConfigurationError(f"x0 must have {spec.dim} entries")
    # present keys are numbers: a required `level` was checked above, and an
    # explicit null must not stand in for a numeric default
    for key in ("rhs", "level", "domain_half", "translation_shift", "base_support"):
        if key in exp:
            exp[key] = _number(exp[key], f"experiment.{key}")
    for key in ("amplitudes", "supports", "sizes"):
        if key in exp:
            exp[key] = _numbers(exp[key], f"experiment.{key}")
    # the scaling probes fit logs of measures and ratios of amplitudes
    for key in ("base_support", "amplitudes", "supports", "sizes"):
        if key in exp and any(v <= 0.0 for v in np.atleast_1d(exp[key])):
            raise ConfigurationError(f"experiment.{key} must be positive, got {exp[key]!r}")
    if "seed" in exp:
        exp["seed"] = (_integer(exp["seed"], "experiment.seed")
                       if exp["seed"] is not None else seeds[0])
    if "eps" in exp:
        exp["eps"] = (_number(exp["eps"], "experiment.eps")
                      if exp["eps"] is not None else eps_list[0])
        if not 0.0 < exp["eps"] <= 1.0:
            raise ConfigurationError(f"experiment.eps must lie in (0, 1], got {exp['eps']}")
        if num["h"] is not None and num["h"] > exp["eps"] / 4.0 + 1e-12:
            raise ConfigurationError("h violates h <= eps/4 for the solve eps")
    tiny = [e for e in eps_list + [exp.get("eps", 1.0)] if e / 4.0 == 0.0]
    if num["h"] is None and tiny and kind not in ("abp", "cmi"):  # those grids are PROBE_H
        raise ConfigurationError(f"eps {tiny} gives the grid spacing eps/4 = 0.0; set numerics.h")
    if "exterior" in exp and exp["exterior"] not in ("zero", "cosine"):
        raise ConfigurationError(f"unknown exterior tag {exp['exterior']!r}")
    if "shape" in exp and exp["shape"] not in ("cube", "ball"):
        raise ConfigurationError(f"unknown domain shape {exp['shape']!r}")
    if kind == "converge":
        check_translation_shift(eps_list, _grid_h(num, min(eps_list)),
                                exp["translation_shift"])
    if "conjecture_cs" in exp:
        exp["conjecture_cs"] = _boolean(exp["conjecture_cs"], "experiment.conjecture_cs")
    if kind == "cmi" and fam.kind == "cs" and not exp["conjecture_cs"]:
        raise ConfigurationError(
            "cmi on the scalar class needs experiment.conjecture_cs=true"
        )
    if kind == "cmi" and fam.kind == "cs" and spec.dim != 1:
        raise ConfigurationError("cmi on the scalar class is one-dimensional: "
                                 "the pointwise extremal of the cs class is 1d only")

    workers = raw.get("workers")
    if workers is not None:
        workers = _workers(workers, "workers")
    out_dir = raw.get("out_dir", os.path.join("runs", kind))
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigurationError("out_dir must be a nonempty string")

    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "environment": {f: getattr(spec, f) for f in spec_fields},
        "kernel": {"sigma": sigma},
        "numerics": num,
        "experiment": exp,
        "out_dir": out_dir,
        "workers": workers,
        "timings": _boolean(raw.get("timings", False), "timings"),
    }
    return resolved, spec, fam


# ---------------------------------------------------------------------------
# experiment dispatch

def _grid_h(num, eps):
    return num["h"] if num["h"] is not None else eps / 4.0


def _probe_h(num):
    return num["h"] if num["h"] is not None else PROBE_H


def _phi(spec, exp):
    return quadratic_bank(spec.dim)[exp["phi_index"]], np.asarray(exp["x0"])


def _run_solve(resolved, spec, fam, log, workers):
    kind, num, exp = resolved["kind"], resolved["numerics"], resolved["experiment"]
    eps, seed = exp["eps"], exp["seed"]
    h = _grid_h(num, eps)
    env = sample_environment(spec, seed=seed)
    box = Box((0.0,) * spec.dim, exp["domain_half"], h)
    handle = OperatorHandle(fam=fam, env=env, eps=eps)
    prob = DirichletProblem(handle=handle, domain=box, rhs=exp["rhs"],
                            exterior=_exterior_from_tag(exp["exterior"], spec.dim),
                            shape=exp["shape"])
    check_grid(box, num["r_out_factor"])
    check_dense_arrays([prob])  # before the table
    quad = default_quadrature(fam, box, num["r_out_factor"])
    if kind == "solve":
        u, d = solve_dirichlet(prob, tol=num["solver_tol"], quad=quad)
        fraction = ""
    else:
        sol = solve_obstacle(prob, tol=num["solver_tol"], quad=quad)
        u, d, fraction = sol.u, sol.diagnostics, sol.fraction
    sup = float(np.max(np.abs(u)))
    log.add(kind, eps=eps, seed=seed, l=exp["rhs"], contact_fraction=fraction,
            sup_norm=sup, iterations=d.iterations, residual=d.residual,
            wall_ms=d.wall_ms)
    summary = {
        "sup_norm": sup,
        "min_value": float(np.min(u)),
        "iterations": d.iterations,
        "residual": d.residual,
        "method": d.method,
        "n_nodes": int(u.size),
    }
    if kind == "obstacle":
        summary["contact_fraction"] = fraction
    return summary, (box, u)


def _run_mbar(resolved, spec, fam, log, workers):
    num, exp = resolved["numerics"], resolved["experiment"]
    phi, x0 = _phi(spec, exp)
    est = estimate_mbar(phi, x0, exp["level"], num["eps_list"], num["seeds"],
                        spec, fam, h=num["h"], tol=num["solver_tol"],
                        r_out_factor=num["r_out_factor"], workers=workers, log=log)
    return {
        "level": est.level,
        "estimate": est.estimate,
        "stderr": est.stderr,
        "eps_list": list(est.eps_list),
        "seeds": list(num["seeds"]),
        "means": {repr(e): est.means[e] for e in est.eps_list},
        "spreads": {repr(e): est.spreads[e] for e in est.eps_list},
    }, None


def _run_effective(resolved, spec, fam, log, workers):
    num, exp = resolved["numerics"], resolved["experiment"]
    phi, x0 = _phi(spec, exp)
    es = effective_value(phi, x0, num["eps_list"], num["seeds"], spec, fam,
                         h=num["h"], tol=num["solver_tol"],
                         r_out_factor=num["r_out_factor"], workers=workers,
                         bisect_tol=num["bisect_tol"], theta=num["theta"],
                         max_steps=num["max_steps"], log=log)
    return {
        "value": es.value,
        "bracket": list(es.bracket),
        "width": es.bracket[1] - es.bracket[0],
        "theta": es.theta,
        "eps_list": list(es.eps_list),
        "seeds": list(es.seeds),
        "bisection_steps": len(es.steps),
        "certificates": {k: list(v) for k, v in es.certificates.items()},
    }, None


def _run_corrector(resolved, spec, fam, log, workers):
    num, exp = resolved["numerics"], resolved["experiment"]
    phi, x0 = _phi(spec, exp)
    sups = corrector_decay_profile(phi, x0, exp["level"], num["eps_list"],
                                   exp["seed"], spec, fam, h=num["h"],
                                   tol=num["solver_tol"],
                                   r_out_factor=num["r_out_factor"], log=log)
    eps_sorted = sorted(set(num["eps_list"]), reverse=True)
    return {
        "level": exp["level"],
        "seed": exp["seed"],
        "eps_list": eps_sorted,
        "sup_norms": sups,
        "decay_ratio": (sups[-1] / sups[0]) if sups[0] > 0 else math.inf,
    }, None


def _run_converge(resolved, spec, fam, log, workers):
    num, exp = resolved["numerics"], resolved["experiment"]
    rep = convergence_experiment(exp["exterior"], num["eps_list"],
                                 num["seeds"], spec, fam,
                                 domain_half=exp["domain_half"], h=num["h"],
                                 tol=num["solver_tol"],
                                 r_out_factor=num["r_out_factor"],
                                 translation_shift=exp["translation_shift"], log=log)
    return {
        "eps_list": list(rep["eps_list"]),
        "seeds": list(rep["seeds"]),
        "h": rep["h"],
        "seed_discrepancy": {repr(e): v for e, v in rep["seed_discrepancy"].items()},
        "cauchy_gaps": {f"{e1!r}->{e2!r}": v
                        for (e1, e2), v in rep["cauchy_gaps"].items()},
        "translation_gap": rep["translation_gap"],
    }, None


def _run_abp(resolved, spec, fam, log, workers):
    num, exp = resolved["numerics"], resolved["experiment"]
    rep = abp_scaling_experiment(fam, h=_probe_h(num),
                                 amplitudes=tuple(exp["amplitudes"]),
                                 supports=tuple(exp["supports"]),
                                 base_support=exp["base_support"],
                                 tol=num["solver_tol"],
                                 r_out_factor=num["r_out_factor"], log=log)
    return rep, None


def _run_cmi(resolved, spec, fam, log, workers):
    num, exp = resolved["numerics"], resolved["experiment"]
    rep = comparison_measurable_experiment(tuple(exp["sizes"]),
                                           resolved["numerics"]["seeds"][0],
                                           fam, h=_probe_h(num),
                                           conjecture_cs=exp["conjecture_cs"],
                                           tol=num["solver_tol"],
                                           r_out_factor=num["r_out_factor"],
                                           log=log)
    return rep, None


_RUNNERS = {"solve": _run_solve, "obstacle": _run_solve, "mbar": _run_mbar,
            "effective": _run_effective, "corrector": _run_corrector,
            "converge": _run_converge, "abp": _run_abp, "cmi": _run_cmi}


def run_experiment(resolved, spec, fam, workers):
    """Dispatch one resolved config; returns (summary, row log, solution), the
    solution (box, values) for a solve or an obstacle and None otherwise."""
    log = RowLog()
    summary, solution = _RUNNERS[resolved["kind"]](resolved, spec, fam, log, workers)
    return summary, log, solution


# ---------------------------------------------------------------------------
# output writing

def _write_solution_csv(path, box, values):
    header = ("x", "y")[:box.dim] + ("u",)
    rows = [[repr(float(c)) for c in x] + [repr(float(v))]
            for x, v in zip(box.nodes(), values.ravel())]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _check_out_dir(out_dir):
    """ConfigurationError, before any run, unless out_dir is or can become a directory."""
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigurationError(f"out_dir {out_dir!r}: {path!r} is not a directory")


def _finite(obj):
    """obj with every non-finite float (nan, inf) replaced by None, JSON null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def write_outputs(out_dir, resolved, summary, log, solution=None):
    """rows.csv + summary.json + replay.json (+ solution.csv for solves)."""
    os.makedirs(out_dir, exist_ok=True)
    if not resolved["timings"]:
        # Determinism contract: replayed runs must be byte-identical, so
        # the wall-clock column is pinned to zero unless timings are on.
        log.rows = [row[:-1] + (0,) for row in log.rows]
    log.write(os.path.join(out_dir, "rows.csv"))
    full_summary = {"schema_version": SCHEMA_VERSION,
                    "kind": resolved["kind"], **summary}
    replay = dict(resolved)
    replay["timings"] = False
    for name, obj in (("summary.json", _finite(full_summary)), ("replay.json", replay)):
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    if solution is not None:
        _write_solution_csv(os.path.join(out_dir, "solution.csv"), *solution)


# ---------------------------------------------------------------------------
# threshold checks (--check)

def _direct_frozen_constant(resolved, spec, fam):
    """Operator value of the frozen test function with zero correction.

    Constant-coefficient environments make this level exact, so the
    extraction must land within twice its bisection tolerance of it.
    """
    num, exp = resolved["numerics"], resolved["experiment"]
    phi, x0 = _phi(spec, exp)
    eps = min(num["eps_list"])
    prob = _frozen_problem(phi, x0, 0.0, eps, sample_environment(spec, seed=num["seeds"][0]), fam,
                           _grid_h(num, eps))
    # a lattice that holds no system: only barrier_threshold reads it
    lat, = _lattices([prob], default_quadrature(fam, prob.domain, num["r_out_factor"]), dense=False)
    return barrier_threshold(lat)[1]


def run_checks(resolved, spec, fam, summary):
    """Kind-specific acceptance thresholds; list of (name, ok, detail)."""
    kind = resolved["kind"]
    num = resolved["numerics"]
    checks = []
    if kind in ("solve", "obstacle"):
        ok = summary["residual"] <= num["solver_tol"] * (1 + 1e-9)
        checks.append(("residual-within-tol", ok,
                       f"residual={summary['residual']:.3e}"))
        if kind == "obstacle":
            checks.append(("solution-nonnegative", summary["min_value"] >= 0.0,
                           f"min={summary['min_value']:.3e}"))
    elif kind == "effective":
        ok = summary["width"] <= num["bisect_tol"] * (1 + 1e-9)
        checks.append(("bracket-within-tol", ok,
                       f"width={summary['width']:.3e}"))
        if spec.coeff_law == "fixed" and spec.forcing_law == "fixed":
            direct = _direct_frozen_constant(resolved, spec, fam)
            gap = abs(summary["value"] - direct)
            checks.append(("matches-direct-constant",
                           gap <= 2.0 * num["bisect_tol"],
                           f"gap={gap:.3e} direct={direct:.6f}"))
    elif kind == "corrector":
        sups = summary["sup_norms"]
        ok = sups[0] > 0 and sups[-1] <= 0.1 * sups[0]
        checks.append(("sup-decays-10x", ok,
                       f"ratio={summary['decay_ratio']:.4f}"))
    elif kind == "converge":
        sd = list(summary["seed_discrepancy"].values())
        cg = list(summary["cauchy_gaps"].values())
        if spec.coeff_law == "fixed" and spec.forcing_law == "fixed":
            # a constant environment: every eps and every seed solve one problem
            flat = max(sd + cg)
            checks.append(("trivial-environment-flat", flat == 0.0, f"worst={flat!r}"))
        elif spec.layout == "periodic":
            checks.append(("cauchy-strictly-decreasing",
                           all(a > b for a, b in zip(cg, cg[1:])),
                           f"gaps={[f'{v:.2e}' for v in cg]}"))
            # the periodic layout ignores the seed
            checks.append(("periodic-seed-independent", max(sd) == 0.0,
                           f"disc={max(sd)!r}"))
        elif len(resolved["numerics"]["seeds"]) >= 2:
            checks.append(("seed-discrepancy-halves",
                           sd[-1] <= 0.5 * sd[0] + 1e-15,
                           f"ratio={sd[-1] / sd[0] if sd[0] else math.nan:.4f}"))
        checks.append(("translation-bit-exact",
                       summary["translation_gap"] == 0.0,
                       f"gap={summary['translation_gap']!r}"))
    elif kind == "abp":
        ratios = summary["amplitude_ratios"]
        floor = fam.sigma / 2.0 - ABP_SLOPE_MARGIN
        # in 1d each amplitude is one matvec with G, linear in its forcing,
        # and doubling is exact in binary floating point
        tol = 0.0 if spec.dim == 1 else ABP_RATIO_TOL
        checks.append(("amplitude-doubling-linear",
                       all(abs(r - 2.0) <= tol for r in ratios),
                       f"ratios={[f'{r:.4f}' for r in ratios]}"))
        checks.append(("support-slope-floor", summary["support_slope"] >= floor,
                       f"slope={summary['support_slope']:.4f} floor={floor:.2f}"))
    elif kind == "cmi":
        sups = [r["sup_v"] for r in summary["rows"]]
        checks.append(("sup-monotone-in-measure",
                       all(a >= b for a, b in zip(sups, sups[1:])),
                       "sups decreasing with support"))
        checks.append(("positive-slope", summary["fitted_slope"] > 0.0,
                       f"slope={summary['fitted_slope']:.4f}"))
    else:
        checks.append(("no-thresholds", True, "mbar has no gate of its own"))
    return checks


# ---------------------------------------------------------------------------
# entry points

def _error_report(exc):
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SolverError):
        # null where the failure is not one solve's (a degenerate bracket)
        error["residual"] = None if exc.residual is None else _finite(float(exc.residual))
        error["iterations"] = None if exc.iterations is None else int(exc.iterations)
    print(json.dumps({"error": error}), file=sys.stderr)


def cmd_run(args):
    resolved, spec, fam = load_config(args.config)
    if args.workers is not None:
        resolved["workers"] = args.workers
    if args.out is not None:
        resolved["out_dir"] = args.out
    _check_out_dir(resolved["out_dir"])
    # one rule: --workers, else the config's workers, else one thread
    workers = resolved["workers"] or 1
    summary, log, solution = run_experiment(resolved, spec, fam, workers)
    write_outputs(resolved["out_dir"], resolved, summary, log, solution)
    print(f"wrote {resolved['out_dir']}/rows.csv "
          f"({len(log.rows)} rows), summary.json, replay.json")
    if args.check:
        failures = []
        for name, ok, detail in run_checks(resolved, spec, fam, summary):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            if not ok:
                failures.append(name)
        if failures:
            raise CheckFailure(f"checks failed: {failures}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="nlhomog",
        description="Homogenization experiments for nonlocal Bellman-Isaacs "
                    "operators in random media.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    pr = sub.add_parser("run", help="run one experiment config")
    pr.add_argument("config", help="path to a JSON run config")
    pr.add_argument("--workers", type=int, default=None,
                    help="worker threads (default: the config's workers, else 1)")
    pr.add_argument("--out", default=None, help="output directory override")
    pr.add_argument("--check", action="store_true",
                    help="enforce kind-specific acceptance thresholds (exit 4)")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.workers is not None:
            _workers(args.workers, "--workers")
        return cmd_run(args)
    except ConfigurationError as exc:
        _error_report(exc)
        return 2
    except SolverError as exc:
        _error_report(exc)
        return 3
    except CheckFailure as exc:
        _error_report(exc)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
