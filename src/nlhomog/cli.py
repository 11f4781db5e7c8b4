"""Batch experiment runner: validated configs in, replayable artifacts out.

Every run writes three files into the output directory: rows.csv (one row
per solve, fixed column order), summary.json (experiment-level results),
and replay.json (the fully resolved config, timings pinned off, suitable
for bit-identical re-runs).  Exit codes: 0 success, 2 config error,
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
from .kernels import KernelFamily, build_quadrature
from .operators import Box, ExteriorRule, TestFunction, extremal
from .solve import (
    DirichletProblem, OperatorHandle, default_quadrature, solve_dirichlet,
    solve_obstacle,
)
from .homog import (
    ExtractionConfig, RowLog, abp_scaling_experiment,
    check_translation_shift, comparison_measurable_experiment,
    convergence_experiment, corrector_decay_profile, effective_value,
    estimate_mbar, fam_of, quadratic_bank, worker_count, _exterior_from_tag,
    _FrozenSystems,
)

SCHEMA_VERSION = 1

# abp gates: doubling the forcing doubles the amplitude to within this
# tolerance, and the support slope stays above sigma/2 minus this margin
ABP_RATIO_TOL = 0.05
ABP_SLOPE_MARGIN = 0.15

KINDS = ("solve", "obstacle", "mbar", "effective", "corrector",
         "converge", "abp", "cmi")

_NUMERIC_DEFAULTS = {
    "h": None,
    "r_out_factor": 8.0,
    "eps_list": [0.0625],
    "seeds": [0, 1, 2, 3],
    "solver_tol": 1e-7,
    "bisect_tol": 2.0**-6,
    "theta": None,
    "max_steps": 48,
    "richardson": False,
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

# environment fields that size arrays: JSON integers only, never 2.0 or true
_ENV_INT_FIELDS = ("dim", "n_alpha", "n_beta", "period")

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
    """A finite number read from the config, or a ConfigurationError."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
    return x


def _integer(value, where):
    """A JSON integer read from the config (never true or 4.5), or a ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
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
        if isinstance(value, bool) or (key in _ENV_INT_FIELDS and not isinstance(value, int)):
            raise ConfigurationError(f"environment.{key} has the wrong type, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"environment.{key} must be finite, got {value!r}")
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
        if not (0.0 < h <= min(eps_list) / 4.0 + 1e-12):
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
    num["richardson"] = bool(num["richardson"])

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
        if num["h"] is not None and num["h"] > exp["eps"] / 4.0 + 1e-12:
            raise ConfigurationError("h violates h <= eps/4 for the solve eps")
    if "exterior" in exp and exp["exterior"] not in ("zero", "cosine"):
        raise ConfigurationError(f"unknown exterior tag {exp['exterior']!r}")
    if "shape" in exp and exp["shape"] not in ("cube", "ball"):
        raise ConfigurationError(f"unknown domain shape {exp['shape']!r}")
    if kind == "converge":
        check_translation_shift(eps_list, _grid_h(num, min(eps_list)),
                                exp["translation_shift"])
    if kind == "cmi" and fam.kind == "cs" and not exp["conjecture_cs"]:
        raise ConfigurationError(
            "cmi on the scalar class needs experiment.conjecture_cs=true"
        )

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
        "timings": bool(raw.get("timings", False)),
    }
    return resolved, spec, fam


# ---------------------------------------------------------------------------
# experiment dispatch

def _grid_h(num, eps):
    return num["h"] if num["h"] is not None else eps / 4.0


def _phi(spec, exp):
    return quadratic_bank(spec.dim)[exp["phi_index"]], np.asarray(exp["x0"])


def _run_solve(kind, resolved, spec, fam, log):
    num, exp = resolved["numerics"], resolved["experiment"]
    eps, seed = exp["eps"], exp["seed"]
    h = _grid_h(num, eps)
    env = sample_environment(spec, seed=seed)
    box = Box((0.0,) * spec.dim, exp["domain_half"], h)
    handle = OperatorHandle(fam=fam, env=env, eps=eps)
    prob = DirichletProblem(handle=handle, domain=box, rhs=exp["rhs"],
                            exterior=_exterior_from_tag(exp["exterior"], spec.dim),
                            shape=exp["shape"])
    quad = default_quadrature(fam, box, num["r_out_factor"])
    if kind == "solve":
        u, d = solve_dirichlet(prob, tol=num["solver_tol"], quad=quad)
        fraction = ""
    else:
        sol = solve_obstacle(prob, tol=num["solver_tol"], quad=quad)
        u, d, fraction = sol.u, sol.diagnostics, sol.fraction
    sup = float(np.max(np.abs(u.values)))
    log.add(kind, eps=eps, seed=seed, l=exp["rhs"], contact_fraction=fraction,
            sup_norm=sup, iterations=d.iterations, residual=d.residual,
            wall_ms=d.wall_ms)
    summary = {
        "sup_norm": sup,
        "min_value": float(np.min(u.values)),
        "iterations": d.iterations,
        "residual": d.residual,
        "method": d.method,
        "n_nodes": int(u.values.size),
    }
    if kind == "obstacle":
        summary["contact_fraction"] = fraction
    return summary, u


def _run_mbar(resolved, spec, fam, log, workers):
    num, exp = resolved["numerics"], resolved["experiment"]
    phi, x0 = _phi(spec, exp)
    est = estimate_mbar(phi, x0, exp["level"], num["eps_list"], num["seeds"],
                        spec, fam, h=num["h"], tol=num["solver_tol"],
                        r_out_factor=num["r_out_factor"],
                        richardson=num["richardson"], workers=workers, log=log)
    return {
        "level": est.level,
        "estimate": est.estimate,
        "stderr": est.stderr,
        "extrapolation": est.extrapolation,
        "eps_list": list(est.eps_list),
        "seeds": list(num["seeds"]),
        "means": {repr(e): est.means[e] for e in est.eps_list},
        "spreads": {repr(e): est.spreads[e] for e in est.eps_list},
    }, None


def _run_effective(resolved, spec, fam, log, workers):
    num, exp = resolved["numerics"], resolved["experiment"]
    phi, x0 = _phi(spec, exp)
    cfg = ExtractionConfig(eps_list=tuple(num["eps_list"]),
                           seeds=tuple(num["seeds"]), h=num["h"],
                           theta=num["theta"], tol=num["bisect_tol"],
                           max_steps=num["max_steps"],
                           solver_tol=num["solver_tol"],
                           r_out_factor=num["r_out_factor"],
                           richardson=num["richardson"],
                           workers=workers)
    es = effective_value(phi, x0, cfg, spec, fam, log=log)
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


def _run_corrector(resolved, spec, fam, log):
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
                                 translation_shift=exp["translation_shift"],
                                 workers=workers, log=log)
    return {
        "eps_list": list(rep["eps_list"]),
        "seeds": list(rep["seeds"]),
        "h": rep["h"],
        "seed_discrepancy": {repr(e): v for e, v in rep["seed_discrepancy"].items()},
        "cauchy_gaps": {f"{e1!r}->{e2!r}": v
                        for (e1, e2), v in rep["cauchy_gaps"].items()},
        "translation_gap": rep["translation_gap"],
    }, None


def _run_abp(resolved, spec, fam, log):
    num, exp = resolved["numerics"], resolved["experiment"]
    h = num["h"] if num["h"] is not None else 2.0**-9
    rep = abp_scaling_experiment(fam, h=h,
                                 amplitudes=tuple(exp["amplitudes"]),
                                 supports=tuple(exp["supports"]),
                                 base_support=exp["base_support"],
                                 tol=num["solver_tol"],
                                 r_out_factor=num["r_out_factor"], log=log)
    return rep, None


def _run_cmi(resolved, spec, fam, log):
    num, exp = resolved["numerics"], resolved["experiment"]
    h = num["h"] if num["h"] is not None else 2.0**-9
    rep = comparison_measurable_experiment(tuple(exp["sizes"]),
                                           resolved["numerics"]["seeds"][0],
                                           fam, h=h,
                                           conjecture_cs=exp["conjecture_cs"],
                                           tol=num["solver_tol"],
                                           r_out_factor=num["r_out_factor"],
                                           log=log)
    return rep, None


def run_experiment(resolved, spec, fam, workers):
    """Dispatch one resolved config; returns (summary, row log, solution)."""
    kind = resolved["kind"]
    log = RowLog()
    solution = None
    if kind in ("solve", "obstacle"):
        summary, solution = _run_solve(kind, resolved, spec, fam, log)
    elif kind == "mbar":
        summary, _ = _run_mbar(resolved, spec, fam, log, workers)
    elif kind == "effective":
        summary, _ = _run_effective(resolved, spec, fam, log, workers)
    elif kind == "corrector":
        summary, _ = _run_corrector(resolved, spec, fam, log)
    elif kind == "converge":
        summary, _ = _run_converge(resolved, spec, fam, log, workers)
    elif kind == "abp":
        summary, _ = _run_abp(resolved, spec, fam, log)
    else:
        summary, _ = _run_cmi(resolved, spec, fam, log)
    return summary, log, solution


# ---------------------------------------------------------------------------
# output writing

def _write_solution_csv(path, u):
    rows = []
    if u.box.dim == 1:
        xs = u.box.axis_nodes(0)
        for x, v in zip(xs, u.values):
            rows.append((repr(float(x)), repr(float(v))))
        header = ("x", "u")
    else:
        pts = u.box.nodes()
        for (x, y), v in zip(pts, u.values.ravel()):
            rows.append((repr(float(x)), repr(float(y)), repr(float(v))))
        header = ("x", "y", "u")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


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
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(full_summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    replay = dict(resolved)
    replay["timings"] = False
    with open(os.path.join(out_dir, "replay.json"), "w") as fh:
        json.dump(replay, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if solution is not None:
        _write_solution_csv(os.path.join(out_dir, "solution.csv"), solution)


# ---------------------------------------------------------------------------
# threshold checks (--check) and named suites

def _direct_frozen_constant(resolved, spec, fam):
    """Operator value of the frozen test function with zero correction.

    Constant-coefficient environments make this level exact, so the
    extraction must land within twice its bisection tolerance of it.
    """
    num, exp = resolved["numerics"], resolved["experiment"]
    phi, x0 = _phi(spec, exp)
    systems = _FrozenSystems(phi, x0, spec, fam, num["h"], num["r_out_factor"],
                             num["solver_tol"])
    return systems.bounds((min(num["eps_list"]), num["seeds"][0]))[1]


def _abp_checks(fam, report):
    """The abp gates: linear amplitude doubling and the support-slope floor."""
    ratios = report["amplitude_ratios"]
    floor = fam.sigma / 2.0 - ABP_SLOPE_MARGIN
    return [
        ("amplitude-doubling-linear",
         all(abs(r - 2.0) <= ABP_RATIO_TOL for r in ratios),
         f"ratios={[f'{r:.4f}' for r in ratios]}"),
        ("support-slope-floor", report["support_slope"] >= floor,
         f"slope={report['support_slope']:.4f} floor={floor:.2f}"),
    ]


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
        if len(resolved["numerics"]["seeds"]) >= 2 and spec.layout == "iid":
            checks.append(("seed-discrepancy-halves",
                           sd[-1] <= 0.5 * sd[0] + 1e-15,
                           f"ratio={sd[-1] / sd[0] if sd[0] else math.nan:.4f}"))
        if spec.layout == "periodic":
            cg = list(summary["cauchy_gaps"].values())
            checks.append(("cauchy-strictly-decreasing",
                           all(a > b for a, b in zip(cg, cg[1:])),
                           f"gaps={[f'{v:.2e}' for v in cg]}"))
        checks.append(("translation-bit-exact",
                       summary["translation_gap"] == 0.0,
                       f"gap={summary['translation_gap']!r}"))
    elif kind == "abp":
        checks.extend(_abp_checks(fam, summary))
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


def _report_checks(checks):
    failures = []
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)
    return failures


# -- named suites -----------------------------------------------------------

def _suite_invariants():
    """Cheap exactness properties of the solver stack."""
    checks = []

    spec = EnvironmentSpec(dim=1, coeff_law="fixed", coeff_value=1.5,
                           forcing_law="fixed", forcing_value=0.0)
    fam = fam_of(spec)
    env = sample_environment(spec, seed=0)
    h = 2.0**-5
    box = Box((0.0,), 0.5, h)
    quad = build_quadrature(1, 1.0, h, 16.0)
    prob = DirichletProblem(handle=OperatorHandle(fam=fam, env=env, eps=1.0),
                            domain=box, rhs=0.0,
                            exterior=ExteriorRule.zero(), shape="cube")
    u, _ = solve_dirichlet(prob, tol=1e-12, quad=quad)
    checks.append(("zero-data-zero-solution",
                   float(np.max(np.abs(u.values))) == 0.0,
                   f"sup={float(np.max(np.abs(u.values))):.1e}"))

    # extremal duality is an arithmetic identity, so it must hold exactly
    prof = TestFunction.make([[1.7]], p=[0.3], center=[0.2])
    nprof = TestFunction.make([[-1.7]], p=[-0.3], center=[0.2])
    worst = 0.0
    for x in (-0.3, 0.0, 0.7):
        plus = extremal(prof, x, +1, fam, quad)
        dual = -extremal(nprof, x, -1, fam, quad)
        worst = max(worst, abs(plus - dual))
    checks.append(("extremal-duality-exact", worst == 0.0, f"gap={worst!r}"))

    spec_i = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                             forcing_law="uniform", f_bound=1.0)
    rep = convergence_experiment("cosine", (2.0**-3, 2.0**-4), (0, 1),
                                 spec_i, fam_of(spec_i))
    checks.append(("translation-bit-exact", rep["translation_gap"] == 0.0,
                   f"gap={rep['translation_gap']!r}"))

    # raising the level can only shrink the least supersolution, exactly
    env_i = sample_environment(spec_i, seed=3)
    prob_lo = DirichletProblem(handle=OperatorHandle(fam=fam, env=env_i, eps=0.25),
                               domain=box, rhs=1.0,
                               exterior=ExteriorRule.zero(), shape="cube")
    prob_hi = DirichletProblem(handle=OperatorHandle(fam=fam, env=env_i, eps=0.25),
                               domain=box, rhs=1.5,
                               exterior=ExteriorRule.zero(), shape="cube")
    lo = solve_obstacle(prob_lo, quad=quad, fixed_sweeps=400)
    hi = solve_obstacle(prob_hi, quad=quad, fixed_sweeps=400)
    checks.append(("level-monotone-exact",
                   bool(np.all(lo.u.values >= hi.u.values)),
                   "pointwise at every node"))
    return checks


def _suite_abp():
    fam = KernelFamily(kind="a", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
    return _abp_checks(fam, abp_scaling_experiment(fam))


def _suite_converge_desk(workers):
    checks = []
    fam1 = fam_of(EnvironmentSpec(dim=1), 1.0)
    eps_list = (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)

    spec_iid = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                               forcing_law="uniform", f_bound=1.0)
    rep = convergence_experiment("cosine", eps_list, tuple(range(8)),
                                 spec_iid, fam1, workers=workers)
    sd = list(rep["seed_discrepancy"].values())
    checks.append(("iid-seed-discrepancy-halves", sd[-1] <= 0.5 * sd[0],
                   f"ratio={sd[-1] / sd[0]:.4f}"))
    checks.append(("iid-translation-bit-exact", rep["translation_gap"] == 0.0,
                   f"gap={rep['translation_gap']!r}"))

    spec_triv = EnvironmentSpec(dim=1, coeff_law="fixed", coeff_value=1.5,
                                forcing_law="fixed", forcing_value=0.25)
    rep_t = convergence_experiment("cosine", eps_list[:2], (0, 1),
                                   spec_triv, fam1, workers=workers)
    flat = max(max(rep_t["seed_discrepancy"].values()),
               max(rep_t["cauchy_gaps"].values()))
    checks.append(("trivial-environment-flat", flat == 0.0, f"worst={flat!r}"))

    spec_per = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                               forcing_law="uniform", f_bound=1.0,
                               interpolation="constant", layout="periodic",
                               period=8)
    rep_p = convergence_experiment("cosine", eps_list, (0, 1),
                                   spec_per, fam1, workers=workers)
    cg = list(rep_p["cauchy_gaps"].values())
    checks.append(("periodic-cauchy-strictly-decreasing",
                   all(a > b for a, b in zip(cg, cg[1:])),
                   f"gaps={[f'{v:.2e}' for v in cg]}"))
    checks.append(("periodic-seed-independent",
                   max(rep_p["seed_discrepancy"].values()) == 0.0,
                   f"disc={max(rep_p['seed_discrepancy'].values())!r}"))
    return checks


SUITES = {
    "invariants": lambda workers: _suite_invariants(),
    "abp": lambda workers: _suite_abp(),
    "converge-desk": _suite_converge_desk,
}


# ---------------------------------------------------------------------------
# entry points

def _error_report(exc):
    report = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(report), file=sys.stderr)


def cmd_run(args):
    resolved, spec, fam = load_config(args.config)
    if args.workers is not None:
        resolved["workers"] = args.workers
    if args.out is not None:
        resolved["out_dir"] = args.out
    workers = worker_count(args.workers, resolved["workers"])
    summary, log, solution = run_experiment(resolved, spec, fam, workers)
    write_outputs(resolved["out_dir"], resolved, summary, log, solution)
    print(f"wrote {resolved['out_dir']}/rows.csv "
          f"({len(log.rows)} rows), summary.json, replay.json")
    if args.check:
        failures = _report_checks(run_checks(resolved, spec, fam, summary))
        if failures:
            raise CheckFailure(f"checks failed: {failures}")
    return 0


def cmd_check(args):
    if args.suite not in SUITES:
        raise ConfigurationError(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}"
        )
    workers = worker_count(args.workers)
    failures = _report_checks(SUITES[args.suite](workers))
    if failures:
        raise CheckFailure(f"suite {args.suite} failed: {failures}")
    print(f"suite {args.suite}: all checks passed")
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
                    help="worker processes (default: env var, config, or CPU count)")
    pr.add_argument("--out", default=None, help="output directory override")
    pr.add_argument("--check", action="store_true",
                    help="enforce kind-specific acceptance thresholds (exit 4)")
    pc = sub.add_parser("check", help="run a named acceptance suite")
    pc.add_argument("suite", help=f"one of {sorted(SUITES)}")
    pc.add_argument("--workers", type=int, default=None)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.workers is not None:
            _workers(args.workers, "--workers")
        if args.command == "run":
            return cmd_run(args)
        return cmd_check(args)
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
