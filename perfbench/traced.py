"""Child process of the traced benchmark run; never imported by the program.

    python traced.py trace SPANS.json run CONFIG --out DIR
        Wraps the layer functions of nlhomog, runs `nlhomog.cli.main` on the
        remaining arguments and writes the spans and counters to SPANS.json.
    python traced.py pool CONFIG
        Times `run_experiment` of CONFIG in process at 1 and at 2 workers,
        in three alternating pairs after one warm-up call, and prints
        {"pool_speedup": median of t1 / t2}.

Spans are [name, start, end, parent index] with -1 for no parent; they stay
in memory until the run ends.  The wrappers are installed from here, around
the calls into each layer, so nothing under src/ knows about tracing.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np

from nlhomog import cli, env, homog, kernels, operators, solve

COUNTERS = (
    "env.field_calls", "env.field_points",
    "kernels.build_quadrature_calls",
    "operators.unit_moment_calls",
    "solve.solves", "solve.lattice_builds", "solve.F_evals",
    "solve.dense_solves", "solve.dense_gflop_computed", "solve.newton_steps",
    "solve.sweeps", "solve.fallbacks", "solve.barrier_calls",
    "solve.residual_max",
    "homog.bisection_steps", "homog.mbar_estimates",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open = []

    def _wrap(self, fn, span, count, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                self.counters[count] += 1
            if span is None:
                out = fn(*args, **kwargs)
            else:
                record = [span, 0.0, 0.0, self._open[-1] if self._open else -1]
                self._open.append(len(self.spans))
                self.spans.append(record)
                record[1] = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    self._open.pop()
            if after is not None:
                after(self.counters, args, out)
            return out
        return traced

    def patch(self, owner, attr, span=None, count=None, after=None):
        """Replace owner.attr, and every nlhomog module's alias of it."""
        orig = getattr(owner, attr)
        traced = self._wrap(orig, span, count, after)
        setattr(owner, attr, traced)
        for name, module in list(sys.modules.items()):
            if name == "nlhomog" or name.startswith("nlhomog."):
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, traced)


def _field_points(c, args, out):
    c["env.field_points"] += int(np.shape(args[3])[0])


def _solve_diagnostics(c, args, out):
    d = out[1] if isinstance(out, tuple) else out.diagnostics
    c["solve.fallbacks"] += d.method == "newton+sweeps"
    c["solve.residual_max"] = max(c["solve.residual_max"], float(d.residual))


def _steps(counter):
    def add(c, args, out):
        c[counter] += int(out[1])
    return add


def _dense_flops(c, args, out):
    n = np.shape(args[0])[0]
    c["solve.dense_gflop_computed"] += 2.0 * n**3 / 3.0 / 1e9


def _bisection(c, args, out):
    c["homog.bisection_steps"] += len(out.steps)


def instrument(t: Tracer):
    t.patch(cli, "load_config", span="cli.load_config")
    t.patch(cli, "write_outputs", span="cli.write_outputs")
    for name in ("multiplier_field", "forcing_field", "matrix_field"):
        t.patch(env, name, span="env.field", count="env.field_calls",
                after=_field_points)
    t.patch(kernels, "build_quadrature", span="kernels.build_quadrature",
            count="kernels.build_quadrature_calls")
    t.patch(operators, "unit_moment", span="operators.unit_moment",
            count="operators.unit_moment_calls")
    for name in ("solve_dirichlet", "solve_obstacle"):
        t.patch(solve, name, span="solve.solve", count="solve.solves",
                after=_solve_diagnostics)
    for cls in (solve._Lattice1D, solve._Lattice2D):
        t.patch(cls, "__init__", span="solve.lattice_build",
                count="solve.lattice_builds")
        t.patch(cls, "operator_values", span="solve.F_eval", count="solve.F_evals")
        t.patch(cls, "sweep_solve", after=_steps("solve.sweeps"))
    t.patch(solve._Lattice1D, "newton_solve", after=_steps("solve.newton_steps"))
    t.patch(np.linalg, "solve", span="solve.dense_solve",
            count="solve.dense_solves", after=_dense_flops)
    t.patch(solve, "barrier_threshold", span="solve.barrier",
            count="solve.barrier_calls")
    t.patch(homog, "estimate_mbar", span="homog.estimate_mbar",
            count="homog.mbar_estimates")
    t.patch(homog, "effective_value", after=_bisection)


def trace(out_path, cli_args):
    tracer = Tracer()
    instrument(tracer)
    rc = cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump({"counters": tracer.counters, "spans": tracer.spans}, fh)
    return rc


def pool_speedup(config):
    resolved, spec, fam = cli.load_config(config)
    cli.run_experiment(resolved, spec, fam, 1)
    ratios = []
    for _ in range(3):
        times = {}
        for workers in (1, 2):
            start = time.perf_counter()
            cli.run_experiment(resolved, spec, fam, workers)
            times[workers] = time.perf_counter() - start
        ratios.append(times[1] / times[2])
    print(json.dumps({"pool_speedup": statistics.median(ratios)}))
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "trace":
        raise SystemExit(trace(sys.argv[2], sys.argv[3:]))
    if mode == "pool":
        raise SystemExit(pool_speedup(sys.argv[2]))
    raise SystemExit(f"unknown mode {mode!r}")
