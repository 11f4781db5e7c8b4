"""Desk benchmark of `nlhomog run`: end-to-end timings and a traced layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a source checkout; the program is imported from its
`src/`.  With `--trace 0` every run is a fresh `python -m nlhomog.cli run`
subprocess, timed from spawn to exit, and the end-to-end metrics are
medians over the runs made in S seconds.  With `--trace 1` the same config
runs in a child that wraps the layer functions (see traced.py) and the
per-layer metrics are reported instead.  Every run's outputs are checked;
the last line of standard output is the JSON result.  `--record FILE`
appends the result with its run record (versions, BLAS, commit) to FILE,
one JSON object per line, for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_RUNS = 3         # timed runs per benchmark run, even past the deadline
TRACED_RUNS = 2      # traced runs, each after an untraced one; counters must repeat
IMPORT_PROBES = 3
CHILD_LIMIT_S = 150  # a child still running after this is killed, and fails

SPAN_METRICS = (
    "cli.load_config", "cli.write_outputs", "env.field",
    "kernels.build_quadrature", "operators.unit_moment", "solve.solve",
    "solve.lattice_build", "solve.F_eval", "solve.dense_solve",
    "solve.barrier", "homog.estimate_mbar",
)


def child_env():
    """Environment of every child: pinned BLAS, the checkout's src, no worker override."""
    env = dict(os.environ)
    env.pop("NONLOCAL_HOMOG_WORKERS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    rc: int
    wall: float    # spawn to exit, s
    cpu: float     # user + sys of the child and the children it waited for, s
    rss_mb: float  # peak resident set of the child or any of those children
    log: str


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv, log_path):
    """Run argv to completion in its own process group; resources from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(CHILD_LIMIT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(rc=proc.returncode, wall=wall,
                 cpu=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0,
                 log=Path(log_path).read_text(errors="replace"))


class Runner:
    """Writes the configs of one benchmark run and runs, checks and counts children."""

    def __init__(self, workload, seed, tmp, workers=None):
        self.workload = workload
        self.seed = seed
        self.tmp = Path(tmp)
        self.configs = workload.configs(seed)
        if workers is not None:
            self.configs = [dict(c, workers=workers) for c in self.configs]
        self.paths = []
        for i, config in enumerate(self.configs):
            path = self.tmp / f"config-{i}.json"
            path.write_text(json.dumps(config))
            self.paths.append(path)
        self.attempted = 0
        self.failures = []
        self.samples = {}  # every timing behind a median, for the run record
        self._n = 0

    def _next(self, stem):
        self._n += 1
        return self.tmp / f"{stem}-{self._n}"

    def child(self, args, stem="probe"):
        return run_child([sys.executable, *map(str, args)],
                         self._next(stem).with_suffix(".log"))

    def run(self, index, prefix=()):
        """One checked `nlhomog run` of config `index`; prefix wraps the program."""
        out = self._next("out")
        argv = [*prefix, "run", self.paths[index], "--out", out]
        if not prefix:
            argv = ["-m", "nlhomog.cli", *argv]
        child = self.child(argv, "run")
        self.attempted += 1
        problems = []
        if child.rc != 0:
            problems.append(f"exit {child.rc}: {child.log.strip()[-300:]}")
        else:
            checks = self.workload.check(out, self.seed, index)
            problems += [f"{name}: {detail}" for name, ok, detail in checks if not ok]
        if problems:
            self.failures.append(f"run {self.attempted} (config {index}): "
                                 + "; ".join(problems))
        return child

    def setup(self, index):
        """Fresh interpreter, import of the CLI and load_config of one config."""
        return self.child(["-c", "import sys; from nlhomog.cli import load_config; "
                           "load_config(sys.argv[1])", self.paths[index]], "setup")

    def fail(self, message):
        """A failed check outside the runs counts as one more failed operation."""
        self.attempted += 1
        self.failures.append(message)

    def result(self, metrics):
        for message in self.failures:
            print(f"FAILED {message}", file=sys.stderr)
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def import_statement(configs):
    """What a run of these configs imports; the 2d lattice imports scipy.signal lazily."""
    if configs[0]["environment"]["dim"] == 2:
        return "import nlhomog.cli; import scipy.signal"
    return "import nlhomog.cli"


def measure(runner, seconds):
    """End-to-end metrics from runs cycled over the configs for `seconds`.

    A set-up probe precedes every run, so that both medians sample the
    host over the whole window rather than one burst of it.
    """
    deadline = time.perf_counter() + seconds
    n = len(runner.configs)
    runner.child(["-c", import_statement(runner.configs)])  # warm-up: bytecode, file cache
    setups, runs = [], []
    while (len(runs) < MIN_RUNS
           or time.perf_counter() + statistics.median(setups)
           + statistics.median(r.wall for r in runs) <= deadline):
        setups.append(runner.setup(len(runs) % n).wall)
        runs.append(runner.run(len(runs) % n))
    ok = runner.attempted - len(runner.failures)
    runner.samples = {"wall_s": [r.wall for r in runs], "setup_s": setups,
                      "cpu_s": [r.cpu for r in runs]}
    return {
        "wall_s": _metric(statistics.median(r.wall for r in runs), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "cpu_s": _metric(statistics.median(r.cpu for r in runs), "s"),
        "peak_rss_mb": _metric(statistics.median(r.rss_mb for r in runs), "MB"),
        "success_rate": _metric(ok / runner.attempted, "ratio"),
    }


def import_times(log):
    """(CLI import, scipy import) seconds from a `python -X importtime` log.

    The CLI figure is the cumulative time of the top-level nlhomog imports.
    The scipy figure is the cumulative time of every scipy import not nested
    in another, so it also covers one made after the CLI's (the lazy
    scipy.signal).  Lines come children first, two spaces of indent a level.
    """
    cli_us = 0
    pending = []  # (depth, scipy time under that import)
    for line in log.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or not fields[0].strip().isdigit():
            continue
        cumulative_us, name = int(fields[1]), fields[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        package = name.strip().split(".")[0]
        under = 0
        while pending and pending[-1][0] > depth:
            under += pending.pop()[1]
        pending.append((depth, cumulative_us if package == "scipy" else under))
        if package == "nlhomog" and depth == 0:
            cli_us += cumulative_us
    return cli_us / 1e6, sum(us for _, us in pending) / 1e6


def self_times(spans):
    """Per span name: total duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = dict.fromkeys(SPAN_METRICS, 0.0)
    for (name, start, end, parent), inner in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start) - inner
    return totals


def measure_traced(runner, seconds, trace_file):
    """Per-layer metrics from traced runs of config 0 (workers pinned to 1)."""
    deadline = time.perf_counter() + seconds
    statement = import_statement(runner.configs)
    probes = [import_times(runner.child(["-X", "importtime", "-c", statement]).log)
              for _ in range(IMPORT_PROBES)]
    here = Path(__file__).resolve().parent
    speedup = 0.0  # reported as 0 where the workload does not use the pool
    if runner.workload.configs(runner.seed)[0]["workers"] > 1:
        child = runner.child([here / "traced.py", "pool", runner.paths[0]])
        if child.rc == 0:
            speedup = json.loads(child.log.strip().splitlines()[-1])["pool_speedup"]
        else:
            runner.fail(f"pool timing exit {child.rc}: {child.log.strip()[-300:]}")

    untraced, traced, counters, layer_times = [], [], [], []
    # untraced and traced runs alternate, so host drift hits both alike
    while (len(traced) < TRACED_RUNS
           or time.perf_counter() + statistics.median(untraced)
           + statistics.median(traced) <= deadline):
        untraced.append(runner.run(0).wall)
        spans_path = runner.tmp / f"spans-{len(traced)}.json"
        traced.append(runner.run(0, prefix=(here / "traced.py", "trace", spans_path)).wall)
        if not spans_path.exists():
            continue
        shutil.copyfile(spans_path, trace_file)
        data = json.loads(spans_path.read_text())
        counters.append(data["counters"])
        layer_times.append(self_times(data["spans"]))
    runner.samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    if any(c != counters[0] for c in counters):
        runner.fail("traced counters differ between runs")
    if not counters:
        runner.fail("no traced run wrote its spans")
        counters, layer_times = [{}], [{}]

    metrics = {
        "cli.import_s": _metric(statistics.median(p[0] for p in probes), "s"),
        "cli.import_scipy_s": _metric(statistics.median(p[1] for p in probes), "s"),
    }
    for name in SPAN_METRICS:
        values = [t.get(name, 0.0) for t in layer_times]
        metrics[name + "_s"] = _metric(statistics.median(values), "s")
    for name, value in counters[0].items():
        unit = {"solve.dense_gflop_computed": "GFLOP",
                "solve.residual_max": "abs"}.get(name, "count")
        metrics[name] = _metric(value, unit)
    metrics["homog.pool_speedup"] = _metric(speedup, "ratio")
    metrics["trace_overhead_s"] = _metric(
        statistics.median(traced) - statistics.median(untraced), "s")
    return metrics


def run_record(workload, seed, seconds, trace):
    """Where and on what a result was measured."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy; blas = numpy.show_config(mode='dicts')"
         "['Build Dependencies']['blas']; print(json.dumps({'numpy': numpy.__version__, "
         "'scipy': scipy.__version__, 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    versions = json.loads(probe.stdout) if probe.returncode == 0 else {}
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=60,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() or commit
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "openblas_num_threads": child_env()["OPENBLAS_NUM_THREADS"],
            "commit": commit, **versions}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the result and its run record to this file")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (SRC / "nlhomog" / "cli.py").is_file():
        print(f"error: no nlhomog source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.trace:
            runner = Runner(workload, args.seed, tmp, workers=1)
            metrics = measure_traced(runner, args.seconds,
                                     WORK / f"trace-{workload.name}.json")
        else:
            runner = Runner(workload, args.seed, tmp)
            metrics = measure(runner, args.seconds)
        result = runner.result(metrics)
    record = run_record(workload.name, args.seed, args.seconds, args.trace)
    record["samples"] = runner.samples
    print(json.dumps({"record": record}))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"record": record, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
