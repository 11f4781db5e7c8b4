"""Homogenization pipeline: contact fractions, effective levels, decay.

Everything here reduces generic centers to the origin by translating the
test function (phi at x0 becomes phi(. + x0) at 0), so every lattice
problem lives on a box centered at zero while the coefficients are read
at grid/eps under the given environment.

The obstacle statistic is exact in three discrete senses that tests rely
on: contact masks are literal zero sets, fractions are ratios of integer
counts, and n sweeps of the sweep engine from zero (`sweep_solve`, which
no run here calls) preserve orderings (in level, in forcing, in domain
inclusion) without floating-point leakage.  All Monte Carlo work is a
deterministic fold over (eps, seed, level) items.
Each problem runs the engine its lattice picks (see `solve`), on a table
from `default_quadrature`.
The frozen problems of one m-bar estimate or one effective-level bisection
share their level-free parts, built on the calling thread before any solve
(`_FrozenSystems`) and dropped when the call returns: each seed's
environment, sampled once; per eps one batch of lattices (`_lattices`),
which reads the fields of every seed in one call per field and holds the
table with its stencil, the frozen moment, one exterior correlation and
the eps's one linear system (see `solve`, The held system); and per
(eps, seed) the lattice, on which the bracket reads its two certificates
from one evaluation of F(0), the operator at the zero function
(`barrier_threshold`): its min at the low end and its max at the high end.
In 1d each level only recomputes its threshold and runs the active set,
started from the contact set the same (eps, seed) item returned at the
previous level, and each active-set step with less contact than free cells
is a Schur step on G.  That warm start (the previous solution, which only
the newton engine reads; the 2d policy engine starts from zero) belongs to
its (eps, seed) item, so the worker threads cannot change any reported
number.
The functions that fan out, over the (eps, seed) items of `estimate_mbar`
and so of `effective_value`, take `workers`, the number of threads
(default 1: a plain loop, and the thread-pool module is not imported);
nothing here reads a worker count from anywhere else.  The threads share
one process and one copy of the level-free parts, which they only read
(`_map`).  `tol` is the solver tolerance wherever it appears; the
bisection's own stopping width is `bisect_tol`.
Dirichlet problems that share a grid are solved as one batch
(`solve_dirichlet_many`), which holds one system: the abp and cmi sweeps
are one batch each, and so is every convergence harness, whose problems
all share one grid, the translated route's included.  Each run that holds
G or the maps checks their size (`check_dense_arrays`) after its grids and
before its table.  A batch samples each seed's environment once and
builds one exterior rule per distinct offset, so its lattices read the
fields in one call per field and evaluate each exterior once: the plain
one, and the translated route's.
"""

from __future__ import annotations

import csv
import functools
import math

import numpy as np

from .env import EnvironmentSpec, sample_environment, translate
from .errors import ConfigurationError, SolverError
from .kernels import KernelFamily
from .operators import Box, ExteriorRule, TestFunction
from .records import Record, replace
from .solve import (
    DirichletProblem,
    OperatorHandle,
    barrier_threshold,
    check_grid,
    check_dense_arrays,
    default_quadrature,
    solve_dirichlet,
    solve_dirichlet_many,
    solve_obstacle,
    _active_cells,
    _lattices,
)

__all__ = [
    "MbarEstimate",
    "EffectiveSample",
    "RowLog",
    "CSV_COLUMNS",
    "quadratic_bank",
    "estimate_mbar",
    "effective_value",
    "corrector_decay_profile",
    "comparison_measurable_experiment",
    "abp_scaling_experiment",
    "convergence_experiment",
    "check_translation_shift",
]

CSV_COLUMNS = (
    "experiment_id", "eps", "seed", "l", "contact_fraction",
    "sup_norm", "iterations", "residual", "wall_ms",
)


class RowLog:
    """Collects one CSV row per solve, in a fixed column order.

    wall_ms is the last column so determinism comparisons can drop it;
    every other field must replay bit-identically.
    """

    def __init__(self):
        self.rows = []

    def add(self, experiment_id, eps="", seed="", l="", contact_fraction="",
            sup_norm="", iterations="", residual="", wall_ms=""):
        self.rows.append((experiment_id, eps, seed, l, contact_fraction,
                          sup_norm, iterations, residual, wall_ms))

    @staticmethod
    def _fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    def write(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_COLUMNS)
            for row in self.rows:
                w.writerow([self._fmt(v) for v in row])


# ---------------------------------------------------------------------------
# result types

class MbarEstimate(Record):
    _fields = ("level", "eps_list", "fractions", "means", "spreads", "estimate", "stderr")

    def __init__(self, level, eps_list, fractions, means, spreads, estimate, stderr):
        self.level = level
        self.eps_list = eps_list
        self.fractions = fractions  # (eps, seed) -> contact fraction
        self.means = means          # eps -> seed average
        self.spreads = spreads      # eps -> max - min over seeds
        self.estimate = estimate
        self.stderr = stderr

    def validate(self):
        if any(not (0.0 <= f <= 1.0) for f in self.fractions.values()):
            raise ConfigurationError("contact fractions must lie in [0, 1]")
        if not 0.0 <= self.estimate <= 1.0:
            raise ConfigurationError("m-bar estimate must lie in [0, 1]")
        if any(a <= b for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigurationError("eps list must be strictly decreasing")
        return self


class EffectiveSample(Record):
    _fields = ("bracket", "value", "theta", "eps_list", "seeds", "certificates", "steps")

    def __init__(self, bracket, value, theta, eps_list, seeds, certificates, steps):
        self.bracket = bracket            # (l_lo, l_hi) after bisection
        self.value = value                # effective level estimate
        self.theta = theta
        self.eps_list = eps_list
        self.seeds = seeds
        self.certificates = certificates  # how the initial bracket was certified
        self.steps = steps                # (level, mbar estimate, side) per bisection step

    def validate(self):
        lo, hi = self.bracket
        if not lo <= self.value <= hi:
            raise ConfigurationError("effective value must sit inside its bracket")
        return self


def quadratic_bank(dim: int):
    """Fixed, reproducible family of capped quadratic test functions, each
    with `TestFunction.make`'s cut radius 4.0.

    Curvature eigenvalues run over {-2, -1, 0, 1, 2}; in 2d the bank
    holds the ordered diagonal pairs plus two rotated representatives so
    off-diagonal curvature is probed as well.
    """
    bank = []
    levels = [-2.0, -1.0, 0.0, 1.0, 2.0]
    if dim == 1:
        for k in levels:
            bank.append(TestFunction.make(P=np.array([[k]]), p=np.zeros(1),
                                          const=0.0, center=np.zeros(1)))
        return bank
    if dim != 2:
        raise ConfigurationError("test-function bank covers dimensions 1 and 2")
    for i, k1 in enumerate(levels):
        for k2 in levels[: i + 1]:
            bank.append(TestFunction.make(P=np.diag([k1, k2]), p=np.zeros(2),
                                          const=0.0, center=np.zeros(2)))
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    R = np.array([[c, -s], [s, c]])
    for pair in ((2.0, -1.0), (1.0, -1.0)):
        P = R @ np.diag(pair) @ R.T
        bank.append(TestFunction.make(P=P, p=np.zeros(2), const=0.0,
                                      center=np.zeros(2)))
    return bank


# ---------------------------------------------------------------------------
# frozen-operator obstacle statistic

def _frozen_problem(phi, x0, level, eps, env, fam, h, *, domain_half=0.5,
                    shape="cube"):
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    shifted = phi.shifted(x0) if np.any(x0 != 0.0) else phi
    handle = OperatorHandle(fam=fam, env=env, eps=eps,
                            frozen=(shifted, np.zeros(env.dim)))
    box = Box(center=(0.0,) * env.dim, half=domain_half, h=h)
    return DirichletProblem(handle=handle, domain=box, rhs=level,
                            exterior=ExteriorRule.zero(), shape=shape)


class _FrozenSystems:
    """Level-free parts of the frozen problems of one extraction, and its warm starts.

    Everything is built here, on the calling thread, so the worker threads
    of a fan-out only read it, once every grid and the dense arrays of all
    eps together pass their checks (`check_grid`, `check_dense_arrays`).
    Per eps the frozen problems of every seed are one batch (`_lattices`),
    whose lattices hold the table, the frozen moment, the exterior and the
    eps's one held system (see `solve`, The held system).  `lattices` holds
    the lattice of each (eps, seed) of `eps_list` and `seeds` at level zero,
    on which the bracket evaluates F(0).  `warm` holds the solution each
    (eps, seed) returned at the previous level; `estimate_mbar` updates it
    between maps, on the calling thread.
    """

    def __init__(self, phi, x0, spec, fam, h, r_out_factor, tol, eps_list, seeds):
        self.tol = tol
        self.lattices = {}   # (eps, seed) -> lattice at level 0
        self.warm = {}       # (eps, seed) -> solution at the previous level
        # per eps, the level-zero problem of each seed (h defaults to eps/4),
        # all on each seed's one sampled environment and one shifted profile
        envs = [sample_environment(spec, seed=seed) for seed in seeds]
        phi = phi.shifted(np.atleast_1d(np.asarray(x0, dtype=np.float64)))
        problems = {eps: [_frozen_problem(phi, 0.0, 0.0, eps, env, fam,
                                          (eps / 4.0) if h is None else h) for env in envs]
                    for eps in sorted(set(eps_list))}
        for probs in problems.values():
            check_grid(probs[0].domain, r_out_factor)
        check_dense_arrays([probs[0] for probs in problems.values()])
        for eps, probs in problems.items():
            quad = default_quadrature(fam, probs[0].domain, r_out_factor)
            self.lattices.update(zip(((eps, seed) for seed in seeds), _lattices(probs, quad)))

    def solve(self, item):
        """Obstacle solve of one (eps, seed) problem at a level, warm-started.

        item = (eps, seed, level, warm), with warm the solution this item
        returned at the previous level (`self.warm`), or None.  Returns the
        row fields and the solution, the next warm start.  Only the newton
        engine reads a warm start; the policy engine starts from zero.  A SolverError
        names the eps, seed and level of the problem that missed the
        tolerance.
        """
        eps, seed, level, warm = item
        lat = self.lattices[(eps, seed)]
        try:
            sol = solve_obstacle(replace(lat.problem, rhs=level), tol=self.tol, init=warm,
                                 lattice=lat)
        except SolverError as exc:
            raise SolverError(f"eps={float(eps)!r}, seed={seed}, level={float(level)!r}: {exc}",
                              residual=exc.residual, iterations=exc.iterations) from exc
        d = sol.diagnostics
        return (eps, seed, sol.fraction, float(np.max(np.abs(sol.u))),
                d.iterations, d.residual, d.wall_ms, sol.u)


def _map(fn, state, items, workers):
    """[fn(state, item) for item in items], on min(workers, len(items)) threads.

    The threads only read `state`, which is built whole before the map.
    Every item runs the same function on the same state, so results do not
    depend on the worker count.  One thread is a plain loop.
    """
    call = functools.partial(fn, state)
    workers = min(workers, len(items))
    if workers <= 1:
        return [call(it) for it in items]
    # imported only here, so a run on one thread never loads the module
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call, items))


# ---------------------------------------------------------------------------
# Monte Carlo m-bar and the effective level

def fam_of(spec: EnvironmentSpec, sigma: float | None = None) -> KernelFamily:
    """Kernel family matching an environment spec (sigma defaults to 1)."""
    return KernelFamily(kind=spec.kernel_class, dim=spec.dim,
                        sigma=1.0 if sigma is None else sigma,
                        lam=spec.lam, lam_big=spec.lam_big)


def estimate_mbar(phi, x0, level, eps_list, seeds, spec: EnvironmentSpec,
                  fam: KernelFamily, *, h=None, tol=1e-7, r_out_factor=8.0,
                  workers=1, log: RowLog | None = None, experiment_id="mbar",
                  systems: _FrozenSystems | None = None) -> MbarEstimate:
    """Seed-averaged contact fractions per eps; the estimate is the smallest eps's.

    No convergence rate in eps is known, so nothing is extrapolated.  Seed
    spread per eps is the self-averaging diagnostic.  `systems` carries the
    level-free parts and warm starts of a bisection across levels (it must
    be built from the same problem arguments); without it the estimate
    builds its own and starts cold.
    """
    eps_list = tuple(sorted(set(eps_list), reverse=True))
    if len(seeds) < 1:
        raise ConfigurationError("estimate_mbar needs at least one seed")
    if systems is None:
        systems = _FrozenSystems(phi, x0, spec, fam, h, r_out_factor, tol, eps_list, seeds)
    items = [(eps, seed, level, systems.warm.get((eps, seed)))
             for eps in eps_list for seed in seeds]
    out = _map(_FrozenSystems.solve, systems, items, workers)
    fractions, means, spreads = {}, {}, {}
    for eps, seed, frac, sup, its, res, wall, warm in out:
        systems.warm[(eps, seed)] = warm
        fractions[(eps, seed)] = frac
        if log is not None:
            log.add(experiment_id, eps=eps, seed=seed, l=level,
                    contact_fraction=frac, sup_norm=sup, iterations=its,
                    residual=res, wall_ms=wall)
    for eps in eps_list:
        vals = [fractions[(eps, s)] for s in seeds]
        means[eps] = float(np.mean(vals))
        spreads[eps] = float(np.max(vals) - np.min(vals))
    smallest = eps_list[-1]
    vals = [fractions[(smallest, s)] for s in seeds]
    stderr = float(np.std(vals) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return MbarEstimate(level=level, eps_list=eps_list, fractions=fractions, means=means,
                        spreads=spreads, estimate=means[smallest], stderr=stderr).validate()


def _bracket(systems):
    """Certified starting bracket for the level bisection.

    Both ends come from `barrier_threshold`, one evaluation of F(0) per
    (eps, seed).  Low end: below min F(0) over every (eps, seed) no cell
    can touch, since F(U)(x) >= F(0)(x) at a contact cell x of the least
    supersolution U >= 0, so the contact fraction is zero.  High end:
    above max F(0) the zero function already satisfies the level, so
    contact is total.  The solves of the bisection use the same lattices,
    so the certificates hold for them; the margin covers the rounding of
    those comparisons where they are not exact in floating point.
    """
    ends = [barrier_threshold(lat) for lat in systems.lattices.values()]
    lo = min(low for low, _ in ends)
    hi = max(high for _, high in ends)
    margin = max(1e-9, 1e-6 * (abs(lo) + abs(hi)))
    return lo - margin, hi + margin


def effective_value(phi, x0, eps_list, seeds, spec: EnvironmentSpec,
                    fam: KernelFamily, *, h=None, tol=1e-7, r_out_factor=8.0,
                    workers=1, bisect_tol=2.0**-6, theta=None, max_steps=48,
                    log: RowLog | None = None) -> EffectiveSample:
    """Bisect on the level for the boundary between contact regimes.

    Below the effective level the seed-averaged contact fraction at the
    smallest eps sits at or under theta (treated as zero at this
    resolution); above it the fraction is positive.  Discrete monotonicity
    of the fraction in the level makes the bisection sound.  The problem
    keywords (`h`, default eps/4; `tol`, the solver tolerance;
    `r_out_factor`; `workers`) are those of `estimate_mbar`.  The bisection
    stops once the bracket is at most `bisect_tol` wide, or after
    `max_steps` steps; theta defaults to two cells of the interior count.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    systems = _FrozenSystems(phi, x0, spec, fam, h, r_out_factor, tol, eps_list, seeds)
    cells = systems.lattices[(min(eps_list), seeds[0])].active.size  # of the unit box
    theta = theta if theta is not None else 2.0 / cells
    steps = []
    lo, hi = _bracket(systems)
    if not lo < hi:
        raise SolverError(f"degenerate effective-value bracket [{lo}, {hi}]")
    certificates = {"lo": ("barrier", lo), "hi": ("zero-function", hi)}
    for _ in range(max_steps):
        if hi - lo <= bisect_tol:
            break
        mid = 0.5 * (lo + hi)
        m = estimate_mbar(phi, x0, mid, eps_list, seeds, spec, fam, workers=workers,
                          log=log, experiment_id="effective", systems=systems).estimate
        if m <= theta:
            steps.append((mid, m, "zero"))
            lo = mid
        else:
            steps.append((mid, m, "positive"))
            hi = mid
    value = 0.5 * (lo + hi)
    return EffectiveSample(bracket=(lo, hi), value=value, theta=theta, eps_list=tuple(eps_list),
                           seeds=tuple(seeds), certificates=certificates,
                           steps=steps).validate()


# ---------------------------------------------------------------------------
# corrector decay

def corrector_decay_profile(phi, x0, level, eps_list, seed,
                            spec: EnvironmentSpec, fam: KernelFamily, *,
                            h=None, tol=1e-7, r_out_factor=8.0,
                            log: RowLog | None = None):
    """Sup norms of the frozen-operator Dirichlet correctors on the unit ball.

    At the effective level the sequence should decay as eps shrinks; off
    the effective level it stalls at a positive floor.
    """
    eps_list = tuple(sorted(set(eps_list), reverse=True))
    env = sample_environment(spec, seed=seed)
    problems = [_frozen_problem(phi, x0, level, eps, env, fam, (eps / 4.0) if h is None else h,
                                domain_half=1.0, shape="ball") for eps in eps_list]
    # the finest grid, and its G in 1d, before the first solve
    check_grid(problems[-1].domain, r_out_factor)
    check_dense_arrays(problems[-1:])
    sups = []
    for eps, prob in zip(eps_list, problems):
        quad = default_quadrature(fam, prob.domain, r_out_factor)
        w, d = solve_dirichlet(prob, tol=tol, quad=quad)
        sup = float(np.max(np.abs(w)))
        sups.append(sup)
        if log is not None:
            log.add("corrector", eps=eps, seed=seed, l=level, sup_norm=sup,
                    iterations=d.iterations, residual=d.residual, wall_ms=d.wall_ms)
    return sups


# ---------------------------------------------------------------------------
# measurable-ingredient comparison and ABP scaling

def _indicator_forcing(box: Box, active, measure: float):
    """Centered indicator with the requested support measure, snapped to cells.

    Returns (values at nodes, actual measure).  Support is a centered
    interval (1d) or square (2d) of k whole cells a side, or
    ConfigurationError unless those cells are all `active` cells of `box`,
    the probe domain.
    """
    side = measure if box.dim == 1 else math.sqrt(measure)
    k = max(1, int(round(side / box.h)))
    lo = (box.m - k) // 2
    cells = (slice(lo, lo + k),) * box.dim
    if k > box.m or not active[cells].all():
        raise ConfigurationError(
            f"measure {measure!r} snaps to {k} cells a side at h={box.h}, which are not all "
            f"active cells of the probe domain, the ball of radius {box.half}; use a smaller one")
    g = np.zeros(active.shape)
    g[cells] = 1.0
    return g, (k * box.h) ** box.dim


def _indicator_forcings(box: Box, active, measures):
    """`_indicator_forcing` of each measure, largest first; no two may share a cell count."""
    forcings = [_indicator_forcing(box, active, m) for m in sorted(measures, reverse=True)]
    actual = [m for _, m in forcings]
    if len(set(actual)) < len(actual):
        raise ConfigurationError(f"measures {sorted(measures, reverse=True)} snap to "
                                 f"repeated cell counts at h={box.h}: {actual}")
    return forcings


def _extremal_problem(fam, box, g):
    """The upper extremal equation F(v) = -g on the ball of `box`, zero outside."""
    return DirichletProblem(handle=OperatorHandle(fam=fam, extremal_sign=+1), domain=box,
                            rhs=-g, exterior=ExteriorRule.zero(), shape="ball")


def _extremal_box(fam, h, r_out_factor):
    """The probes' box, of half-width 1 at spacing h, once its grid and, on the
    newton engine, its G pass their size checks; its active mask, the ball;
    and its table."""
    box = Box(center=(0.0,) * fam.dim, half=1.0, h=h)
    check_grid(box, r_out_factor)
    probe = _extremal_problem(fam, box, 0.0)
    check_dense_arrays([probe])
    return box, _active_cells(probe), default_quadrature(fam, box, r_out_factor)


def _extremal_forced_sups(fam, box, forcings, *, tol, quad):
    """sup v and diagnostics of the upper extremal equation F(v) = -g per forcing g.

    The problems share the grid, the table and the zero exterior, so they
    are solved as one batch; each bitwise-distinct forcing is solved once,
    and its result is given to every entry that holds it.
    """
    distinct = {g.tobytes(): g for g in forcings}
    problems = [_extremal_problem(fam, box, g) for g in distinct.values()]
    sups = {key: (float(np.max(v)), d) for key, (v, d)
            in zip(distinct, solve_dirichlet_many(problems, tol=tol, quad=quad))}
    return [sups[g.tobytes()] for g in forcings]


def _loglog_slope(rows):
    """Least-squares slope of log sup_v against log measure; nan below two rows."""
    ms = np.array([r["measure"] for r in rows])
    sv = np.array([max(r["sup_v"], 1e-300) for r in rows])
    return float(np.polyfit(np.log(ms), np.log(sv), 1)[0]) if len(rows) >= 2 else math.nan


def comparison_measurable_experiment(sizes, seed, fam: KernelFamily, *,
                                     h=2.0**-9, conjecture_cs=False, tol=1e-8,
                                     r_out_factor=8.0, log: RowLog | None = None):
    """Extremal response to shrinking-support unit forcing.

    Solves the upper extremal equation with forcing -g, g an indicator of
    prescribed measure, and records sup v per measure.  For the scalar
    multiplier class this probes an unproved comparison and is refused
    unless the conjecture flag is set; its pointwise extremal exists in 1d
    only, and a 2d one is refused when the problems are validated.
    """
    if fam.kind == "cs" and not conjecture_cs:
        raise ConfigurationError(
            "measurable-ingredient comparison for the scalar class is "
            "conjecture-conditional; pass conjecture_cs=True to probe it"
        )
    box, active, quad = _extremal_box(fam, h, r_out_factor)
    forcings = _indicator_forcings(box, active, sizes)
    sups = _extremal_forced_sups(fam, box, [g for g, _ in forcings], tol=tol, quad=quad)
    rows = []
    for (_, m_act), (sup, d) in zip(forcings, sups):
        rows.append({"measure": m_act, "sup_v": sup,
                     "conjecture": fam.kind == "cs"})
        if log is not None:
            log.add("cmi", seed=seed, l=m_act, sup_norm=sup,
                    iterations=d.iterations, residual=d.residual, wall_ms=d.wall_ms)
    return {"rows": rows, "fitted_slope": _loglog_slope(rows), "sigma": fam.sigma,
            "class": fam.kind}


def abp_scaling_experiment(fam: KernelFamily, *, h=2.0**-9,
                           amplitudes=(1.0, 2.0, 4.0, 8.0),
                           supports=(2.0**-1, 2.0**-3, 2.0**-5, 2.0**-7, 2.0**-9),
                           base_support=2.0**-2, tol=1e-8, r_out_factor=8.0,
                           log: RowLog | None = None):
    """Two scaling probes of the extremal forced bound.

    (i) amplitude sweep at fixed support: sup v must grow at most
    linearly (the exact operator is positively homogeneous, so the
    measured ratio per doubling is 2: exactly in 1d, where each solve is
    one matvec with G, and up to solver error in 2d);
    (ii) support sweep at unit amplitude: log sup v against log measure,
    fitted slope compared against sigma/2 minus a calibration margin.
    """
    if fam.kind != "a":
        raise ConfigurationError("the scaling bound is proved for the matrix class only")
    box, active, quad = _extremal_box(fam, h, r_out_factor)
    forcings = _indicator_forcings(box, active, supports)
    g0, m0 = _indicator_forcing(box, active, base_support)
    # both sweeps share the grid: one batch, amplitudes first
    sups = _extremal_forced_sups(fam, box, [c * g0 for c in amplitudes]
                                 + [g for g, _ in forcings], tol=tol, quad=quad)
    amp_rows = []
    for c, (sup, d) in zip(amplitudes, sups):
        amp_rows.append({"amplitude": c, "sup_v": sup})
        if log is not None:
            log.add("abp-amp", l=c, sup_norm=sup,
                    iterations=d.iterations, residual=d.residual, wall_ms=d.wall_ms)
    ratios = [amp_rows[i + 1]["sup_v"] / amp_rows[i]["sup_v"]
              for i in range(len(amp_rows) - 1)
              if amp_rows[i]["sup_v"] > 0]
    sup_rows = []
    for (_, m_act), (sup, d) in zip(forcings, sups[len(amplitudes):]):
        sup_rows.append({"measure": m_act, "sup_v": sup})
        if log is not None:
            log.add("abp-supp", l=m_act, sup_norm=sup,
                    iterations=d.iterations, residual=d.residual, wall_ms=d.wall_ms)
    return {
        "amplitude_rows": amp_rows,
        "amplitude_ratios": ratios,
        "support_rows": sup_rows,
        "support_slope": _loglog_slope(sup_rows),
        "sigma": fam.sigma,
        "base_support": m0,
    }


# ---------------------------------------------------------------------------
# convergence harness

def _converge_problems(items, spec, fam, box, far):
    """The Dirichlet problem of each converge item (seed, eps, shift), all on
    the grid of `box`: shift None is the plain route, else the translated
    route (shifted environment, shifted domain and data).  Each seed's
    environment is sampled once and each distinct offset of the exterior
    data gets one rule, which the batch then evaluates once.
    """
    envs, exteriors, problems = {}, {}, []
    for seed, eps, shift in items:
        if seed not in envs:
            envs[seed] = sample_environment(spec, seed=seed)
        env, domain, offset = envs[seed], box, 0.0
        if shift is not None:
            env = translate(env, np.full(spec.dim, shift))
            domain = Box(center=tuple(c - eps * shift for c in box.center),
                         half=box.half, h=box.h)
            offset = eps * shift
        if offset not in exteriors:
            exteriors[offset] = _exterior_from_tag(far, spec.dim, offset)
        g = exteriors[offset]
        problems.append(DirichletProblem(handle=OperatorHandle(fam=fam, env=env, eps=eps),
                                         domain=domain, rhs=0.0, exterior=g, shape="cube"))
    return problems


def _exterior_from_tag(tag, dim, offset=0.0):
    """Reproducible exterior data, named by a tag so that configs can name it.

    "cosine": smooth bounded profile; "zero": zero.  The offset shifts
    the argument for translated-route solves.
    """
    if tag == "zero":
        return ExteriorRule.zero()
    if tag == "cosine":
        def fn(pts, _off=offset):
            pts = np.asarray(pts, dtype=np.float64)
            s = np.sum(pts + _off, axis=1)
            return np.cos(2.0 * s) / (1.0 + 0.25 * np.abs(s))
        return ExteriorRule(fn=fn, far=0.0)
    raise ConfigurationError(f"unknown exterior data tag {tag!r}")


def check_translation_shift(eps_list, h, shift):
    """The translated route runs at the largest eps: eps * shift must be whole cells."""
    if (shift * max(eps_list)) % h != 0.0:
        raise ConfigurationError(
            f"translation shift {shift} times eps {max(eps_list)} must be a whole "
            f"number of cells of width {h}"
        )


def convergence_experiment(exterior_tag, eps_list, seeds,
                           spec: EnvironmentSpec, fam: KernelFamily, *,
                           domain_half=0.5, h=None, tol=1e-7, r_out_factor=8.0,
                           translation_shift=0.25, log: RowLog | None = None):
    """Scaled Dirichlet solves across eps and seeds, with three diagnostics.

    (a) seed discrepancy per eps (sup over seed pairs), (b) Cauchy gaps
    between consecutive eps at shared grid nodes, (c) a translated-route
    replay whose values must land bit-identically after shifting back.
    All solves share one grid (h fixed by the smallest eps), so the
    comparisons need no interpolation, one table and one held system (the
    inverse of K in 1d, the moment maps in 2d): every run is one batch
    (`solve_dirichlet_many`), on the calling thread, the translated route
    (largest eps, first seed) included.  Rows are logged eps by eps, seeds
    in order, with the translated route's row last.
    """
    eps_list = tuple(sorted(set(eps_list), reverse=True))
    if len(eps_list) < 2:
        raise ConfigurationError("convergence harness needs at least two eps values")
    he = (min(eps_list) / 4.0) if h is None else h
    check_translation_shift(eps_list, he, translation_shift)
    box = Box((0.0,) * spec.dim, domain_half, he)
    # a run holds the G, in 1d, or the moment maps, in 2d, of its one grid,
    # which the family and the box decide: checked after the grid and
    # before the table
    check_grid(box, r_out_factor)
    check_dense_arrays([DirichletProblem(handle=OperatorHandle(fam=fam), domain=box,
                                         rhs=0.0, exterior=ExteriorRule.zero())])
    items = [(seed, eps, None) for eps in eps_list for seed in seeds]
    items.append((seeds[0], eps_list[0], translation_shift))
    problems = _converge_problems(items, spec, fam, box, exterior_tag)
    solved = solve_dirichlet_many(problems, tol, default_quadrature(fam, box, r_out_factor))
    sols = {}
    for (seed, eps, shift), (vals, d) in zip(items, solved):
        sols[(eps, seed, shift is not None)] = vals
        if log is not None:
            log.add("converge-shift" if shift is not None else "converge",
                    eps=eps, seed=seed, sup_norm=float(np.max(np.abs(vals))),
                    iterations=d.iterations, residual=d.residual, wall_ms=d.wall_ms)
    seed_disc = {}
    for eps in eps_list:
        worst = 0.0
        for i in range(len(seeds)):
            for j in range(i + 1, len(seeds)):
                a = sols[(eps, seeds[i], False)]
                b = sols[(eps, seeds[j], False)]
                worst = max(worst, float(np.max(np.abs(a - b))))
        seed_disc[eps] = worst
    cauchy = {}
    for e1, e2 in zip(eps_list, eps_list[1:]):
        a = sols[(e1, seeds[0], False)]
        b = sols[(e2, seeds[0], False)]
        cauchy[(e1, e2)] = float(np.max(np.abs(a - b)))
    base = sols[(eps_list[0], seeds[0], False)]
    moved = sols[(eps_list[0], seeds[0], True)]
    translation_gap = float(np.max(np.abs(base - moved)))
    return {
        "seed_discrepancy": seed_disc,
        "cauchy_gaps": cauchy,
        "translation_gap": translation_gap,
        "eps_list": eps_list,
        "seeds": tuple(seeds),
        "h": he,
    }
