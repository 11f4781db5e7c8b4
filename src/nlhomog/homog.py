"""Homogenization pipeline: contact statistics, effective levels, decay.

Everything here reduces generic centers to the origin by translating the
test function (phi at x0 becomes phi(. + x0) at 0), so every lattice
problem lives on a box centered at zero while the coefficients are read
at grid/eps under the given environment.

The obstacle statistic is exact in three discrete senses that tests rely
on: contact masks are literal zero sets, fractions are ratios of integer
counts, and the fixed-sweep engine preserves orderings (in level, in
forcing, in domain inclusion) without floating-point leakage.  All
Monte Carlo work is a deterministic fold over (eps, seed, level) items.
Each problem runs the engine its lattice picks (see `solve`), on a table
from `default_quadrature`.
The frozen problems of one m-bar estimate or one effective-level bisection
share their level-free parts: per eps the quadrature table, the frozen
moment and the linear engine's (K, e, G), with G = inv(K); per (eps, seed)
the lattice, which the barrier bracket also reads.  These are built on
first use and dropped when the call returns; each level only recomputes its
threshold and runs the active set, started from the contact set the same
(eps, seed) item returned at the previous level, and each active-set step
with less contact than free cells is a Schur step on G.  That warm
start travels with the item, so the optional process pool, which lives for
the whole bisection, cannot change any reported number.
Dirichlet problems that share a grid are solved as one batch
(`solve_dirichlet_many`), so each grid's K is factored once: the abp and
cmi sweeps are one batch each, and the convergence harness makes one batch
per eps, the translated route joining the largest, and fans the batches out
through the same pool path (`_Fold`).
"""

from __future__ import annotations

import csv
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .env import EnvironmentSpec, sample_environment, translate
from .errors import ConfigurationError, SolverError
from .kernels import KernelFamily
from .operators import Box, ExteriorRule, TestFunction, unit_moment
from .solve import (
    DirichletProblem,
    OperatorHandle,
    barrier_threshold,
    default_quadrature,
    solve_dirichlet,
    solve_dirichlet_many,
    solve_obstacle,
    _lattice,
)

__all__ = [
    "MbarEstimate",
    "EffectiveSample",
    "ExtractionConfig",
    "RowLog",
    "CSV_COLUMNS",
    "quadratic_bank",
    "contact_statistic",
    "estimate_mbar",
    "effective_value",
    "corrector_decay_profile",
    "comparison_measurable_experiment",
    "abp_scaling_experiment",
    "convergence_experiment",
    "check_translation_shift",
    "worker_count",
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

@dataclass
class MbarEstimate:
    phi: TestFunction
    x0: tuple
    level: float
    eps_list: tuple
    fractions: dict          # (eps, seed) -> contact fraction
    means: dict              # eps -> seed average
    spreads: dict            # eps -> max - min over seeds
    estimate: float
    stderr: float
    extrapolation: str       # "last" | "richardson"

    def validate(self):
        if any(not (0.0 <= f <= 1.0) for f in self.fractions.values()):
            raise ConfigurationError("contact fractions must lie in [0, 1]")
        if not 0.0 <= self.estimate <= 1.0:
            raise ConfigurationError("m-bar estimate must lie in [0, 1]")
        if any(a <= b for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigurationError("eps list must be strictly decreasing")
        return self


@dataclass
class EffectiveSample:
    phi: TestFunction
    x0: tuple
    bracket: tuple           # (l_lo, l_hi) after bisection
    value: float             # effective level estimate
    theta: float
    eps_list: tuple
    seeds: tuple
    certificates: dict       # how the initial bracket was certified
    steps: list              # (level, mbar estimate, side) per bisection step

    def validate(self):
        lo, hi = self.bracket
        if not lo <= self.value <= hi:
            raise ConfigurationError("effective value must sit inside its bracket")
        return self


@dataclass(frozen=True)
class ExtractionConfig:
    eps_list: tuple = (2.0**-4,)
    seeds: tuple = (0, 1, 2, 3)
    h: float | None = None           # None: eps_min / 4
    theta: float | None = None       # None: two cells out of the interior count
    tol: float = 2.0**-6             # bisection stops at this bracket width
    max_steps: int = 48
    solver_tol: float = 1e-7
    r_out_factor: float = 8.0
    richardson: bool = False         # experimental extrapolation in eps
    workers: int = 1


def worker_count(requested=None, config=None):
    """Resolve a worker count.

    Precedence: the explicit request (`--workers`), then the
    NONLOCAL_HOMOG_WORKERS environment variable, then the config's
    `workers`, else all cores.  The environment variable, like the other
    two, must be an integer >= 1.
    """
    if requested is not None:
        return int(requested)
    envval = os.environ.get("NONLOCAL_HOMOG_WORKERS")
    if envval:
        try:
            workers = int(envval)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigurationError(
                f"NONLOCAL_HOMOG_WORKERS must be an integer >= 1, got {envval!r}")
        return workers
    if config is not None and config > 0:
        return int(config)
    return os.cpu_count() or 1


def quadratic_bank(dim: int, r_cut: float = 4.0):
    """Fixed, reproducible family of capped quadratic test functions.

    Curvature eigenvalues run over {-2, -1, 0, 1, 2}; in 2d the bank
    holds the ordered diagonal pairs plus two rotated representatives so
    off-diagonal curvature is probed as well.
    """
    bank = []
    levels = [-2.0, -1.0, 0.0, 1.0, 2.0]
    if dim == 1:
        for k in levels:
            bank.append(TestFunction.make(P=np.array([[k]]), p=np.zeros(1),
                                          const=0.0, center=np.zeros(1), r_cut=r_cut))
        return bank
    if dim != 2:
        raise ConfigurationError("test-function bank covers dimensions 1 and 2")
    for i, k1 in enumerate(levels):
        for k2 in levels[: i + 1]:
            bank.append(TestFunction.make(P=np.diag([k1, k2]), p=np.zeros(2),
                                          const=0.0, center=np.zeros(2), r_cut=r_cut))
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    R = np.array([[c, -s], [s, c]])
    for pair in ((2.0, -1.0), (1.0, -1.0)):
        P = R @ np.diag(pair) @ R.T
        bank.append(TestFunction.make(P=P, p=np.zeros(2), const=0.0,
                                      center=np.zeros(2), r_cut=r_cut))
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


def contact_statistic(phi, x0, level, eps, env, fam: KernelFamily,
                      h: float | None = None, *, tol=1e-7, **kw) -> float:
    """Contact fraction of the frozen-operator obstacle problem.

    Least nonnegative supersolution at the given level on the unit box
    around the (translated-away) center, coefficients read at grid/eps;
    returns the fraction of interior cells in exact contact.  Further
    keywords (`quad`, `fixed_sweeps`, `init`) go to `solve_obstacle`.
    """
    if h is None:
        h = eps / 4.0
    prob = _frozen_problem(phi, x0, level, eps, env, fam, h)
    return solve_obstacle(prob, tol=tol, **kw).fraction


class _FrozenSystems:
    """Level-free parts of the frozen problems of one extraction, built on first use.

    Per eps: the grid spacing, the quadrature table, the frozen moment and,
    when the lattice runs the linear engine, the triple (K, e, G) with
    G = inv(K) -- all seed-independent, since they depend on the grid, the
    table and the zero exterior only.  G turns each active-set step with
    fewer contact than free cells into a matvec and a small Schur solve.
    Per (eps, seed): the lattice with its environment fields, built once at
    level zero; the barrier bracket reads the same lattice under the bump
    exterior.  Bracket ends and solves at any level read from here.
    """

    def __init__(self, phi, x0, spec, fam, h, r_out_factor, tol):
        self.phi, self.x0, self.spec, self.fam = phi, x0, spec, fam
        self.h, self.r_out_factor, self.tol = h, r_out_factor, tol
        self.tables = {}     # eps -> (quadrature table, frozen moment)
        self.assembled = {}  # eps -> (K, e, inv(K)) of the linear engine
        self.lattices = {}   # (eps, seed) -> lattice at level 0

    def lattice(self, eps, seed):
        lat = self.lattices.get((eps, seed))
        if lat is not None:
            return lat
        he = (eps / 4.0) if self.h is None else self.h
        env = sample_environment(self.spec, seed=seed)
        prob = _frozen_problem(self.phi, self.x0, 0.0, eps, env, self.fam, he)
        if eps not in self.tables:
            quad = default_quadrature(self.fam, prob.domain, self.r_out_factor)
            phi, x0 = prob.handle.frozen
            self.tables[eps] = (quad, unit_moment(phi, x0, quad))
        lat = self.lattices[(eps, seed)] = _lattice(prob, *self.tables[eps])
        return lat

    def bounds(self, key):
        """(barrier level, zero-function level) of one (eps, seed) problem.

        At or below the first the positive bump is a subsolution, so there
        is no contact; at or above the second the zero function already
        satisfies the level, so contact is total.
        """
        lat = self.lattice(*key)
        lo = barrier_threshold(lat.problem, +1, quad=lat.quad, lattice=lat)
        F0, _ = lat.operator_values(np.zeros(lat.rhs.shape))
        return lo, float(np.max(np.asarray(F0)[lat.active]))

    def solve(self, item):
        """Obstacle solve of one (eps, seed) problem at a level, warm-started.

        item = (eps, seed, level, warm), with warm the solution this item
        returned at the previous level, or None.  Returns the row fields and
        the next warm start.  Only the linear engine takes a warm start:
        sweeps always start from zero.
        """
        eps, seed, level, warm = item
        lat = self.lattice(eps, seed)
        if lat.linear and eps not in self.assembled:
            K = lat.matrix()
            self.assembled[eps] = (K, lat.load(), np.linalg.inv(K))
        sol = solve_obstacle(replace(lat.problem, rhs=level), tol=self.tol,
                             init=warm if lat.linear else None,
                             lattice=lat, system=self.assembled.get(eps))
        d = sol.diagnostics
        return (eps, seed, sol.fraction, float(np.max(np.abs(sol.u.values))),
                d.iterations, d.residual, d.wall_ms, sol.u.values if lat.linear else None)


# Set only inside pool workers, by the pool's initializer; it lives and dies
# with the pool of one _Fold, so no state outlasts the call that made it.
_WORKER_STATE = None


def _start_worker(make, args):
    global _WORKER_STATE
    _WORKER_STATE = make(*args)


def _on_worker(fn, item):
    return fn(_WORKER_STATE, item)


class _Fold:
    """Maps fn(state, item) over items, in process or on one pool.

    The state is `make(*args)`, the part every item shares.  With one
    worker it is built here; with more, each pool worker builds its own
    from the same arguments, once, and the pool lives until the fold
    closes.  Either way every item runs the same function on equal state,
    so results do not depend on the worker count.  `make` and `fn` must be
    module-level names (a class and its methods count), so that the pool
    can pickle them under any start method.  `warm` holds the last warm
    start of each (eps, seed) of a `_FrozenSystems` fold.
    """

    def __init__(self, make, args, workers):
        self.warm = {}
        self.state = make(*args) if workers <= 1 else None
        self.pool = None if workers <= 1 else ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker, initargs=(make, args))

    def map(self, fn, items):
        if self.pool is None:
            return [fn(self.state, it) for it in items]
        return list(self.pool.map(functools.partial(_on_worker, fn), items, chunksize=1))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown()


# ---------------------------------------------------------------------------
# Monte Carlo m-bar and the effective level

def fam_of(spec: EnvironmentSpec, sigma: float | None = None) -> KernelFamily:
    """Kernel family matching an environment spec (sigma defaults to 1)."""
    return KernelFamily(kind=spec.kernel_class, dim=spec.dim,
                        sigma=1.0 if sigma is None else sigma,
                        lam=spec.lam, lam_big=spec.lam_big)


def estimate_mbar(phi, x0, level, eps_list, seeds, spec: EnvironmentSpec,
                  fam: KernelFamily, *, h=None, tol=1e-7, r_out_factor=8.0,
                  richardson=False, workers=1,
                  log: RowLog | None = None, experiment_id="mbar",
                  fold: _Fold | None = None) -> MbarEstimate:
    """Seed-averaged contact fractions per eps, extrapolated in eps.

    The default extrapolation takes the smallest-eps average (no rate is
    available to justify more); Richardson on the last two eps values is
    offered as an experimental alternative.  Seed spread per eps is the
    self-averaging diagnostic.  `fold` carries the systems and warm starts
    of a bisection across levels (it must be built from the same problem
    arguments); without it the estimate builds its own and starts cold.
    """
    eps_list = tuple(sorted(set(eps_list), reverse=True))
    if len(seeds) < 1:
        raise ConfigurationError("estimate_mbar needs at least one seed")
    if fold is None:
        scope = _Fold(_FrozenSystems, (phi, x0, spec, fam, h, r_out_factor, tol), workers)
    else:
        scope = nullcontext(fold)
    with scope as f:
        items = [(eps, seed, level, f.warm.get((eps, seed)))
                 for eps in eps_list for seed in seeds]
        out = f.map(_FrozenSystems.solve, items)
        for eps, seed, *_, warm in out:
            f.warm[(eps, seed)] = warm
    fractions, means, spreads = {}, {}, {}
    for eps, seed, frac, sup, its, res, wall, _ in out:
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
    if richardson and len(eps_list) >= 2:
        e1, e2 = eps_list[-2], eps_list[-1]
        m1, m2 = means[e1], means[e2]
        est = m2 + (m2 - m1) * e2 / (e1 - e2)
        est = min(1.0, max(0.0, est))
        mode = "richardson"
    else:
        est = means[smallest]
        mode = "last"
    vals = [fractions[(smallest, s)] for s in seeds]
    stderr = float(np.std(vals) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return MbarEstimate(phi=phi, x0=tuple(np.atleast_1d(x0)), level=level,
                        eps_list=eps_list, fractions=fractions, means=means,
                        spreads=spreads, estimate=est, stderr=stderr,
                        extrapolation=mode).validate()


def _bracket(fold, cfg: ExtractionConfig):
    """Certified starting bracket for the level bisection.

    Low end: below min F(P+) over every (eps, seed) the positive bump is
    a subsolution, so the least supersolution dominates it and the
    contact fraction is zero.  High end: above max F(0) the zero function
    already satisfies the level, so contact is total.  The solves of the
    bisection use the same tables, so the certificates hold for them.
    """
    keys = [(eps, seed) for eps in cfg.eps_list for seed in cfg.seeds]
    ends = fold.map(_FrozenSystems.bounds, keys)
    lo = min(b[0] for b in ends)
    hi = max(b[1] for b in ends)
    margin = max(1e-9, 1e-6 * (abs(lo) + abs(hi)))
    return lo - margin, hi + margin


def effective_value(phi, x0, cfg: ExtractionConfig, spec: EnvironmentSpec,
                    fam: KernelFamily, *, log: RowLog | None = None) -> EffectiveSample:
    """Bisect on the level for the boundary between contact regimes.

    Below the effective level the extrapolated contact fraction sits at
    or under theta (treated as zero at this resolution); above it the
    fraction is positive.  Discrete monotonicity of the fraction in the
    level makes the bisection sound.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    smallest = min(cfg.eps_list)
    he = (smallest / 4.0) if cfg.h is None else cfg.h
    cells = int(round(1.0 / he)) ** spec.dim  # interior cells of the unit box
    theta = cfg.theta if cfg.theta is not None else 2.0 / cells
    steps = []
    args = (phi, x0, spec, fam, cfg.h, cfg.r_out_factor, cfg.solver_tol)
    with _Fold(_FrozenSystems, args, cfg.workers) as fold:
        lo, hi = _bracket(fold, cfg)
        if not lo < hi:
            raise SolverError(f"degenerate effective-value bracket [{lo}, {hi}]")
        certificates = {"lo": ("barrier", lo), "hi": ("zero-function", hi)}
        for _ in range(cfg.max_steps):
            if hi - lo <= cfg.tol:
                break
            mid = 0.5 * (lo + hi)
            m = estimate_mbar(phi, x0, mid, cfg.eps_list, cfg.seeds, spec, fam,
                              h=cfg.h, tol=cfg.solver_tol,
                              r_out_factor=cfg.r_out_factor,
                              richardson=cfg.richardson, log=log,
                              experiment_id="effective", fold=fold).estimate
            if m <= theta:
                steps.append((mid, m, "zero"))
                lo = mid
            else:
                steps.append((mid, m, "positive"))
                hi = mid
    value = 0.5 * (lo + hi)
    return EffectiveSample(phi=phi, x0=tuple(x0), bracket=(lo, hi), value=value,
                           theta=theta, eps_list=tuple(cfg.eps_list),
                           seeds=tuple(cfg.seeds), certificates=certificates,
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
    sups = []
    for eps in eps_list:
        he = (eps / 4.0) if h is None else h
        prob = _frozen_problem(phi, x0, level, eps, env, fam, he, domain_half=1.0,
                               shape="ball")
        quad = default_quadrature(fam, prob.domain, r_out_factor)
        w, d = solve_dirichlet(prob, tol=tol, quad=quad)
        sup = float(np.max(np.abs(w.values)))
        sups.append(sup)
        if log is not None:
            log.add("corrector", eps=eps, seed=seed, l=level, sup_norm=sup,
                    iterations=d.iterations, residual=d.residual, wall_ms=d.wall_ms)
    return sups


# ---------------------------------------------------------------------------
# measurable-ingredient comparison and ABP scaling

def _indicator_forcing(box: Box, measure: float):
    """Centered indicator with the requested support measure, snapped to cells.

    Returns (values at nodes, actual measure).  Support is a centered
    interval (1d) or square (2d) made of whole cells.
    """
    if box.dim == 1:
        k = max(1, int(round(measure / box.h)))
        m = box.m
        lo = (m - k) // 2
        g = np.zeros(m)
        g[lo:lo + k] = 1.0
        return g, k * box.h
    side_cells = max(1, int(round(math.sqrt(measure) / box.h)))
    m = box.m
    lo = (m - side_cells) // 2
    g = np.zeros((m, m))
    g[lo:lo + side_cells, lo:lo + side_cells] = 1.0
    return g, (side_cells * box.h) ** 2


def _indicator_forcings(box: Box, measures):
    """`_indicator_forcing` of each measure, largest first; no two may share a cell count."""
    forcings = [_indicator_forcing(box, m) for m in sorted(measures, reverse=True)]
    actual = [m for _, m in forcings]
    if len(set(actual)) < len(actual):
        raise ConfigurationError(f"measures {sorted(measures, reverse=True)} snap to "
                                 f"repeated cell counts at h={box.h}: {actual}")
    return forcings


def _extremal_forced_sups(fam, box, forcings, *, tol, quad):
    """sup v and diagnostics of the upper extremal equation F(v) = -g per forcing g.

    The problems share the grid, the table and the zero exterior, so they
    are solved as one batch.
    """
    handle = OperatorHandle(fam=fam, extremal_sign=+1)
    problems = [DirichletProblem(handle=handle, domain=box, rhs=-g,
                                 exterior=ExteriorRule.zero(), shape="ball")
                for g in forcings]
    return [(float(np.max(v.values)), d)
            for v, d in solve_dirichlet_many(problems, tol=tol, quad=quad)]


def comparison_measurable_experiment(sizes, seed, fam: KernelFamily, *,
                                     h=2.0**-9, conjecture_cs=False, tol=1e-8,
                                     r_out_factor=8.0, log: RowLog | None = None):
    """Extremal response to shrinking-support unit forcing.

    Solves the upper extremal equation with forcing -g, g an indicator of
    prescribed measure, and records sup v per measure.  For the scalar
    multiplier class this probes an unproved comparison and is refused
    unless the conjecture flag is set.
    """
    if fam.kind == "cs" and not conjecture_cs:
        raise ConfigurationError(
            "measurable-ingredient comparison for the scalar class is "
            "conjecture-conditional; pass conjecture_cs=True to probe it"
        )
    box = Box(center=(0.0,) * fam.dim, half=1.0, h=h)
    quad = default_quadrature(fam, box, r_out_factor)
    forcings = _indicator_forcings(box, sizes)
    sups = _extremal_forced_sups(fam, box, [g for g, _ in forcings], tol=tol, quad=quad)
    rows = []
    for (_, m_act), (sup, d) in zip(forcings, sups):
        rows.append({"measure": m_act, "sup_v": sup,
                     "conjecture": fam.kind == "cs"})
        if log is not None:
            log.add("cmi", seed=seed, l=m_act, sup_norm=sup,
                    iterations=d.iterations, residual=d.residual, wall_ms=d.wall_ms)
    ms = np.array([r["measure"] for r in rows])
    sv = np.array([max(r["sup_v"], 1e-300) for r in rows])
    slope = float(np.polyfit(np.log(ms), np.log(sv), 1)[0]) if len(rows) >= 2 else math.nan
    return {"rows": rows, "fitted_slope": slope, "sigma": fam.sigma,
            "class": fam.kind}


def abp_scaling_experiment(fam: KernelFamily, *, h=2.0**-9,
                           amplitudes=(1.0, 2.0, 4.0, 8.0),
                           supports=(2.0**-1, 2.0**-3, 2.0**-5, 2.0**-7, 2.0**-9),
                           base_support=2.0**-2, tol=1e-8, r_out_factor=8.0,
                           log: RowLog | None = None):
    """Two scaling probes of the extremal forced bound.

    (i) amplitude sweep at fixed support: sup v must grow at most
    linearly (the exact operator is positively homogeneous, so the
    measured ratio per doubling is 2 up to solver error);
    (ii) support sweep at unit amplitude: log sup v against log measure,
    fitted slope compared against sigma/2 minus a calibration margin.
    """
    if fam.kind != "a":
        raise ConfigurationError("the scaling bound is proved for the matrix class only")
    box = Box(center=(0.0,) * fam.dim, half=1.0, h=h)
    quad = default_quadrature(fam, box, r_out_factor)
    forcings = _indicator_forcings(box, supports)
    g0, m0 = _indicator_forcing(box, base_support)
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
    ms = np.array([r["measure"] for r in sup_rows])
    sv = np.array([max(r["sup_v"], 1e-300) for r in sup_rows])
    slope = float(np.polyfit(np.log(ms), np.log(sv), 1)[0]) if len(sup_rows) >= 2 else math.nan
    return {
        "amplitude_rows": amp_rows,
        "amplitude_ratios": ratios,
        "support_rows": sup_rows,
        "support_slope": slope,
        "sigma": fam.sigma,
        "base_support": m0,
    }


# ---------------------------------------------------------------------------
# convergence harness

def _converge_shared(spec, sigma, box, far, tol, r_out_factor):
    """What every converge group shares: the kernel family and the table, built once."""
    fam = fam_of(spec, sigma)
    return spec, fam, box, far, tol, default_quadrature(fam, box, r_out_factor)


def _converge_group(shared, group):
    """Dirichlet solves of one converge group as one batch.

    The group's items (seed, eps, shift) share the grid, the table and the
    active mask; shift None is the plain route, else the translated route
    (shifted environment, shifted domain and data).  Returns (values,
    iterations, residual, wall_ms) per item.
    """
    spec, fam, box, far, tol, quad = shared
    problems = []
    for seed, eps, shift in group:
        env = sample_environment(spec, seed=seed)
        domain = box
        if shift is not None:
            env = translate(env, np.full(spec.dim, shift))
            domain = Box(center=tuple(c - eps * shift for c in box.center),
                         half=box.half, h=box.h)
        g = _exterior_from_tag(far, spec.dim, eps * shift if shift is not None else 0.0)
        problems.append(DirichletProblem(handle=OperatorHandle(fam=fam, env=env, eps=eps),
                                         domain=domain, rhs=0.0, exterior=g, shape="cube"))
    return [(u.values, d.iterations, d.residual, d.wall_ms)
            for u, d in solve_dirichlet_many(problems, tol=tol, quad=quad)]


def _exterior_from_tag(tag, dim, offset=0.0):
    """Reproducible exterior data; must be picklable, hence tag-based.

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
                           translation_shift=0.25, workers=1,
                           log: RowLog | None = None):
    """Scaled Dirichlet solves across eps and seeds, with three diagnostics.

    (a) seed discrepancy per eps (sup over seed pairs), (b) Cauchy gaps
    between consecutive eps at shared grid nodes, (c) a translated-route
    replay whose values must land bit-identically after shifting back.
    All solves share one grid (h fixed by the smallest eps), so the
    comparisons need no interpolation, and one table and one K.  The
    solves of one eps are one batch, with the translated route (largest
    eps, first seed) in the first; the fold maps over these fixed groups,
    so no number depends on the worker count.  Rows are logged eps by eps,
    seeds in order, with the translated route's row last.
    """
    eps_list = tuple(sorted(set(eps_list), reverse=True))
    if len(eps_list) < 2:
        raise ConfigurationError("convergence harness needs at least two eps values")
    he = (min(eps_list) / 4.0) if h is None else h
    check_translation_shift(eps_list, he, translation_shift)
    box = Box((0.0,) * spec.dim, domain_half, he)
    # one batch per eps; the translated route joins the largest eps
    groups = [[(seed, eps, None) for seed in seeds] for eps in eps_list]
    groups[0].append((seeds[0], eps_list[0], translation_shift))
    shared = (spec, fam.sigma, box, exterior_tag, tol, r_out_factor)
    with _Fold(_converge_shared, shared, workers) as fold:
        out = fold.map(_converge_group, groups)
    solved = [pair for group, rows in zip(groups, out) for pair in zip(group, rows)]
    solved.sort(key=lambda pair: pair[0][2] is not None)  # translated route's row last
    sols = {}
    for (seed, eps, shift), (vals, its, res, wall) in solved:
        sols[(eps, seed, shift is not None)] = vals
        if log is not None:
            log.add("converge-shift" if shift is not None else "converge",
                    eps=eps, seed=seed,
                    sup_norm=float(np.max(np.abs(vals))),
                    iterations=its, residual=res, wall_ms=wall)
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
