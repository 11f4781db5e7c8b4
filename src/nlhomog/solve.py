"""Dirichlet and obstacle solvers for the discrete nonlocal operators.

The discretization is the monotone quadrature of `kernels`: every
off-center weight is nonnegative and the center coefficient is strictly
negative, so the lattice operator is an M-matrix perturbation and both
engines below converge to the same solution.

Lattices
--------
One lattice type holds a problem on its grid in either dimension: the active
cells, the branch fields read at x / eps (matrix fields for the 2d "a"
class), the frozen moment, the sweep diagonal, the extremal slopes and the
inf-sup over the branches.  It is read-only once built, so the copies that
other levels make of it share its arrays.  Its one padded array holds the
exterior data on the grid and J ghost nodes past each face, with the active
cells zeroed.  The correlation of that array is fixed per exterior, so an
evaluation, on its own copy of the values, correlates only the active values
with the central taps.  Every lattice reads its table's stencil.  Lattices
are built in batches on one table and one grid (`_lattices`: a Dirichlet
batch, the frozen problems of one eps, or a single problem as a batch of
one).  A batch reads the fields of all its environments in one call per
field (`env`), computes each distinct frozen profile's moment once, and
evaluates and correlates each distinct exterior once: one box and shape,
and one constant value or one function object; its lattices share that
padded array, its correlation and its load.  Each dimension keeps its
correlation and its moment formula: in 1d one symmetric stencil, giving
the unit moment (and, for the pointwise extremal of the "cs" class, the
positive and negative moments); in 2d three directional stencils, giving
the symmetric (2, 2) moment field; their sums, and that of |kxy| for the
sweep diagonal, are read from the table.
The pointwise "cs" extremal is 1d only; a 2d one is refused.

The held system
---------------
Every problem of a batch shares one linear structure, which depends on the
table, the grid and the active mask alone.  The batch builds it once, on
the calling thread, right after `check_dense_arrays` passes it, and every
lattice of the batch holds it, as do the copies `at_level` makes; no solve
builds one or is handed one.
  1d  the unit moment is I(u) = e - K u, K the symmetric positive-definite
      Toeplitz M-matrix of `column()`; held are K, a read-only view over
      its 2m - 1 distinct values (`matrix()`), and G = inv(K), the one
      m x m array, from Trench's O(m^2) recurrence (`_toeplitz_inverse`),
      exactly symmetric.
  2d  the moment field is B(u) = B(0) + L u on the n active cells; held
      are the three n x n moment maps L (xx, yy, xy, `moment_maps`), on
      which every lattice's branches pass `premise`.
The load e = I(0), or B(0) on the active cells, is held per distinct
exterior, beside its padded array and correlation.  A batch built with
dense=False (a lattice that only `barrier_threshold` reads) holds no K, G
or L and checks none.

Engines
-------
The problem picks the engine; there is no way to override it.

newton   1d linear engine, for every 1d operator but the pointwise extremal
         of the "cs" class.  Every branch slot is increasing and linear in
         the unit moment, so F(u) = rhs exactly where I(u) equals a
         pointwise threshold t.  A 1d ball, like a cube, activates every
         cell, so K acts on the whole grid.  A Dirichlet problem solves
         K u = e - t as one matvec u = G (e - t): the empty-contact Schur
         step below; each problem of a batch is its own matvec, never one
         product of many columns, so its bits do not depend on the batch.
         An obstacle solve is the complementarity problem K u >= e - t,
         u >= 0, solved by the primal-dual active-set method with exact
         zeros on contact; a step copies only the rows and the block it
         gathers from K.  On a contact set C smaller than the free set F, a
         step is one matvec with G and a |C| x |C| solve on G[C, C] (a
         Schur step); otherwise it is one dense solve on K[F, F].  So no
         step factors more than m/2 rows.
         An obstacle solve's `init`, when given, only seeds the first
         contact set (its zeros); the final set, and so the solution, does
         not depend on it.  At most MAX_STEPS steps run.  There is no
         fallback: a solve that misses the tolerance raises.  Every
         residual is certified with the sweep engine's evaluation.
policy   2d engine, for every branch operator (class "a" and class "cs").
         A policy fixes a branch (alpha, beta) per cell, and then F is
         affine with the matrix diag(A11) Lxx + diag(A22) Lyy
         + 2 diag(A12) Lxy (class "a") or diag(mult) (Lxx + Lyy) (class
         "cs"), one row of some branch's matrix per cell.  Every branch's
         matrix has nonnegative off-centre weights and strictly diagonally
         dominant rows (`premise`), so each policy matrix is the negative
         of a nonsingular M-matrix and one dense solve on the free cells
         solves the policy.  The inf over
         alpha of the sup over beta is a game, solved by Hoffman-Karp
         policy iteration (Hoffman & Karp, Management Sci. 12, 1966;
         Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009): the
         outer loop improves alpha by the argmin of the sup over beta, and
         the inner loop is Howard's algorithm over beta, or over beta and
         the obstacle, since max(min_a X_a, -u) = min_a max(X_a, -u).
         Contact cells get exact zeros and ties go to contact.  A cell's
         policy is replaced only by a strictly better one, so the loop
         cannot cycle; it stops when both policies repeat, after at most
         MAX_STEPS policy solves, and the result is certified with the
         sweep engine's evaluation.  Every solve starts from the greedy
         policy at zero; an obstacle solve's `init` does not reach it.
sweeps   damped projected Jacobi relaxation, for the extremal operators
         that have no finite policy set (the 2d extremal and the pointwise
         "cs" extremal).  A sweep is one evaluation of F: it certifies the
         values' residual, then moves each value toward the root of its
         scalar residual, clamping at the obstacle.  F at a node is
         nondecreasing in every other value (nonnegative weights) and falls
         no faster than the sweep diagonal in its own, so the damped map is
         monotone.  Sweeps start from zero in every solve; an obstacle
         solve's `init` does not reach them.  A solve whose residual
         stagnates stops early and raises.  The engine's own method also
         runs exactly n sweeps from zero on any lattice (`sweep_solve` with
         fixed_sweeps = n) and returns those values whatever their
         residual; n monotone sweeps keep every ordering of the data, which
         the exact ordering tests read.  No solve below runs it.

Each engine is one lattice method, `newton_solve(obstacle, init)`,
`policy_solve(obstacle)` or `sweep_solve(obstacle, tol, fixed_sweeps)`, and
`solve_dirichlet_many` and `solve_obstacle` pick among them in one place
(`_solve`).  Repeated solves of one problem at several levels hand
`solve_obstacle` the lattice, built once with its system; each level only
re-levels a copy.  Both certificates of a level search, `barrier_threshold`,
read that same lattice: the min and the max of F(0) with its own exterior
data, whose terms cancel between F(U) and F(0) at a contact cell.  Every
solve returns its values as an array on the grid.

Scaled problems read their coefficients at x / eps; the grid must resolve
the environment cells (h <= eps/4) or construction fails.
"""

from __future__ import annotations

import copy
import math
import time
from collections import deque

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .env import forcing_field, matrix_field, multiplier_field
from .errors import ConfigurationError, SolverError
from .kernels import KernelFamily, QuadratureTable, build_quadrature
from .operators import Box, _Constant, unit_moment
from .records import FrozenRecord, Record

__all__ = [
    "OperatorHandle",
    "DirichletProblem",
    "ObstacleSolution",
    "SolveDiagnostics",
    "solve_dirichlet",
    "solve_dirichlet_many",
    "solve_obstacle",
    "barrier_threshold",
    "check_grid",
    "check_dense_arrays",
    "default_quadrature",
]


class OperatorHandle(FrozenRecord):
    """Which nonlocal operator a problem runs.

    * plain branch min/max: env set, frozen None, extremal_sign 0;
    * frozen slot at x0: frozen = (test function, x0);
    * extremal bound operator: extremal_sign = +1 or -1 (env unused).

    eps rescales the coefficient field: branch data is read at x / eps.
    """

    _fields = ("fam", "env", "eps", "frozen", "extremal_sign")

    def __init__(self, fam, env=None, eps=1.0, frozen=None, extremal_sign=0):
        self.__dict__.update(fam=fam, env=env, eps=eps, frozen=frozen,
                             extremal_sign=extremal_sign)

    def validate(self):
        self.fam.validate()
        if self.extremal_sign not in (-1, 0, 1):
            raise ConfigurationError("extremal_sign must be -1, 0, or +1")
        if self.extremal_sign == 0 and self.env is None:
            raise ConfigurationError("branch operators need an environment")
        if self.eps <= 0:
            raise ConfigurationError("eps must be positive")
        if self.env is not None and self.env.dim != self.fam.dim:
            raise ConfigurationError("environment and family dimensions differ")
        if self.extremal_sign != 0 and self.fam.kind == "cs" and self.fam.dim != 1:
            raise ConfigurationError("the pointwise extremal of the cs class is one-dimensional")
        return self


class DirichletProblem(FrozenRecord):
    """One solve: operator, domain, right-hand side, exterior data."""

    _fields = ("handle", "domain", "rhs", "exterior", "shape")

    def __init__(self, handle, domain, rhs, exterior, shape="cube"):
        # rhs: a float level or a per-node array; shape: "cube" | "ball"
        self.__dict__.update(handle=handle, domain=domain, rhs=rhs, exterior=exterior,
                             shape=shape)

    def validate(self):
        self.handle.validate()
        if self.shape not in ("cube", "ball"):
            raise ConfigurationError(f"unknown domain shape {self.shape!r}")
        if self.handle.env is not None:
            cell = self.handle.env.spec.cell
            if self.domain.h > self.handle.eps * cell / 4.0 + 1e-12:
                raise ConfigurationError(
                    f"grid spacing {self.domain.h} does not resolve environment "
                    f"cells at eps={self.handle.eps} (need h <= eps/4)"
                )
        return self


class SolveDiagnostics(Record):
    _fields = ("iterations", "residual", "wall_ms", "method")

    def __init__(self, iterations=0, residual=np.inf, wall_ms=0.0, method=""):
        self.iterations = iterations
        self.residual = residual
        self.wall_ms = wall_ms
        self.method = method


class ObstacleSolution(Record):
    _fields = ("u", "contact", "fraction", "diagnostics")

    def __init__(self, u, contact, fraction, diagnostics):
        self.u = u
        self.contact = contact
        self.fraction = fraction
        self.diagnostics = diagnostics


# Largest grid a lattice may have, (m + 2J)^dim points for m cells per axis
# and a table reaching J cells past each face, and largest sum of the dense
# arrays a solve, or the frozen problems of one extraction, hold at once, in
# bytes: the newton engine's G = inv(K), 8 m^2 bytes per grid, the policy
# engine's three moment maps, policy matrix and LAPACK's copy of it, 5 x 8 n^2
# bytes per grid of n active cells, or the pointwise "cs" extremal's two
# m x J moment buffers.  Fixed, not config keys.
MAX_GRID_POINTS = 2**22
MAX_DENSE_BYTES = 2**30
EXTERIOR_POINTS = 2**13  # most points one call of an exterior rule reads


def check_grid(box: Box, r_out_factor: float):
    """The radius of `box`'s `default_quadrature` table, or ConfigurationError
    if the grid, padded by the J cells the table reaches past each face, has
    more than MAX_GRID_POINTS points (a count past it reads inf).  Allocates nothing."""
    r_out = r_out_factor * (2.0 * box.half * math.sqrt(box.dim))
    m, J = (float(round(n)) if n <= MAX_GRID_POINTS else math.inf
            for n in (2.0 * box.half / box.h, r_out / box.h))
    padded = (m + 2.0 * J) ** box.dim
    if padded > MAX_GRID_POINTS:
        raise ConfigurationError(
            f"a grid of {m ** box.dim:.6g} nodes ({m:.6g} per axis) padded by J = {J:.6g} ghost "
            f"nodes past each face has {padded:.6g} points, more than MAX_GRID_POINTS = "
            f"{MAX_GRID_POINTS}; use a coarser grid or a smaller r_out_factor")
    return r_out


def _check_dense(nbytes, holds):
    """ConfigurationError, before allocation, if the arrays `holds` names pass MAX_DENSE_BYTES."""
    if nbytes > MAX_DENSE_BYTES:
        raise ConfigurationError(f"{holds}: {nbytes:.6g} bytes, more than MAX_DENSE_BYTES "
                                 f"= {MAX_DENSE_BYTES}; use a coarser grid")


def check_dense_arrays(problems):
    """`_check_dense` of the dense arrays that the solves of `problems`, one
    per grid, hold at once: the newton engine's G = inv(K), 8 m^2 bytes, and
    the policy engine's three moment maps, its policy matrix and LAPACK's
    copy of that, 5 x 8 n^2 bytes for n active cells.  Allocates nothing but
    the active mask of each 2d grid."""
    ms = [p.domain.m for p in problems if _engine(p) == "newton"]
    ns = [int(np.count_nonzero(_active_cells(p))) for p in problems if _engine(p) == "policy"]
    holds = []
    if ms:
        holds.append("1d solves hold the inverse of K, 8 m^2 bytes, for each grid, here "
                     f"m = {', '.join(f'{m:.6g}' for m in ms)}")
    if ns:
        holds.append("2d solves hold three moment maps, a policy matrix and its LAPACK copy, "
                     "5 x 8 n^2 bytes, for each grid of n active cells, here "
                     f"n = {', '.join(f'{n:.6g}' for n in ns)}")
    _check_dense(sum(8.0 * m * m for m in ms) + sum(40.0 * n * n for n in ns), "; ".join(holds))


def _engine(problem):
    """The engine a tolerance-driven solve of `problem` runs (see Engines):
    newton for 1d operators but the pointwise "cs" extremal, policy for 2d
    branch operators, sweeps for the extremal operators left."""
    handle, dim = problem.handle, problem.domain.dim
    if handle.extremal_sign and (dim == 2 or handle.fam.kind == "cs"):
        return "sweeps"
    return "newton" if dim == 1 else "policy"


def _active_cells(problem):
    """The active mask on `problem`'s grid: the whole cube, or the strict interior of the ball."""
    box = problem.domain
    if problem.shape != "ball":
        return np.ones((box.m,) * box.dim, dtype=bool)
    d2 = [(box.axis_nodes(a) - c) ** 2 for a, c in enumerate(box.center)]
    return (d2[0] if box.dim == 1 else d2[0][:, None] + d2[1]) < box.half**2


def default_quadrature(fam: KernelFamily, box: Box, r_out_factor: float = 8.0) -> QuadratureTable:
    """Table matched to a solve box: radius = factor x box diameter, from `check_grid`."""
    return build_quadrature(fam.dim, fam.sigma, box.h, check_grid(box, r_out_factor))


DAMPING = 0.8       # fraction of the pointwise Newton step a sweep takes
STALL_SWEEPS = 640  # sweeps in the stagnation window
MAX_SWEEPS = 200000  # sweeps before a solve gives up
MAX_STEPS = 60      # active-set steps, or policy solves, before a newton or policy solve gives up


class _Lattice:
    """One problem on its grid (see Lattices).

    A subclass sets `dim`, correlates in `_correlate`, evaluates F in
    `operator_values` and adds its engine.  This class takes the table's
    stencil as `kern`, reads the exterior data and adds the certified
    residual and the damped Jacobi sweeps.  `shared` is the dict of what the
    lattices of one batch compute once: each distinct exterior
    (`_read_exterior`) and each distinct frozen profile's moment.  The held
    system (see The held system) is set by `_lattices`.
    """

    K = G = L = None  # the held system, None for dense=False

    def __init__(self, problem: DirichletProblem, quad: QuadratureTable, fields, shared):
        box, handle = problem.domain, problem.handle
        if box.dim != self.dim:
            raise ConfigurationError(f"{type(self).__name__} is {self.dim}-dimensional")
        if quad.dim != self.dim or abs(quad.h - box.h) > 1e-15:
            raise ConfigurationError("quadrature table does not match the grid")
        self.problem = problem
        self.quad = quad
        self.m = box.m
        self.h = box.h
        self.J = quad.n_offsets
        self.active = _active_cells(problem)
        if not self.active.any():
            raise ConfigurationError("domain has no active cells")
        self.kern = quad.stencil
        # active values, zero-padded by q, only meet the central 2q+1 taps
        self.q = min(self.J, self.m - 1)
        taps = slice(self.J - self.q, self.J + self.q + 1)
        self.near_kern = self.kern[(Ellipsis,) + (taps,) * self.dim]
        if self.dim == 1 and self.engine == "sweeps":
            _check_dense(16.0 * self.m * self.J, "the pointwise cs extremal's moments hold "
                         f"two m x J buffers of 8 bytes an entry, m = {self.m}, J = {self.J}")
        self._read_exterior(shared)
        self.D0 = 2.0 * quad.w_total + 2.0 * quad.c_near / self.h**2 + 2.0 * quad.tail
        self.kind = "extremal" if handle.extremal_sign != 0 else "branch"
        self.is_matrix = handle.fam.kind == "a" and self.dim == 2
        shape = self.active.shape
        if self.kind == "branch":
            branches = (handle.env.spec.n_alpha, handle.env.spec.n_beta)
            coeff, forc = fields
            coeff = coeff.reshape(branches + shape + ((2, 2) if self.is_matrix else ()))
            self.forc = forc.reshape(branches + shape)
            if handle.frozen is not None:
                phi, x0 = handle.frozen
                x0 = np.atleast_1d(x0)
                key = id(phi), x0.tobytes()  # a profile object, alive for the batch
                if key not in shared:
                    shared[key] = unit_moment(phi, x0, quad)
                frozen_moment = shared[key]
            else:
                frozen_moment = np.zeros((self.dim, self.dim))
            # sweep diagonal dominates every branch slope, not just the
            # active one; this keeps the damped update monotone in each
            # coordinate, which the exact comparison tests require
            if self.is_matrix:
                self.A, self.frozen_moment = coeff, frozen_moment
                # directional slope bounds, from the 2d table's sums
                sxx, syy, _ = quad.sums
                dxx = 2.0 * sxx + quad.c_near / self.h**2 + quad.tail
                dyy = 2.0 * syy + quad.c_near / self.h**2 + quad.tail
                bound = (coeff[..., 0, 0] * dxx + coeff[..., 1, 1] * dyy
                         + 4.0 * np.abs(coeff[..., 0, 1]) * quad.abs_kxy)
                self.diag = bound.max(axis=(0, 1))
            else:
                # the scalar classes pair the multiplier with the trace of the moment
                self.mult = coeff
                self.frozen_moment = float(np.trace(np.atleast_2d(frozen_moment)))
                self.diag = self.mult.max(axis=(0, 1)) * self.D0
        else:
            lam, lam_big = handle.fam.lam, handle.fam.lam_big
            # slopes of the extremal operator in positive / negative moments
            self.up, self.down = (lam_big, lam) if handle.extremal_sign > 0 else (lam, lam_big)
            self.diag = np.full(shape, lam_big * self.D0)
        self.rhs = self._rhs_grid(problem.rhs)

    def _rhs_grid(self, rhs):
        if np.ndim(rhs) == 0:
            return np.full(self.active.shape, float(rhs))
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.size != self.active.size:
            raise ConfigurationError("rhs grid must match the domain grid")
        return rhs.reshape(self.active.shape)

    engine = property(lambda self: _engine(self.problem))

    def at_level(self, problem):
        """This lattice for `problem`, its own problem at another right-hand
        side; every other (read-only) array is shared."""
        lat = copy.copy(self)
        lat.problem = problem
        lat.rhs = self._rhs_grid(problem.rhs)
        return lat

    def _read_exterior(self, shared):
        """`fixed`, the exterior data on the grid and J ghost nodes past each
        face with the active cells zeroed, its correlation `fixed_corr` and
        the load `e` (`load()`).

        `shared` is the batch's dict, keyed here by (exterior values, box,
        shape), the values being a constant rule's value or any other rule's
        function object: a lattice whose key is held takes that (fixed,
        fixed_corr, e), so each distinct exterior is evaluated, correlated
        and loaded once a batch.  Otherwise the rule is evaluated on blocks
        of consecutive ghost rows, at most EXTERIOR_POINTS points (or one
        row) a block, into `fixed`, so no point list of the whole padded
        grid is built.
        """
        box, exterior = self.problem.domain, self.problem.exterior
        self.far = exterior.far
        fn = exterior.fn
        key = (fn if isinstance(fn, _Constant) else id(fn),
               tuple(box.center), box.half, box.h, self.problem.shape)
        if key in shared:
            self.fixed, self.fixed_corr, self.e = shared[key]
            return
        ghost = [c - box.half + (np.arange(-self.J, self.m + self.J) + 0.5) * self.h
                 for c in box.center]
        fixed = np.empty(tuple(g.size for g in ghost))
        rows = fixed.reshape(-1, ghost[-1].size)  # a view: one row in 1d
        block = max(1, EXTERIOR_POINTS // rows.shape[1])
        for a in range(0, rows.shape[0], block):
            pts = np.empty(rows[a:a + block].shape + (self.dim,))
            pts[..., -1] = ghost[-1]
            if self.dim == 2:
                pts[..., 0] = ghost[0][a:a + block, None]
            rows[a:a + block] = exterior.fn(pts.reshape(-1, self.dim)).reshape(len(pts), -1)
        fixed[(slice(self.J, self.J + self.m),) * self.dim][self.active] = 0.0
        self.fixed, self.fixed_corr = fixed, self._correlate(fixed, self.kern)
        self.e = self.load()
        shared[key] = self.fixed, self.fixed_corr, self.e

    def _near_corr(self, u):
        """Correlation of the active values of u with the central taps;
        with `fixed_corr`, the correlation of the whole padded grid."""
        buf = np.zeros(tuple(n + 2 * self.q for n in self.active.shape))
        buf[(slice(self.q, self.q + self.m),) * self.dim] = np.where(self.active, u, 0.0)
        return self._correlate(buf, self.near_kern)

    def padded(self, vals, layers):
        """A new array of vals on the active cells and the exterior data
        elsewhere, on the grid padded by `layers` (at most J) ghost nodes."""
        grid = self.fixed[(slice(self.J - layers, self.J + self.m + layers),) * self.dim].copy()
        grid[(slice(layers, layers + self.m),) * self.dim][self.active] = vals[self.active]
        return grid

    def branch_infsup(self, slot):
        """Inf over alpha of the sup over beta of forcing + slot, at every node."""
        branch = self.forc + slot
        inner = branch.max(axis=1)  # sup over beta
        return inner.min(axis=0)  # inf over alpha

    def residual(self, vals, obstacle):
        return self._residual_of(self.operator_values(vals)[0], vals, obstacle)

    def _residual_of(self, F, vals, obstacle):
        """The certified residual of vals, F its `operator_values`."""
        r = F - self.rhs
        if obstacle:
            r = np.maximum(r, -vals)
        return float(np.max(np.abs(r)[self.active]))

    def sweep_solve(self, obstacle, tol, fixed_sweeps=None):
        """Returns (vals, sweeps, residuals); the last residual is the final one.

        The sweeps start from zero.  Each reads the residual of the values
        from the evaluation of F that moves them.  With fixed_sweeps = n,
        exactly n sweeps run, whatever the residuals (see Engines: no solve
        asks for this).  Otherwise the solve stops at the first values
        within tol, after MAX_SWEEPS sweeps, or once the best of the last
        STALL_SWEEPS residuals, the ones kept, is not 1% below the best
        before them.
        """
        vals = np.zeros(self.active.shape)
        sweeps = fixed_sweeps if fixed_sweeps is not None else MAX_SWEEPS
        trail = deque(maxlen=STALL_SWEEPS)
        best_before = np.inf
        for it in range(sweeps + 1):
            F, diag = self.operator_values(vals)
            if len(trail) == STALL_SWEEPS:
                best_before = min(best_before, trail[0])
            trail.append(self._residual_of(F, vals, obstacle))
            if it == sweeps or fixed_sweeps is None and (
                    trail[-1] <= tol or min(trail) >= 0.99 * best_before):
                break
            new = vals + DAMPING * (F - self.rhs) / diag
            np.copyto(vals, np.maximum(new, 0.0) if obstacle else new, where=self.active)
        return vals, it, list(trail)


class _Lattice1D(_Lattice):
    """1d lattice: one symmetric correlation stencil, and the linear engine."""

    dim = 1

    @staticmethod
    def _correlate(a, kern):
        return np.correlate(a, kern, mode="valid")

    # -- residual pieces ------------------------------------------------

    def unit_moments(self, grid):
        """Unit-multiplier moment at every node of `padded(vals, 1)`."""
        u = grid[1:-1]
        corr = self.fixed_corr + self._near_corr(u)
        near = grid[2:] + grid[:-2] - 2.0 * u
        I = 2.0 * (corr - self.quad.w_total * u)
        I += self.quad.c_near * near / self.h**2
        I += self.quad.tail * (2.0 * self.far - 2.0 * u)
        return I

    def split_moments(self, grid):
        """Positive/negative envelope moments of `padded(vals, J)` (the pointwise extremal)."""
        u = grid[self.J:-self.J]
        win = sliding_window_view(grid, 2 * self.J + 1)  # row i: offsets around node i
        deltas = win[:, self.J + 1:] + win[:, self.J - 1::-1]
        deltas -= 2.0 * u[:, None]
        dn = deltas[:, 0] / self.h**2
        # one m x J buffer for both envelope parts
        part = np.maximum(deltas, 0.0)
        wpos = (part @ self.quad.w) * 2.0
        np.negative(deltas, out=deltas)
        np.maximum(deltas, 0.0, out=part)
        wneg = (part @ self.quad.w) * 2.0
        df = 2.0 * self.far - 2.0 * u
        pos = wpos + self.quad.c_near * np.maximum(dn, 0.0) + self.quad.tail * np.maximum(df, 0.0)
        neg = wneg + self.quad.c_near * np.maximum(-dn, 0.0) + self.quad.tail * np.maximum(-df, 0.0)
        return pos, neg

    def operator_values(self, vals):
        """F at every node, with the dominating diagonal slope field."""
        if self.engine == "sweeps":
            pos, neg = self.split_moments(self.padded(vals, self.J))
            return self.up * pos - self.down * neg, self.diag
        return self.infsup(self.unit_moments(self.padded(vals, 1))), self.diag

    def infsup(self, I):
        """F as a function of the unit moment I (all but the pointwise extremal)."""
        if self.kind == "extremal":
            return np.where(I > 0, self.up * I, self.down * I)
        return self.branch_infsup(self.mult * (self.frozen_moment + I)[None, None, :])

    def threshold(self):
        """Moment level t with F = rhs exactly where I = t.

        Every slot is strictly increasing and linear in I, so the inf-sup
        is too, and F - rhs has the sign of I - t.
        """
        if self.kind == "extremal":
            return np.where(self.rhs > 0, self.rhs / self.up, self.rhs / self.down)
        # rhs == F(0) gives t == 0 exactly
        return ((self.rhs - (self.forc + self.mult * self.frozen_moment)) / self.mult
                ).min(axis=1).max(axis=0)

    def column(self):
        """First column of K, the matrix of the moment as an affine map of the
        grid values, I(u) = e - K u.

        K = D0 Id - T, with T the nonnegative Toeplitz coupling, is a
        strictly diagonally dominant M-matrix on all m cells (in 1d every
        cell is active), and symmetric Toeplitz, so this column is all of
        it.  It depends on the table and the grid only, so every problem
        sharing those shares K.
        """
        col = np.zeros(self.m + 1)
        J = min(self.J, self.m - 1)
        col[0] = self.D0
        col[1:J + 1] = -2.0 * self.quad.w[:J]
        col[1] -= self.quad.c_near / self.h**2
        return col[:self.m]  # a single cell has no neighbour on the grid

    def matrix(self):
        """K of `column()` as a read-only m x m view over its 2m - 1 distinct
        values; the solves copy only the rows and blocks they gather from it.
        `_lattices` builds it once a batch, which its lattices hold."""
        col = self.column()
        # row i is col[|i - j|] over j
        return sliding_window_view(np.concatenate((col[::-1], col[1:])), self.m)[::-1]

    def load(self):
        """e of I(u) = e - K u, which is I(0): the moment of the exterior data alone."""
        return self.unit_moments(self.padded(np.zeros(self.m), 1))

    def newton_solve(self, obstacle, init=None):
        """Returns (vals, steps, residuals) of the newton engine, on the held K and G.

        Without the obstacle: K u = e - t, the one step on an empty contact
        set, u = G (e - t).  With it: K u >= e - t, u >= 0, complementary,
        by the primal-dual active set.  The first contact set is the zeros
        of `init`, or empty without it; each step solves on the free set
        and writes exact zeros on the contact set, until the set repeats or
        MAX_STEPS steps have run.  K is an M-matrix, so the method converges
        from any first set.  A free cell leaves the free set when its value
        turns negative; a contact cell leaves the contact set when (K u - b)
        is positive there, which needs K u on the contact rows only:
        `K[C] @ u`, or, when contact is the majority, `(u[F] @ K[F])[C]`,
        equal to it in exact arithmetic since u is zero on C and K is
        symmetric.  So the test gathers at most half of K's rows.
        """
        if self.engine != "newton":
            raise ConfigurationError("the pointwise extremal has no dense linearization")
        K, G = self.K, self.G
        b = self.e - self.threshold()
        contact = np.zeros(b.size, dtype=bool) if init is None else np.asarray(init) == 0.0
        u = _free_solve(K, b, contact, G)
        steps = 1
        while obstacle and steps < MAX_STEPS:
            new = u < 0.0
            C = np.flatnonzero(contact)
            if 2 * C.size <= b.size:
                Ku = K[C] @ u
            else:
                F = np.flatnonzero(~contact)
                Ku = (u[F] @ K[F])[C]
            new[C] = Ku - b[C] > 0.0
            if not (new != contact).any():
                break
            contact = new
            u = _free_solve(K, b, contact, G)
            steps += 1
        return u, steps, [self.residual(u, obstacle)]


def _toeplitz_inverse(col):
    """G = inv(K), K the symmetric positive-definite Toeplitz matrix whose
    first column is col, in O(m^2) flops and no m x m array but G.

    Trench's algorithm (Trench, J. SIAM 12, 1964; Golub & Van Loan, Matrix
    Computations, Alg. 4.7.3).  Durbin's recursion (Alg. 4.7.1) on K /
    col[0], whose first column is (1, r), solves the Yule-Walker systems
    T_k y = -r[:k] of orders k = 1, ..., m - 1 in turn, each extending the
    last by one entry; its reductions sum in numpy's own loop, not BLAS.
    It ends at y of order m - 1 and beta = 1 + r y, so G's first column is
    g = (1, y) / (beta col[0]).  With h_i = g_{m-i} (h_0 = 0) every other
    entry follows from the one up and to the left,
    G[i, j] = G[i-1, j-1] + (g_i g_j - h_i h_j) / g_0.
    G is filled layer by layer from the outside in: layer i computes row i
    on columns i..m-1-i from layer i-1, and copies it to column i and,
    reversed, to row and column m-1-i.  Every entry is written from one
    computed value, so G == G.T and G == G[::-1, ::-1] bitwise.
    """
    m = col.size
    g = np.zeros(m + 1)  # g[m] = 0 pads the reversal below
    g[0] = 1.0
    if m > 1:
        r, y = col[1:] / col[0], g[1:m]  # y, a view, grows in place
        y[0] = alpha = -r[0]
        beta = 1.0 - alpha * alpha
        for k in range(1, m - 1):
            alpha = -(r[k] + (y[k - 1::-1] * r[:k]).sum()) / beta
            y[:k] += alpha * y[k - 1::-1]
            y[k] = alpha
            beta *= 1.0 - alpha * alpha
        g[:m] /= beta
    g /= col[0]
    h = g[::-1]
    gs, hs = g / g[0], h / g[0]
    G = np.empty((m, m))
    for i in range((m + 1) // 2):
        j = m - i
        row = G[i, i:j]
        np.multiply(g[i:j], gs[i], out=row)
        row -= hs[i] * h[i:j]
        if i:
            row += G[i - 1, i - 1:j - 1]
        G[i + 1:j, i] = row[1:]
        G[j - 1, i:j] = row[::-1]
        G[i:j - 1, j - 1] = G[j - 1, i:j - 1]
    return G


def _free_solve(K, b, contact, G):
    """Solution of K u = b on the free rows F, with exact zeros on the contact set C.

    G = inv(K).  With |C| < |F| this is a Schur step (Hager, SIAM Rev.
    1989): with b zeroed on C, x = G b solves K x = b + r for r = 0, and
    u = x - G[:, C] z, with G[C, C] z = x[C], is zero on C and changes K x
    only on the rows of C, so K u = b on F.  G is exactly symmetric
    (`_toeplitz_inverse`), so G[:, C] z is z G[C], on contiguous rows.  It
    costs one matvec and a |C| x |C| solve (none on an empty C); otherwise
    K[F, F] is gathered from K, the view of `matrix()`, and solved.  So no
    dense solve has more than m/2 rows.
    """
    C = np.flatnonzero(contact)
    if 2 * C.size < b.size:
        u = G @ np.where(contact, 0.0, b)
        if C.size:
            # the contact block is solved before G[C] is gathered, so the
            # two copies are never held at once
            z = np.linalg.solve(G[C[:, None], C], u[C])
            u -= z @ G[C]
            u[C] = 0.0
        return u
    u = np.zeros(b.size)
    F = np.flatnonzero(~contact)
    if F.size:
        u[F] = np.linalg.solve(K[F[:, None], F], b[F])
    return u


class _Lattice2D(_Lattice):
    """2d lattice: three directional stencils, and the policy engine (desk scale, small grids)."""

    dim = 2

    @staticmethod
    def _correlate(a, kern):
        """Valid-mode correlation of a 2d array with each stencil of kern[k]."""
        return np.einsum("ijab,kab->kij", sliding_window_view(a, kern.shape[1:]), kern)

    def moments(self, grid):
        """The (2, 2) moment field at every node of `padded(vals, 1)`."""
        u = grid[1:-1, 1:-1]
        cxx, cyy, cxy = self.fixed_corr + self._near_corr(u)
        sxx, syy, sxy = self.quad.sums
        nx = grid[2:, 1:-1] + grid[:-2, 1:-1] - 2 * u
        ny = grid[1:-1, 2:] + grid[1:-1, :-2] - 2 * u
        tailterm = self.quad.tail * (2.0 * self.far - 2.0 * u)
        Bxx = 2.0 * (cxx - sxx * u) + 0.5 * self.quad.c_near * nx / self.h**2 + 0.5 * tailterm
        Byy = 2.0 * (cyy - syy * u) + 0.5 * self.quad.c_near * ny / self.h**2 + 0.5 * tailterm
        Bxy = 2.0 * (cxy - sxy * u)
        return Bxx, Byy, Bxy

    def operator_values(self, vals):
        Bxx, Byy, Bxy = self.moments(self.padded(vals, 1))
        if self.kind == "extremal":
            # eigenvalues of the symmetric 2x2 moment field
            tr = Bxx + Byy
            disc = np.sqrt(np.maximum((Bxx - Byy) ** 2 + 4 * Bxy**2, 0.0))
            mu1 = 0.5 * (tr + disc)
            mu2 = 0.5 * (tr - disc)
            fam, sign = self.problem.handle.fam, self.problem.handle.extremal_sign
            if sign < 0:
                mu1, mu2 = -mu2, -mu1
            pos = np.maximum(mu1, 0) + np.maximum(mu2, 0)
            F = np.where(mu1 > 0, fam.lam_big * pos, fam.lam * mu1)
            if sign < 0:
                F = -F
            return F, self.diag
        return self.branch_infsup(self._slots((Bxx, Byy, Bxy), self.coeff)), self.diag

    coeff = property(lambda self: self.A if self.is_matrix else self.mult)

    def _slots(self, B, coeff):
        """Every branch's slot at the moments B = (Bxx, Byy, Bxy), coeff the
        branches' coefficients (`coeff`) on the same cells."""
        Bxx, Byy, Bxy = B
        fro = self.frozen_moment
        if self.is_matrix:
            return (coeff[..., 0, 0] * (Bxx + fro[0, 0]) + coeff[..., 1, 1] * (Byy + fro[1, 1])
                    + 2.0 * coeff[..., 0, 1] * (Bxy + fro[0, 1]))
        return coeff * (Bxx + Byy + fro)

    # -- the policy engine ------------------------------------------------

    def moment_maps(self):
        """L, the (3, n, n) linear part of the moment field on the n active
        cells, in `active` order: B(u) = B(0) + L u for xx, yy and xy (`moments`).

        It is gathered from the table, with no evaluation: entry (r, s) of
        L[k] is twice stencil k's central tap at the offset from cell r to
        cell s, zero past the q cells the taps reach, plus c_near / (2 h^2)
        where s is r's neighbour along the axis of xx or yy.  The diagonal
        adds -2 sxx - c_near / h^2 - tail (xx), the same with syy (yy) and
        -2 sxy (xy).  L depends on the table, the grid and the mask only.
        """
        m, q = self.m, self.q
        ai, aj = np.nonzero(self.active)
        n = ai.size
        taps = np.zeros((3, 2 * m - 1, 2 * m - 1))
        taps[:, m - 1 - q:m + q, m - 1 - q:m + q] = 2.0 * self.near_kern
        # win[k, a, b, c, d] = taps[k, a + c, b + d], so L[k, r, s] reads taps[k]
        # at (m - 1 + ai[s] - ai[r], m - 1 + aj[s] - aj[r])
        win = sliding_window_view(taps, (m, m), axis=(1, 2))
        L = win[:, (m - 1 - ai)[:, None], (m - 1 - aj)[:, None], ai, aj]
        index = np.full(self.active.shape, -1)
        index[self.active] = np.arange(n)
        near = 0.5 * self.quad.c_near / self.h**2
        for k in (0, 1):
            for step in (-1, 1):
                nbr = [ai, aj]
                nbr[k] = nbr[k] + step
                rows = np.flatnonzero((nbr[k] >= 0) & (nbr[k] < m))
                cols = index[nbr[0][rows], nbr[1][rows]]
                L[k, rows[cols >= 0], cols[cols >= 0]] += near
        cells = np.arange(n)
        sxx, syy, sxy = self.quad.sums
        L[0, cells, cells] -= 2.0 * sxx + 2.0 * near + self.quad.tail
        L[1, cells, cells] -= 2.0 * syy + 2.0 * near + self.quad.tail
        L[2, cells, cells] -= 2.0 * sxy
        return L

    def load(self):
        """e = B(0) on the active cells, (3, n): the moments of the exterior data alone."""
        return np.stack(self.moments(self.padded(np.zeros(self.active.shape), 1)))[:, self.active]

    def _weights(self):
        """W, (na, nb, K, n): branch (a, b) is linear in the moments with the
        slope W[a, b, k] in B_k on the active cells, k over xx, yy, xy for
        the matrix class and over xx, yy for the scalar class, whose slot
        reads the trace."""
        coeff = self.coeff[:, :, self.active]
        if self.is_matrix:
            return np.stack((coeff[..., 0, 0], coeff[..., 1, 1], 2.0 * coeff[..., 0, 1]), axis=2)
        return np.stack((coeff, coeff), axis=2)

    def premise(self, L):
        """mu, the least margin of strict diagonal dominance -(M_ab 1) over the
        active cells and the branches, M_ab = sum_k diag(W[a, b, k]) L[k] the
        matrix of branch (a, b) on the maps L; or ConfigurationError, naming
        the branch, if an off-centre entry of some M_ab is negative or one of
        its rows is not strictly diagonally dominant.  The policy engine
        relies on both (see Engines)."""
        W = self._weights()
        K = W.shape[2]
        rows = L[:K].sum(axis=2)  # L_k 1 over the active cells
        cells = np.arange(rows.shape[1])
        mu = np.inf
        for a, b in np.ndindex(W.shape[:2]):
            M = _policy_matrix(L, W[a, b])
            M[cells, cells] = 0.0
            low = float(M.min())
            del M  # freed before the next branch's matrix is built
            where = f"branch (alpha={a}, beta={b}) of the 2d {self.problem.handle.fam.kind!r} class"
            if low < 0.0:
                raise ConfigurationError(
                    f"{where} has an off-centre weight {low:.6g} < 0: its coefficient field is "
                    "not positive semi-definite, and the policy engine needs an M-matrix")
            margin = float(np.min(-(W[a, b] * rows).sum(axis=0)))
            if not margin > 0.0:
                raise ConfigurationError(
                    f"{where} has a row that is not strictly diagonally dominant (margin "
                    f"{margin:.6g}), and the policy engine needs an M-matrix")
            mu = min(mu, margin)
        return mu

    def policy_solve(self, obstacle):
        """Returns (vals, solves, residuals) of the policy engine (see Engines),
        on the held maps L and the load e.

        With X[a, b] = F_ab(u) - rhs,
        affine in u through the maps, the first policy is the greedy one at
        u = 0.  Each step solves its policy on the free cells, with exact
        zeros on contact, and then changes a cell's beta (or its contact)
        where another option of its alpha is strictly larger, ties going to
        contact; once none is, it changes a cell's alpha where another alpha's
        sup over beta (and -u) is strictly smaller, and starts that cell from
        the greedy beta of its new alpha.  The solve stops when neither
        changes, or after MAX_STEPS policy solves.  The residuals are those
        of X at each policy's values, and last the certified residual of the
        values returned.
        """
        W = self._weights()
        L = self.L[:W.shape[2]]
        # X at u = 0 has the bits of `operator_values` at zero, less rhs
        X0 = (self.forc[:, :, self.active] + self._slots(self.e, self.coeff[:, :, self.active])
              - self.rhs[self.active])
        n = X0.shape[-1]
        cells = np.arange(n)

        def branches(u):
            """X at u, and each alpha's value, the max over beta and, for an obstacle, -u."""
            X = X0.copy()
            for Wk, Lu in zip(np.moveaxis(W, 2, 0), L @ u):
                X += Wk * Lu
            V = X.max(axis=1)
            return X, np.maximum(V, -u) if obstacle else V

        def greedy(X, u, alpha):
            """Each cell's best option under alpha: its best beta, the option's
            value, and whether the option is contact, which wins ties."""
            Xa = X[alpha, :, cells]
            beta = Xa.argmax(axis=1)
            best = Xa[cells, beta]
            if not obstacle:
                return beta, best, np.zeros(n, dtype=bool)
            return beta, np.maximum(best, -u), -u >= best

        def policy_values(alpha, beta, contact):
            u = np.zeros(n)
            free = np.flatnonzero(~contact)
            if free.size:
                M = _policy_matrix(L, W[alpha, beta, :, cells].T)
                if free.size < n:
                    M = M[np.ix_(free, free)]
                u[free] = np.linalg.solve(M, -X0[alpha, beta, cells][free])
            return u

        u = np.zeros(n)
        X, V = branches(u)
        alpha = V.argmin(axis=0)
        beta, _, contact = greedy(X, u, alpha)
        solves, trail = 0, []
        while True:
            u = policy_values(alpha, beta, contact)
            solves += 1
            X, V = branches(u)
            trail.append(float(np.max(np.abs(V.min(axis=0)))))
            if solves == MAX_STEPS:
                break
            best_beta, best, to_contact = greedy(X, u, alpha)
            switch = best > np.where(contact, -u, X[alpha, beta, cells])
            if switch.any():
                beta = np.where(switch & ~to_contact, best_beta, beta)
                contact = np.where(switch, to_contact, contact)
                continue
            best_alpha = V.argmin(axis=0)
            switch = V[best_alpha, cells] < V[alpha, cells]
            if not switch.any():
                break
            alpha = np.where(switch, best_alpha, alpha)
            best_beta, _, to_contact = greedy(X, u, alpha)
            beta = np.where(switch, best_beta, beta)
            contact = np.where(switch, to_contact, contact)
        vals = np.zeros(self.active.shape)
        vals[self.active] = u
        trail.append(self.residual(vals, obstacle))
        return vals, solves, trail


def _policy_matrix(L, w):
    """sum over k of diag(w[k]) L[k], a product and a sum of whole arrays at a
    time, so that equal maps and weights give equal bits wherever they sit."""
    M = np.multiply(L[0], w[0][:, None])
    part = np.empty_like(M)
    for Lk, wk in zip(L[1:], w[1:]):
        M += np.multiply(Lk, wk[:, None], out=part)
    return M


def _read_fields(problems):
    """(coefficients, forcing) of each branch problem, None for the others,
    at its grid's nodes / eps for every branch: one call of each field
    function per environment spec and class, for all its problems."""
    fields = [None] * len(problems)
    groups = {}
    for i, problem in enumerate(problems):
        handle = problem.handle
        if handle.extremal_sign == 0:
            groups.setdefault((handle.env.spec, handle.fam.kind), []).append(i)
    for (spec, kind), batch in groups.items():
        envs = [problems[i].handle.env for i in batch]
        points = [problems[i].domain.nodes() / problems[i].handle.eps for i in batch]
        alpha, beta = np.indices((spec.n_alpha, spec.n_beta))
        coeff = matrix_field if kind == "a" and spec.dim == 2 else multiplier_field
        for i, *pair in zip(batch, coeff(envs, alpha, beta, points),
                            forcing_field(envs, alpha, beta, points)):
            fields[i] = pair
    return fields


def _lattices(problems, quad: QuadratureTable | None = None, dense=True):
    """Lattices of a batch of problems on one table (the first problem's
    default when None) and one grid and active mask, or ConfigurationError.

    The batch reads its environment fields once (`_read_fields`), and each
    distinct exterior and frozen profile once (`_Lattice`).  With `dense`
    it builds the held system (see The held system) from its first lattice
    off the sweep engine, after `check_dense_arrays` of that problem and
    before any other lattice reads it, and hands it to every lattice; in 2d
    each lattice's branches pass `premise` on the maps.  Without `dense` it
    checks and builds no K, G or L.
    """
    problems = list(problems)
    for problem in problems:
        problem.validate()
    linear = [p for p in problems if _engine(p) != "sweeps"][:1] if dense else []
    check_dense_arrays(linear)  # one grid: one G, or one set of maps
    if quad is None:
        quad = default_quadrature(problems[0].handle.fam, problems[0].domain)
    shared = {}
    lats = [(_Lattice1D if problem.domain.dim == 1 else _Lattice2D)(problem, quad, fields, shared)
            for problem, fields in zip(problems, _read_fields(problems))]
    first = lats[0]
    if any(lat.m != first.m or lat.h != first.h or not np.array_equal(lat.active, first.active)
           for lat in lats):
        raise ConfigurationError("the problems of a batch must share the grid and the active mask")
    held = [lat for lat in lats if lat.engine != "sweeps"] if linear else []
    if held and first.dim == 1:
        K = held[0].matrix()
        G = _toeplitz_inverse(K[0])
        for lat in held:
            lat.K, lat.G = K, G
    elif held:
        L = held[0].moment_maps()
        for lat in held:
            lat.premise(L)
            lat.L = L
    return lats


def _result(lat, obstacle, method, out, tol, wall_ms=0.0):
    """(vals, diagnostics), or the ObstacleSolution, of an engine's (vals,
    iterations, residuals), the values certified by the last residual, or
    SolverError if that residual is above tol.  The n sweeps that the sweep
    engine runs on its own (`sweep_solve` with fixed_sweeps) are values no
    tolerance certified, not a result, and no solve hands them here.
    """
    vals, its, trail = out
    res = trail[-1]
    diag = SolveDiagnostics(iterations=its, residual=res, wall_ms=wall_ms, method=method)
    if not res <= tol:
        recent = ", ".join(f"{r:.3e}" for r in trail[-4:])
        raise SolverError(
            f"{method} solver did not reach tol={tol} (residual {res:.3e} after "
            f"{its} iterations; last residuals checked: {recent})",
            residual=res, iterations=its,
        )
    if not obstacle:
        return vals, diag
    contact = lat.active & (vals == 0.0)
    fraction = float(np.count_nonzero(contact)) / float(np.count_nonzero(lat.active))
    return ObstacleSolution(u=vals, contact=contact, fraction=fraction, diagnostics=diag)


def _solve(lat, obstacle, tol, t0, init=None):
    """`_result` of the engine `lat` picks, with wall_ms counted from the perf_counter time t0."""
    engine = lat.engine
    if engine == "newton":
        out = lat.newton_solve(obstacle, init)
    elif engine == "policy":
        out = lat.policy_solve(obstacle)
    else:
        out = lat.sweep_solve(obstacle, tol)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return _result(lat, obstacle, engine, out, tol, wall_ms)


def solve_dirichlet(problem: DirichletProblem, tol: float = 1e-6,
                    quad: QuadratureTable | None = None):
    """Solve F(u) = rhs in the domain with exterior data outside.

    Returns (values, SolveDiagnostics), values the array of shape (m,) * dim
    on the grid.  Raises SolverError if the target residual is not reached.
    This is `solve_dirichlet_many` of one problem.
    """
    return solve_dirichlet_many([problem], tol, quad)[0]


def solve_dirichlet_many(problems, tol: float = 1e-6, quad: QuadratureTable | None = None):
    """`solve_dirichlet` of each problem, as one batch (`_lattices`) on one
    grid and active mask, on the one table `quad` (the first problem's
    default when None), or ConfigurationError.

    The lattices hold the batch's one system, so in 1d each problem is its
    own matvec with the one G, and in 2d its own policy solve on the one
    set of maps; equal problems get equal bits wherever they sit in the
    batch.  Each is certified with its own lattice's residual; one that
    misses tol raises SolverError.  A problem's wall_ms is its own solve
    plus 1/n of the batch's build.
    """
    problems = list(problems)
    if not problems:
        return []
    t0 = time.perf_counter()
    lats = _lattices(problems, quad)
    share = (time.perf_counter() - t0) / len(lats)
    return [_solve(lat, False, tol, time.perf_counter() - share) for lat in lats]


def solve_obstacle(problem: DirichletProblem, tol: float = 1e-6,
                   quad: QuadratureTable | None = None, init=None,
                   lattice=None) -> ObstacleSolution:
    """Least nonnegative supersolution: max(F(U) - rhs, -U) = 0.

    Every projection writes exact zeros, so the contact mask is literally
    {U == 0} on active cells and contact counts are integers.  `init`,
    when given, seeds the newton engine's first contact set (its zeros)
    and changes nothing else; the policy engine and the sweeps ignore it
    and start from zero.  `lattice` (of this problem at any level, with
    its held system) skips rebuilding when the level is all that changed;
    without it the solve builds a batch of one.  wall_ms includes building
    the lattice, or re-leveling it.
    """
    t0 = time.perf_counter()
    if lattice is None:
        lat, = _lattices([problem], quad)
    else:
        lat = lattice.at_level(problem)
    return _solve(lat, True, tol, t0, init)


def barrier_threshold(lattice) -> tuple:
    """(min, max) over the active cells of F(0), 0 the zero function on the
    active cells with the lattice's own exterior data, from one evaluation:
    below the min contact is empty, and at or above the max it is total.

    At a contact cell x of the least supersolution U >= 0 the off-center
    weights are nonnegative and the exterior terms cancel, so the moment
    of U at x is at least that of 0, and F increases with the moment:
    F(0)(x) <= F(U)(x) <= rhs.  At or above the max, the zero function
    itself satisfies the level.  `lattice` is a lattice at any level.  In
    1d with zero exterior data the comparison is exact in floating point:
    every term of the moment at x is a sum of nonnegative products.
    Elsewhere it holds up to the rounding of those sums, which the
    bracket's margin (`homog._bracket`) covers.
    """
    F, _ = lattice.operator_values(np.zeros(lattice.active.shape))
    F = F[lattice.active]
    return float(np.min(F)), float(np.max(F))
