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
with the central taps.  Every lattice reads its table's stencil; those of
one `shared` list (a Dirichlet batch, or the frozen problems of one eps)
share one padded array and correlation per bitwise-distinct array.  Each
dimension keeps its correlation and its moment formula: in 1d one
symmetric stencil, giving the unit moment (and, for the pointwise extremal
of the "cs" class, the positive and negative moments); in 2d three
directional stencils, giving the symmetric (2, 2) moment field.  The
pointwise "cs" extremal is 1d only; a 2d one is refused.

Engines
-------
The problem picks the engine; there is no way to override it.

newton   1d linear engine, for every 1d operator but the pointwise extremal
         of the "cs" class.  Every branch slot is increasing and linear in
         the unit moment I(u) = e - K u, with K a fixed M-matrix, so
         F(u) = rhs exactly where I(u) equals a pointwise threshold t.  A
         1d ball, like a cube, activates every cell, so K acts on the whole
         grid and depends on the table and the grid only.  K is symmetric
         positive-definite Toeplitz, so the Dirichlet problems on one grid
         (`solve_dirichlet_many`) are the right-hand sides of one Levinson
         solve of K u_i = e_i - t_i on K's first column, in O(m n) memory
         and with no m x m matrix; a single problem is a batch of one.
         An obstacle solve is the complementarity problem K u >= e - t,
         u >= 0, solved by the primal-dual active-set method with exact
         zeros on contact.  K is a read-only view over its 2m - 1
         distinct values; a step copies only the rows and the block it
         gathers from it.  Every obstacle solve holds G = inv(K), built by
         Trench's O(m^2) recurrence and exactly symmetric: on a contact set
         C smaller than the free set F, a step is one matvec with G and a
         |C| x |C| solve on G[C, C] (a Schur step); otherwise it is one
         dense solve on K[F, F].  So no step factors more than m/2 rows.
         An obstacle solve's `init`, when given, only seeds the first
         contact set (its zeros); the final set, and so the solution, does
         not depend on it.  At most MAX_STEPS steps run.  There is no
         fallback: a solve that misses the tolerance raises.  Every
         residual, each column of a batch's included, is certified with
         the sweep engine's evaluation.
sweeps   damped projected point relaxation (red-black ordering), for 2d
         operators, the pointwise "cs" extremal and every `fixed_sweeps`
         solve.  Each update moves one value toward the root of its scalar
         residual with all other values frozen, clamping at the obstacle.
         The update map is monotone even in floating point (direct
         summation, nonnegative weights, fixed order), which several exact
         ordering tests rely on.  Sweeps start from zero in every solve;
         an obstacle solve's `init` does not reach them.  A solve whose
         residual stagnates stops early and raises.

Repeated solves of one problem at several levels can hand `solve_obstacle`
the level-free parts built once: the lattice (environment fields, exterior
data, frozen moment) and, for the newton engine, its `system()`, the triple
(K, e, G): the view of K, the load and G = inv(K), the one m x m array;
a solve not handed them builds both.  The bump barriers read that same
lattice: a bump vanishes outside its ball, which lies in the box, so its
exterior data are the zero data of every frozen problem.

Scaled problems read their coefficients at x / eps; the grid must resolve
the environment cells (h <= eps/4) or construction fails.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .env import Environment, forcing_field, matrix_field, multiplier_field
from .errors import ConfigurationError, SolverError
from .kernels import KernelFamily, QuadratureTable, build_quadrature
from .operators import Box, ExteriorRule, GridFunction, unit_moment

__all__ = [
    "OperatorHandle",
    "DirichletProblem",
    "ObstacleSolution",
    "SolveDiagnostics",
    "Bump",
    "solve_dirichlet",
    "solve_dirichlet_many",
    "solve_obstacle",
    "residual_field",
    "barrier_threshold",
    "default_quadrature",
]


@dataclass(frozen=True)
class OperatorHandle:
    """Which nonlocal operator a problem runs.

    * plain branch min/max: env set, frozen None, extremal_sign 0;
    * frozen slot at x0: frozen = (test function, x0);
    * extremal bound operator: extremal_sign = +1 or -1 (env unused).

    eps rescales the coefficient field: branch data is read at x / eps.
    """

    fam: KernelFamily
    env: Environment | None = None
    eps: float = 1.0
    frozen: tuple | None = None
    extremal_sign: int = 0

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


@dataclass(frozen=True)
class DirichletProblem:
    """One solve: operator, domain, right-hand side, exterior data."""

    handle: OperatorHandle
    domain: Box
    rhs: object  # float level or per-node array
    exterior: ExteriorRule
    shape: str = "cube"  # "cube" | "ball"

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


@dataclass
class SolveDiagnostics:
    iterations: int = 0
    residual: float = np.inf
    wall_ms: float = 0.0
    method: str = ""
    converged: bool = False


@dataclass
class ObstacleSolution:
    u: GridFunction
    contact: np.ndarray
    fraction: float
    diagnostics: SolveDiagnostics


@dataclass(frozen=True)
class Bump:
    """Quartic bump (1 - |x-c|^2/r^2)^2 inside the r-ball, else 0.

    sign -1 flips it; the positive bump is a subsolution at low levels and
    the negative one a supersolution at high levels, which brackets every
    effective-level search.
    """

    center: np.ndarray
    r: float
    sign: float = 1.0

    def __call__(self, pts):
        """Values at points (N, dim)."""
        pts = np.asarray(pts, dtype=np.float64)
        c = np.atleast_1d(np.asarray(self.center, dtype=np.float64))
        d2 = np.sum((pts - c) ** 2, axis=1) / self.r**2
        v = np.where(d2 < 1.0, (1.0 - d2) ** 2, 0.0)
        return self.sign * v


def default_quadrature(fam: KernelFamily, box: Box, r_out_factor: float = 8.0) -> QuadratureTable:
    """Table matched to a solve box: radius = factor x box diameter."""
    diam = 2.0 * box.half * np.sqrt(box.dim)
    return build_quadrature(fam.dim, fam.sigma, box.h, r_out_factor * diam)


DAMPING = 0.8       # fraction of the pointwise Newton step a sweep takes
CHECK_EVERY = 8     # sweeps between residual checks
STALL_CHECKS = 64   # checks in the stagnation window (512 sweeps)
MAX_SWEEPS = 200000  # sweeps before a solve gives up
MAX_STEPS = 60      # active-set steps before a newton solve gives up


class _Lattice:
    """One problem on its grid (see Lattices).

    A subclass sets `dim`, takes the table's stencil as `kern` in `_stencil`,
    correlates in `_correlate` and evaluates F in `operator_values`.  This
    class reads the exterior data and adds the red-black damped sweeps and
    the certified residual.
    """

    def __init__(self, problem: DirichletProblem, quad: QuadratureTable,
                 frozen_moment=None, shared=None):
        problem.validate()
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
        nodes = np.meshgrid(*(box.axis_nodes(a) for a in range(self.dim)), indexing="ij")
        # active cells: whole cube, or strict interior of the ball
        if problem.shape == "ball":
            self.active = sum((X - c) ** 2 for X, c in zip(nodes, box.center)) < box.half**2
        else:
            self.active = np.ones(nodes[0].shape, dtype=bool)
        if not self.active.any():
            raise ConfigurationError("domain has no active cells")
        self._stencil()
        # active values, zero-padded by q, only meet the central 2q+1 taps
        self.q = min(self.J, self.m - 1)
        taps = slice(self.J - self.q, self.J + self.q + 1)
        self.near_kern = self.kern[(Ellipsis,) + (taps,) * self.dim]
        # `shared` is a list that the lattices of one table fill and read
        self._read_exterior([] if shared is None else shared)
        self.D0 = 2.0 * quad.w_total + 2.0 * quad.c_near / self.h**2 + 2.0 * quad.tail
        self.kind = "extremal" if handle.extremal_sign != 0 else "branch"
        self.is_matrix = handle.fam.kind == "a" and self.dim == 2
        shape = self.active.shape
        if self.kind == "branch":
            env = handle.env
            na, nb = env.spec.n_alpha, env.spec.n_beta
            P = np.column_stack([X.ravel() for X in nodes]) / handle.eps
            field, per_node = (matrix_field, (2, 2)) if self.is_matrix else (multiplier_field, ())
            alpha, beta = np.indices((na, nb))  # every branch in one field call
            coeff = field(env, alpha, beta, P).reshape((na, nb) + shape + per_node)
            self.forc = forcing_field(env, alpha, beta, P).reshape((na, nb) + shape)
            if handle.frozen is not None:
                if frozen_moment is None:
                    phi, x0 = handle.frozen
                    frozen_moment = unit_moment(phi, np.atleast_1d(x0), quad)
            else:
                frozen_moment = np.zeros((self.dim, self.dim))
            # sweep diagonal dominates every branch slope, not just the
            # active one; this keeps the damped update monotone in each
            # coordinate, which the exact comparison tests require
            if self.is_matrix:
                self.A, self.frozen_moment = coeff, frozen_moment
                dxx, dyy, sxy_abs = self.slopes  # from the 2d stencil
                bound = (coeff[..., 0, 0] * dxx + coeff[..., 1, 1] * dyy
                         + 4.0 * np.abs(coeff[..., 0, 1]) * sxy_abs)
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

    def at_level(self, problem):
        """This lattice for `problem`, its own problem at another right-hand
        side; every other (read-only) array is shared."""
        lat = copy.copy(self)
        lat.problem = problem
        lat.rhs = self._rhs_grid(problem.rhs)
        return lat

    def _read_exterior(self, shared):
        """`fixed`, the exterior data on the grid and J ghost nodes past each
        face with the active cells zeroed, and its correlation `fixed_corr`.

        The exterior rule is evaluated one ghost row at a time into `fixed`,
        so no point list of the whole padded grid is built.  `shared` holds
        one (fixed, fixed_corr) pair per bitwise-distinct `fixed`; a lattice
        whose `fixed` matches a held one takes that pair, so equal exterior
        data are correlated once.
        """
        box, exterior = self.problem.domain, self.problem.exterior
        ghost = [c - box.half + (np.arange(-self.J, self.m + self.J) + 0.5) * self.h
                 for c in box.center]
        fixed = np.empty(tuple(g.size for g in ghost))
        pts = np.empty((ghost[-1].size, self.dim))
        pts[:, -1] = ghost[-1]
        for row in np.ndindex(fixed.shape[:-1]):
            pts[:, :-1] = [g[i] for g, i in zip(ghost, row)]
            fixed[row] = exterior.fn(pts)
        fixed[(slice(self.J, self.J + self.m),) * self.dim][self.active] = 0.0
        self.far = exterior.far
        bits = fixed.view(np.int64)
        for held in shared:
            if np.array_equal(held[0].view(np.int64), bits):
                break
        else:
            held = (fixed, self._correlate(fixed, self.kern))
            shared.append(held)
        self.fixed, self.fixed_corr = held

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
        F, _ = self.operator_values(vals)
        r = F - self.rhs
        if obstacle:
            r = np.maximum(r, -vals)
        return float(np.max(np.abs(r)[self.active]))

    def sweep_solve(self, obstacle, tol, fixed_sweeps=None):
        """Returns (vals, sweeps, residuals); the last residual is the final one.

        The sweeps start from zero.  Unless fixed_sweeps pins the work, at
        most MAX_SWEEPS run, the residual is checked every CHECK_EVERY
        sweeps, and the solve stops early once the best of the last
        STALL_CHECKS checks is not 1% below the best before them.
        """
        vals = np.zeros(self.active.shape)
        parity = np.indices(self.active.shape).sum(axis=0) % 2
        colors = [self.active & (parity == 0), self.active & (parity == 1)]
        sweeps = fixed_sweeps if fixed_sweeps is not None else MAX_SWEEPS
        trail = []
        best_before = np.inf
        it = 0
        for it in range(1, sweeps + 1):
            for color in colors:
                F, diag = self.operator_values(vals)
                step = DAMPING * (F - self.rhs) / diag
                new = vals[color] + step[color]
                if obstacle:
                    new = np.maximum(new, 0.0)
                vals[color] = new
            if fixed_sweeps is None and (it % CHECK_EVERY == 0 or it == sweeps):
                trail.append(self.residual(vals, obstacle))
                if trail[-1] <= tol:
                    break
                if len(trail) > STALL_CHECKS:
                    best_before = min(best_before, trail[-STALL_CHECKS - 1])
                    if min(trail[-STALL_CHECKS:]) >= 0.99 * best_before:
                        break
        if not trail or fixed_sweeps is not None:
            trail.append(self.residual(vals, obstacle))
        return vals, it, trail


class _Lattice1D(_Lattice):
    """1d lattice: one symmetric correlation stencil, and the linear engine."""

    dim = 1

    def _stencil(self):
        self.kern = self.quad.stencil

    @staticmethod
    def _correlate(a, kern):
        return np.correlate(a, kern, mode="valid")

    @property
    def linear(self):
        # only the pointwise "cs" extremal is not linear in the unit moment
        return not (self.kind == "extremal" and self.problem.handle.fam.kind == "cs")

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
        if not self.linear:
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
        values; the solves copy only the rows and blocks they gather from it."""
        col = self.column()
        # row i is col[|i - j|] over j
        return sliding_window_view(np.concatenate((col[::-1], col[1:])), self.m)[::-1]

    def load(self):
        """e of I(u) = e - K u, which is I(0): the moment of the exterior data alone."""
        return self.unit_moments(self.padded(np.zeros(self.m), 1))

    def system(self):
        """(K, e, G), the newton engine's level-free part, for solves at many levels.

        K is `matrix()`, the view, built once here; e is `load()`; G =
        inv(K) is `_toeplitz_inverse` of K's first row, which is `column()`.
        G is the one m x m array held.
        """
        K = self.matrix()
        return K, self.load(), _toeplitz_inverse(K[0])

    def newton_solve(self, init=None, system=None):
        """Obstacle problem K u >= e - t, u >= 0, complementary, by the primal-dual active set.

        The first contact set is the zeros of `init`, or empty without it;
        each step solves on the free set and writes exact zeros on the
        contact set, until the set repeats or MAX_STEPS steps have run.  K
        is an M-matrix, so the method converges from any first set.
        `system` is this lattice's `system()`, held by the caller across
        solves, or None, and then built here.  A free cell leaves the free
        set when its value turns negative; a contact cell leaves the contact
        set when (K u - b) is positive there, which needs K u on the contact
        rows only: `K[C] @ u`, or, when contact is the majority, `(u[F] @
        K[F])[C]`, equal to it in exact arithmetic since u is zero on C and
        K is symmetric.
        So the test gathers at most half of K's rows.
        """
        if not self.linear:
            raise ConfigurationError("the pointwise extremal has no dense linearization")
        K, e, G = self.system() if system is None else system
        b = e - self.threshold()
        contact = np.zeros(b.size, dtype=bool) if init is None else np.asarray(init) == 0.0
        u = _free_solve(K, b, contact, G)
        steps = 1
        while steps < MAX_STEPS:
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
        return u, steps, [self.residual(u, True)]


def _durbin(r):
    """Durbin's recursion (Golub & Van Loan, Matrix Computations, Alg. 4.7.1)
    on the symmetric positive-definite Toeplitz matrix with first column
    (1, r): yields (beta, y reversed) at k = 1, ..., r.size, y the solution of
    the leading k x k Yule-Walker system T y = -r[:k] and beta = 1 + r[:k] y.

    The yielded view is overwritten by the next step.  Its reduction sums in
    numpy's own loop, not BLAS.
    """
    if not r.size:
        return
    y = np.empty(r.size)
    y[0] = alpha = -r[0]
    beta = 1.0
    for k in range(1, r.size + 1):
        beta *= 1.0 - alpha * alpha
        yield beta, y[k - 1::-1]
        if k < r.size:
            alpha = -(r[k] + (y[k - 1::-1] * r[:k]).sum()) / beta
            y[:k] += alpha * y[k - 1::-1]
            y[k] = alpha


def _toeplitz_solve(col, B):
    """X with K x = b for every row b of B, K the symmetric positive-definite
    Toeplitz matrix whose first column is col.

    Levinson's recursion (Golub & Van Loan, Matrix Computations, Alg. 4.7.2)
    on K / col[0]: step k extends every solution of the leading k x k system
    by one entry, with Durbin's recursion (`_durbin`) carrying the
    Yule-Walker vector y alongside.  That is O(m^2) flops per row in O(m n)
    memory, and stable on positive-definite K (Cybenko, SIAM J. Sci. Stat.
    Comput. 1, 1980).  Each reduction sums along one row of a C-ordered array
    in numpy's own loop, not BLAS, so a row's bits depend on that row alone:
    not on its position, the number of rows or the BLAS kernel.
    """
    X = np.array(B, dtype=np.float64) / col[0]  # row k of the loop reads b_k here
    r = col[1:] / col[0]
    for k, (beta, y) in enumerate(_durbin(r), start=1):
        mu = (X[:, k] - (X[:, k - 1::-1] * r[:k]).sum(axis=1)) / beta
        X[:, :k] += mu[:, None] * y
        X[:, k] = mu
    return X


def _toeplitz_inverse(col):
    """G = inv(K), K the symmetric positive-definite Toeplitz matrix whose
    first column is col, in O(m^2) flops and no m x m array but G.

    Trench's algorithm (Trench, J. SIAM 12, 1964; Golub & Van Loan, Matrix
    Computations, Alg. 4.7.3).  Durbin's recursion (`_durbin`) on K / col[0]
    ends at the Yule-Walker vector y of order m - 1 and beta = 1 + r y, so
    G's first column is g = (1, y) / (beta col[0]).  With h_i = g_{m-i}
    (h_0 = 0) every other entry follows from the one up and to the left,
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
        for beta, y in _durbin(col[1:] / col[0]):
            pass  # to the last step, of order m - 1
        g[1:m] = y[::-1]
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
    """2d lattice: three directional stencils, sweeps only (desk scale, small grids)."""

    dim = 2
    linear = False

    def _stencil(self):
        quad = self.quad
        sxx = float(np.sum(quad.kxx))
        syy = float(np.sum(quad.kyy))
        self.sums = (sxx, syy, float(np.sum(quad.kxy)))
        self.kern = quad.stencil
        # directional slope bounds, for the matrix-class sweep diagonal
        self.slopes = (2.0 * sxx + quad.c_near / self.h**2 + quad.tail,
                       2.0 * syy + quad.c_near / self.h**2 + quad.tail,
                       float(np.sum(np.abs(quad.kxy))))

    @staticmethod
    def _correlate(a, kern):
        """Valid-mode correlation of a 2d array with each stencil of kern[k]."""
        return np.einsum("ijab,kab->kij", sliding_window_view(a, kern.shape[1:]), kern)

    def moments(self, grid):
        """The (2, 2) moment field at every node of `padded(vals, 1)`."""
        u = grid[1:-1, 1:-1]
        cxx, cyy, cxy = self.fixed_corr + self._near_corr(u)
        sxx, syy, sxy = self.sums
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
        if self.is_matrix:
            fro = self.frozen_moment
            slot = (
                self.A[..., 0, 0] * (Bxx + fro[0, 0])[None, None]
                + self.A[..., 1, 1] * (Byy + fro[1, 1])[None, None]
                + 2.0 * self.A[..., 0, 1] * (Bxy + fro[0, 1])[None, None]
            )
        else:
            slot = self.mult * (Bxx + Byy + self.frozen_moment)[None, None]
        return self.branch_infsup(slot), self.diag


def _lattice(problem: DirichletProblem, quad: QuadratureTable | None,
             frozen_moment=None, shared=None):
    """Lattice of a problem; frozen_moment, if given, is unit_moment of its frozen profile on quad.

    `shared`, a list kept by the caller for lattices of this one table, lets
    them share each bitwise-distinct exterior array and its correlation.
    """
    if quad is None:
        quad = default_quadrature(problem.handle.fam, problem.domain)
    cls = _Lattice1D if problem.domain.dim == 1 else _Lattice2D
    return cls(problem, quad, frozen_moment, shared)


def _result(lat, obstacle, method, out, tol, wall_ms=0.0, pinned=False):
    """(u, diagnostics), or the ObstacleSolution, of an engine's (vals, iterations, residuals).

    A residual above tol raises SolverError, unless `pinned` (fixed_sweeps).
    """
    vals, its, trail = out
    res = trail[-1]
    diag = SolveDiagnostics(iterations=its, residual=res, wall_ms=wall_ms, method=method,
                            converged=res <= tol)
    if not diag.converged and not pinned:
        recent = ", ".join(f"{r:.3e}" for r in trail[-4:])
        raise SolverError(
            f"{method} solver did not reach tol={tol} (residual {res:.3e} after "
            f"{its} iterations; last residuals checked: {recent})",
            residual=res, iterations=its,
        )
    u = GridFunction(lat.problem.domain, vals, lat.problem.exterior)
    if not obstacle:
        return u, diag
    contact = lat.active & (vals == 0.0)
    fraction = float(np.count_nonzero(contact)) / float(np.count_nonzero(lat.active))
    return ObstacleSolution(u=u, contact=contact, fraction=fraction, diagnostics=diag)


def solve_dirichlet(problem: DirichletProblem, tol: float = 1e-6,
                    quad: QuadratureTable | None = None, fixed_sweeps=None):
    """Solve F(u) = rhs in the domain with exterior data outside.

    Returns (GridFunction, SolveDiagnostics).  Raises SolverError if the
    target residual is not reached (unless fixed_sweeps pins the work).
    This is `solve_dirichlet_many` of one problem.
    """
    return solve_dirichlet_many([problem], tol, quad, fixed_sweeps)[0]


def solve_dirichlet_many(problems, tol: float = 1e-6,
                         quad: QuadratureTable | None = None, fixed_sweeps=None):
    """`solve_dirichlet` of each problem, with one solve for the whole grid.

    The problems must share the grid and the active mask, and are solved
    on the one table `quad` (the first problem's default when None), or
    ConfigurationError.  Their lattices read the table's stencil and share
    one correlation per bitwise-distinct padded exterior array.  Those on
    the newton engine share K, so one Levinson solve on K's first column takes
    each bitwise-distinct column of B = [e_i - t_i] once, in O(m n) memory;
    equal columns get equal solutions wherever they sit in the batch.
    Each column is certified with its own lattice's residual and raises
    SolverError if it misses tol.  Sweep problems are solved one by one,
    from zero.  A newton problem's wall_ms is its own lattice build, load
    and residual check plus 1/n of the shared solve.
    """
    problems = list(problems)
    if not problems:
        return []
    if quad is None:
        quad = default_quadrature(problems[0].handle.fam, problems[0].domain)
    lats, cols, walls, shared = [], {}, [], []
    for i, problem in enumerate(problems):
        t0 = time.perf_counter()
        lat = _lattice(problem, quad, shared=shared)
        if lat.linear and fixed_sweeps is None:
            cols[i] = lat.load() - lat.threshold()
        lats.append(lat)
        walls.append(time.perf_counter() - t0)
    first = lats[0]
    if any(lat.m != first.m or lat.h != first.h or not np.array_equal(lat.active, first.active)
           for lat in lats):
        raise ConfigurationError("batched Dirichlet problems must share the grid "
                                 "and the active mask")
    solved, share = {}, 0.0
    if cols:
        t0 = time.perf_counter()
        distinct = {b.tobytes(): b for b in cols.values()}
        where = {key: j for j, key in enumerate(distinct)}
        U = _toeplitz_solve(lats[next(iter(cols))].column(), list(distinct.values()))
        solved = {i: U[where[b.tobytes()]].copy() for i, b in cols.items()}
        share = (time.perf_counter() - t0) / len(cols)
    results = []
    for i, lat in enumerate(lats):
        t0 = time.perf_counter()
        if i in solved:
            vals = solved[i]
            method, out = "newton", (vals, 1, [lat.residual(vals, False)])
            walls[i] += share
        else:
            method, out = "sweeps", lat.sweep_solve(False, tol, fixed_sweeps)
        wall_ms = (walls[i] + time.perf_counter() - t0) * 1e3
        results.append(_result(lat, False, method, out, tol, wall_ms,
                               pinned=fixed_sweeps is not None))
    return results


def solve_obstacle(problem: DirichletProblem, tol: float = 1e-6,
                   quad: QuadratureTable | None = None, init=None, fixed_sweeps=None,
                   lattice=None, system=None) -> ObstacleSolution:
    """Least nonnegative supersolution: max(F(U) - rhs, -U) = 0.

    Every projection writes exact zeros, so the contact mask is literally
    {U == 0} on active cells and contact counts are integers.  `init`,
    when given, seeds the newton engine's first contact set (its zeros)
    and changes nothing else; the sweeps ignore it and start from zero.
    `lattice` (from `_lattice` for this problem at any level) and
    `system` skip rebuilding them when the level is all that changed.
    `system` is the lattice's `system()`, (K, e, G) with G = inv(K), or
    None, and then the newton engine builds it, to the same bits.  Steps
    on less contact than free cells are Schur steps (a matvec and a solve
    on the contact block), the others solves on the free block; K stays a
    view, so a step copies only the rows it multiplies and the block it
    factors.  wall_ms includes building the lattice and the system, or
    re-leveling the lattice.
    """
    t0 = time.perf_counter()
    lat = _lattice(problem, quad) if lattice is None else lattice.at_level(problem)
    if lat.linear and fixed_sweeps is None:
        method, out = "newton", lat.newton_solve(init, system)
    else:
        method, out = "sweeps", lat.sweep_solve(True, tol, fixed_sweeps)
    wall = (time.perf_counter() - t0) * 1e3
    return _result(lat, True, method, out, tol, wall, pinned=fixed_sweeps is not None)


def residual_field(problem: DirichletProblem, u: GridFunction,
                   quad: QuadratureTable | None = None) -> GridFunction:
    """F(u) - rhs at every node (zero reported on inactive cells)."""
    lat = _lattice(problem, quad)
    F, _ = lat.operator_values(np.asarray(u.values, dtype=np.float64))
    r = np.where(lat.active, F - lat.rhs, 0.0)
    return GridFunction(problem.domain, r, ExteriorRule.zero())


def barrier_threshold(problem: DirichletProblem, side: int,
                      quad: QuadratureTable | None = None, lattice=None) -> float:
    """Operator level separating sub/supersolution regimes of the bumps.

    side +1: min over active cells of F(P+), with P+ the quartic bump on
    the inscribed ball; any rhs level at or below it makes the bump a
    subsolution.  side -1: max of F(P-); levels at or above make the
    negative bump a supersolution.  The bump vanishes outside its ball,
    which lies in the box, so its exterior data are zero: it is evaluated
    on `lattice`, a lattice of this problem at any level whose exterior
    data are zero (else ConfigurationError), or on a new one under zero
    exterior data.
    """
    box = problem.domain
    bump = Bump(center=np.asarray(box.center, dtype=np.float64), r=box.half,
                sign=float(side))
    vals = bump(box.nodes()).reshape((box.m,) * box.dim)
    if lattice is None:
        lat = _lattice(replace(problem, exterior=ExteriorRule.zero()), quad)
    elif lattice.far != 0.0 or np.any(lattice.fixed):
        raise ConfigurationError("a bump barrier needs a lattice with zero exterior data")
    else:
        lat = lattice
    F, _ = lat.operator_values(vals)
    Fa = F[lat.active]
    return float(np.min(Fa)) if side > 0 else float(np.max(Fa))
