"""Dirichlet and obstacle solvers for the discrete nonlocal operators.

The discretization is the monotone quadrature of `kernels`: every
off-center weight is nonnegative and the center coefficient is strictly
negative, so the lattice operator is an M-matrix perturbation and both
engines below converge to the same solution.

Engines
-------
The problem picks the engine; there is no way to override it.

newton   1d linear engine, for every 1d operator but the pointwise extremal
         of the "cs" class.  Every branch slot is increasing and linear in
         the unit moment I(u) = e - K u, with K a fixed M-matrix, so
         F(u) = rhs exactly where I(u) equals a pointwise threshold t.  K
         depends on the table, the grid and the active mask only, so the
         Dirichlet problems on one grid (`solve_dirichlet_many`) are the
         columns of one dense solve K [u_1 ... u_n] = [e_1 - t_1 ...
         e_n - t_n], and a single problem is a batch of one.  An obstacle
         solve is the complementarity problem K u >= e - t, u >= 0, solved
         by the primal-dual active-set method with exact zeros on contact.
         A caller that holds G = inv(K) across solves gets Schur steps: on
         a contact set C smaller than the free set F, a step is one matvec
         with G and a |C| x |C| solve on G[C, C].  Otherwise, and in every
         one-off obstacle solve, a step is one dense solve on K[F, F].
         An obstacle solve's `init`, when given, only seeds the first
         contact set (its zeros on active cells); the final set, and so
         the solution, does not depend on it.  There is no fallback: a solve that misses the
         tolerance raises.  Every residual, each column of a batch's
         included, is certified with the sweep engine's evaluation.
sweeps   damped projected point relaxation (red-black ordering), for 2d
         operators, the pointwise "cs" extremal and every `fixed_sweeps`
         solve.  Each update moves one value toward the root of its scalar
         residual with all other values frozen, clamping at the obstacle.
         The update map is monotone even in floating point (direct
         summation, nonnegative weights, fixed order), which several exact
         ordering tests rely on.  A solve whose residual stagnates stops
         early and raises.

Repeated solves of one problem at several levels can hand `solve_obstacle`
the level-free parts built once: the lattice (environment fields, exterior
data, frozen moment) and, for the newton engine, the triple (K, e, inv(K)).
A lattice under other exterior data (`with_exterior`, as the barriers use)
keeps the environment fields and the frozen moment.

Scaled problems read their coefficients at x / eps; the grid must resolve
the environment cells (h <= eps/4) or construction fails.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace

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
    "barrier_check",
    "barrier_level",
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
    """Quartic bump amp * (1 - |x-c|^2/r^2)^2 inside the r-ball, else 0.

    sign -1 flips it; the positive bump is a subsolution at low levels and
    the negative one a supersolution at high levels, which brackets every
    effective-level search.  amp rescales the height for the scaled
    barrier comparisons.
    """

    center: np.ndarray
    r: float
    sign: float = 1.0
    amp: float = 1.0
    far: float = field(default=0.0, init=False)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None] if np.ndim(self.center) == 0 or len(np.atleast_1d(self.center)) == 1 else pts[None, :]
        c = np.atleast_1d(np.asarray(self.center, dtype=np.float64))
        d2 = np.sum((pts - c) ** 2, axis=1) / self.r**2
        v = np.where(d2 < 1.0, (1.0 - d2) ** 2, 0.0)
        return self.sign * self.amp * v


def default_quadrature(fam: KernelFamily, box: Box, r_out_factor: float = 8.0) -> QuadratureTable:
    """Table matched to a solve box: radius = factor x box diameter."""
    diam = 2.0 * box.half * (1.0 if box.dim == 1 else np.sqrt(2.0))
    return build_quadrature(fam.dim, fam.sigma, box.h, r_out_factor * diam)


DAMPING = 0.8       # fraction of the pointwise Newton step a sweep takes
CHECK_EVERY = 8     # sweeps between residual checks
STALL_CHECKS = 64   # checks in the stagnation window (512 sweeps)


class _SweepEngine:
    """Red-black damped sweeps and the certified residual, shared by both lattices.

    Subclasses provide `active`, `rhs`, `operator_values`, `linear` and
    `_read_exterior`, which sets everything that depends on the exterior data.
    """

    def _rhs_grid(self, rhs):
        if np.ndim(rhs) == 0:
            return np.full(self.active.shape, float(rhs))
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.size != self.active.size:
            raise ConfigurationError("rhs grid must match the domain grid")
        return rhs.reshape(self.active.shape)

    def at_level(self, rhs):
        """This lattice with another right-hand side; every other array is shared."""
        lat = copy.copy(self)
        lat.problem = replace(self.problem, rhs=rhs)
        lat.rhs = self._rhs_grid(rhs)
        return lat

    def with_exterior(self, exterior):
        """This lattice with other exterior data; the environment fields,
        the table and the frozen moment are shared."""
        lat = copy.copy(self)
        lat.problem = replace(self.problem, exterior=exterior)
        lat._read_exterior()
        return lat

    def residual(self, vals, obstacle):
        F, _ = self.operator_values(vals)
        r = F - self.rhs
        if obstacle:
            r = np.maximum(r, -vals)
        return float(np.max(np.abs(r)[self.active]))

    def sweep_solve(self, init, obstacle, tol, max_iter, fixed_sweeps=None):
        """Returns (vals, sweeps, residuals); the last residual is the final one.

        Unless fixed_sweeps pins the work, the residual is checked every
        CHECK_EVERY sweeps, and the solve stops early once the best of the
        last STALL_CHECKS checks is not 1% below the best before them.
        """
        vals = np.zeros(self.active.shape) if init is None else np.array(init, dtype=np.float64)
        parity = np.indices(self.active.shape).sum(axis=0) % 2
        colors = [self.active & (parity == 0), self.active & (parity == 1)]
        sweeps = fixed_sweeps if fixed_sweeps is not None else max_iter
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


class _Lattice1D(_SweepEngine):
    """Precomputed residual pipeline for one 1d problem."""

    def __init__(self, problem: DirichletProblem, quad: QuadratureTable,
                 frozen_moment=None):
        problem.validate()
        if problem.domain.dim != 1:
            raise ConfigurationError("_Lattice1D is one-dimensional")
        if quad.dim != 1 or abs(quad.h - problem.domain.h) > 1e-15:
            raise ConfigurationError("quadrature table does not match the grid")
        self.problem = problem
        self.quad = quad
        box = problem.domain
        self.m = box.m
        self.h = box.h
        self.J = quad.w.shape[0]
        self.x = box.axis_nodes(0)
        handle = problem.handle
        # active cells: whole cube, or strict interior of the ball
        if problem.shape == "ball":
            self.active = np.abs(self.x - box.center[0]) < box.half
        else:
            self.active = np.ones(self.m, dtype=bool)
        self.n_active = int(np.sum(self.active))
        if self.n_active == 0:
            raise ConfigurationError("domain has no active cells")
        self.pad = self.J
        left = box.center[0] - box.half
        self.ext_x = left + (np.arange(-self.pad, self.m + self.pad) + 0.5) * self.h
        self._read_exterior()
        # symmetric correlation stencil, center weight zero
        wsym = np.zeros(2 * self.J + 1)
        wsym[self.J + 1:] = quad.w
        wsym[: self.J] = quad.w[::-1]
        self.wsym = wsym
        self.D0 = 2.0 * quad.w_total + 2.0 * quad.c_near / self.h**2 + 2.0 * quad.tail
        # branch data at x / eps
        self.kind = "extremal" if handle.extremal_sign != 0 else "branch"
        if self.kind == "branch":
            env = handle.env
            xs = (self.x / handle.eps)[:, None]
            na, nb = env.spec.n_alpha, env.spec.n_beta
            self.mult = np.empty((na, nb, self.m))
            self.forc = np.empty((na, nb, self.m))
            for a in range(na):
                for b in range(nb):
                    self.mult[a, b] = multiplier_field(env, a, b, xs)
                    self.forc[a, b] = forcing_field(env, a, b, xs)
            if handle.frozen is not None:
                phi, x0 = handle.frozen
                if frozen_moment is None:
                    frozen_moment = unit_moment(phi, np.atleast_1d(x0), quad)
                self.frozen_moment = float(frozen_moment)
            else:
                self.frozen_moment = 0.0
            # sweep diagonal dominates every branch slope, not just the
            # active one; this keeps the damped update monotone in each
            # coordinate, which the exact comparison tests require
            self.diag = self.mult.max(axis=(0, 1)) * self.D0
        else:
            lam, lam_big = handle.fam.lam, handle.fam.lam_big
            # slopes of the extremal operator in positive / negative moments
            self.up, self.down = (lam_big, lam) if handle.extremal_sign > 0 else (lam, lam_big)
            self.diag = np.full(self.m, lam_big * self.D0)
        self.rhs = self._rhs_grid(problem.rhs)
        # only the pointwise "cs" extremal is not linear in the unit moment
        self.linear = not (self.kind == "extremal" and handle.fam.kind == "cs")

    def _read_exterior(self):
        """Extended lattice: the J ghost nodes on both sides and the inactive
        cells inside the box hold the exterior data."""
        exterior, pad = self.problem.exterior, self.pad
        self.E = np.empty(self.m + 2 * pad)
        outside = np.concatenate([
            np.arange(0, pad),
            np.arange(self.m + pad, self.m + 2 * pad),
        ])
        self.E[outside] = exterior.fn(self.ext_x[outside][:, None])
        inner = np.arange(pad, self.m + pad)
        off_cells = inner[~self.active]
        if off_cells.size:
            self.E[off_cells] = exterior.fn(self.ext_x[off_cells][:, None])
        self.far = exterior.far

    # -- residual pieces ------------------------------------------------

    def fill(self, vals):
        E = self.E
        E[self.pad:self.pad + self.m][self.active] = vals[self.active]
        return E

    def unit_moments(self, E):
        """Unit-multiplier moment of the current iterate at every node."""
        corr = np.correlate(E, self.wsym, mode="valid")
        u = E[self.pad:self.pad + self.m]
        near = (E[self.pad + 1:self.pad + self.m + 1]
                + E[self.pad - 1:self.pad + self.m - 1] - 2.0 * u)
        I = 2.0 * (corr - self.quad.w_total * u)
        I += self.quad.c_near * near / self.h**2
        I += self.quad.tail * (2.0 * self.far - 2.0 * u)
        return I

    def split_moments(self, E):
        """Positive/negative envelope moments for the pointwise extremal."""
        u = E[self.pad:self.pad + self.m]
        win = sliding_window_view(E, 2 * self.J + 1)  # row i: offsets around node i
        deltas = win[:, self.J + 1:] + win[:, self.J - 1::-1] - 2.0 * u[:, None]
        wpos = (np.maximum(deltas, 0.0) @ self.quad.w) * 2.0
        wneg = (np.maximum(-deltas, 0.0) @ self.quad.w) * 2.0
        dn = deltas[:, 0] / self.h**2
        df = 2.0 * self.far - 2.0 * u
        pos = wpos + self.quad.c_near * np.maximum(dn, 0.0) + self.quad.tail * np.maximum(df, 0.0)
        neg = wneg + self.quad.c_near * np.maximum(-dn, 0.0) + self.quad.tail * np.maximum(-df, 0.0)
        return pos, neg

    def operator_values(self, vals):
        """F at every node, with the dominating diagonal slope field."""
        E = self.fill(vals)
        if not self.linear:
            pos, neg = self.split_moments(E)
            return self.up * pos - self.down * neg, self.diag
        return self.infsup(self.unit_moments(E)), self.diag

    def infsup(self, I):
        """F as a function of the unit moment I (all but the pointwise extremal)."""
        if self.kind == "extremal":
            return np.where(I > 0, self.up * I, self.down * I)
        branch = self.forc + self.mult * (self.frozen_moment + I)[None, None, :]
        inner = branch.max(axis=1)  # sup over beta
        return inner.min(axis=0)  # inf over alpha

    def threshold(self):
        """Moment level t with F = rhs exactly where I = t.

        Every slot is strictly increasing and linear in I, so the inf-sup
        is too, and F - rhs has the sign of I - t.
        """
        if self.kind == "extremal":
            return np.where(self.rhs > 0, self.rhs / self.up, self.rhs / self.down)
        return ((self.rhs - self.forc) / self.mult).min(axis=1).max(axis=0) - self.frozen_moment

    def matrix(self):
        """K of the moment as an affine map of the active values, I(u) = e - K u.

        K = D0 Id - T on the active rows and columns, with T the
        nonnegative Toeplitz coupling, is a strictly diagonally dominant
        M-matrix.  It depends on the table, the grid and the active mask
        only, so every problem sharing those shares K.
        """
        col = np.zeros(self.m)
        J = min(self.J, self.m - 1)
        col[1:J + 1] = 2.0 * self.quad.w[:J]
        col[1] += self.quad.c_near / self.h**2
        # negated symmetric Toeplitz matrix with first column col
        K = -sliding_window_view(np.concatenate((col[::-1], col[1:])), self.m)[::-1]
        K[np.diag_indices(self.m)] += self.D0
        if not np.all(self.active):
            K = K[np.ix_(self.active, self.active)]
        return K

    def load(self):
        """e of I(u) = e - K u: the frozen load from ghost nodes and inactive cells."""
        Eext = self.E.copy()
        Eext[self.pad:self.pad + self.m][self.active] = 0.0
        corr = np.correlate(Eext, self.wsym, mode="valid")
        near = (Eext[self.pad + 1:self.pad + self.m + 1]
                + Eext[self.pad - 1:self.pad + self.m - 1])
        e = 2.0 * corr + self.quad.c_near * near / self.h**2
        return e + self.quad.tail * 2.0 * self.far

    def values(self, u):
        """Grid values: u on the active cells, the exterior data on the rest."""
        vals = self.E[self.pad:self.pad + self.m].copy()
        vals[self.active] = u
        return vals

    def newton_solve(self, max_iter, init=None, system=None):
        """Obstacle problem K u >= e - t, u >= 0, complementary, by the primal-dual active set.

        The first contact set is the zeros of `init` on active cells, or
        empty without it; each step solves on the free set and writes exact
        zeros on the contact set, until the set repeats.  K is an M-matrix,
        so the method converges from any first set.  `system` is the pair
        (K, e) of `matrix()` and `load()`, or the triple (K, e, G) with
        G = inv(K), when the caller holds it across solves.
        """
        if not self.linear:
            raise ConfigurationError("the pointwise extremal has no dense linearization")
        K, e, *inverse = (self.matrix(), self.load()) if system is None else system
        G = inverse[0] if inverse else None
        b = (e - self.threshold())[self.active]
        contact = np.zeros(b.size, dtype=bool)
        if init is not None:
            contact = np.asarray(init)[self.active] == 0.0
        u = _free_solve(K, b, contact, G)
        steps = 1
        while steps < max_iter:
            new = np.where(contact, K @ u - b > 0.0, u < 0.0)
            if np.array_equal(new, contact):
                break
            contact = new
            u = _free_solve(K, b, contact, G)
            steps += 1
        vals = self.values(u)
        return vals, steps, [self.residual(vals, True)]


def _free_solve(K, b, contact, G=None):
    """Solution of K u = b on the free rows F, with exact zeros on the contact set C.

    With G = inv(K) and |C| < |F| this is a Schur step (Hager, SIAM Rev.
    1989): with b zeroed on C, x = G b solves K x = b + r for r = 0, and
    u = x - G[:, C] z, with G[C, C] z = x[C], is zero on C and changes K x
    only on the rows of C, so K u = b on F.  It costs one matvec and a
    |C| x |C| solve; otherwise K[F, F] is solved.
    """
    n_contact = int(np.count_nonzero(contact))
    if G is not None and 2 * n_contact < b.size:
        u = G @ np.where(contact, 0.0, b)
        if n_contact:
            u -= G[:, contact] @ np.linalg.solve(G[np.ix_(contact, contact)], u[contact])
            u[contact] = 0.0
        return u
    if not n_contact:
        return np.linalg.solve(K, b)
    u = np.zeros(b.size)
    free = ~contact
    if free.any():
        u[free] = np.linalg.solve(K[np.ix_(free, free)], b[free])
    return u


class _Lattice2D(_SweepEngine):
    """Sweep-only pipeline for 2d problems (desk scale, small grids)."""

    linear = False

    def __init__(self, problem: DirichletProblem, quad: QuadratureTable,
                 frozen_moment=None):
        problem.validate()
        if problem.domain.dim != 2 or quad.dim != 2:
            raise ConfigurationError("_Lattice2D is two-dimensional")
        if abs(quad.h - problem.domain.h) > 1e-15:
            raise ConfigurationError("quadrature table does not match the grid")
        self.problem = problem
        self.quad = quad
        box = problem.domain
        self.m = box.m
        self.h = box.h
        self.J = quad.n_offsets
        xs = box.axis_nodes(0)
        ys = box.axis_nodes(1)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        self.X, self.Y = X, Y
        handle = problem.handle
        if problem.shape == "ball":
            self.active = (X - box.center[0]) ** 2 + (Y - box.center[1]) ** 2 < box.half**2
        else:
            self.active = np.ones((self.m, self.m), dtype=bool)
        pad = self.J
        self.pad = pad
        gx = box.center[0] - box.half + (np.arange(-pad, self.m + pad) + 0.5) * self.h
        gy = box.center[1] - box.half + (np.arange(-pad, self.m + pad) + 0.5) * self.h
        GX, GY = np.meshgrid(gx, gy, indexing="ij")
        self.ext_pts = np.column_stack([GX.ravel(), GY.ravel()])
        self.inner = (slice(pad, pad + self.m), slice(pad, pad + self.m))
        self.kind = "extremal" if handle.extremal_sign != 0 else "branch"
        self.sign = handle.extremal_sign
        self.lam, self.lam_big = handle.fam.lam, handle.fam.lam_big
        self.is_matrix = handle.fam.kind == "a"
        self.D0 = 2.0 * quad.w_total + 2.0 * quad.c_near / self.h**2 + 2.0 * quad.tail
        sxx = float(np.sum(quad.kxx))
        syy = float(np.sum(quad.kyy))
        sxy_abs = float(np.sum(np.abs(quad.kxy)))
        self.sums = (sxx, syy, float(np.sum(quad.kxy)))
        # Only the active cells change between evaluations.  The correlation
        # of the rest (ghost nodes and inactive cells) is read once per
        # exterior, and the active values, zero-padded by q, only ever meet
        # the central (2q+1)^2 offsets of the stencils.
        self.kern = np.stack([quad.kxx, quad.kyy, quad.kxy])
        self._read_exterior()
        q = min(self.J, self.m - 1)
        self.near_kern = self.kern[:, self.J - q:self.J + q + 1, self.J - q:self.J + q + 1]
        self.vals_pad = np.zeros((self.m + 2 * q, self.m + 2 * q))
        self.vals_inner = (slice(q, q + self.m), slice(q, q + self.m))
        dxx = 2.0 * sxx + quad.c_near / self.h**2 + quad.tail
        dyy = 2.0 * syy + quad.c_near / self.h**2 + quad.tail
        self._slopes = (dxx, dyy, sxy_abs)
        if self.kind == "branch":
            env = handle.env
            na, nb = env.spec.n_alpha, env.spec.n_beta
            P = np.column_stack([X.ravel(), Y.ravel()]) / handle.eps
            if self.is_matrix:
                self.A = np.empty((na, nb, self.m, self.m, 2, 2))
            self.mult = np.empty((na, nb, self.m, self.m))
            self.forc = np.empty((na, nb, self.m, self.m))
            for a in range(na):
                for b in range(nb):
                    if self.is_matrix:
                        self.A[a, b] = matrix_field(env, a, b, P).reshape(self.m, self.m, 2, 2)
                    else:
                        self.mult[a, b] = multiplier_field(env, a, b, P).reshape(self.m, self.m)
                    self.forc[a, b] = forcing_field(env, a, b, P).reshape(self.m, self.m)
            if handle.frozen is not None:
                phi, x0 = handle.frozen
                if frozen_moment is None:
                    frozen_moment = unit_moment(phi, np.atleast_1d(x0), quad)
                self.frozen_moment = frozen_moment
            else:
                self.frozen_moment = np.zeros((2, 2))
            dxx, dyy, sxy_abs = self._slopes
            if self.is_matrix:
                bound = (self.A[..., 0, 0] * dxx + self.A[..., 1, 1] * dyy
                         + 4.0 * np.abs(self.A[..., 0, 1]) * sxy_abs)
                self.diag = bound.max(axis=(0, 1))
            else:
                self.diag = self.mult.max(axis=(0, 1)) * self.D0
        else:
            self.diag = np.full((self.m, self.m), self.lam_big * self.D0)
        self.rhs = self._rhs_grid(problem.rhs)

    def _read_exterior(self):
        """Exterior data on the padded grid and the correlation of everything
        but the active cells."""
        exterior, n = self.problem.exterior, self.m + 2 * self.pad
        self.E = exterior.fn(self.ext_pts).reshape(n, n)
        self.far = exterior.far
        fixed = self.E.copy()
        fixed[self.inner][self.active] = 0.0
        self.fixed_corr = _correlate(fixed, self.kern)

    def fill(self, vals):
        inner = self.E[self.inner]
        inner[self.active] = vals[self.active]
        return self.E

    def moments(self, E):
        u = E[self.inner]
        self.vals_pad[self.vals_inner] = np.where(self.active, u, 0.0)
        cxx, cyy, cxy = self.fixed_corr + _correlate(self.vals_pad, self.near_kern)
        sxx, syy, sxy = self.sums
        nx = (E[self.pad + 1:self.pad + self.m + 1, self.pad:self.pad + self.m]
              + E[self.pad - 1:self.pad + self.m - 1, self.pad:self.pad + self.m] - 2 * u)
        ny = (E[self.pad:self.pad + self.m, self.pad + 1:self.pad + self.m + 1]
              + E[self.pad:self.pad + self.m, self.pad - 1:self.pad + self.m - 1] - 2 * u)
        tailterm = self.quad.tail * (2.0 * self.far - 2.0 * u)
        Bxx = 2.0 * (cxx - sxx * u) + 0.5 * self.quad.c_near * nx / self.h**2 + 0.5 * tailterm
        Byy = 2.0 * (cyy - syy * u) + 0.5 * self.quad.c_near * ny / self.h**2 + 0.5 * tailterm
        Bxy = 2.0 * (cxy - sxy * u)
        return Bxx, Byy, Bxy

    def operator_values(self, vals):
        E = self.fill(vals)
        Bxx, Byy, Bxy = self.moments(E)
        if self.kind == "extremal":
            # eigenvalues of the symmetric 2x2 moment field
            tr = Bxx + Byy
            disc = np.sqrt(np.maximum((Bxx - Byy) ** 2 + 4 * Bxy**2, 0.0))
            mu1 = 0.5 * (tr + disc)
            mu2 = 0.5 * (tr - disc)
            if self.sign < 0:
                mu1, mu2 = -mu2, -mu1
            pos = np.maximum(mu1, 0) + np.maximum(mu2, 0)
            F = np.where(mu1 > 0, self.lam_big * pos, self.lam * mu1)
            if self.sign < 0:
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
            fro = float(np.trace(self.frozen_moment)) if self.problem.handle.frozen else 0.0
            slot = self.mult * (Bxx + Byy + fro)[None, None]
        branch = self.forc + slot
        F = branch.max(axis=1).min(axis=0)
        return F, self.diag


def _correlate(a, kern):
    """Valid-mode correlation of a 2d array with each stencil of kern[k]."""
    return np.einsum("ijab,kab->kij", sliding_window_view(a, kern.shape[1:]), kern)


def _lattice(problem: DirichletProblem, quad: QuadratureTable | None,
             frozen_moment=None):
    """Lattice of a problem; frozen_moment, if given, is unit_moment of its frozen profile on quad."""
    if quad is None:
        quad = default_quadrature(problem.handle.fam, problem.domain)
    if problem.domain.dim == 1:
        return _Lattice1D(problem, quad, frozen_moment)
    return _Lattice2D(problem, quad, frozen_moment)


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
    fraction = float(np.sum(contact)) / float(np.sum(lat.active))
    return ObstacleSolution(u=u, contact=contact, fraction=fraction, diagnostics=diag)


def solve_dirichlet(problem: DirichletProblem, tol: float = 1e-6, max_iter: int = 200000,
                    quad: QuadratureTable | None = None, init=None, fixed_sweeps=None):
    """Solve F(u) = rhs in the domain with exterior data outside.

    Returns (GridFunction, SolveDiagnostics).  Raises SolverError if the
    target residual is not reached (unless fixed_sweeps pins the work).
    This is `solve_dirichlet_many` of one problem.
    """
    return solve_dirichlet_many([problem], tol, max_iter, quad, init, fixed_sweeps)[0]


def solve_dirichlet_many(problems, tol: float = 1e-6, max_iter: int = 200000,
                         quad: QuadratureTable | None = None, init=None, fixed_sweeps=None):
    """`solve_dirichlet` of each problem, with one factorization for the whole grid.

    The problems must share the grid and the active mask, and are solved
    on the one table `quad` (the first problem's default when None), or
    ConfigurationError.  Those on the newton engine share K, so one dense
    solve takes B = [e_i - t_i]; each column is certified with its own
    lattice's residual and raises SolverError if it misses tol.  Sweep
    problems are solved one by one, from `init`.  A newton problem's
    wall_ms is its own lattice build, load and residual check plus 1/n of
    assembling and solving the shared system.
    """
    problems = list(problems)
    if not problems:
        return []
    if quad is None:
        quad = default_quadrature(problems[0].handle.fam, problems[0].domain)
    lats, cols, walls = [], {}, []
    for i, problem in enumerate(problems):
        t0 = time.perf_counter()
        lat = _lattice(problem, quad)
        if lat.linear and fixed_sweeps is None:
            cols[i] = (lat.load() - lat.threshold())[lat.active]
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
        U = np.linalg.solve(lats[next(iter(cols))].matrix(), np.column_stack(list(cols.values())))
        solved = dict(zip(cols, U.T))
        share = (time.perf_counter() - t0) / len(cols)
    results = []
    for i, lat in enumerate(lats):
        t0 = time.perf_counter()
        if i in solved:
            vals = lat.values(solved[i])
            method, out = "newton", (vals, 1, [lat.residual(vals, False)])
            walls[i] += share
        else:
            method, out = "sweeps", lat.sweep_solve(init, False, tol, max_iter, fixed_sweeps)
        wall_ms = (walls[i] + time.perf_counter() - t0) * 1e3
        results.append(_result(lat, False, method, out, tol, wall_ms,
                               pinned=fixed_sweeps is not None))
    return results


def solve_obstacle(problem: DirichletProblem, tol: float = 1e-6, max_iter: int = 200000,
                   quad: QuadratureTable | None = None, init=None, fixed_sweeps=None,
                   lattice=None, system=None) -> ObstacleSolution:
    """Least nonnegative supersolution: max(F(U) - rhs, -U) = 0.

    Every projection writes exact zeros, so the contact mask is literally
    {U == 0} on active cells and contact counts are integers.  `init` is
    the sweeps' first iterate; the newton engine takes only its contact
    set.  `lattice` (from `_lattice` for this problem at any level) and
    `system` skip rebuilding them when the level is all that changed.
    `system` is the lattice's (K, e) from `matrix()` and `load()`, or
    (K, e, inv(K)): with the inverse, active-set steps on less contact than
    free cells are Schur steps (a matvec and a solve on the contact block)
    instead of a solve on the free block.  wall_ms includes building or
    re-leveling the lattice.
    """
    t0 = time.perf_counter()
    lat = _lattice(problem, quad) if lattice is None else lattice.at_level(problem.rhs)
    if lat.linear and fixed_sweeps is None:
        method, out = "newton", lat.newton_solve(60, init, system)
    else:
        method, out = "sweeps", lat.sweep_solve(init, True, tol, max_iter, fixed_sweeps)
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
                      quad: QuadratureTable | None = None,
                      amp: float = 1.0, lattice=None) -> float:
    """Operator level separating sub/supersolution regimes of the bumps.

    side +1: min over active cells of F(amp * P+), with P+ the quartic
    bump on the inscribed ball; any rhs level at or below it makes the
    scaled bump a subsolution.  side -1: max of F(amp * P-); levels at or
    above make the scaled negative bump a supersolution.  `lattice`, a
    lattice of this problem, lends its environment fields and frozen moment
    to the bump's lattice instead of building them again.
    """
    box = problem.domain
    bump = Bump(center=np.asarray(box.center, dtype=np.float64), r=box.half,
                sign=float(side), amp=amp)
    vals = bump(box.nodes()).reshape((box.m,) if box.dim == 1 else (box.m, box.m))
    ext = ExteriorRule(fn=bump, far=0.0)
    if lattice is not None:
        lat = lattice.with_exterior(ext)
    else:
        lat = _lattice(replace(problem, exterior=ext), quad)
    F, _ = lat.operator_values(vals)
    Fa = F[lat.active]
    return float(np.min(Fa)) if side > 0 else float(np.max(Fa))


def barrier_check(problem: DirichletProblem, level: float, side: int = +1,
                  quad: QuadratureTable | None = None, amp: float = 1.0,
                  lattice=None) -> bool:
    """True when the bump barrier certifies the level on the given side.

    `lattice` is lent to `barrier_threshold`.
    """
    thr = barrier_threshold(problem, side, quad, amp=amp, lattice=lattice)
    return level <= thr if side > 0 else level >= thr


def barrier_level(problem: DirichletProblem, level: float, side: int = +1,
                  quad: QuadratureTable | None = None, amp_hi: float = 64.0,
                  steps: int = 30) -> float:
    """Largest bump amplitude the barrier certifies at the given level.

    Bisects on the amplitude; returns 0.0 when even a vanishing bump
    fails, in which case no positivity (side +1) or negativity (side -1)
    floor can be certified this way.  The problem's lattice is built once
    and lent to every amplitude probe.
    """
    lat = _lattice(problem, quad)

    def certified(amp):
        return barrier_check(problem, level, side, quad, amp=amp, lattice=lat)

    if not certified(1e-9):
        return 0.0
    lo, hi = 0.0, amp_hi
    if certified(hi):
        return hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if certified(mid):
            lo = mid
        else:
            hi = mid
    return lo
