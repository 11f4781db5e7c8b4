"""Pointwise reference evaluations of the nonlocal operators, for the tests.

These evaluate one point at a time, straight from the definitions:
sample the function, take second differences and moments against the
quadrature table, read the coefficients at the point and take the inf-sup
over the branches.  A function is a TestFunction or a `GridFunction`, grid
values sampled by multilinear interpolation with an exterior rule outside;
both are callables on points with `dim` and `far`, as `unit_moment` reads
them.  The lattices in `nlhomog.solve` evaluate every node at once by
correlation (`residual_field`, on the lattice of one problem, `_lattice`);
the tests compare them against these, so this brute force must stay
independent of the lattice code.  The extremal bounds at the end take the
sup or inf over the admissible kernels instead of the branches, in closed
form from a moment or pointwise in y.  Last, a
1d obstacle active set whose every step is a dense solve on the free
block, the reference for the lattice's Schur steps, and the 2d quadrature
table computed on every cell of its stencil, the reference for the
quadrant-mirrored build.
"""

from dataclasses import dataclass

import numpy as np

from nlhomog.env import Environment, forcing_field, matrix_field, multiplier_field
from nlhomog.errors import ConfigurationError
from nlhomog.kernels import KernelFamily, QuadratureTable, envelope_integral
from nlhomog.operators import Box, ExteriorRule, _as_point, unit_moment
from nlhomog.solve import _lattices


@dataclass
class GridFunction:
    """Values on a box grid plus an exterior rule covering the complement."""

    box: Box
    values: np.ndarray
    exterior: ExteriorRule

    def __post_init__(self):
        want = (self.box.m,) * self.box.dim
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != want:
            raise ConfigurationError(
                f"values shape {self.values.shape} does not match grid {want}"
            )

    @property
    def dim(self):
        return self.box.dim

    @property
    def far(self):
        return self.exterior.far

    def sample(self, pts) -> np.ndarray:
        """Evaluate at arbitrary points: interpolation inside, rule outside.

        Interpolation is multilinear between cell centers and exact at the
        centers themselves; the half-cell ring between the last center and
        the box face defers to the exterior rule, matching how the lattice
        operators classify points.
        """
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None] if self.box.dim == 1 else pts[None, :]
        n = pts.shape[0]
        out = np.empty(n)
        b = self.box
        rel = [(pts[:, a] - (b.center[a] - b.half)) / b.h - 0.5 for a in range(b.dim)]
        k = [np.floor(r).astype(np.int64) for r in rel]
        t = [r - kk for r, kk in zip(rel, k)]
        inside = np.ones(n, dtype=bool)
        for a in range(b.dim):
            exact_last = (k[a] == b.m - 1) & (t[a] == 0.0)
            inside &= ((k[a] >= 0) & (k[a] <= b.m - 2)) | exact_last
        if np.any(~inside):
            out[~inside] = self.exterior.fn(pts[~inside])
        if np.any(inside):
            idx = [np.clip(kk[inside], 0, b.m - 2) for kk in k]
            tt = [np.where(k[a][inside] == b.m - 1, 1.0, t[a][inside]) for a in range(b.dim)]
            if b.dim == 1:
                v0 = self.values[idx[0]]
                v1 = self.values[np.minimum(idx[0] + 1, b.m - 1)]
                out[inside] = v0 * (1.0 - tt[0]) + v1 * tt[0]
            else:
                i0, j0 = idx
                i1 = np.minimum(i0 + 1, b.m - 1)
                j1 = np.minimum(j0 + 1, b.m - 1)
                tx, ty = tt
                out[inside] = (
                    self.values[i0, j0] * (1 - tx) * (1 - ty)
                    + self.values[i1, j0] * tx * (1 - ty)
                    + self.values[i0, j1] * (1 - tx) * ty
                    + self.values[i1, j1] * tx * ty
                )
        return out

    __call__ = sample

    def __neg__(self):
        ext = self.exterior
        return GridFunction(
            box=self.box,
            values=-self.values,
            exterior=ExteriorRule(fn=lambda p, _f=ext.fn: -_f(p), far=-ext.far),
        )

    def __sub__(self, other):
        if not isinstance(other, GridFunction) or other.box != self.box:
            raise ConfigurationError("grid functions must share a box to combine")
        ea, eb = self.exterior, other.exterior
        return GridFunction(
            box=self.box,
            values=self.values - other.values,
            exterior=ExteriorRule(
                fn=lambda p, _a=ea.fn, _b=eb.fn: _a(p) - _b(p), far=ea.far - eb.far
            ),
        )


def _lattice(problem, quad: QuadratureTable | None = None):
    """Lattice of one problem, with its held system: `_lattices` of a batch of one."""
    return _lattices([problem], quad)[0]


def residual_field(problem, values, quad: QuadratureTable | None = None) -> np.ndarray:
    """F(u) - rhs at every node of the problem's grid, u the grid values
    `values` with the problem's exterior data, by the lattice's own
    evaluation; zero on inactive cells."""
    lat = _lattice(problem, quad)
    F, _ = lat.operator_values(np.asarray(values, dtype=np.float64))
    return np.where(lat.active, F - lat.rhs, 0.0)


def kernel_value(fam: KernelFamily, env: Environment, alpha: int, beta: int, x, y) -> float:
    """Pointwise kernel K(x, y) for one branch. y must be nonzero."""
    fam.validate()
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    r2 = float(np.dot(y, y))
    if r2 == 0.0:
        raise ConfigurationError("kernel is evaluated away from y = 0")
    n, sig = fam.dim, fam.sigma
    if fam.kind == "a" and fam.dim == 2:
        A = matrix_field(env, alpha, beta, x[None, :])[0]
        quad = float(y @ A @ y)
        return quad * r2 ** (-(n + sig + 2.0) / 2.0)
    a = float(multiplier_field(env, alpha, beta, x[None, :] if fam.dim == 2 else x[:, None])[0])
    if fam.kind == "a":
        # 1d matrix class: y^2/|y|^(3+sigma) collapses to the scalar envelope.
        return a * r2 * r2 ** (-(3.0 + sig) / 2.0)
    return a * r2 ** (-(n + sig) / 2.0)


def second_difference(u, x, y) -> float:
    """d_u(x, y) = u(x+y) + u(x-y) - 2 u(x), honoring the exterior rule."""
    x = _as_point(x, u.dim)
    y = _as_point(y, u.dim)
    vals = u(np.stack([x + y, x - y, x]))
    return float(vals[0] + vals[1] - 2.0 * vals[2])


def apply_linear(fam: KernelFamily, env: Environment, alpha: int, beta: int,
                 z, x, u, quad: QuadratureTable) -> float:
    """Two-slot linear piece: second differences at z, coefficients at x."""
    fam.validate()
    mom = unit_moment(u, z, quad)
    x = _as_point(x, fam.dim)
    if fam.kind == "a" and fam.dim == 2:
        A = matrix_field(env, alpha, beta, x[None, :])[0]
        return float(np.sum(A * mom))
    a = float(multiplier_field(env, alpha, beta, x[None, :] if fam.dim == 2 else x[:, None].T)[0])
    if fam.dim == 2:
        mom = float(np.trace(mom))
    return a * mom


def _branch_values(fam, env, x, slot_values):
    """min over alpha of max over beta of (forcing + slot contribution)."""
    spec = env.spec
    x = np.asarray(x, dtype=np.float64)
    pts = x[None, :]
    best_min = None
    for a in range(spec.n_alpha):
        best_max = None
        for b in range(spec.n_beta):
            f = float(forcing_field(env, a, b, pts)[0])
            val = f + slot_values(a, b)
            best_max = val if best_max is None else max(best_max, val)
        best_min = best_max if best_min is None else min(best_min, best_max)
    return best_min


def evaluate_F(u, x, env: Environment, fam: KernelFamily, quad: QuadratureTable) -> float:
    """Full operator at a point: inf over alpha, sup over beta of branches."""
    fam.validate()
    x = _as_point(x, u.dim)
    mom = unit_moment(u, x, quad)

    def slot(a, b):
        if fam.kind == "a" and fam.dim == 2:
            A = matrix_field(env, a, b, x[None, :])[0]
            return float(np.sum(A * mom))
        mult = float(multiplier_field(env, a, b, x[None, :] if fam.dim == 2 else x[:, None].T)[0])
        m = float(np.trace(mom)) if fam.dim == 2 else mom
        return mult * m

    return _branch_values(fam, env, x, slot)


def evaluate_frozen(phi, x0, v, x, env: Environment, fam: KernelFamily,
                    quad: QuadratureTable) -> float:
    """Operator with the test-function slot frozen at x0.

    Branch value: forcing(x) + [L phi(x0)](x) + [L v(x)](x); both linear
    pieces read their coefficient at the same point x.
    """
    fam.validate()
    x = _as_point(x, v.dim)
    x0 = _as_point(x0, v.dim)
    mom_phi = unit_moment(phi, x0, quad)
    mom_v = unit_moment(v, x, quad)

    def slot(a, b):
        if fam.kind == "a" and fam.dim == 2:
            A = matrix_field(env, a, b, x[None, :])[0]
            return float(np.sum(A * (mom_phi + mom_v)))
        mult = float(multiplier_field(env, a, b, x[None, :] if fam.dim == 2 else x[:, None].T)[0])
        if fam.dim == 2:
            return mult * float(np.trace(mom_phi) + np.trace(mom_v))
        return mult * (mom_phi + mom_v)

    return _branch_values(fam, env, x, slot)


def extremal_from_moment(mom, sign: int, lam: float, lam_big: float):
    """Extremal value over the admissible coefficient set, given moments.

    Scalar moment (scalar classes): sup over multipliers in [lam, lam_big]
    of a*mom is lam_big*mom for positive mom and lam*mom otherwise; inf is
    the mirror image.  Matrix moment (2d matrix class): optimize trace(AB)
    over symmetric A with 0 <= A <= lam_big and trace(A) >= lam; with a
    positive eigenvalue present the top is lam_big * (sum of positive
    eigenvalues), otherwise the trace constraint binds at lam times the
    largest eigenvalue.  The inf is -sup for -B.
    """
    if sign not in (+1, -1):
        raise ConfigurationError("sign must be +1 or -1")
    if np.ndim(mom) == 0:
        m = float(mom)
        if sign > 0:
            return lam_big * m if m > 0 else lam * m
        return lam * m if m > 0 else lam_big * m
    B = np.asarray(mom, dtype=np.float64)
    if sign < 0:
        return -extremal_from_moment(-B, +1, lam, lam_big)
    mu = np.linalg.eigvalsh(B)
    if mu[-1] > 0:
        return lam_big * float(np.sum(mu[mu > 0]))
    return lam * float(mu[-1])


def extremal(u, x, sign: int, fam: KernelFamily, quad: QuadratureTable) -> float:
    """Extremal bound at a point over the family's admissible kernels.

    "cs" optimizes pointwise in y between the envelope bounds; "a"
    optimizes the coefficient against the moment of the second
    differences.  In 1d the "a" form equals the scalar-multiplier
    restriction of the "cs" form.
    """
    fam.validate()
    if fam.kind == "a":
        mom = unit_moment(u, x, quad)
        return extremal_from_moment(mom, sign, fam.lam, fam.lam_big)
    # the multiplier taken on positive and on negative second differences
    hi, lo = (fam.lam_big, fam.lam) if sign > 0 else (fam.lam, fam.lam_big)
    if u.dim == 1:
        z = _as_point(x, 1)
        h = quad.h
        uz = float(u(z[:, None].T)[0])
        J = quad.w.shape[0]
        offs = (np.arange(1, J + 1, dtype=np.float64) * h)[:, None]
        delta = u(z[None, :] + offs) + u(z[None, :] - offs) - 2.0 * uz
        dnear = delta[0] / h**2
        dfar = 2.0 * u.far - 2.0 * uz
        core = 2.0 * float(np.dot(quad.w, np.where(delta > 0, hi * delta, lo * delta)))
        core += quad.c_near * (hi * dnear if dnear > 0 else lo * dnear)
        core += quad.tail * (hi * dfar if dfar > 0 else lo * dfar)
        return core
    # 2d pointwise-in-y optimization against the plain envelope stencil.
    z = _as_point(x, 2)
    h = quad.h
    uz = float(u(z[None, :])[0])
    J = quad.n_offsets
    jj = np.arange(-J, J + 1, dtype=np.float64) * h
    PX, PY = np.meshgrid(jj, jj, indexing="ij")
    pts = np.column_stack([PX.ravel() + z[0], PY.ravel() + z[1]])
    dcen = u(pts).reshape(PX.shape) - uz
    # full second difference per cell: pair every offset with its mirror
    dsym = dcen + dcen[::-1, ::-1]
    ex = u(np.array([[z[0] + h, z[1]], [z[0] - h, z[1]]]))
    ey = u(np.array([[z[0], z[1] + h], [z[0], z[1] - h]]))
    dnear = 0.5 * (float(ex[0] + ex[1] - 2 * uz) + float(ey[0] + ey[1] - 2 * uz)) / h**2
    dfar = 2.0 * u.far - 2.0 * uz
    core = float(np.sum((quad.kxx + quad.kyy) * np.where(dsym > 0, hi * dsym, lo * dsym)))
    core += quad.c_near * (hi * dnear if dnear > 0 else lo * dnear)
    core += quad.tail * (hi * dfar if dfar > 0 else lo * dfar)
    return core


def direct_active_set(lat, max_steps=60):
    """(u, steps) of a 1d obstacle lattice's complementarity problem K u >= e - t,
    u >= 0, by the primal-dual active set with every step a dense solve on
    K[F, F], gathered from `lat.matrix()`: no inverse and no Schur step.

    The same contact rule as the lattice's own active set, on the full
    product K u: a free cell with u < 0 enters contact, a contact cell with
    (K u - b) > 0 leaves it, and the solve stops when the set repeats.
    """
    K = np.array(lat.matrix())
    b = lat.load() - lat.threshold()
    contact = np.zeros(b.size, dtype=bool)
    for steps in range(1, max_steps + 1):
        u = np.zeros(b.size)
        F = np.flatnonzero(~contact)
        if F.size:
            u[F] = np.linalg.solve(K[np.ix_(F, F)], b[F])
        new = (u < 0.0) | (contact & (K @ u - b > 0.0))
        if np.array_equal(new, contact):
            return u, steps
        contact = new
    raise AssertionError(f"the direct active set did not settle in {max_steps} steps")


def full_grid_quadrature_2d(sigma, h, r_out):
    """The 2d table of `build_quadrature`, every moment computed on the full
    (2J+1)^2 grid of cells: single midpoint everywhere, then the cells with
    |jx|, |jy| <= 4 refined 16 x 16."""
    J = int(round(r_out / h))
    jj = np.arange(-J, J + 1, dtype=np.float64)
    JX, JY = np.meshgrid(jj, jj, indexing="ij")
    stencil = np.zeros((3,) + JX.shape)
    kxx, kyy, kxy = stencil
    rad = np.hypot(JX, JY) * h
    inside = (rad > 0) & (rad <= r_out + 1e-12)

    def cell_moments(cx, cy, nsub):
        s = (np.arange(nsub) + 0.5) / nsub - 0.5
        SX, SY = np.meshgrid(cx + s * h, cy + s * h, indexing="ij")
        r2 = SX**2 + SY**2
        envv = r2 ** (-(2.0 + sigma + 2.0) / 2.0) * (h / nsub) ** 2
        return (
            float(np.sum(SX * SX * envv)),
            float(np.sum(SY * SY * envv)),
            float(np.sum(SX * SY * envv)),
        )

    cx, cy = JX[inside] * h, JY[inside] * h
    envv = (cx**2 + cy**2) ** (-(2.0 + sigma + 2.0) / 2.0) * h**2
    kxx[inside], kyy[inside], kxy[inside] = cx * cx * envv, cy * cy * envv, cx * cy * envv
    near = inside & (np.maximum(np.abs(JX), np.abs(JY)) <= 4)
    for ix, iy in zip(*np.nonzero(near)):
        kxx[ix, iy], kyy[ix, iy], kxy[ix, iy] = cell_moments(JX[ix, iy] * h, JY[ix, iy] * h, 16)
    s = (np.arange(128) + 0.5) / 128 - 0.5
    SX, SY = np.meshgrid(s * h, s * h, indexing="ij")
    r2 = SX**2 + SY**2
    c_near = float(np.sum(r2 ** (-sigma / 2.0))) * (h / 128) ** 2
    return QuadratureTable(
        dim=2, sigma=sigma, h=h, r_eff=r_out,
        w=None, c_near=c_near, tail=envelope_integral(2, sigma, r_out, np.inf),
        w_total=float(np.sum(kxx + kyy)),
        stencil=stencil, kxx=kxx, kyy=kyy, kxy=kxy,
    )
