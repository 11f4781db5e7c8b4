"""Pointwise reference evaluations of the nonlocal operators, for the tests.

These evaluate one point at a time, straight from the definitions:
sample the function, take second differences and moments against the
quadrature table, read the coefficients at the point and take the inf-sup
over the branches.  The lattices in `nlhomog.solve` evaluate every node at
once by correlation; the tests compare them against these, so this
brute force must stay independent of the lattice code.  The extremal
bounds at the end take the sup or inf over the admissible kernels instead
of the branches, in closed form from a moment or pointwise in y.  Last, a
1d obstacle active set whose every step is a dense solve on the free
block, the reference for the lattice's Schur steps.
"""

import numpy as np

from nlhomog.env import Environment, forcing_field, matrix_field, multiplier_field
from nlhomog.errors import ConfigurationError
from nlhomog.kernels import KernelFamily, QuadratureTable
from nlhomog.operators import _as_point, _sampler, unit_moment


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
    fn, _, dim = _sampler(u)
    x = _as_point(x, dim)
    y = _as_point(y, dim)
    vals = fn(np.stack([x + y, x - y, x]))
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
    _, _, dim = _sampler(u)
    x = _as_point(x, dim)
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
    _, _, dim = _sampler(v)
    x = _as_point(x, dim)
    x0 = _as_point(x0, dim)
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
    fn, far, dim = _sampler(u)
    if fam.kind == "a":
        mom = unit_moment(u, x, quad)
        return extremal_from_moment(mom, sign, fam.lam, fam.lam_big)
    # the multiplier taken on positive and on negative second differences
    hi, lo = (fam.lam_big, fam.lam) if sign > 0 else (fam.lam, fam.lam_big)
    if dim == 1:
        z = _as_point(x, 1)
        h = quad.h
        uz = float(fn(z[:, None].T)[0])
        J = quad.w.shape[0]
        offs = (np.arange(1, J + 1, dtype=np.float64) * h)[:, None]
        delta = fn(z[None, :] + offs) + fn(z[None, :] - offs) - 2.0 * uz
        dnear = delta[0] / h**2
        dfar = 2.0 * far - 2.0 * uz
        core = 2.0 * float(np.dot(quad.w, np.where(delta > 0, hi * delta, lo * delta)))
        core += quad.c_near * (hi * dnear if dnear > 0 else lo * dnear)
        core += quad.tail * (hi * dfar if dfar > 0 else lo * dfar)
        return core
    # 2d pointwise-in-y optimization against the plain envelope stencil.
    z = _as_point(x, 2)
    h = quad.h
    uz = float(fn(z[None, :])[0])
    J = quad.n_offsets
    jj = np.arange(-J, J + 1, dtype=np.float64) * h
    PX, PY = np.meshgrid(jj, jj, indexing="ij")
    pts = np.column_stack([PX.ravel() + z[0], PY.ravel() + z[1]])
    dcen = fn(pts).reshape(PX.shape) - uz
    # full second difference per cell: pair every offset with its mirror
    dsym = dcen + dcen[::-1, ::-1]
    ex = fn(np.array([[z[0] + h, z[1]], [z[0] - h, z[1]]]))
    ey = fn(np.array([[z[0], z[1] + h], [z[0], z[1] - h]]))
    dnear = 0.5 * (float(ex[0] + ex[1] - 2 * uz) + float(ey[0] + ey[1] - 2 * uz)) / h**2
    dfar = 2.0 * far - 2.0 * uz
    core = float(np.sum(quad.w * np.where(dsym > 0, hi * dsym, lo * dsym)))
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
