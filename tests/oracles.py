"""Pointwise reference evaluations of the nonlocal operators, for the tests.

These evaluate one point at a time, straight from the definitions:
sample the function, take second differences and moments against the
quadrature table, read the coefficients at the point and take the inf-sup
over the branches.  The lattices in `nlhomog.solve` evaluate every node at
once by correlation; the tests compare them against these, so this
brute force must stay independent of the lattice code.
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
