"""Grid functions, test functions, unit moments and the extremal bounds.

Conventions used throughout:

* grids are cell-centered: a box of half-width `half` and spacing `h`
  carries m = 2*half/h values at x_i = center - half + (i + 1/2) h, so a
  partition of a box along cell boundaries partitions its nodes exactly;
* the second difference d_u(x, y) = u(x+y) + u(x-y) - 2 u(x) is integrated
  over the whole space, which counts each unordered pair {y, -y} twice:
  pair sums over positive offsets enter with a factor 2, while the origin
  compensation and the tail integral are both already two-sided;
* every evaluation decomposes as (multiplier at x) x (envelope moment of
  the function at the difference slot z), which is what the frozen
  operator exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .kernels import KernelFamily, QuadratureTable

__all__ = [
    "Box",
    "ExteriorRule",
    "GridFunction",
    "TestFunction",
    "extremal",
    "extremal_from_moment",
    "unit_moment",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned cube with a cell-centered grid."""

    center: tuple
    half: float
    h: float

    def __post_init__(self):
        if self.half <= 0 or self.h <= 0:
            raise ConfigurationError("box needs positive half-width and spacing")
        m = 2.0 * self.half / self.h
        if abs(m - round(m)) > 1e-9 or round(m) < 1:
            raise ConfigurationError(
                f"spacing {self.h} does not tile the box of half-width {self.half}"
            )

    @property
    def dim(self):
        return len(self.center)

    @property
    def m(self):
        """Cells per axis."""
        return int(round(2.0 * self.half / self.h))

    def axis_nodes(self, axis):
        i = np.arange(self.m, dtype=np.float64)
        return self.center[axis] - self.half + (i + 0.5) * self.h

    def nodes(self):
        """All cell centers: (m, 1) in 1d, (m*m, 2) in 2d (row-major)."""
        if self.dim == 1:
            return self.axis_nodes(0)[:, None]
        X, Y = np.meshgrid(self.axis_nodes(0), self.axis_nodes(1), indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])


@dataclass(frozen=True)
class ExteriorRule:
    """Values of a function outside its grid box.

    `fn` maps points (N, dim) to values (N,); `far` is the constant the
    rule settles to far out, used to close tail integrals analytically.
    """

    fn: Callable
    far: float

    @staticmethod
    def constant(value: float) -> "ExteriorRule":
        v = float(value)
        return ExteriorRule(fn=lambda pts: np.full(np.shape(pts)[0], v), far=v)

    @staticmethod
    def zero() -> "ExteriorRule":
        return ExteriorRule.constant(0.0)

    @staticmethod
    def from_function(fn: Callable, far: float) -> "ExteriorRule":
        return ExteriorRule(fn=fn, far=float(far))


@dataclass
class GridFunction:
    """Values on a box grid plus an exterior rule covering the complement."""

    box: Box
    values: np.ndarray
    exterior: ExteriorRule

    def __post_init__(self):
        m = self.box.m
        want = (m,) if self.box.dim == 1 else (m, m)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != want:
            raise ConfigurationError(
                f"values shape {self.values.shape} does not match grid {want}"
            )

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

    def __call__(self, pts):
        return self.sample(pts)

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


def _smooth_step(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class TestFunction:
    """Quadratic profile smoothly capped to zero far from its center.

    value(x) = [ (x-c)'P(x-c)/2 + p.(x-c) + const ] * s(|x-c|), with s = 1
    inside r_cut/2 and s = 0 outside r_cut (cubic blend between), so the
    function is the raw quadratic near the center, C^{1,1} everywhere,
    bounded, and exactly zero far out (far field value 0).
    """

    P: np.ndarray
    p: np.ndarray
    const: float
    center: np.ndarray
    r_cut: float

    @staticmethod
    def make(P, p=None, const=0.0, center=None, r_cut=4.0, dim=None):
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        d = P.shape[0] if dim is None else dim
        if P.shape != (d, d) or not np.allclose(P, P.T, atol=0.0):
            raise ConfigurationError("P must be a symmetric (dim, dim) matrix")
        p = np.zeros(d) if p is None else np.asarray(p, dtype=np.float64)
        center = np.zeros(d) if center is None else np.asarray(center, dtype=np.float64)
        if p.shape != (d,) or center.shape != (d,):
            raise ConfigurationError("p and center must have shape (dim,)")
        if r_cut <= 0:
            raise ConfigurationError("r_cut must be positive")
        return TestFunction(P=P, p=p, const=float(const), center=center, r_cut=float(r_cut))

    @property
    def dim(self):
        return self.P.shape[0]

    @property
    def far(self):
        return 0.0

    def shifted(self, x0) -> "TestFunction":
        """The function x -> value(x + x0) (center moves to center - x0)."""
        x0 = np.asarray(x0, dtype=np.float64)
        return replace(self, center=self.center - x0)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None] if self.dim == 1 else pts[None, :]
        d = pts - self.center
        quad = 0.5 * np.einsum("ni,ij,nj->n", d, self.P, d) + d @ self.p + self.const
        r = np.sqrt(np.sum(d * d, axis=1))
        s = 1.0 - _smooth_step((r - 0.5 * self.r_cut) / (0.5 * self.r_cut))
        return quad * s


def _as_point(x, dim):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (dim,):
        raise ConfigurationError(f"point must have shape ({dim},)")
    return x


def _sampler(u):
    """(sample function, far value, dim) for grid functions and callables."""
    if isinstance(u, GridFunction):
        return u.sample, u.far, u.box.dim
    if isinstance(u, TestFunction):
        return u.__call__, u.far, u.dim
    raise ConfigurationError(f"cannot evaluate object of type {type(u).__name__}")


def unit_moment(u, z, quad: QuadratureTable):
    """Envelope moments of the second differences of u at slot z.

    1d: the scalar integral of d_u(z, y) against the envelope (pair sum
    with factor 2, origin compensation, analytic tail).  2d: the symmetric
    (2, 2) matrix of integrals against yhat yhat' times the envelope; its
    trace is the plain envelope integral.
    """
    fn, far, dim = _sampler(u)
    if dim != quad.dim:
        raise ConfigurationError("function and quadrature dimensions differ")
    z = _as_point(z, dim)
    h = quad.h
    uz = float(fn(z[None, :] if dim == 2 else z[:, None].T)[0])
    if dim == 1:
        J = quad.w.shape[0]
        offs = (np.arange(1, J + 1, dtype=np.float64) * h)[:, None]
        vplus = fn(z[None, :] + offs)
        vminus = fn(z[None, :] - offs)
        delta = vplus + vminus - 2.0 * uz
        total = 2.0 * float(np.dot(quad.w, delta))
        total += quad.c_near * delta[0] / h**2
        total += quad.tail * (2.0 * far - 2.0 * uz)
        return total
    J = quad.n_offsets
    jj = np.arange(-J, J + 1, dtype=np.float64) * h
    PX, PY = np.meshgrid(jj, jj, indexing="ij")
    pts = np.column_stack([PX.ravel() + z[0], PY.ravel() + z[1]])
    vals = fn(pts).reshape(PX.shape)
    # Dense stencil already covers both signs of every offset.
    dcen = vals - uz
    bxx = 2.0 * float(np.sum(quad.kxx * dcen))
    byy = 2.0 * float(np.sum(quad.kyy * dcen))
    bxy = 2.0 * float(np.sum(quad.kxy * dcen))
    ex = fn(np.array([[z[0] + h, z[1]], [z[0] - h, z[1]]]))
    ey = fn(np.array([[z[0], z[1] + h], [z[0], z[1] - h]]))
    dxx = float(ex[0] + ex[1] - 2.0 * uz) / h**2
    dyy = float(ey[0] + ey[1] - 2.0 * uz) / h**2
    bxx += 0.5 * quad.c_near * dxx
    byy += 0.5 * quad.c_near * dyy
    t = quad.tail * (2.0 * far - 2.0 * uz)
    bxx += 0.5 * t
    byy += 0.5 * t
    return np.array([[bxx, bxy], [bxy, byy]])


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
