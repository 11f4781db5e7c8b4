"""Boxes, exterior rules, test functions and unit moments.

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
from .kernels import QuadratureTable

__all__ = [
    "Box",
    "ExteriorRule",
    "TestFunction",
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
        if not np.isfinite(m) or abs(m - round(m)) > 1e-9 or round(m) < 1:
            raise ConfigurationError(
                f"spacing {self.h} does not tile the box of half-width {self.half} "
                f"with a finite number of whole cells"
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
        """All cell centers, shape (m**dim, dim), row-major."""
        grids = np.meshgrid(*(self.axis_nodes(a) for a in range(self.dim)), indexing="ij")
        return np.column_stack([X.ravel() for X in grids])


@dataclass(frozen=True)
class _Constant:
    """The values of a constant exterior rule, equal by value."""

    value: float

    def __call__(self, pts):
        return np.full(np.shape(pts)[0], self.value)


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
        """The constant rule; two of one value are equal, so a batch reads them once."""
        v = float(value)
        return ExteriorRule(fn=_Constant(v), far=v)

    @staticmethod
    def zero() -> "ExteriorRule":
        return ExteriorRule.constant(0.0)


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


def unit_moment(u, z, quad: QuadratureTable):
    """Envelope moments of the second differences of u at slot z.

    1d: the scalar integral of d_u(z, y) against the envelope (pair sum
    with factor 2, origin compensation, analytic tail).  2d: the symmetric
    (2, 2) matrix of integrals against yhat yhat' times the envelope; its
    trace is the plain envelope integral.  u is a callable on points (N, dim)
    with `dim` and `far`, the value it settles to far out: a TestFunction.
    """
    if u.dim != quad.dim:
        raise ConfigurationError("function and quadrature dimensions differ")
    z = _as_point(z, u.dim)
    h = quad.h
    uz = float(u(z[None, :])[0])
    if u.dim == 1:
        J = quad.w.shape[0]
        offs = (np.arange(1, J + 1, dtype=np.float64) * h)[:, None]
        vplus = u(z[None, :] + offs)
        vminus = u(z[None, :] - offs)
        delta = vplus + vminus - 2.0 * uz
        total = 2.0 * float(np.dot(quad.w, delta))
        total += quad.c_near * delta[0] / h**2
        total += quad.tail * (2.0 * u.far - 2.0 * uz)
        return total
    J = quad.n_offsets
    jj = np.arange(-J, J + 1, dtype=np.float64) * h
    PX, PY = np.meshgrid(jj, jj, indexing="ij")
    pts = np.column_stack([PX.ravel() + z[0], PY.ravel() + z[1]])
    vals = u(pts).reshape(PX.shape)
    # Dense stencil already covers both signs of every offset.
    dcen = vals - uz
    bxx = 2.0 * float(np.sum(quad.kxx * dcen))
    byy = 2.0 * float(np.sum(quad.kyy * dcen))
    bxy = 2.0 * float(np.sum(quad.kxy * dcen))
    ex = u(np.array([[z[0] + h, z[1]], [z[0] - h, z[1]]]))
    ey = u(np.array([[z[0], z[1] + h], [z[0], z[1] - h]]))
    dxx = float(ex[0] + ex[1] - 2.0 * uz) / h**2
    dyy = float(ey[0] + ey[1] - 2.0 * uz) / h**2
    bxx += 0.5 * quad.c_near * dxx
    byy += 0.5 * quad.c_near * dyy
    t = quad.tail * (2.0 * u.far - 2.0 * uz)
    bxx += 0.5 * t
    byy += 0.5 * t
    return np.array([[bxx, bxy], [bxy, byy]])
