"""Kernel families and monotone quadrature tables.

Kernels factor as (coefficient multiplier at x) * (fixed power-law
envelope in y), with the multiplier scalar for the "cs" class and a
directional quadratic form y'A(x)y/|y|^2 for the matrix class.  The
quadrature table integrates the envelope exactly over lattice cells in
1d (midpoint with subcell refinement in 2d), compensates the singular
cell with a second-moment weight applied to the nearest second
difference, and closes the far field with the analytic tail integral.
All weights are nonnegative, which is what makes every discrete
operator built on the table monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "KernelFamily",
    "QuadratureTable",
    "build_quadrature",
    "envelope_integral",
    "second_moment_integral",
]


@dataclass(frozen=True)
class KernelFamily:
    kind: str  # "cs" | "a"
    dim: int
    sigma: float
    lam: float
    lam_big: float

    def validate(self):
        if self.kind not in ("cs", "a"):
            raise ConfigurationError(f"unknown kernel kind {self.kind!r}")
        if self.dim not in (1, 2):
            raise ConfigurationError("dim must be 1 or 2")
        if not (0.0 < self.sigma < 2.0):
            raise ConfigurationError(f"sigma must lie in (0, 2), got {self.sigma}")
        if not (0.0 < self.lam <= self.lam_big):
            raise ConfigurationError("need 0 < lam <= lam_big")
        return self


def envelope_integral(dim: int, sigma: float, r1: float, r2: float) -> float:
    """Integral of |y|^(-dim-sigma) over the shell r1 < |y| < r2 (r2=inf ok)."""
    if r1 <= 0:
        raise ConfigurationError("shell must exclude the origin")
    surf = 2.0 if dim == 1 else 2.0 * np.pi
    upper = 0.0 if np.isinf(r2) else r2 ** (-sigma)
    return surf * (r1 ** (-sigma) - upper) / sigma


def second_moment_integral(dim: int, sigma: float, r: float) -> float:
    """Integral of |y|^2 * |y|^(-dim-sigma) over the ball |y| < r."""
    surf = 2.0 if dim == 1 else 2.0 * np.pi
    return surf * r ** (2.0 - sigma) / (2.0 - sigma)


@dataclass(frozen=True)
class QuadratureTable:
    """Fixed-grid quadrature of the kernel envelope.

    1d: `w[j-1]` integrates the envelope over the cell centered at +j*h;
    the same weight serves -j*h through the symmetrized second difference.
    2d: `kxx/kyy/kxy` are dense convolution stencils of the directional
    moments w*yhat_i*yhat_k over all cells with 0 < |center| <= r_eff
    (their sum kxx+kyy is the plain envelope stencil).

    `c_near` is the full second moment of the envelope over the singular
    cell; applied to the axis second difference divided by h^2 it restores
    second-order consistency at the origin.  `tail` integrates the
    envelope beyond r_eff, to be paired with exterior far-field data.
    """

    dim: int
    sigma: float
    h: float
    r_eff: float
    w: np.ndarray
    c_near: float
    tail: float
    w_total: float
    kxx: np.ndarray | None = None
    kyy: np.ndarray | None = None
    kxy: np.ndarray | None = None

    @property
    def n_offsets(self):
        return int(self.w.shape[0]) if self.dim == 1 else int((self.kxx.shape[0] - 1) // 2)


def build_quadrature(dim: int, sigma: float, h: float, r_out: float) -> QuadratureTable:
    """Tabulate envelope weights for spacing h out to radius ~r_out."""
    if not (0.0 < sigma < 2.0):
        raise ConfigurationError(f"sigma must lie in (0, 2), got {sigma}")
    if h <= 0.0 or r_out < 4.0 * h:
        raise ConfigurationError("need h > 0 and r_out >= 4h")
    if dim == 1:
        J = int(round(r_out / h))
        j = np.arange(1, J + 1, dtype=np.float64)
        lo = (j - 0.5) * h
        hi = (j + 0.5) * h
        w = (lo ** (-sigma) - hi ** (-sigma)) / sigma
        r_eff = (J + 0.5) * h
        c_near = second_moment_integral(1, sigma, h / 2.0)
        tail = envelope_integral(1, sigma, r_eff, np.inf)
        return QuadratureTable(
            dim=1, sigma=sigma, h=h, r_eff=r_eff,
            w=w, c_near=c_near, tail=tail, w_total=2.0 * float(np.sum(w)),
        )
    if dim != 2:
        raise ConfigurationError("dim must be 1 or 2")
    J = int(round(r_out / h))
    jj = np.arange(-J, J + 1, dtype=np.float64)
    JX, JY = np.meshgrid(jj, jj, indexing="ij")
    kxx = np.zeros_like(JX)
    kyy = np.zeros_like(JX)
    kxy = np.zeros_like(JX)
    rad = np.hypot(JX, JY) * h
    inside = (rad > 0) & (rad <= r_out + 1e-12)
    # Midpoint rule per cell; subcell refinement near the origin where the
    # envelope varies fastest.
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

    # single midpoint everywhere, then the refined cells |jx|, |jy| <= 4
    cx, cy = JX[inside] * h, JY[inside] * h
    envv = (cx**2 + cy**2) ** (-(2.0 + sigma + 2.0) / 2.0) * h**2
    kxx[inside], kyy[inside], kxy[inside] = cx * cx * envv, cy * cy * envv, cx * cy * envv
    near = inside & (np.maximum(np.abs(JX), np.abs(JY)) <= 4)
    for ix, iy in zip(*np.nonzero(near)):
        kxx[ix, iy], kyy[ix, iy], kxy[ix, iy] = cell_moments(JX[ix, iy] * h, JY[ix, iy] * h, 16)
    # Second moment over the singular square cell, fine midpoint grid; the
    # integrand |y|^(-sigma) stays integrable so midpoint converges.
    s = (np.arange(128) + 0.5) / 128 - 0.5
    SX, SY = np.meshgrid(s * h, s * h, indexing="ij")
    r2 = SX**2 + SY**2
    c_near = float(np.sum(r2 ** (-sigma / 2.0))) * (h / 128) ** 2
    tail = envelope_integral(2, sigma, r_out, np.inf)
    w = kxx + kyy
    return QuadratureTable(
        dim=2, sigma=sigma, h=h, r_eff=r_out,
        w=w, c_near=c_near, tail=tail, w_total=float(np.sum(w)),
        kxx=kxx, kyy=kyy, kxy=kxy,
    )
