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
    moments envelope*yhat_i*yhat_k over all cells with 0 < |center| <= r_eff;
    their sum kxx+kyy is the plain envelope stencil, which the table does
    not hold (`w` is None).  kxx and kyy are even in each axis and kxy is
    odd, so the build computes a quadrant and mirrors it.

    `stencil`, which every lattice on the table reads, is (w reversed, 0, w)
    in 1d and in 2d one (3, 2J+1, 2J+1) array with views `kxx/kyy/kxy`.
    Beside it the 2d build holds only kxy's quadrant, the quadrant's mask
    and one row's temporaries; the fixed 128 x 128 grid of `c_near` is
    freed before the stencil is allocated.  `w_total` is the sum of w over
    both signs in 1d and of kxx + kyy in 2d.  The 2d table also holds the
    stencils' `sums` (of kxx, kyy and kxy) and `abs_kxy`, the sum of |kxy|,
    which every lattice on it reads.

    `c_near` is the full second moment of the envelope over the singular
    cell; applied to the axis second difference divided by h^2 it restores
    second-order consistency at the origin.  `tail` integrates the
    envelope beyond r_eff, to be paired with exterior far-field data.
    """

    dim: int
    sigma: float
    h: float
    r_eff: float
    w: np.ndarray | None
    c_near: float
    tail: float
    w_total: float
    stencil: np.ndarray
    kxx: np.ndarray | None = None
    kyy: np.ndarray | None = None
    kxy: np.ndarray | None = None
    sums: tuple | None = None
    abs_kxy: float | None = None

    @property
    def n_offsets(self):
        return int((self.stencil.shape[-1] - 1) // 2)


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
            stencil=np.concatenate((w[::-1], [0.0], w)),
        )
    if dim != 2:
        raise ConfigurationError("dim must be 1 or 2")
    J = int(round(r_out / h))
    c_near = _singular_cell_moment_2d(sigma, h)  # its 128^2 grid is freed before the stencil
    p = -(2.0 + sigma + 2.0) / 2.0
    stencil = np.zeros((3, 2 * J + 1, 2 * J + 1))
    kxx, kyy, kxy = stencil  # views: filling them fills the stencil
    # The envelope is even in y, so kxx and kyy are even in each axis and kxy
    # is odd: the midpoint moments of the quadrant jx, jy >= 0, one row at a
    # time, fix every cell, since a sign flip is exact.  kxy's quadrant waits
    # in `qxy`, because kxy's plane is scratch for the sums of kxx + kyy and |kxy|.
    q = np.arange(J + 1, dtype=np.float64)
    qxy = np.zeros((J + 1, J + 1))
    inside = np.zeros((J + 1, J + 1), dtype=bool)
    for a in range(J + 1):
        row = inside[a]
        rad = np.hypot(q[a], q) * h
        row[:] = (rad > 0) & (rad <= r_out + 1e-12)
        cx, cy = q[a] * h, q[row] * h
        envv = (cx * cx + cy**2) ** p * h**2
        kxx[J + a, J:][row] = cx * cx * envv
        kyy[J + a, J:][row] = cy * cy * envv
        qxy[a, row] = cx * cy * envv
        # mirrored a row at a time: the two sides of one copy never share
        # bounds, so numpy copies without a temporary
        for k in (kxx, kyy):
            k[J + a, :J] = k[J + a, :J:-1]
            k[J - a] = k[J + a]
    # The refined cells |jx|, |jy| <= 4 are each summed in full, since the
    # subcell sum of a mirrored cell would run in another order: one row of
    # the 9 x 9 block at a time, stored where the block meets the disc.
    jn = np.arange(-4, 5)
    near = np.stack([_cell_moments(sigma, h, ix * h, jn * h, 16) for ix in jn], axis=1)
    refined = inside[np.abs(jn)[:, None], np.abs(jn)]
    block = (slice(J - 4, J + 5),) * 2
    kxx[block][refined], kyy[block][refined] = near[0][refined], near[1][refined]
    w_total = float(np.sum(np.add(kxx, kyy, out=kxy)))
    # |kxy| is qxy mirrored in every quadrant, and summed in kxy's plane
    # before the odd quadrants are negated
    kxy[J:, J:] = qxy
    kxy[J - 1::-1, J:] = qxy[1:]
    kxy[J:, J - 1::-1] = qxy[:, 1:]
    kxy[J - 1::-1, J - 1::-1] = qxy[1:, 1:]
    kxy[block][refined] = np.abs(near[2][refined])
    abs_kxy = float(np.sum(kxy))
    # kxy: +0.0 off the disc, and -0.0 where an axis cell's odd mirror lands
    np.negative(qxy[1:], out=kxy[J - 1::-1, J:], where=inside[1:])
    np.negative(qxy[:, 1:], out=kxy[J:, J - 1::-1], where=inside[:, 1:])
    kxy[block][refined] = near[2][refined]
    tail = envelope_integral(2, sigma, r_out, np.inf)
    return QuadratureTable(
        dim=2, sigma=sigma, h=h, r_eff=r_out,
        w=None, c_near=c_near, tail=tail, w_total=w_total,
        stencil=stencil, kxx=kxx, kyy=kyy, kxy=kxy,
        sums=tuple(float(np.sum(k)) for k in stencil), abs_kxy=abs_kxy,
    )


def _cell_moments(sigma, h, cx, cy, nsub):
    """(3, n) midpoint-rule xx, yy and xy moments of the 2d envelope over the
    n cells centered at (cx, cy[k]), each on nsub x nsub subcells."""
    s = (np.arange(nsub) + 0.5) / nsub - 0.5
    SX = (cx + s * h)[:, None]
    SY = (cy[:, None] + s * h)[:, None, :]
    r2 = SX**2 + SY**2
    envv = r2 ** (-(2.0 + sigma + 2.0) / 2.0) * (h / nsub) ** 2
    return np.stack([(A * B * envv).reshape(cy.size, -1).sum(axis=1)
                     for A, B in ((SX, SX), (SY, SY), (SX, SY))])


def _singular_cell_moment_2d(sigma, h):
    """Second moment of the 2d envelope over the singular square cell, on a
    fine midpoint grid; the integrand |y|^(-sigma) stays integrable, so the
    midpoint rule converges."""
    s = (np.arange(128) + 0.5) / 128 - 0.5
    r2 = (s * h)[:, None] ** 2 + (s * h)[None, :] ** 2
    return float(np.sum(np.power(r2, -sigma / 2.0, out=r2))) * (h / 128) ** 2
