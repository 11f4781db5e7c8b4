"""Random coefficient environments on the unit lattice.

An environment is an infinite checkerboard of i.i.d. cell draws, realized
lazily: the draw for a cell is a counter-based hash of (master seed, cell
index, branch indices), so any cell can be queried without materializing
the field.  A continuous shift vector makes the field genuinely stationary
under arbitrary translations; `translate` composes the shift, which keeps
the translation identity exact in floating point whenever the queried
points and shifts are binary rationals (grids, scales, and sampled shifts
in this package all are).

A draw is a pure function of its counter (stream, folded cell, branch,
channel), so the field functions read a batch of environments of one spec
at once: each distinct (stream, folded cell) that the batch's points
interpolate is hashed once per channel, and every point is interpolated
from the gathered draws with the arithmetic of a call of its own, so each
item of a batch is the bits of its batch of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "EnvironmentSpec",
    "Environment",
    "sample_environment",
    "translate",
    "multiplier_field",
    "matrix_field",
    "forcing_field",
]

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
# Fixed stream used by deterministic periodic layouts; the master seed is
# ignored there so that two runs with different seeds agree bit for bit.
_PERIODIC_SEED = _U64(0x853C49E6748FEA9B)

_CH_COEFF = 0  # scalar multiplier, or first eigenvalue in 2d
_CH_EIG2 = 1
_CH_ANGLE = 2
_CH_FORCING = 8
_CH_SHIFT = 16


def _mix(h):
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    h = h + _GOLDEN
    h = (h ^ (h >> _U64(30))) * _MIX1
    h = (h ^ (h >> _U64(27))) * _MIX2
    return h ^ (h >> _U64(31))


def _absorb(h, word):
    return _mix(h ^ word)


def _cell_uniforms(seed, cells, alpha, beta, channel):
    """Uniform [0,1) draw per lattice cell and (alpha, beta) branch.

    cells: integer array of shape (N, dim); alpha, beta: branch indices,
    integers or arrays of one broadcast shape S, giving draws of shape
    (N,) + S.  The hash absorbs the seed, each cell coordinate, the branch
    indices, and a channel tag, so all streams are mutually independent for
    practical purposes.
    """
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    h = np.full(cells.shape[0], seed, dtype=np.uint64)
    for axis in range(cells.shape[1]):
        h = _absorb(h, cells[:, axis].view(np.uint64))
    h = h.reshape(h.shape + (1,) * len(_branch_shape(alpha, beta)))
    h = _absorb(h, np.asarray(alpha).astype(np.uint64))
    h = _absorb(h, (np.asarray(beta) + 1024).astype(np.uint64))
    h = _absorb(h, _U64(channel + 4096))
    return (h >> _U64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class EnvironmentSpec:
    """Law of the random environment.

    The coefficient law feeds the kernel family: a scalar multiplier in
    [lam, lam_big] per cell for the "cs" class (and for "a" in 1d, where
    the two classes coincide), or a symmetric matrix with trace >= lam and
    eigenvalues in [0, lam_big] for the "a" class in 2d.  Forcing draws
    are bounded by f_bound.
    """

    dim: int = 1
    n_alpha: int = 1
    n_beta: int = 1
    kernel_class: str = "cs"  # "cs" | "a"
    lam: float = 1.0
    lam_big: float = 2.0
    coeff_law: str = "uniform"  # "uniform" | "fixed"
    coeff_value: float | None = None
    forcing_law: str = "uniform"  # "uniform" | "fixed"
    f_bound: float = 1.0
    forcing_value: float | None = None
    interpolation: str = "multilinear"  # "multilinear" | "constant"
    layout: str = "iid"  # "iid" | "periodic"
    period: int = 2
    cell: float = 1.0  # lattice cell edge; fixed at 1.0

    def validate(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if self.n_alpha < 1 or self.n_beta < 1:
            raise ConfigurationError("index sets must be nonempty")
        if self.n_alpha > 16 or self.n_beta > 16:
            raise ConfigurationError("index sets larger than 16 are not supported")
        if self.kernel_class not in ("cs", "a"):
            raise ConfigurationError(f"unknown kernel_class {self.kernel_class!r}")
        if not (0.0 < self.lam <= self.lam_big):
            raise ConfigurationError(
                f"need 0 < lam <= lam_big, got lam={self.lam}, lam_big={self.lam_big}"
            )
        if self.coeff_law not in ("uniform", "fixed"):
            raise ConfigurationError(f"unknown coeff_law {self.coeff_law!r}")
        if self.forcing_law not in ("uniform", "fixed"):
            raise ConfigurationError(f"unknown forcing_law {self.forcing_law!r}")
        if self.coeff_law == "fixed":
            if self.coeff_value is None:
                raise ConfigurationError("coeff_law='fixed' requires coeff_value")
            lo = self.lam / self.dim if (self.kernel_class == "a" and self.dim == 2) else self.lam
            if not (lo <= self.coeff_value <= self.lam_big):
                raise ConfigurationError(
                    f"coeff_value {self.coeff_value} outside admissible range [{lo}, {self.lam_big}]"
                )
        if self.f_bound < 0:
            raise ConfigurationError("f_bound must be >= 0")
        if self.forcing_law == "fixed":
            if self.forcing_value is None:
                raise ConfigurationError("forcing_law='fixed' requires forcing_value")
            if abs(self.forcing_value) > self.f_bound:
                raise ConfigurationError("forcing_value exceeds f_bound")
        if self.interpolation not in ("multilinear", "constant"):
            raise ConfigurationError(f"unknown interpolation {self.interpolation!r}")
        if self.layout not in ("iid", "periodic"):
            raise ConfigurationError(f"unknown layout {self.layout!r}")
        if self.layout == "periodic" and not 1 <= self.period < 2**63:
            # cell indices are int64, and they are folded modulo the period
            raise ConfigurationError(f"period must lie in [1, 2**63), got {self.period}")
        if self.cell != 1.0:
            raise ConfigurationError("cell edge is fixed at 1.0")
        return self


@dataclass(frozen=True)
class Environment:
    """One realization: a spec, a master seed, and the current shift.

    The shift starts uniform in [0,1)^dim (drawn on a fine binary lattice
    so later arithmetic stays exact) and accumulates every `translate`.
    """

    spec: EnvironmentSpec
    seed: int
    shift: tuple

    @property
    def dim(self):
        return self.spec.dim


def sample_environment(spec: EnvironmentSpec, seed: int) -> Environment:
    """Draw one environment realization from its law."""
    spec.validate()
    if not (0 <= int(seed) < 2**64):
        raise ConfigurationError("seed must fit in 64 bits")
    seed = int(seed)
    if spec.layout == "periodic":
        # Deterministic layout: seed-independent field, no shift.
        return Environment(spec=spec, seed=seed, shift=(0.0,) * spec.dim)
    shift = []
    for axis in range(spec.dim):
        u = _cell_uniforms(
            _U64(seed), np.array([[axis] * spec.dim]), 0, 0, _CH_SHIFT
        )[0]
        # Quantize to multiples of 2^-26: exact under float addition in the
        # ranges this package touches, which keeps translations bit-exact.
        shift.append(np.floor(u * 2.0**26) * 2.0**-26)
    return Environment(spec=spec, seed=seed, shift=tuple(float(s) for s in shift))


def translate(env: Environment, z) -> Environment:
    """Environment seen from the point z: field'(x) = field(x + z)."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if z.shape != (env.dim,):
        raise ConfigurationError(f"translation vector must have shape ({env.dim},)")
    shift = tuple(float(s + dz) for s, dz in zip(env.shift, z))
    return replace(env, shift=shift)


def _warp(env, x):
    """Absolute query positions in lattice coordinates, shape (N, dim)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != env.dim:
        raise ConfigurationError(f"points must have shape (N, {env.dim})")
    return x + np.asarray(env.shift, dtype=np.float64)


def _stream(env):
    if env.spec.layout == "periodic":
        return _PERIODIC_SEED
    return _U64(env.seed)


def _fold_cells(spec, cells):
    if spec.layout == "periodic":
        return np.mod(cells, spec.period)
    return cells


def _draw_scalar(stream, cells, alpha, beta, channel, lo, hi):
    return lo + _cell_uniforms(stream, cells, alpha, beta, channel) * (hi - lo)


def _branch_shape(alpha, beta):
    return np.broadcast_shapes(np.shape(alpha), np.shape(beta))


def _scalar_cells(spec, stream, cells, alpha, beta, which):
    """Per-cell scalar draws, shape (N,) + S. which: 'coeff' or 'forcing'."""
    shape = cells.shape[:1] + _branch_shape(alpha, beta)
    if which == "coeff":
        if spec.coeff_law == "fixed":
            return np.full(shape, float(spec.coeff_value))
        return _draw_scalar(stream, cells, alpha, beta, _CH_COEFF, spec.lam, spec.lam_big)
    if spec.forcing_law == "fixed":
        return np.full(shape, float(spec.forcing_value))
    return _draw_scalar(stream, cells, alpha, beta, _CH_FORCING, -spec.f_bound, spec.f_bound)


def _matrix_cells(spec, stream, cells, alpha, beta):
    """Per-cell symmetric 2x2 draws for the matrix ("a") class in 2d, shape
    (N,) + S + (2, 2).

    Eigenvalues are uniform in [lam/2, lam_big] so the trace is >= lam and
    the top eigenvalue is <= lam_big; the eigenbasis angle is uniform.
    """
    if spec.kernel_class != "a" or spec.dim != 2:
        raise ConfigurationError("matrix_field applies to the 2d matrix class only")
    if spec.coeff_law == "fixed":
        a = float(spec.coeff_value)
        out = np.zeros(cells.shape[:1] + _branch_shape(alpha, beta) + (2, 2))
        out[..., 0, 0] = a
        out[..., 1, 1] = a
        return out
    lo = spec.lam / 2.0
    mu1 = _draw_scalar(stream, cells, alpha, beta, _CH_COEFF, lo, spec.lam_big)
    mu2 = _draw_scalar(stream, cells, alpha, beta, _CH_EIG2, lo, spec.lam_big)
    th = _draw_scalar(stream, cells, alpha, beta, _CH_ANGLE, 0.0, np.pi)
    c, s = np.cos(th), np.sin(th)
    out = np.empty(mu1.shape + (2, 2))
    out[..., 0, 0] = mu1 * c * c + mu2 * s * s
    out[..., 1, 1] = mu1 * s * s + mu2 * c * c
    out[..., 0, 1] = (mu1 - mu2) * c * s
    out[..., 1, 0] = out[..., 0, 1]
    return out


def _corners(spec, w):
    """The cells that interpolate the warped positions w, as a list of
    (cells, weights) with weights None for the one cell of "constant".

    Multilinear blending treats draws as values at cell centers: 2^dim
    corners, each weighted by the product over the axes of t or 1 - t.
    """
    if spec.interpolation == "constant":
        return [(np.floor(w).astype(np.int64), None)]
    base = np.floor(w - 0.5).astype(np.int64)
    t = (w - 0.5) - base  # in [0,1), exact for binary-rational inputs
    dim = w.shape[1]
    corners = []
    for corner in range(2**dim):
        offs = np.array([(corner >> a) & 1 for a in range(dim)], dtype=np.int64)
        wt = np.ones(w.shape[0])
        for a in range(dim):
            wt = wt * (t[:, a] if offs[a] else (1.0 - t[:, a]))
        corners.append((base + offs, wt))
    return corners


def _distinct(cells):
    """The distinct rows of cells (R, dim), and `inverse`, with
    distinct[inverse] giving back every row.

    The rows are sorted by their axes in turn (`np.lexsort`), so cells of
    any int64 spread compare exactly.
    """
    order = np.lexsort(cells.T[::-1])
    ordered = cells[order]
    first = np.ones(len(cells), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(cells), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


# The fields below read one environment, or a batch of environments of one
# spec.  For one, `env` is an Environment and x its points (N, dim); for a
# batch, `env` is a sequence of environments and x a sequence of point
# arrays, one each.  The branch (alpha, beta) is two integers, or two integer
# arrays of one broadcast shape S for the fields of many branches in one
# call.  The values at one environment's points have shape S + (N,), and a
# batch gives the list of them.  A call hashes each distinct (stream, folded
# cell) that its points interpolate once per channel, one stream at a time,
# and the values at every point are the same bits as in a call of their
# own, so a batch of lattices reads each field once for all its
# environments and branches.

def _field(env, alpha, beta, x, draw):
    """draw(spec, stream, cells, alpha, beta) interpolated at the points x
    of env, one environment or a batch, with the branch axes S in front."""
    single = isinstance(env, Environment)
    envs, xs = ([env], [x]) if single else (list(env), list(x))
    if not envs:
        return []
    spec = envs[0].spec
    if len(xs) != len(envs) or any(e.spec != spec for e in envs):
        raise ConfigurationError("a batch reads environments of one spec, "
                                 "with one point array each")
    _check_branch(spec, alpha, beta)
    ws = [_warp(e, xi) for e, xi in zip(envs, xs)]
    streams = {}  # the items of each stream, which share its draws
    for i, e in enumerate(envs):
        streams.setdefault(int(_stream(e)), []).append(i)
    front = len(_branch_shape(alpha, beta))
    out = [None] * len(envs)
    for stream, items in streams.items():
        corners = _corners(spec, np.concatenate([ws[i] for i in items]))
        cells, inverse = _distinct(_fold_cells(spec, np.concatenate([c for c, _ in corners])))
        vals = np.split(draw(spec, _U64(stream), cells, alpha, beta)[inverse], len(corners))
        acc = None
        for v, (_, wt) in zip(vals, corners):
            if wt is not None:
                v = v * wt.reshape((-1,) + (1,) * (v.ndim - 1))
            acc = v if acc is None else acc + v
        for i, part in zip(items, np.split(acc, np.cumsum([len(ws[i]) for i in items])[:-1])):
            out[i] = np.ascontiguousarray(np.moveaxis(part, 0, front))
    return out[0] if single else out


def multiplier_field(env, alpha, beta, x):
    """Scalar kernel multipliers at points x, shape S + (N,).

    Valid for the "cs" class in any dimension and the "a" class in 1d.
    """
    return _field(env, alpha, beta, x, functools.partial(_scalar_cells, which="coeff"))


def matrix_field(env, alpha, beta, x):
    """Symmetric-matrix coefficients at points x, shape S + (N, 2, 2). 2d "a" class."""
    return _field(env, alpha, beta, x, _matrix_cells)


def forcing_field(env, alpha, beta, x):
    """Forcing values at points x, shape S + (N,)."""
    return _field(env, alpha, beta, x, functools.partial(_scalar_cells, which="forcing"))


def _check_branch(spec, alpha, beta):
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    if not (np.all((0 <= alpha) & (alpha < spec.n_alpha))
            and np.all((0 <= beta) & (beta < spec.n_beta))):
        raise ConfigurationError(
            f"branch ({alpha},{beta}) outside index sets "
            f"{spec.n_alpha}x{spec.n_beta}"
        )
