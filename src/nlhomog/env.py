"""Random coefficient environments on the unit lattice.

An environment is an infinite checkerboard of i.i.d. cell draws, realized
lazily: the draw for a cell is a counter-based hash of (master seed, cell
index, branch indices), so any cell can be queried without materializing
the field.  A continuous shift vector makes the field genuinely stationary
under arbitrary translations; `translate` composes the shift, which keeps
the translation identity exact in floating point whenever the queried
points and shifts are binary rationals (grids, scales, and sampled shifts
in this package all are).
"""

from __future__ import annotations

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
        if self.layout == "periodic" and self.period < 1:
            raise ConfigurationError("period must be >= 1")
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


def _fold_cells(env, cells):
    if env.spec.layout == "periodic":
        return np.mod(cells, env.spec.period)
    return cells


def _draw_scalar(env, alpha, beta, cells, channel, lo, hi):
    u = _cell_uniforms(_stream(env), _fold_cells(env, cells), alpha, beta, channel)
    return lo + u * (hi - lo)


def _branch_shape(alpha, beta):
    return np.broadcast_shapes(np.shape(alpha), np.shape(beta))


def _scalar_cells(env, alpha, beta, cells, which):
    """Per-cell scalar draws, shape (N,) + S. which: 'coeff' or 'forcing'."""
    spec = env.spec
    shape = cells.shape[:1] + _branch_shape(alpha, beta)
    if which == "coeff":
        if spec.coeff_law == "fixed":
            return np.full(shape, float(spec.coeff_value))
        return _draw_scalar(env, alpha, beta, cells, _CH_COEFF, spec.lam, spec.lam_big)
    if spec.forcing_law == "fixed":
        return np.full(shape, float(spec.forcing_value))
    return _draw_scalar(
        env, alpha, beta, cells, _CH_FORCING, -spec.f_bound, spec.f_bound
    )


def _matrix_cells(env, alpha, beta, cells):
    """Per-cell symmetric 2x2 draws for the matrix ("a") class in 2d, shape
    (N,) + S + (2, 2).

    Eigenvalues are uniform in [lam/2, lam_big] so the trace is >= lam and
    the top eigenvalue is <= lam_big; the eigenbasis angle is uniform.
    """
    spec = env.spec
    if spec.coeff_law == "fixed":
        a = float(spec.coeff_value)
        out = np.zeros(cells.shape[:1] + _branch_shape(alpha, beta) + (2, 2))
        out[..., 0, 0] = a
        out[..., 1, 1] = a
        return out
    lo = spec.lam / 2.0
    mu1 = _draw_scalar(env, alpha, beta, cells, _CH_COEFF, lo, spec.lam_big)
    mu2 = _draw_scalar(env, alpha, beta, cells, _CH_EIG2, lo, spec.lam_big)
    th = _draw_scalar(env, alpha, beta, cells, _CH_ANGLE, 0.0, np.pi)
    c, s = np.cos(th), np.sin(th)
    out = np.empty(mu1.shape + (2, 2))
    out[..., 0, 0] = mu1 * c * c + mu2 * s * s
    out[..., 1, 1] = mu1 * s * s + mu2 * c * c
    out[..., 0, 1] = (mu1 - mu2) * c * s
    out[..., 1, 0] = out[..., 0, 1]
    return out


def _interp(env, w, draw):
    """Evaluate per-cell draws at warped positions w, honoring the
    environment's interpolation flag.

    draw(cells) must return an array whose first axis runs over cells;
    multilinear blending treats draws as values at cell centers.
    """
    if env.spec.interpolation == "constant":
        return draw(np.floor(w).astype(np.int64))
    base = np.floor(w - 0.5).astype(np.int64)
    t = (w - 0.5) - base  # in [0,1), exact for binary-rational inputs
    dim = w.shape[1]
    acc = None
    for corner in range(2**dim):
        offs = np.array([(corner >> a) & 1 for a in range(dim)], dtype=np.int64)
        vals = draw(base + offs)
        wt = np.ones(w.shape[0])
        for a in range(dim):
            wt = wt * (t[:, a] if offs[a] else (1.0 - t[:, a]))
        if vals.ndim > 1:
            wt = wt.reshape((-1,) + (1,) * (vals.ndim - 1))
        acc = vals * wt if acc is None else acc + vals * wt
    return acc


# The fields below take the branch (alpha, beta) as two integers, or as two
# integer arrays of one broadcast shape S for the fields of many branches
# in one call (a call costs about the same for one branch as for all, so a
# lattice reads each field once); the values then have shape S + (N,).

def _branches_first(env, alpha, beta, x, draw):
    """_interp of draw(cells) at x, with the branch axes S moved in front."""
    _check_branch(env, alpha, beta)
    vals = _interp(env, _warp(env, x), draw)
    return np.ascontiguousarray(np.moveaxis(vals, 0, len(_branch_shape(alpha, beta))))


def multiplier_field(env: Environment, alpha, beta, x) -> np.ndarray:
    """Scalar kernel multipliers at points x, shape S + (N,).

    Valid for the "cs" class in any dimension and the "a" class in 1d.
    """
    return _branches_first(env, alpha, beta, x,
                           lambda cells: _scalar_cells(env, alpha, beta, cells, "coeff"))


def matrix_field(env: Environment, alpha, beta, x) -> np.ndarray:
    """Symmetric-matrix coefficients at points x, shape S + (N, 2, 2). 2d "a" class."""
    if env.spec.kernel_class != "a" or env.dim != 2:
        raise ConfigurationError("matrix_field applies to the 2d matrix class only")
    return _branches_first(env, alpha, beta, x,
                           lambda cells: _matrix_cells(env, alpha, beta, cells))


def forcing_field(env: Environment, alpha, beta, x) -> np.ndarray:
    """Forcing values at points x, shape S + (N,)."""
    return _branches_first(env, alpha, beta, x,
                           lambda cells: _scalar_cells(env, alpha, beta, cells, "forcing"))


def _check_branch(env, alpha, beta):
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    if not (np.all((0 <= alpha) & (alpha < env.spec.n_alpha))
            and np.all((0 <= beta) & (beta < env.spec.n_beta))):
        raise ConfigurationError(
            f"branch ({alpha},{beta}) outside index sets "
            f"{env.spec.n_alpha}x{env.spec.n_beta}"
        )
