"""Kernel classes and quadrature tables against independent integrals."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from nlhomog.env import EnvironmentSpec, sample_environment
from nlhomog.errors import ConfigurationError
from nlhomog.kernels import (
    KernelFamily, build_quadrature, envelope_integral, second_moment_integral,
)

from oracles import full_grid_quadrature_2d, kernel_value

FAM1 = KernelFamily(kind="cs", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
ENV1 = sample_environment(
    EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                    forcing_law="uniform"), seed=0)
ENV2 = sample_environment(
    EnvironmentSpec(dim=2, n_alpha=2, n_beta=2, kernel_class="a",
                    coeff_law="uniform", forcing_law="uniform"), seed=0)


# ---------------------------------------------------------------------------
# closed-form integrals vs scipy quadrature

@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
def test_envelope_integral_matches_quad(sigma):
    ref, _ = quad(lambda r: 2.0 * r ** (-1.0 - sigma), 0.25, 6.0)
    assert envelope_integral(1, sigma, 0.25, 6.0) == pytest.approx(ref, rel=1e-10)
    ref2, _ = quad(lambda r: 2.0 * np.pi * r * r ** (-2.0 - sigma), 0.25, 6.0)
    assert envelope_integral(2, sigma, 0.25, 6.0) == pytest.approx(ref2, rel=1e-10)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
def test_second_moment_integral_matches_quad(sigma):
    ref, _ = quad(lambda r: 2.0 * r * r * r ** (-1.0 - sigma), 0.0, 0.5)
    assert second_moment_integral(1, sigma, 0.5) == pytest.approx(ref, rel=1e-10)
    ref2, _ = quad(lambda r: 2.0 * np.pi * r ** 3 * r ** (-2.0 - sigma), 0.0, 0.5)
    assert second_moment_integral(2, sigma, 0.5) == pytest.approx(ref2, rel=1e-10)


def test_envelope_integral_infinite_tail():
    ref, _ = quad(lambda r: 2.0 * r ** -2.0, 8.0, np.inf)
    assert envelope_integral(1, 1.0, 8.0, np.inf) == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# pointwise kernel values

def test_kernel_scalar_reduction_1d():
    from nlhomog.env import multiplier_field
    fam_a = KernelFamily(kind="a", dim=1, sigma=1.3, lam=1.0, lam_big=2.0)
    fam_cs = KernelFamily(kind="cs", dim=1, sigma=1.3, lam=1.0, lam_big=2.0)
    for x, y in [(0.3, 0.7), (-1.1, 0.05), (2.0, -3.0)]:
        a = float(multiplier_field(ENV1, 1, 0, np.array([[x]]))[0])
        want = a * abs(y) ** (-2.3)
        assert kernel_value(fam_a, ENV1, 1, 0, x, y) == pytest.approx(want, rel=1e-12)
        assert kernel_value(fam_cs, ENV1, 1, 0, x, y) == pytest.approx(want, rel=1e-12)


def test_kernel_symmetry_bit_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-2, 2)
        y = rng.uniform(0.01, 3)
        assert kernel_value(FAM1, ENV1, 0, 1, x, y) == kernel_value(FAM1, ENV1, 0, 1, x, -y)
    fam2 = KernelFamily(kind="a", dim=2, sigma=1.0, lam=1.0, lam_big=2.0)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-3, 3, size=2)
        if np.all(y == 0):
            continue
        assert kernel_value(fam2, ENV2, 0, 1, x, y) == kernel_value(fam2, ENV2, 0, 1, x, -y)


@pytest.mark.parametrize("fam,env", [
    (FAM1, ENV1),
    (KernelFamily(kind="a", dim=2, sigma=0.7, lam=1.0, lam_big=2.0), ENV2),
])
def test_kernel_scaling_law(fam, env):
    rng = np.random.default_rng(2)
    factor = 2.0 ** (fam.dim + fam.sigma)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=fam.dim)
        y = rng.uniform(0.01, 2, size=fam.dim) * rng.choice([-1, 1], size=fam.dim)
        k1 = kernel_value(fam, env, 1, 1, x, y)
        k2 = kernel_value(fam, env, 1, 1, x, 2.0 * y)
        assert k2 * factor == pytest.approx(k1, rel=1e-12)


def test_kernel_rejects_origin():
    with pytest.raises(ConfigurationError):
        kernel_value(FAM1, ENV1, 0, 0, 0.0, 0.0)


def test_kernel_2d_matrix_form():
    from nlhomog.env import matrix_field
    fam2 = KernelFamily(kind="a", dim=2, sigma=1.0, lam=1.0, lam_big=2.0)
    x = np.array([0.4, -0.2])
    y = np.array([0.6, 0.3])
    A = matrix_field(ENV2, 0, 0, x[None, :])[0]
    r = np.linalg.norm(y)
    want = float(y @ A @ y) / r ** (2.0 + 1.0 + 2.0)
    assert kernel_value(fam2, ENV2, 0, 0, x, y) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# quadrature tables

def test_weight_sum_matches_shell_integral_1d():
    # cells j=1..J tile [h/2, r_eff]; their pair-doubled masses must add
    # up to the independent integral of the envelope over that shell
    h, r_out = 2.0**-6, 8.0
    q = build_quadrature(1, 1.0, h, r_out)
    ref, _ = quad(lambda r: 2.0 * r ** -2.0, h / 2.0, q.r_eff)
    total = 2.0 * float(np.sum(q.w))
    assert total == pytest.approx(ref, rel=1e-10)
    assert abs(total - ref) / ref <= 1e-2


def test_second_moment_preserved_under_refinement():
    sigma = 1.0
    ref = second_moment_integral(1, sigma, 1.0)
    vals = {}
    for h in (2.0**-5, 2.0**-6):
        q = build_quadrature(1, sigma, h, 8.0)
        y = np.arange(1, q.w.shape[0] + 1) * h
        m = (y <= 1.0 - h / 2)
        vals[h] = q.c_near + 2.0 * float(np.sum(q.w[m] * y[m] ** 2))
    assert vals[2.0**-5] == pytest.approx(vals[2.0**-6], rel=1e-3)
    assert vals[2.0**-6] == pytest.approx(ref, rel=1e-3)


def test_halving_h_doubles_offset_count():
    q1 = build_quadrature(1, 1.0, 2.0**-5, 8.0)
    q2 = build_quadrature(1, 1.0, 2.0**-6, 8.0)
    assert q2.w.shape[0] == 2 * q1.w.shape[0]


def test_weights_nonnegative_1d():
    for sigma in (0.4, 1.0, 1.7):
        q = build_quadrature(1, sigma, 2.0**-5, 4.0)
        assert np.all(q.w > 0)
        assert q.c_near > 0 and q.tail > 0 and q.w_total > 0


def test_weights_nonnegative_and_symmetric_2d():
    q = build_quadrature(2, 1.0, 2.0**-3, 2.0)
    assert np.all(q.kxx >= 0) and np.all(q.kyy >= 0)
    assert np.allclose(q.kxx, q.kxx[::-1, ::-1], rtol=0, atol=1e-15)
    assert np.allclose(q.kxy, q.kxy[::-1, ::-1], rtol=0, atol=1e-15)
    # one-axis mirror flips the cross moment
    assert np.allclose(q.kxy, -q.kxy[::-1, :], rtol=0, atol=1e-15)
    # transposing swaps the roles of the two axes (subcell summation order
    # differs, so only up to rounding at the scale of the near weights)
    assert np.allclose(q.kxx, q.kyy.T, rtol=1e-12, atol=1e-12)
    # cross moments are Cauchy-Schwarz dominated, keeping the matrix
    # contraction monotone for admissible A
    assert np.all(np.abs(q.kxy) <= np.sqrt(q.kxx * q.kyy) + 1e-15)


def test_2d_table_matches_per_cell_midpoint_loop():
    h, sigma, r_out = 2.0**-3, 1.0, 2.0
    q = build_quadrature(2, sigma, h, r_out)
    J = q.n_offsets
    want = np.zeros((3, 2 * J + 1, 2 * J + 1))
    for ix in range(-J, J + 1):
        for iy in range(-J, J + 1):
            if ix == iy == 0 or np.hypot(ix, iy) * h > r_out + 1e-12:
                continue
            # cells within four of the origin are refined 16 x 16
            nsub = 16 if max(abs(ix), abs(iy)) <= 4 else 1
            s = (np.arange(nsub) + 0.5) / nsub - 0.5
            SX, SY = np.meshgrid(ix * h + s * h, iy * h + s * h, indexing="ij")
            env = (SX**2 + SY**2) ** (-(2.0 + sigma + 2.0) / 2.0) * (h / nsub) ** 2
            want[:, ix + J, iy + J] = [np.sum(SX * SX * env), np.sum(SY * SY * env),
                                       np.sum(SX * SY * env)]
    assert np.array_equal(q.kxx, want[0])
    assert np.array_equal(q.kyy, want[1])
    assert np.array_equal(q.kxy, want[2])


@pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("h", [2.0**-3, 2.0**-4, 0.3])
@pytest.mark.parametrize("cells", [4.0, 4.6, None], ids=["4h", "4.6h", "solve-default"])
def test_2d_quadrant_build_matches_the_full_grid_build(sigma, h, cells):
    # r_out = 4h; a non-integer r_out / h, where the quadrant's last row lies
    # off the disc; and the solve default, 8 diameters of the unit box
    r_out = 8.0 * np.sqrt(2.0) if cells is None else cells * h
    got = build_quadrature(2, sigma, h, r_out)
    want = full_grid_quadrature_2d(sigma, h, r_out)
    assert np.array_equal(got.stencil, want.stencil)
    # bitwise, signed zeros included: kxy is -0.0 on the negative axes
    assert got.stencil.tobytes() == want.stencil.tobytes()
    assert (got.w_total, got.c_near, got.tail) == (want.w_total, want.c_near, want.tail)
    assert got.w is None and got.n_offsets == int(round(r_out / h))
    # the sums every 2d lattice reads, bitwise those of the full stencils
    assert got.sums == tuple(float(np.sum(k)) for k in (want.kxx, want.kyy, want.kxy))
    assert got.abs_kxy == float(np.sum(np.abs(want.kxy)))


def test_2d_build_holds_no_full_size_temporary():
    # h 2^-5 with the solve default radius: J = 362, 3 x 725^2 doubles
    h = 2.0**-5
    tracemalloc.start()
    try:
        q = build_quadrature(2, 1.0, h, 8.0 * np.sqrt(2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q.n_offsets == 362
    assert peak <= 1.25 * q.stencil.nbytes


def test_2d_trace_mass_sandwiched_by_annuli():
    # the union of stencil cells contains the annulus between the origin
    # cell's circumradius and r_eff minus a cell circumradius, and sits
    # inside the annulus between the inradius and r_eff plus one
    q = build_quadrature(2, 1.0, 2.0**-3, 2.0)
    mass = float(np.sum(q.kxx + q.kyy))
    rc = 0.5 * q.h * np.sqrt(2.0)
    lo = envelope_integral(2, 1.0, rc, q.r_eff - rc)
    hi = envelope_integral(2, 1.0, 0.5 * q.h, q.r_eff + rc)
    assert 0.99 * lo <= mass <= 1.01 * hi


@pytest.mark.parametrize("args", [
    (1, 0.0, 0.01, 1.0),
    (1, 2.0, 0.01, 1.0),
    (1, 1.0, 0.0, 1.0),
    (1, 1.0, 0.5, 1.0),
    (3, 1.0, 0.01, 1.0),
])
def test_build_quadrature_rejects(args):
    with pytest.raises(ConfigurationError):
        build_quadrature(*args)


@pytest.mark.parametrize("bad", [
    dict(kind="x", dim=1, sigma=1.0, lam=1.0, lam_big=2.0),
    dict(kind="cs", dim=3, sigma=1.0, lam=1.0, lam_big=2.0),
    dict(kind="cs", dim=1, sigma=2.0, lam=1.0, lam_big=2.0),
    dict(kind="cs", dim=1, sigma=1.0, lam=0.0, lam_big=2.0),
    dict(kind="cs", dim=1, sigma=1.0, lam=3.0, lam_big=2.0),
])
def test_family_validation_rejects(bad):
    with pytest.raises(ConfigurationError):
        KernelFamily(**bad).validate()
