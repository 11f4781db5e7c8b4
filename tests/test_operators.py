"""Second differences, inf-sup operator, frozen operator, extremals."""

import numpy as np
import pytest
from scipy.integrate import quad
from hypothesis import given, settings, strategies as st

from nlhomog.env import (
    EnvironmentSpec, forcing_field, multiplier_field, sample_environment,
    translate,
)
from nlhomog.errors import ConfigurationError
from nlhomog.kernels import KernelFamily, build_quadrature
from nlhomog.operators import Box, ExteriorRule, TestFunction, unit_moment

from oracles import (
    GridFunction, apply_linear, evaluate_F, evaluate_frozen, extremal,
    extremal_from_moment, second_difference,
)

TestFunction.__test__ = False  # imported record class, not a pytest class

FAM1 = KernelFamily(kind="cs", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
FAM1A = KernelFamily(kind="a", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
QUAD1 = build_quadrature(1, 1.0, 2.0**-6, 16.0)

SPEC_U = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                         forcing_law="uniform", f_bound=1.0)
ENV_U = sample_environment(SPEC_U, seed=0)


def const_env(a=1.0, f=0.0, n_alpha=1, n_beta=1):
    spec = EnvironmentSpec(dim=1, n_alpha=n_alpha, n_beta=n_beta,
                           coeff_law="fixed", coeff_value=a,
                           forcing_law="fixed", forcing_value=f,
                           f_bound=max(1.0, abs(f)))
    return sample_environment(spec, seed=0)


def grid_from(fn, half=2.0, h=2.0**-6, exterior=None, far=0.0):
    box = Box((0.0,), half, h)
    vals = fn(box.axis_nodes(0))
    ext = exterior if exterior is not None else ExteriorRule(
        fn=lambda p, _f=fn: _f(np.asarray(p)[:, 0]), far=far)
    return GridFunction(box=box, values=vals, exterior=ext)


def quartic_bump(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(x) < 1.0, (1.0 - x**2) ** 2, 0.0)


def random_grid(rng, box, scale=1.0):
    vals = scale * rng.standard_normal(box.m if box.dim == 1 else (box.m, box.m))
    return GridFunction(box=box, values=vals, exterior=ExteriorRule.zero())


# ---------------------------------------------------------------------------
# second differences

def test_second_difference_annihilates_constants():
    u = grid_from(lambda x: np.full_like(x, 3.25), exterior=ExteriorRule.constant(3.25))
    for x in (-0.5, 0.0, 1.0):
        for y in (0.25, 1.0, 5.0):
            assert second_difference(u, x, y) == 0.0


def test_second_difference_of_square():
    phi = TestFunction.make([[2.0]])  # x^2 near the center
    assert second_difference(phi, 1.0, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_second_difference_of_kink():
    # half/h = 16.5 puts a cell center exactly on the kink at 0
    box = Box((0.0,), 8.25, 0.5)
    u = GridFunction(box=box, values=np.abs(box.axis_nodes(0)),
                     exterior=ExteriorRule(fn=lambda p: np.abs(p[:, 0]), far=0.0))
    assert second_difference(u, 0.0, 2.0) == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# linear slot evaluation

def test_apply_linear_kills_constants():
    u = grid_from(lambda x: np.full_like(x, 2.0), exterior=ExteriorRule.constant(2.0))
    val = apply_linear(FAM1, const_env(1.0), 0, 0, 0.0, 0.0, u, QUAD1)
    assert val == 0.0


def test_apply_linear_quartic_bump_oracle():
    # sigma=1 moment of (1-x^2)^2 1_{B1} at the origin: the integrand of
    # delta u(0,y)/y^2 is 2((1-y^2)^2 - 1)/y^2 inside and -2/y^2 outside,
    # which integrates (both signs) to -32/3
    inner, _ = quad(lambda y: 2.0 * ((1 - y * y) ** 2 - 1.0) / y**2, 0.0, 1.0)
    outer, _ = quad(lambda y: -2.0 / y**2, 1.0, np.inf)
    oracle = 2.0 * (inner + outer)
    assert oracle == pytest.approx(-32.0 / 3.0, rel=1e-10)
    # half/h puts a node at the origin so every queried offset hits a node
    # exactly; the remaining midpoint-vs-centroid weight bias decays like h
    # and 2**-9 is the first level under 1e-3 relative (measured 7.3e-4)
    h = 2.0**-9
    box = Box((0.0,), 2.0 + h / 2.0, h)
    u = GridFunction(box=box, values=quartic_bump(box.axis_nodes(0)),
                     exterior=ExteriorRule.zero())
    got = apply_linear(FAM1, const_env(1.0), 0, 0, 0.0, 0.0, u,
                       build_quadrature(1, 1.0, h, 32.0))
    assert got == pytest.approx(oracle, rel=1e-3)


def test_apply_linear_homogeneous_in_coefficient():
    u = grid_from(quartic_bump)
    v1 = apply_linear(FAM1, const_env(1.0), 0, 0, 0.3, 0.3, u, QUAD1)
    v2 = apply_linear(FAM1, const_env(2.0), 0, 0, 0.3, 0.3, u, QUAD1)
    assert v2 == 2.0 * v1


def test_apply_linear_two_slots_read_different_points():
    # moment at z, coefficient at x: changing x moves only the multiplier
    u = grid_from(quartic_bump)
    z = 0.25
    v1 = apply_linear(FAM1, ENV_U, 0, 1, z, -0.8, u, QUAD1)
    v2 = apply_linear(FAM1, ENV_U, 0, 1, z, 0.9, u, QUAD1)
    mom = unit_moment(u, z, QUAD1)
    a1 = float(multiplier_field(ENV_U, 0, 1, np.array([[-0.8]]))[0])
    a2 = float(multiplier_field(ENV_U, 0, 1, np.array([[0.9]]))[0])
    assert v1 == pytest.approx(a1 * mom, rel=1e-12)
    assert v2 == pytest.approx(a2 * mom, rel=1e-12)


# ---------------------------------------------------------------------------
# inf-sup operator

def test_evaluate_F_single_branch_is_linear_part():
    env = const_env(1.5, f=0.0)
    u = grid_from(quartic_bump)
    x = 0.125
    assert evaluate_F(u, x, env, FAM1, QUAD1) == apply_linear(
        FAM1, env, 0, 0, x, x, u, QUAD1)


def test_evaluate_F_shifts_with_forcing_constant():
    u = grid_from(quartic_bump)
    x = -0.25
    spec0 = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                            forcing_law="fixed", forcing_value=0.0)
    spec1 = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                            forcing_law="fixed", forcing_value=0.75)
    v0 = evaluate_F(u, x, sample_environment(spec0, seed=4), FAM1, QUAD1)
    v1 = evaluate_F(u, x, sample_environment(spec1, seed=4), FAM1, QUAD1)
    assert v1 == pytest.approx(v0 + 0.75, abs=1e-12)


def test_evaluate_F_matches_exhaustive_enumeration():
    u = grid_from(quartic_bump)
    for x in (-0.7, 0.0, 0.4):
        mom = unit_moment(u, x, QUAD1)
        xs = np.array([[x]])
        brute = min(
            max(
                float(forcing_field(ENV_U, a, b, xs)[0])
                + float(multiplier_field(ENV_U, a, b, xs)[0]) * mom
                for b in range(SPEC_U.n_beta)
            )
            for a in range(SPEC_U.n_alpha)
        )
        assert evaluate_F(u, x, ENV_U, FAM1, QUAD1) == pytest.approx(brute, abs=1e-12)


def test_evaluate_F_sup_picks_larger_coefficient_on_positive_moment():
    # convex profile at its center has positive moment, so the sup branch
    # must take the larger multiplier
    phi = TestFunction.make([[2.0]])
    spec = EnvironmentSpec(dim=1, n_alpha=1, n_beta=2, coeff_law="uniform",
                           forcing_law="fixed", forcing_value=0.0)
    env = sample_environment(spec, seed=8)
    x = 0.0
    mom = unit_moment(phi, x, QUAD1)
    assert mom > 0
    xs = np.array([[x]])
    a_big = max(float(multiplier_field(env, 0, b, xs)[0]) for b in range(2))
    assert evaluate_F(phi, x, env, FAM1, QUAD1) == pytest.approx(a_big * mom, rel=1e-12)


def test_evaluate_F_translation_covariance_exact():
    z = 0.25  # dyadic, so node sets shift without rounding
    box = Box((0.0,), 1.0, 2.0**-5)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(box.m)
    u = GridFunction(box=box, values=vals, exterior=ExteriorRule.zero())
    moved_box = Box((z,), 1.0, 2.0**-5)
    u_moved = GridFunction(box=moved_box, values=vals, exterior=ExteriorRule.zero())
    for x in (-0.5, 0.0, 0.25):
        a = evaluate_F(u_moved, x + z, ENV_U, FAM1, QUAD1)
        b = evaluate_F(u, x, translate(ENV_U, [z]), FAM1, QUAD1)
        assert a == b


# ---------------------------------------------------------------------------
# frozen operator

def test_frozen_with_zero_correction_is_phi_moment():
    phi = TestFunction.make([[1.0]], center=[0.3])
    zero = grid_from(lambda x: np.zeros_like(x))
    env = const_env(1.25)
    x0, x = 0.2, -0.6
    got = evaluate_frozen(phi, x0, zero, x, env, FAM1, QUAD1)
    assert got == apply_linear(FAM1, env, 0, 0, x0, x, phi, QUAD1)


def test_frozen_with_zero_phi_is_evaluate_F():
    phi0 = TestFunction.make([[0.0]])
    v = grid_from(quartic_bump)
    for x in (-0.4, 0.5):
        a = evaluate_frozen(phi0, 0.9, v, x, ENV_U, FAM1, QUAD1)
        b = evaluate_F(v, x, ENV_U, FAM1, QUAD1)
        assert a == pytest.approx(b, abs=1e-12)


def test_frozen_constant_env_independent_of_x():
    phi = TestFunction.make([[2.0]])
    zero = grid_from(lambda x: np.zeros_like(x))
    env = const_env(1.5, f=0.25)
    vals = [evaluate_frozen(phi, 0.0, zero, x, env, FAM1, QUAD1)
            for x in (-0.9, -0.1, 0.3, 0.8)]
    assert max(vals) == min(vals)


def test_frozen_uniform_continuity_in_freeze_point():
    # the freeze-point dependence enters only through the phi moment, so
    # the modulus is v-independent: |F1 - F2| <= lam_big * |mom1 - mom2|
    phi = TestFunction.make([[2.0]], p=[0.5])
    x1, x2 = 0.1, 0.35
    m1 = unit_moment(phi, x1, QUAD1)
    m2 = unit_moment(phi, x2, QUAD1)
    bound = FAM1.lam_big * abs(m1 - m2) + 1e-12
    rng = np.random.default_rng(11)
    box = Box((0.0,), 1.0, 2.0**-5)
    x = 0.0
    for _ in range(50):
        v = random_grid(rng, box)
        d = abs(evaluate_frozen(phi, x1, v, x, ENV_U, FAM1, QUAD1)
                - evaluate_frozen(phi, x2, v, x, ENV_U, FAM1, QUAD1))
        assert d <= bound


# ---------------------------------------------------------------------------
# extremal operators

def test_extremal_duality_pointwise():
    rng = np.random.default_rng(3)
    box = Box((0.0,), 1.0, 2.0**-5)
    for fam in (FAM1, FAM1A):
        for _ in range(10):
            u = random_grid(rng, box)
            x = float(rng.uniform(-0.9, 0.9))
            plus = extremal(-u, x, +1, fam, QUAD1)
            minus = extremal(u, x, -1, fam, QUAD1)
            assert plus == pytest.approx(-minus, abs=1e-12)
    # on a smooth profile and its negation the duality is an arithmetic
    # identity, so it holds bit for bit
    quad = build_quadrature(1, 1.0, 2.0**-5, 16.0)
    prof = TestFunction.make([[1.7]], p=[0.3], center=[0.2])
    nprof = TestFunction.make([[-1.7]], p=[-0.3], center=[0.2])
    for fam in (FAM1, FAM1A):
        for x in (-0.3, 0.0, 0.7):
            assert extremal(prof, x, +1, fam, quad) == -extremal(nprof, x, -1, fam, quad)


def test_extremal_from_moment_fixed_matrix():
    B = np.diag([1.0, -1.0])
    assert extremal_from_moment(B, +1, 1.0, 2.0) == pytest.approx(2.0, abs=1e-14)
    assert extremal_from_moment(B, -1, 1.0, 2.0) == pytest.approx(-2.0, abs=1e-14)


def _brute_force_sup(B, lam, lam_big, n_samples, rng):
    """Search sup of <A, B> over admissible A = R diag(e) R'.

    Extreme points of {0 <= e <= lam_big, e1 + e2 >= lam} under random
    rotations; a dense theta sweep makes the search sharp in 2d.
    """
    theta = rng.uniform(0.0, np.pi, size=n_samples)
    c, s = np.cos(theta), np.sin(theta)
    q1 = B[0, 0] * c * c + 2.0 * B[0, 1] * c * s + B[1, 1] * s * s
    q2 = B[0, 0] * s * s - 2.0 * B[0, 1] * c * s + B[1, 1] * c * c
    corners = [(lam, 0.0), (0.0, lam), (lam_big, 0.0), (0.0, lam_big),
               (lam_big, lam_big), (lam, lam_big), (lam_big, lam)]
    best = -np.inf
    for e1, e2 in corners:
        best = max(best, float(np.max(e1 * q1 + e2 * q2)))
    return best


def test_extremal_matrix_class_vs_random_search():
    rng = np.random.default_rng(17)
    lam, lam_big = 1.0, 2.0
    for _ in range(100):
        raw = rng.standard_normal((2, 2))
        B = 0.5 * (raw + raw.T)
        closed = extremal_from_moment(B, +1, lam, lam_big)
        brute = _brute_force_sup(B, lam, lam_big, 10**5, rng)
        assert brute <= closed + 1e-9
        assert closed - brute <= 1e-3
        dual = extremal_from_moment(B, -1, lam, lam_big)
        brute_minus = -_brute_force_sup(-B, lam, lam_big, 10**5, rng)
        assert abs(dual - brute_minus) <= 1e-3


def test_extremal_1d_class_coincidence_on_signed_profiles():
    # single-signed second differences collapse the pointwise-in-y
    # optimization to a single multiplier, where both classes agree
    phi = TestFunction.make([[2.0]])
    for sign in (+1, -1):
        cs = extremal(phi, 0.0, sign, FAM1, QUAD1)
        aa = extremal(phi, 0.0, sign, FAM1A, QUAD1)
        assert cs == pytest.approx(aa, abs=1e-8)
    neg = TestFunction.make([[-2.0]])
    for sign in (+1, -1):
        cs = extremal(neg, 0.0, sign, FAM1, QUAD1)
        aa = extremal(neg, 0.0, sign, FAM1A, QUAD1)
        assert cs == pytest.approx(aa, abs=1e-8)


def test_extremal_1d_scalar_restriction_formula():
    phi = TestFunction.make([[2.0]], p=[0.4])
    for x in (-0.5, 0.0, 0.6):
        mom = unit_moment(phi, x, QUAD1)
        want_plus = max(FAM1.lam * mom, FAM1.lam_big * mom)
        want_minus = min(FAM1.lam * mom, FAM1.lam_big * mom)
        assert extremal(phi, x, +1, FAM1A, QUAD1) == pytest.approx(want_plus, abs=1e-8)
        assert extremal(phi, x, -1, FAM1A, QUAD1) == pytest.approx(want_minus, abs=1e-8)


def test_extremal_cs_dominates_aggregate_on_mixed_profiles():
    rng = np.random.default_rng(23)
    box = Box((0.0,), 1.0, 2.0**-5)
    for _ in range(20):
        u = random_grid(rng, box)
        x = float(rng.uniform(-0.9, 0.9))
        assert extremal(u, x, +1, FAM1, QUAD1) >= extremal(u, x, +1, FAM1A, QUAD1) - 1e-12
        assert extremal(u, x, -1, FAM1, QUAD1) <= extremal(u, x, -1, FAM1A, QUAD1) + 1e-12


def test_ellipticity_sandwich_on_random_pairs():
    rng = np.random.default_rng(29)
    box = Box((0.0,), 1.0, 2.0**-5)
    for _ in range(100):
        u = random_grid(rng, box)
        v = random_grid(rng, box)
        x = float(rng.uniform(-0.9, 0.9))
        df = evaluate_F(u, x, ENV_U, FAM1, QUAD1) - evaluate_F(v, x, ENV_U, FAM1, QUAD1)
        w = u - v
        lo = extremal(w, x, -1, FAM1, QUAD1)
        hi = extremal(w, x, +1, FAM1, QUAD1)
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        assert lo - slack <= df <= hi + slack


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       x=st.sampled_from([-0.75, -0.25, 0.0, 0.5]))
def test_ellipticity_sandwich_property(seed, x):
    rng = np.random.default_rng(seed)
    box = Box((0.0,), 1.0, 2.0**-4)
    u = random_grid(rng, box)
    v = random_grid(rng, box)
    df = evaluate_F(u, x, ENV_U, FAM1, QUAD1) - evaluate_F(v, x, ENV_U, FAM1, QUAD1)
    w = u - v
    lo = extremal(w, x, -1, FAM1, QUAD1)
    hi = extremal(w, x, +1, FAM1, QUAD1)
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))
    assert lo - slack <= df <= hi + slack


# ---------------------------------------------------------------------------
# test-function bank mechanics

def test_testfunction_is_raw_quadratic_near_center():
    phi = TestFunction.make([[3.0]], p=[0.5], const=0.25, center=[0.1], r_cut=4.0)
    xs = np.linspace(-1.4, 1.6, 13)  # all within r_cut/2 of the center
    want = 1.5 * (xs - 0.1) ** 2 + 0.5 * (xs - 0.1) + 0.25
    assert np.allclose(phi(xs), want, rtol=0, atol=1e-14)


def test_testfunction_vanishes_far_out():
    phi = TestFunction.make([[3.0]], p=[0.5], const=0.25, r_cut=4.0)
    assert np.all(phi(np.array([4.0, -4.5, 100.0])) == 0.0)
    assert phi.far == 0.0


def test_testfunction_shift_identity():
    phi = TestFunction.make([[2.0]], p=[-0.3], const=0.1, center=[0.2])
    shifted = phi.shifted([0.45])
    xs = np.linspace(-2, 2, 9)
    assert np.array_equal(shifted(xs), phi(xs + 0.45))


def test_testfunction_rejects_asymmetric_P():
    with pytest.raises(ConfigurationError):
        TestFunction.make([[1.0, 0.5], [0.2, 1.0]])


# ---------------------------------------------------------------------------
# grid function mechanics (the oracles' sampled-grid input)

def test_gridfunction_exact_at_nodes_and_rule_outside():
    box = Box((0.0,), 1.0, 0.25)
    vals = np.arange(box.m, dtype=np.float64)
    u = GridFunction(box=box, values=vals, exterior=ExteriorRule.constant(-5.0))
    assert np.array_equal(u.sample(box.axis_nodes(0)), vals)
    assert np.all(u.sample(np.array([2.0, -1.5])) == -5.0)


def test_gridfunction_interpolates_midpoints():
    box = Box((0.0,), 1.0, 0.25)
    vals = np.arange(box.m, dtype=np.float64)
    u = GridFunction(box=box, values=vals, exterior=ExteriorRule.zero())
    nodes = box.axis_nodes(0)
    mid = 0.5 * (nodes[2] + nodes[3])
    assert u.sample(np.array([mid]))[0] == pytest.approx(2.5, abs=1e-14)


def test_gridfunction_shape_checked():
    box = Box((0.0,), 1.0, 0.25)
    with pytest.raises(ConfigurationError):
        GridFunction(box=box, values=np.zeros(box.m + 1),
                     exterior=ExteriorRule.zero())


def test_box_rejects_nontiling_spacing():
    with pytest.raises(ConfigurationError):
        Box((0.0,), 1.0, 0.3)


def test_box_rejects_a_spacing_with_no_finite_cell_count():
    # 1.0 / 2.5e-311 overflows to inf, which no grid can have; round() of it
    # would raise OverflowError
    with pytest.raises(ConfigurationError, match="finite number"):
        Box((0.0,), 0.5, 2.5e-311)
    assert Box((0.0,), 0.5, 2.0**-20).m == 2**20
