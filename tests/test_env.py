"""Environment law: determinism, translation, bounds, layouts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlhomog.env import (
    EnvironmentSpec, forcing_field, matrix_field, multiplier_field,
    sample_environment, translate,
)
from nlhomog import env as env_module
from nlhomog.errors import ConfigurationError
from nlhomog.records import replace

SPEC1 = EnvironmentSpec(dim=1, n_alpha=2, n_beta=3, coeff_law="uniform",
                        forcing_law="uniform", f_bound=1.0)
SPEC2 = EnvironmentSpec(dim=2, n_alpha=2, n_beta=2, kernel_class="a",
                        coeff_law="uniform", forcing_law="uniform")

# multiples of 2^-26 stay exact under the shift arithmetic
dyadic = st.integers(min_value=-2**20, max_value=2**20).map(
    lambda k: k * 2.0**-26
)


def pts1(xs):
    return np.asarray(xs, dtype=np.float64)[:, None]


def test_same_seed_same_fields():
    a = sample_environment(SPEC1, seed=7)
    b = sample_environment(SPEC1, seed=7)
    x = pts1(np.linspace(-3, 3, 41))
    assert np.array_equal(multiplier_field(a, 1, 2, x),
                          multiplier_field(b, 1, 2, x))
    assert np.array_equal(forcing_field(a, 0, 0, x), forcing_field(b, 0, 0, x))
    assert a.shift == b.shift


def test_different_seeds_differ():
    a = sample_environment(SPEC1, seed=1)
    b = sample_environment(SPEC1, seed=2)
    x = pts1(np.linspace(-3, 3, 41))
    assert not np.array_equal(multiplier_field(a, 0, 0, x),
                              multiplier_field(b, 0, 0, x))


def test_branches_are_independent_streams():
    env = sample_environment(SPEC1, seed=5)
    x = pts1(np.linspace(-2, 2, 17))
    assert not np.array_equal(multiplier_field(env, 0, 0, x),
                              multiplier_field(env, 0, 1, x))
    assert not np.array_equal(multiplier_field(env, 0, 0, x),
                              forcing_field(env, 0, 0, x))


def test_multiplier_bounds():
    env = sample_environment(SPEC1, seed=11)
    x = pts1(np.linspace(-50, 50, 2001))
    for a in range(SPEC1.n_alpha):
        for b in range(SPEC1.n_beta):
            vals = multiplier_field(env, a, b, x)
            assert np.all(vals >= SPEC1.lam) and np.all(vals <= SPEC1.lam_big)


def test_forcing_bounds():
    env = sample_environment(SPEC1, seed=11)
    x = pts1(np.linspace(-50, 50, 2001))
    vals = forcing_field(env, 1, 2, x)
    assert np.all(np.abs(vals) <= SPEC1.f_bound)


@pytest.mark.parametrize("spec", [
    SPEC1, SPEC2,
    EnvironmentSpec(dim=1, n_alpha=3, n_beta=2, interpolation="constant",
                    layout="periodic", period=4),
    EnvironmentSpec(dim=2, n_alpha=2, n_beta=3, kernel_class="a", coeff_law="fixed",
                    coeff_value=1.5, forcing_law="fixed", forcing_value=-0.25),
    EnvironmentSpec(dim=2, n_alpha=2, n_beta=2, interpolation="constant"),
], ids=["1d", "2d-matrix", "1d-periodic-constant", "2d-fixed", "2d-cs-constant"])
def test_all_branches_in_one_call_match_each_branch_bit_for_bit(spec):
    env = sample_environment(spec, seed=5)
    pts = np.random.default_rng(1).uniform(-20, 20, size=(300, spec.dim))
    alpha, beta = np.indices((spec.n_alpha, spec.n_beta))
    fields = [forcing_field, matrix_field if spec.kernel_class == "a" and spec.dim == 2
              else multiplier_field]
    for field in fields:
        every = field(env, alpha, beta, pts)
        assert every.flags.c_contiguous
        for a in range(spec.n_alpha):
            for b in range(spec.n_beta):
                assert np.array_equal(every[a, b], field(env, a, b, pts))
    with pytest.raises(ConfigurationError):
        forcing_field(env, alpha, beta + 1, pts)
    # a batch of environments (distinct seeds, one translated, one repeated)
    # at the grid points / eps of several eps: every item is the bits of its
    # own batch of one, wherever it sits and however large the batch
    envs = [env, sample_environment(spec, seed=6), translate(env, [0.375] * spec.dim),
            sample_environment(spec, seed=9), env]
    axis = (np.arange(-8, 8) + 0.5) / 16
    grid = np.stack(np.meshgrid(*[axis] * spec.dim, indexing="ij"), -1).reshape(-1, spec.dim)
    xs = [grid / eps for eps in (0.5, 0.25, 0.125, 0.0625, 0.25)]
    xs[-1] = pts
    for field in fields:
        alone = [field(e, alpha, beta, x) for e, x in zip(envs, xs)]
        for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4], [3]):
            batch = field([envs[i] for i in order], alpha, beta, [xs[i] for i in order])
            assert len(batch) == len(order)
            for i, vals in zip(order, batch):
                assert vals.flags.c_contiguous
                assert vals.tobytes() == alone[i].tobytes() and vals.shape == alone[i].shape
    with pytest.raises(ConfigurationError):
        forcing_field([env, sample_environment(replace(spec, f_bound=0.5), 5)],
                      alpha, beta, [pts, pts])


@pytest.mark.parametrize("spec, far", [(SPEC1, 2.0**62), (SPEC2, 2.0**32)], ids=["1d", "2d"])
def test_a_batch_spread_past_int64_offsets_matches_its_items(spec, far):
    # the cells of one stream span more than 2^63 (1d: +-2^62; 2d: +-2^32 on
    # each axis, 2^66 cells between the corners), more than any int64 offset
    # from the lowest cell could index; each item is still the bits of its
    # batch of one, and of each of its points alone
    envs = [sample_environment(spec, 1), translate(sample_environment(spec, 1), [0.25] * spec.dim)]
    axis = np.array([-far, -far + 2.0**11, 0.25, far - 2.0**11, far])
    x = np.stack(np.meshgrid(*[axis] * spec.dim, indexing="ij"), -1).reshape(-1, spec.dim)
    field = matrix_field if spec.dim == 2 else multiplier_field
    batch = field(envs, 1, 1, [x, x[::-1]])
    for e, vals, pts in zip(envs, batch, (x, x[::-1])):
        assert np.array_equal(vals, field(e, 1, 1, pts))
        assert all(np.array_equal(vals[i], field(e, 1, 1, pts[i:i + 1])[0])
                   for i in range(len(pts)))
    cells = np.floor(np.concatenate([x, x - 1.0]) - 0.5).astype(np.int64)
    distinct, inverse = env_module._distinct(cells)
    assert np.array_equal(distinct, np.unique(cells, axis=0))
    assert np.array_equal(distinct[inverse], cells)


def test_matrix_field_admissible():
    env = sample_environment(SPEC2, seed=3)
    pts = np.random.default_rng(0).uniform(-10, 10, size=(500, 2))
    A = matrix_field(env, 1, 1, pts)
    assert A.shape == (500, 2, 2)
    assert np.allclose(A, np.swapaxes(A, 1, 2), atol=0.0)
    eig = np.linalg.eigvalsh(A)
    assert np.all(eig >= -1e-12) and np.all(eig <= SPEC2.lam_big + 1e-12)
    assert np.all(np.trace(A, axis1=1, axis2=2) >= SPEC2.lam - 1e-12)


def test_shift_is_quantized():
    for seed in range(20):
        env = sample_environment(SPEC1, seed=seed)
        for s in env.shift:
            assert s == np.floor(s * 2.0**26) * 2.0**-26
            assert 0.0 <= s < 1.0


@settings(max_examples=60, deadline=None)
@given(z=dyadic, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_translate_stationarity_bit_exact(z, seed):
    # field of the translated environment at x == field at x + z, exactly
    env = sample_environment(SPEC1, seed=seed)
    moved = translate(env, [z])
    x = pts1(np.linspace(-2, 2, 9))
    assert np.array_equal(multiplier_field(moved, 0, 1, x),
                          multiplier_field(env, 0, 1, x + z))
    assert np.array_equal(forcing_field(moved, 1, 0, x),
                          forcing_field(env, 1, 0, x + z))


@settings(max_examples=40, deadline=None)
@given(z1=dyadic, z2=dyadic)
def test_translate_composes_exactly(z1, z2):
    env = sample_environment(SPEC1, seed=9)
    once = translate(env, [z1 + z2])
    twice = translate(translate(env, [z1]), [z2])
    assert once.shift == twice.shift


def test_translate_2d_componentwise():
    env = sample_environment(SPEC2, seed=4)
    moved = translate(env, [0.25, -0.5])
    pts = np.array([[0.1, 0.2], [1.3, -0.7]])
    assert np.array_equal(matrix_field(moved, 0, 0, pts),
                          matrix_field(env, 0, 0, pts + [0.25, -0.5]))


def test_periodic_layout_seed_independent_and_periodic():
    spec = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                           forcing_law="uniform", layout="periodic", period=4,
                           interpolation="constant")
    a = sample_environment(spec, seed=0)
    b = sample_environment(spec, seed=12345)
    x = pts1(np.linspace(-8, 8, 257))
    va = multiplier_field(a, 1, 1, x)
    assert np.array_equal(va, multiplier_field(b, 1, 1, x))
    assert np.array_equal(va, multiplier_field(a, 1, 1, x + 4.0))
    assert not np.array_equal(va, multiplier_field(a, 1, 1, x + 1.0))


def test_constant_interpolation_is_cellwise():
    spec = EnvironmentSpec(dim=1, coeff_law="uniform", forcing_law="uniform",
                           interpolation="constant")
    env = sample_environment(spec, seed=2)
    inside = multiplier_field(env, 0, 0, pts1([3.0 - env.shift[0] + 0.1,
                                               3.0 - env.shift[0] + 0.9]))
    assert inside[0] == inside[1]


def test_multilinear_interpolation_is_continuous():
    spec = EnvironmentSpec(dim=1, coeff_law="uniform", forcing_law="uniform",
                           interpolation="multilinear")
    env = sample_environment(spec, seed=2)
    x0 = 1.25
    vals = multiplier_field(env, 0, 0, pts1([x0, x0 + 1e-9]))
    assert abs(vals[0] - vals[1]) < 1e-6


def test_fixed_laws_are_constant():
    spec = EnvironmentSpec(dim=1, coeff_law="fixed", coeff_value=1.25,
                           forcing_law="fixed", forcing_value=-0.5)
    env = sample_environment(spec, seed=77)
    x = pts1(np.linspace(-5, 5, 101))
    assert np.all(multiplier_field(env, 0, 0, x) == 1.25)
    assert np.all(forcing_field(env, 0, 0, x) == -0.5)


@pytest.mark.parametrize("bad", [
    dict(dim=3),
    dict(n_alpha=0),
    dict(n_alpha=17),
    dict(lam=0.0),
    dict(lam=2.0, lam_big=1.0),
    dict(kernel_class="zz"),
    dict(coeff_law="fixed"),
    dict(coeff_law="fixed", coeff_value=5.0),
    dict(forcing_law="fixed"),
    dict(forcing_law="fixed", forcing_value=9.0),
    dict(interpolation="cubic"),
    dict(layout="mosaic"),
    dict(layout="periodic", period=0),
    dict(layout="periodic", period=2**63),  # past the int64 cell indices it folds
])
def test_spec_validation_rejects(bad):
    with pytest.raises(ConfigurationError):
        EnvironmentSpec(**bad).validate()


def test_seed_range_checked():
    with pytest.raises(ConfigurationError):
        sample_environment(SPEC1, seed=-1)
    with pytest.raises(ConfigurationError):
        sample_environment(SPEC1, seed=2**64)
