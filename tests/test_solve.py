"""Dirichlet and obstacle solver tests.

The exact couplings (level monotonicity, subadditivity) run two solves
with the same fixed sweep count; the damped update is monotone in every
coordinate because the diagonal dominates all branch slopes, so the
orderings hold without any floating-point slack.
"""

import copy
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlhomog.env import EnvironmentSpec, sample_environment, translate
from nlhomog.errors import ConfigurationError, SolverError
from nlhomog.kernels import KernelFamily, build_quadrature
from nlhomog.operators import Box, ExteriorRule, TestFunction
from nlhomog import solve
from nlhomog.solve import (
    DirichletProblem,
    OperatorHandle,
    barrier_threshold,
    default_quadrature,
    solve_dirichlet,
    solve_dirichlet_many,
    solve_obstacle,
)

from oracles import GridFunction, evaluate_F, evaluate_frozen, extremal, residual_field

TestFunction.__test__ = False  # imported dataclass, not a pytest class

FAM = KernelFamily(kind="cs", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
FAM_A = KernelFamily(kind="a", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)


def const_env(a=1.0, f=0.0):
    spec = EnvironmentSpec(dim=1, coeff_law="fixed", coeff_value=a,
                           forcing_law="fixed", forcing_value=f)
    return sample_environment(spec, seed=0)


def mixed_env(seed=3):
    spec = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                           forcing_law="uniform", f_bound=1.0)
    return sample_environment(spec, seed=seed)


def sqrt_problem(h):
    box = Box((0.0,), 1.0, h)
    return DirichletProblem(handle=OperatorHandle(fam=FAM, env=const_env()),
                            domain=box, rhs=-2.0 * np.pi,
                            exterior=ExteriorRule.zero(), shape="ball")


def mixed_problem(level, h=1.0 / 16, half=0.5, eps=0.25, seed=3):
    box = Box((0.0,), half, h)
    handle = OperatorHandle(fam=FAM, env=mixed_env(seed), eps=eps)
    return DirichletProblem(handle=handle, domain=box, rhs=level,
                            exterior=ExteriorRule.zero(), shape="cube")


def sweeps(prob, quad, obstacle=False, tol=1e-6):
    """The reference sweep engine on any problem, returned and raising as the solves do.

    The solves run the engine the problem picks; every lattice can also
    sweep, so the engine comparisons reach that path directly.
    """
    lat = solve._lattice(prob, quad)
    out = lat.sweep_solve(obstacle, tol)
    return solve._result(lat, obstacle, "sweeps", out, tol)


QUAD16 = build_quadrature(1, 1.0, 1.0 / 16, 8.0)


# ---------------------------------------------------------------------------
# Dirichlet accuracy

def test_sqrt_profile_oracle():
    # sigma=1, unit coefficient: the operator applied to sqrt(1-x^2) on
    # the unit ball is the constant -2*pi, so that profile is the exact
    # solution of the level problem with zero exterior data
    h = 2.0**-6
    prob = sqrt_problem(h)
    quad = build_quadrature(1, 1.0, h, 16.0)
    u, diag = solve_dirichlet(prob, tol=1e-8, quad=quad)
    x = prob.domain.axis_nodes(0)
    exact = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    err = np.abs(u - exact)
    assert diag.converged
    # boundary cells carry the sqrt singularity, interior is much tighter
    assert np.max(err[np.abs(x) < 1.0]) <= 0.025
    assert np.max(err[np.abs(x) < 0.5]) <= 3e-3


def test_sqrt_profile_error_shrinks_under_refinement():
    sups = []
    for k in (6, 7):
        h = 2.0**-k
        prob = sqrt_problem(h)
        quad = build_quadrature(1, 1.0, h, 16.0)
        u, _ = solve_dirichlet(prob, tol=1e-8, quad=quad)
        x = prob.domain.axis_nodes(0)
        exact = np.sqrt(np.maximum(1.0 - x * x, 0.0))
        sups.append(float(np.max(np.abs(u - exact)[np.abs(x) < 1.0])))
    assert sups[1] < sups[0]


def test_zero_data_gives_zero_solution_exactly():
    prob = mixed_problem(0.0)
    # zero forcing variant: every branch value of F(0) is exactly zero
    spec = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                           forcing_law="fixed", forcing_value=0.0)
    handle = OperatorHandle(fam=FAM, env=sample_environment(spec, seed=1), eps=0.25)
    prob = DirichletProblem(handle=handle, domain=prob.domain, rhs=0.0,
                            exterior=ExteriorRule.zero(), shape="cube")
    u, diag = solve_dirichlet(prob, tol=1e-12, quad=QUAD16)
    assert np.array_equal(u, np.zeros(prob.domain.m))
    assert diag.converged


def test_forcing_shift_equals_level_shift():
    # F with constant forcing f is F without forcing plus f, so solving
    # at level l matches solving the forcing-free problem at l - f
    box = Box((0.0,), 0.5, 1.0 / 16)
    p1 = DirichletProblem(handle=OperatorHandle(fam=FAM, env=const_env(f=0.75)),
                          domain=box, rhs=1.0, exterior=ExteriorRule.zero())
    p2 = DirichletProblem(handle=OperatorHandle(fam=FAM, env=const_env(f=0.0)),
                          domain=box, rhs=0.25, exterior=ExteriorRule.zero())
    u1, _ = solve_dirichlet(p1, tol=1e-11, quad=QUAD16)
    u2, _ = solve_dirichlet(p2, tol=1e-11, quad=QUAD16)
    assert np.max(np.abs(u1 - u2)) <= 1e-9


def test_newton_matches_sweeps():
    h = 2.0**-6
    prob = sqrt_problem(h)
    quad = build_quadrature(1, 1.0, h, 16.0)
    u1, d1 = solve_dirichlet(prob, tol=1e-10, quad=quad)
    u2, d2 = sweeps(prob, quad, tol=1e-10)
    assert d1.method == "newton" and d2.method == "sweeps"
    assert np.max(np.abs(u1 - u2)) <= 1e-9


@pytest.mark.parametrize("sign", [0, +1, -1])
def test_newton_dirichlet_is_one_linear_solve(sign):
    box = Box((0.0,), 0.5, 1.0 / 16)
    if sign:
        # forced extremal operator of the "a" class: no pointwise split
        x = box.axis_nodes(0)
        prob = DirichletProblem(handle=OperatorHandle(fam=FAM_A, extremal_sign=sign),
                                domain=box, rhs=np.where(np.abs(x) < 0.25, -1.0, 0.5),
                                exterior=ExteriorRule.zero())
    else:
        prob = mixed_problem(0.05)
    u1, d1 = solve_dirichlet(prob, tol=1e-10, quad=QUAD16)
    u2, d2 = sweeps(prob, QUAD16, tol=1e-10)
    assert d1.method == "newton" and d1.iterations == 1
    assert d1.residual <= 1e-10
    assert np.max(np.abs(u1 - u2)) <= 1e-9


def grid_batch():
    """Dirichlet problems on one grid: branch operators over seeds, levels and
    exterior data, the forced "a" extremal, and the sweep-only "cs" extremal."""
    box = Box((0.0,), 0.5, 1.0 / 16)
    x = box.axis_nodes(0)
    cosine = ExteriorRule(fn=lambda p: np.cos(3.0 * np.asarray(p)[:, 0]), far=0.0)
    branch = [replace(mixed_problem(level, seed=seed), exterior=ext)
              for seed, level, ext in ((3, 0.05, ExteriorRule.zero()), (4, -0.2, cosine),
                                       (5, 0.3, ExteriorRule.constant(0.5)))]
    extremal = [DirichletProblem(handle=OperatorHandle(fam=fam, extremal_sign=+1),
                                 domain=box, rhs=np.where(np.abs(x) < 0.25, -1.0, 0.0),
                                 exterior=ExteriorRule.zero())
                for fam in (FAM_A, FAM)]
    return branch + extremal


def test_batched_columns_match_per_problem_solves(count_calls):
    # the cosine problem comes twice, the second time after the sweep problem
    problems, tol = grid_batch() + grid_batch()[1:2], 1e-9
    alone = [solve_dirichlet(p, tol=tol, quad=QUAD16) for p in problems]
    inverses = count_calls(solve, "_toeplitz_inverse")
    batch = solve_dirichlet_many(problems, tol=tol, quad=QUAD16)
    # the five problems on the newton engine read one G, and each solution
    # is G times its own column, bit for bit
    assert len(inverses) == 1
    assert [d.method for _, d in batch] == ["newton"] * 4 + ["sweeps", "newton"]
    newton = [solve._lattice(p, QUAD16) for i, p in enumerate(problems) if i != 4]
    G = solve._toeplitz_inverse(newton[0].column())
    for (u, _), lat in zip(batch[:4] + batch[5:], newton):
        assert u.tobytes() == (G @ (lat.load() - lat.threshold())).tobytes()
    for (u, d), (v, e) in zip(batch, alone):
        assert d.method == e.method and d.iterations == e.iterations
        assert d.residual <= tol
        assert np.max(np.abs(u - v)) <= 1e-14
    # the repeat's solution is the original's, bit for bit
    assert batch[5][0].tobytes() == batch[1][0].tobytes()
    assert batch[5][1].residual == batch[1][1].residual


@pytest.mark.parametrize("index", range(4))
def test_dirichlet_batch_of_one_is_the_single_column_solve(index):
    # solve_dirichlet is the batch of one: G times its column
    prob = grid_batch()[index]
    lat = solve._lattice(prob, QUAD16)
    want = solve._toeplitz_inverse(lat.column()) @ (lat.load() - lat.threshold())
    got, d = solve_dirichlet(prob, tol=1e-9, quad=QUAD16)
    assert np.array_equal(got, want)
    assert d.residual == lat.residual(want, False)
    (many, e), = solve_dirichlet_many([prob], tol=1e-9, quad=QUAD16)
    assert np.array_equal(many, want) and e.residual == d.residual


def test_dirichlet_batch_refuses_mixed_grids():
    prob = mixed_problem(0.05)
    for other in (replace(prob, domain=Box((0.0,), 1.0, 1.0 / 16)),   # more cells
                  replace(prob, domain=Box((0.0,), 0.5, 1.0 / 32))):  # not the table's grid
        with pytest.raises(ConfigurationError):
            solve_dirichlet_many([prob, other], quad=QUAD16)
    # in 1d the inscribed ball covers every cell of its box; in 2d it does not
    spec = EnvironmentSpec(dim=2, kernel_class="a", coeff_law="fixed", coeff_value=1.0,
                           forcing_law="fixed", forcing_value=0.0)
    cube = DirichletProblem(handle=OperatorHandle(fam=KernelFamily(
        kind="a", dim=2, sigma=1.0, lam=1.0, lam_big=2.0),
        env=sample_environment(spec, seed=0), eps=0.5),
        domain=Box((0.0, 0.0), 0.5, 1.0 / 8), rhs=0.0, exterior=ExteriorRule.zero())
    with pytest.raises(ConfigurationError):
        solve_dirichlet_many([cube, replace(cube, shape="ball")],
                                   quad=build_quadrature(2, 1.0, 1.0 / 8, 2.0))


def test_dirichlet_batch_certifies_every_column():
    # a column that misses tol raises, as a single solve does
    with pytest.raises(SolverError):
        solve_dirichlet_many(grid_batch()[:2], tol=1e-300, quad=QUAD16)


def extremal_lattice(m):
    """Lattice of the forced "a" extremal on m cells of the unit box, default table."""
    box = Box((0.0,), 0.5, 1.0 / m)
    prob = DirichletProblem(handle=OperatorHandle(fam=FAM_A, extremal_sign=1), domain=box,
                            rhs=-1.0, exterior=ExteriorRule.zero())
    return solve._lattice(prob, default_quadrature(FAM_A, box))


# Trench's recurrence with a matvec, and LAPACK's LU, each err by about
# cond(K) * m * 2^-52 relative, and K is strictly diagonally dominant, so
# cond(K) is small; the gap between them is about 1.2e-14 at m = 512 and
# 3e-14 at m = 2048
TOEPLITZ_REL_TOL = 1e-12


def toeplitz_columns(col, B):
    """The solution of K x = b for every row b of B, as `solve_dirichlet_many`
    takes it: one G = inv(K), and one matvec per row."""
    G = solve._toeplitz_inverse(col)
    return np.array([G @ b for b in B])


@pytest.mark.parametrize("m", [1, 2, 3, 64, 512, 2048])
def test_toeplitz_solve_agrees_with_a_dense_solve_on_K(m):
    lat = extremal_lattice(m)
    B = np.random.default_rng(m).standard_normal((3, m))
    B[0] = lat.load() - lat.threshold()
    got = toeplitz_columns(lat.column(), B)
    want = np.linalg.solve(lat.matrix(), B.T).T
    assert np.max(np.abs(got - want)) <= TOEPLITZ_REL_TOL * np.max(np.abs(want))


def test_toeplitz_solve_gives_equal_rows_equal_bits_anywhere():
    # each row is its own matvec, so neither its position in the batch, the
    # number of rows, nor where its array starts in memory reaches its bits
    col = extremal_lattice(64).column()
    b, *others = np.random.default_rng(7).standard_normal((4, 64))
    alone, = toeplitz_columns(col, [b])
    for rows, at in (([b] + others, 0), (others[:2] + [b], 2), ([others[0], b, b], 1)):
        got = toeplitz_columns(col, rows)
        assert np.array_equal(got[at], alone)
    twice = toeplitz_columns(col, [others[0], b, b])
    assert np.array_equal(twice[1], twice[2])
    # b at every 8-byte offset within a 64-byte line
    G = solve._toeplitz_inverse(col)
    buf = np.zeros(64 + 8)
    for start in range(8):
        buf[start:start + 64] = b
        assert np.array_equal(G @ buf[start:start + 64], alone)
    # the whole batch, with b repeated, solves each column to its own bits
    batch = solve_dirichlet_many(grid_batch()[1:2] * 2 + grid_batch()[:2], tol=1e-9,
                                 quad=QUAD16)
    assert batch[0][0].tobytes() == batch[1][0].tobytes() == batch[3][0].tobytes()


def test_toeplitz_solve_of_a_zero_row_is_exactly_zero():
    col = extremal_lattice(64).column()
    X = toeplitz_columns(col, [np.zeros(64), np.ones(64)])
    assert np.all(X[0] == 0.0) and np.any(X[1] != 0.0)


def test_dirichlet_batch_builds_one_inverse_and_no_dense_solve(count_calls):
    # the batch's held system: one G and one read-only view of K, which the
    # columns never read, and no LAPACK solve
    inverses = count_calls(solve, "_toeplitz_inverse")
    views = count_calls(solve._Lattice1D, "matrix")
    lapack = count_calls(np.linalg, "solve")
    assert [d.method for _, d in solve_dirichlet_many(grid_batch(), tol=1e-9, quad=QUAD16)
            ][:4] == ["newton"] * 4
    assert len(inverses) == 1 and len(views) == 1 and lapack == []


def test_a_lattice_reads_each_field_once_for_every_branch(count_calls):
    # mixed_env has 2 x 2 branches; one call per field returns all four
    mult = count_calls(solve, "multiplier_field")
    forc = count_calls(solve, "forcing_field")
    lat = solve._lattice(mixed_problem(0.05), QUAD16)
    assert len(mult) == len(forc) == 1
    assert lat.mult.shape == lat.forc.shape == (2, 2, 16)


def test_dirichlet_batch_shares_exterior_correlations(monkeypatch):
    # grid_batch has zero exterior data in problems 0, 3 and 4, a cosine
    # in 1 and a constant in 2: three correlations for five lattices
    built = []
    lattices = solve._lattices

    def record(*args, **kwargs):
        built.extend(lattices(*args, **kwargs))
        return built[-len(args[0]):]

    monkeypatch.setattr(solve, "_lattices", record)
    solve_dirichlet_many(grid_batch(), tol=1e-9, quad=QUAD16)
    monkeypatch.undo()
    zero, cosine, constant, *extremal = built
    for lat in extremal:
        assert lat.fixed_corr is zero.fixed_corr and lat.fixed is zero.fixed
    assert len({id(lat.fixed_corr) for lat in built}) == 3
    assert len({id(lat.kern) for lat in built}) == 1
    # each distinct exterior still gives its own correlation's bits
    for lat, prob in zip(built, grid_batch()):
        assert np.array_equal(lat.fixed_corr, solve._lattice(prob, QUAD16).fixed_corr)


def test_an_unhashable_exterior_function_is_shared_by_identity():
    # a dataclass that defines __eq__ is unhashable; the batch keys a rule
    # that is not constant by its function object, so it still solves, and
    # two equal but distinct functions are read once each
    @dataclass
    class Cosine:
        k: float

        def __call__(self, pts):
            return np.cos(self.k * np.asarray(pts)[:, 0])

    one, other = Cosine(3.0), Cosine(3.0)
    problems = [replace(mixed_problem(level), exterior=ExteriorRule(fn=fn, far=0.0))
                for level, fn in ((0.05, one), (-0.2, one), (0.1, other))]
    lats = solve._lattices(problems, QUAD16)
    assert lats[1].fixed_corr is lats[0].fixed_corr
    assert lats[2].fixed_corr is not lats[0].fixed_corr
    assert np.array_equal(lats[2].fixed_corr, lats[0].fixed_corr)
    batch = solve_dirichlet_many(problems, tol=1e-9, quad=QUAD16)
    for problem, (vals, _) in zip(problems, batch):
        assert np.array_equal(vals, solve_dirichlet(problem, tol=1e-9, quad=QUAD16)[0])


def test_2d_lattices_of_one_table_hold_its_one_stencil(monkeypatch):
    # a 2d Dirichlet batch, and the frozen problems of one 2d eps, read the
    # table's (3, 2J+1, 2J+1) stencil; no lattice keeps a copy
    from nlhomog.homog import _FrozenSystems, fam_of, quadratic_bank
    spec = EnvironmentSpec(dim=2, n_alpha=2, n_beta=2, kernel_class="a",
                           coeff_law="uniform", forcing_law="uniform")
    fam = fam_of(spec)
    built = []
    lattices = solve._lattices

    def record(*args, **kwargs):
        built.extend(lattices(*args, **kwargs))
        return built[-len(args[0]):]

    monkeypatch.setattr(solve, "_lattices", record)
    box = Box((0.0, 0.0), 0.5, 1.0 / 8)
    quad = build_quadrature(2, 1.0, 1.0 / 8, 1.0)
    problems = [DirichletProblem(handle=OperatorHandle(fam=fam, env=sample_environment(spec, s),
                                                       eps=0.5),
                                 domain=box, rhs=0.0, exterior=ExteriorRule.zero())
                for s in range(3)]
    solve_dirichlet_many(problems, tol=1e-6, quad=quad)
    assert len(built) == 3 and all(lat.kern is quad.stencil for lat in built)
    assert quad.stencil.shape == (3, 2 * quad.n_offsets + 1, 2 * quad.n_offsets + 1)
    assert all(np.shares_memory(k, quad.stencil) for k in (quad.kxx, quad.kyy, quad.kxy))
    frozen = _FrozenSystems(quadratic_bank(2)[7], np.zeros(2), spec, fam, 1.0 / 8, 1.0, 1e-6,
                            (0.5,), (0, 1, 2))
    first, *rest = frozen.lattices.values()
    assert len(rest) == 2 and first.kern is first.quad.stencil
    assert all(lat.quad is first.quad and lat.kern is first.kern for lat in rest)


def test_system_is_the_matrix_its_load_and_the_inverse():
    lat = solve._lattice(mixed_problem(0.05), QUAD16)
    K, e, G = lat.K, lat.e, lat.G  # held by the lattice, built by its batch
    want = (lat.matrix(), lat.load(), solve._toeplitz_inverse(lat.column()))
    for got, ref in zip((K, e, G), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 64, 512, 2048])
def test_system_holds_K_as_a_view_and_an_exactly_symmetric_inverse(m):
    # m cells on the default table, which reaches past the box, so every
    # diagonal of K is nonzero; 2048 is the top of the 1d desk range
    h = 2.0**-11
    box = Box((0.0,), m * h / 2.0, h)
    prob = DirichletProblem(handle=OperatorHandle(fam=FAM_A, extremal_sign=1), domain=box,
                            rhs=0.0, exterior=ExteriorRule.zero())
    lat = solve._lattice(prob, default_quadrature(FAM_A, box))
    K, G = lat.K, lat.G
    # K owns no m x m buffer: it is a read-only view over 2m - 1 doubles
    lo, hi = np.lib.array_utils.byte_bounds(K)
    assert hi - lo == (2 * m - 1) * K.itemsize
    assert not K.flags.owndata and not K.flags.writeable
    assert K.shape == (m, m) and np.array_equal(K[0], lat.column())
    assert np.count_nonzero(K[0]) == m
    # Trench's layers write every entry of G from one computed value
    assert np.array_equal(G, G.T) and np.array_equal(G, G[::-1, ::-1])
    # ||K G - I||_inf <= 16 u kappa_inf(K), u the unit roundoff.  At m = 2048
    # the recurrence reaches 4.0 u kappa and LAPACK's inverse 2.5 u kappa
    # (the rows are taken in blocks)
    u = np.finfo(np.float64).eps / 2.0
    kappa = np.abs(K).sum(axis=1).max() * np.abs(G).sum(axis=1).max()
    residual = max(np.abs(K[i:i + 256] @ G - np.eye(min(256, m - i), m, k=i)).sum(axis=1).max()
                   for i in range(0, m, 256))
    assert residual <= 16.0 * u * kappa


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       na=st.integers(min_value=1, max_value=3),
       nb=st.integers(min_value=1, max_value=3),
       sign=st.sampled_from([0, +1, -1]))
def test_threshold_is_the_root_of_the_infsup(seed, na, nb, sign):
    # every slot is strictly increasing and linear in the unit moment I, so
    # the inf-sup equals rhs at I = t and F - rhs has the sign of I - t
    rng = np.random.default_rng(seed)
    box = Box((0.0,), 0.5, 1.0 / 16)
    rhs = rng.uniform(-3.0, 3.0, box.m)
    handle = (OperatorHandle(fam=FAM_A, extremal_sign=sign) if sign
              else OperatorHandle(fam=FAM, env=mixed_env(), eps=0.25))
    lat = solve._lattice(DirichletProblem(handle=handle, domain=box, rhs=rhs,
                                          exterior=ExteriorRule.zero()), QUAD16)
    if sign:
        lam = rng.uniform(0.5, 1.5)
        lam_big = lam * rng.uniform(1.0, 3.0)
        lat.up, lat.down = (lam_big, lam) if sign > 0 else (lam, lam_big)
        slope = lam_big
    else:
        lat.mult = rng.uniform(0.5, 2.0, (na, nb, box.m))
        lat.forc = rng.uniform(-1.0, 1.0, (na, nb, box.m))
        lat.frozen_moment = rng.uniform(-2.0, 2.0)
        slope = float(np.max(lat.mult))
    t = lat.threshold()
    scale = 1.0 + np.abs(rhs) + slope * (np.abs(t) + 2.0)
    assert np.all(np.abs(lat.infsup(t) - rhs) <= 1e-14 * scale)
    d = rng.choice([-1.0, 1.0], box.m) * rng.uniform(1e-6, 10.0, box.m)
    assert np.array_equal(np.sign(lat.infsup(t + d) - rhs), np.sign(d))


def test_dirichlet_2d_smoke():
    spec = EnvironmentSpec(dim=2, kernel_class="a", coeff_law="uniform",
                           forcing_law="uniform", f_bound=1.0)
    env = sample_environment(spec, seed=0)
    h = 1.0 / 8
    box = Box((0.0, 0.0), 0.5, h)
    prob = DirichletProblem(handle=OperatorHandle(fam=KernelFamily(
        kind="a", dim=2, sigma=1.0, lam=1.0, lam_big=2.0), env=env, eps=0.5),
        domain=box, rhs=0.25, exterior=ExteriorRule.zero(), shape="cube")
    quad = build_quadrature(2, 1.0, h, 8.0)
    u, diag = solve_dirichlet(prob, tol=1e-6, quad=quad)
    assert diag.converged and diag.residual <= 1e-6
    r = residual_field(prob, u, quad=quad)
    assert np.max(np.abs(r)) <= 1e-6


@pytest.mark.parametrize("shape", ["cube", "ball"])
@pytest.mark.parametrize("r_out", [2.0, 0.5])
@pytest.mark.parametrize("kind, operator", [("cs", "plain"), ("cs", "frozen"),
                                            ("a", "plain"), ("a", "frozen"),
                                            ("a", +1), ("a", -1)],
                         ids=["cs-plain", "cs-frozen", "a-plain", "a-frozen",
                              "a-upper", "a-lower"])
def test_lattice_2d_matches_pointwise_operator(kind, operator, shape, r_out):
    # r_out 2.0 reaches past the box (J > m - 1); r_out 0.5 does not
    spec = EnvironmentSpec(dim=2, n_alpha=2, n_beta=2, kernel_class=kind,
                           coeff_law="uniform", forcing_law="uniform", f_bound=1.0)
    env = sample_environment(spec, seed=5)
    fam = KernelFamily(kind=kind, dim=2, sigma=1.0, lam=1.0, lam_big=2.0)
    h = 1.0 / 8
    box = Box((0.0, 0.0), 0.5, h)
    quad = build_quadrature(2, 1.0, h, r_out)
    ext = ExteriorRule(fn=lambda pts: np.cos(2.0 * pts[:, 0] - pts[:, 1]), far=0.3)
    phi = TestFunction.make(P=[[2.0, 0.5], [0.5, -1.0]], p=[0.3, -0.1], r_cut=1.0)
    x0 = np.array([0.1, -0.2])
    if operator == "plain":
        handle = OperatorHandle(fam=fam, env=env, eps=1.0)
    elif operator == "frozen":
        handle = OperatorHandle(fam=fam, env=env, eps=1.0, frozen=(phi, x0))
    else:
        handle = OperatorHandle(fam=fam, extremal_sign=operator)
    prob = DirichletProblem(handle=handle, domain=box, rhs=0.0, exterior=ext, shape=shape)
    nodes = box.nodes()
    active = np.ones(box.m * box.m, dtype=bool)
    if shape == "ball":
        active = np.sum(nodes**2, axis=1) < box.half**2
        assert not np.all(active)
    rng = np.random.default_rng(11)
    vals = np.where(active, rng.standard_normal(box.m * box.m), ext.fn(nodes))
    u = GridFunction(box, vals.reshape(box.m, box.m), ext)
    F = residual_field(prob, u.values, quad=quad).ravel()

    def oracle(x):
        if operator == "plain":
            return evaluate_F(u, x, env, fam, quad)
        if operator == "frozen":
            return evaluate_frozen(phi, x0, u, x, env, fam, quad)
        return extremal(u, x, operator, fam, quad)

    want = np.array([oracle(x) for x in nodes[active]])
    assert np.max(np.abs(F[active] - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("r_out", [2.0, 0.5])
@pytest.mark.parametrize("fam, operator", [(FAM, "plain"), (FAM, "frozen"), (FAM_A, +1),
                                           (FAM_A, -1), (FAM, +1), (FAM, -1)],
                         ids=["cs-plain", "cs-frozen", "a-upper", "a-lower",
                              "cs-upper", "cs-lower"])
def test_lattice_1d_matches_pointwise_operator(fam, operator, r_out):
    # the lattice correlates the exterior once and the active values per
    # evaluation; r_out 2.0 reaches past the box (J > m - 1), 0.5 does not
    box = Box((0.0,), 0.5, 1.0 / 16)
    quad = build_quadrature(1, 1.0, box.h, r_out)
    ext = ExteriorRule(fn=lambda pts: np.cos(3.0 * pts[:, 0]), far=0.3)
    phi, x0 = TestFunction.make([[1.5]], p=[0.2], r_cut=1.0), np.array([0.1])
    env = mixed_env()
    if operator == "plain":
        handle = OperatorHandle(fam=fam, env=env)
    elif operator == "frozen":
        handle = OperatorHandle(fam=fam, env=env, frozen=(phi, x0))
    else:
        handle = OperatorHandle(fam=fam, extremal_sign=operator)
    prob = DirichletProblem(handle=handle, domain=box, rhs=0.0, exterior=ext)
    u = GridFunction(box, np.random.default_rng(11).standard_normal(box.m), ext)
    F = residual_field(prob, u.values, quad=quad)

    def oracle(x):
        if operator == "plain":
            return evaluate_F(u, x, env, fam, quad)
        if operator == "frozen":
            return evaluate_frozen(phi, x0, u, x, env, fam, quad)
        return extremal(u, x, operator, fam, quad)

    want = np.array([oracle(x) for x in box.nodes()])
    assert np.max(np.abs(F - want)) <= 1e-10 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# obstacle problem

def test_obstacle_nonnegative_and_vi_residual():
    prob = mixed_problem(0.05)
    tol = 1e-9
    sol = solve_obstacle(prob, tol=tol, quad=QUAD16)
    u = sol.u
    assert np.all(u >= 0.0)
    # complementarity: max(F - l, -U) vanishes cell by cell
    r = residual_field(prob, sol.u, quad=QUAD16)
    assert np.max(np.abs(np.maximum(r, -u))) <= tol
    # supersolution side holds everywhere, not just off contact
    assert np.max(r) <= tol
    assert np.array_equal(sol.contact, u == 0.0)
    assert sol.fraction == pytest.approx(np.mean(u == 0.0))


def test_obstacle_below_barrier_threshold_touches_nothing():
    prob = mixed_problem(0.0)
    thr, _ = barrier_threshold(solve._lattice(prob, QUAD16))
    low = mixed_problem(thr - 1.0)
    sol = solve_obstacle(low, tol=1e-9, quad=QUAD16)
    assert sol.fraction == 0.0
    assert np.min(sol.u) > 0.0


def test_obstacle_above_zero_level_is_identically_zero():
    prob = mixed_problem(0.0)
    from nlhomog.solve import _lattice
    lat = _lattice(prob, QUAD16)
    f0, _ = lat.operator_values(np.zeros(lat.m))
    high = mixed_problem(float(np.max(f0)) + 1.0)
    sol = solve_obstacle(high, tol=1e-9, quad=QUAD16)
    assert np.array_equal(sol.u, np.zeros(high.domain.m))
    assert sol.fraction == 1.0


def test_obstacle_dominates_dirichlet_solution():
    prob = mixed_problem(0.05)
    sol = solve_obstacle(prob, tol=1e-9, quad=QUAD16)
    u, _ = solve_dirichlet(prob, tol=1e-9, quad=QUAD16)
    assert np.min(sol.u - u) >= -1e-8


@pytest.mark.parametrize("shape", ["cube", "ball"])
def test_newton_obstacle_matches_sweeps_across_contact_transition(shape):
    h, tol = 1.0 / 32, 1e-10
    quad = build_quadrature(1, 1.0, h, 8.0)
    counts = []
    for level in np.linspace(-0.2, 0.4, 13):
        prob = DirichletProblem(handle=OperatorHandle(fam=FAM, env=mixed_env(), eps=0.25),
                                domain=Box((0.0,), 0.5, h), rhs=level,
                                exterior=ExteriorRule.zero(), shape=shape)
        a = solve_obstacle(prob, tol=tol, quad=quad)
        b = sweeps(prob, quad, obstacle=True, tol=tol)
        assert a.diagnostics.residual <= tol
        assert int(np.sum(a.contact)) == int(np.sum(b.contact))
        assert np.max(np.abs(a.u - b.u)) <= tol
        counts.append(int(np.sum(a.contact)))
    # the levels run from no contact to full contact
    assert counts[0] == 0 and counts[-1] == prob.domain.m
    assert all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))


def test_newton_warm_start_is_exact():
    # the active set reaches the same final contact set from any first set,
    # so a warm start changes the step count and nothing else
    prob = mixed_problem(0.1)
    cold = solve_obstacle(prob, tol=1e-10, quad=QUAD16)
    contact = cold.contact
    n = int(np.sum(contact))
    assert 0 < n < contact.size
    cells = np.arange(contact.size)
    superset = contact | (cells % 3 == 0)
    subset = contact & (cells % 2 == 0)
    assert superset.sum() > n and subset.sum() < n
    for first in (superset, subset, contact):
        warm = solve_obstacle(prob, tol=1e-10, quad=QUAD16,
                              init=np.where(first, 0.0, 1.0))
        assert np.array_equal(warm.u, cold.u)
        assert int(np.sum(warm.contact)) == n
    # started from the final contact set, one step confirms it
    exact = solve_obstacle(prob, tol=1e-10, quad=QUAD16,
                           init=cold.u)
    assert exact.diagnostics.iterations == 1 < cold.diagnostics.iterations


def test_sweeps_obstacle_solve_ignores_init():
    # init only seeds the newton contact set; the 2d policy engine and the
    # sweeps start from zero
    spec = EnvironmentSpec(dim=2, kernel_class="a", n_alpha=2, n_beta=2,
                           coeff_law="uniform", forcing_law="uniform", f_bound=1.0)
    prob = DirichletProblem(handle=OperatorHandle(fam=KernelFamily(
        kind="a", dim=2, sigma=1.0, lam=1.0, lam_big=2.0),
        env=sample_environment(spec, seed=0), eps=0.5),
        domain=Box((0.0, 0.0), 0.5, 1.0 / 8), rhs=0.1, exterior=ExteriorRule.zero())
    quad = build_quadrature(2, 1.0, 1.0 / 8, 2.0)
    for fixed_sweeps, method in ((None, "policy"), (40, "sweeps")):
        cold = solve_obstacle(prob, tol=1e-8, quad=quad, fixed_sweeps=fixed_sweeps)
        warm = solve_obstacle(prob, tol=1e-8, quad=quad, init=np.full((8, 8), 0.5),
                              fixed_sweeps=fixed_sweeps)
        assert cold.diagnostics.method == warm.diagnostics.method == method
        assert np.array_equal(warm.u, cold.u)
        assert warm.diagnostics.iterations == cold.diagnostics.iterations


def test_prebuilt_lattice_and_system_match_a_fresh_solve():
    lat = solve._lattice(mixed_problem(0.0), QUAD16)
    arrays = {k: v.copy() for k, v in vars(lat).items() if isinstance(v, np.ndarray)}
    assert {"fixed", "fixed_corr", "active", "rhs"} <= set(arrays)
    for level in (-0.05, 0.1, 0.4):
        fresh = solve_obstacle(mixed_problem(level), tol=1e-10, quad=QUAD16)
        # the held lattice's system, which the fresh solve builds for itself
        reused = solve_obstacle(mixed_problem(level), tol=1e-10, quad=QUAD16, lattice=lat)
        assert np.array_equal(fresh.u, reused.u)
        assert fresh.diagnostics.residual == reused.diagnostics.residual
    lat.sweep_solve(True, 1e-10, fixed_sweeps=16)
    barrier_threshold(lat)
    # the held lattice is read-only: its level, its exterior and every other array
    assert np.all(lat.rhs == 0.0)
    for name, before in arrays.items():
        assert np.array_equal(getattr(lat, name), before), name


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), m=st.integers(1, 48), c=st.integers(-64, 64),
       shape=st.sampled_from(["cube", "ball"]))
def test_every_1d_lattice_activates_its_whole_grid(k, m, c, shape):
    # the linear engine works on all m cells without a mask: every cell
    # centre lies within half - h/2 of the box centre, inside the ball too
    h = 2.0**-k
    box = Box((c * 2.0**-4,), m * h / 2.0, h)
    prob = DirichletProblem(handle=OperatorHandle(fam=FAM_A, extremal_sign=1), domain=box,
                            rhs=0.0, exterior=ExteriorRule.zero(), shape=shape)
    lat = solve._lattice(prob, build_quadrature(1, 1.0, h, 4.0 * h))
    assert lat.engine == "newton" and lat.active.shape == (m,) and lat.active.all()
    assert lat.matrix().shape == (m, m)


def frozen_transition():
    """A frozen 1d problem (m = 64), its lattice and 13 levels from no contact to full contact."""
    from nlhomog.homog import _frozen_problem, quadratic_bank
    prob = _frozen_problem(quadratic_bank(1)[4], np.zeros(1), 0.0, 0.125, mixed_env(),
                           FAM, 1.0 / 64)
    lat = solve._lattice(prob, default_quadrature(FAM, prob.domain))
    return prob, lat, (-12.0, *np.linspace(16.0, 21.5, 12))


def test_schur_steps_match_direct_steps_across_contact_transition(monkeypatch):
    # one frozen problem, its level swept from no contact to full contact:
    # Schur steps on inv(K) change how an active-set step is solved, never
    # the contact set or the certificate; the reference is the direct-only
    # active set of the oracles, a dense solve on K[F, F] at every step
    from oracles import direct_active_set
    prob, lat, levels = frozen_transition()
    steps = []
    free_solve = solve._free_solve

    def recorded(K, b, contact, G):
        steps.append(int(np.sum(contact)) < int(np.sum(~contact)))
        return free_solve(K, b, contact, G)

    monkeypatch.setattr(solve, "_free_solve", recorded)
    tol, counts = 1e-10, []
    for level in levels:
        level_lat = lat.at_level(replace(prob, rhs=level))
        direct, _ = direct_active_set(level_lat)
        direct_res = level_lat.residual(direct, True)
        schur, _, schur_res = level_lat.newton_solve(True)
        assert direct_res <= tol and schur_res[-1] <= tol
        assert np.array_equal(direct == 0.0, schur == 0.0)
        assert np.min(schur) >= 0.0 and np.min(direct) >= 0.0
        counts.append(int(np.sum(schur == 0.0)))
        assert counts[-1] == int(np.sum(direct == 0.0))
    assert counts[0] == 0 and counts[-1] == lat.m
    assert any(0 < c < lat.m / 2 for c in counts) and any(c > lat.m / 2 for c in counts)
    # both step types ran: Schur steps and solves on K[F, F]
    assert True in steps and False in steps


def test_one_off_and_held_obstacle_solves_agree_bitwise():
    # a one-off solve builds the system the held lattice holds, and takes
    # the same steps on it
    prob, lat, levels = frozen_transition()
    for level in levels:
        level_prob = replace(prob, rhs=level)
        one_off = solve_obstacle(level_prob, tol=1e-10)
        held = solve_obstacle(level_prob, tol=1e-10, lattice=lat)
        assert one_off.u.tobytes() == held.u.tobytes(), level
        assert one_off.diagnostics.iterations == held.diagnostics.iterations
        assert one_off.diagnostics.residual == held.diagnostics.residual


def test_no_dense_solve_of_an_obstacle_step_has_more_than_half_the_rows(monkeypatch,
                                                                       count_calls):
    # a Schur step solves on the contact block, under half of the rows, and
    # a direct step on the free block, at most half; a one-off solve builds
    # G once
    prob, lat, levels = frozen_transition()
    rows = []
    dense = np.linalg.solve

    def recorded(a, b):
        rows.append(a.shape[0])
        return dense(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    inverses = count_calls(solve, "_toeplitz_inverse")
    for solves, level in enumerate(levels, start=1):
        sol = solve_obstacle(replace(prob, rhs=level), tol=1e-10)
        assert sol.diagnostics.method == "newton" and len(inverses) == solves
    assert rows and max(rows) <= lat.m // 2


def test_obstacle_level_monotone_exact_coupling():
    lo = mixed_problem(0.05)
    hi = mixed_problem(0.35)
    s1 = solve_obstacle(lo, quad=QUAD16, fixed_sweeps=240)
    s2 = solve_obstacle(hi, quad=QUAD16, fixed_sweeps=240)
    assert np.all(s1.u >= s2.u)


def test_obstacle_domain_monotone():
    h = 1.0 / 16
    small = mixed_problem(0.05, h=h, half=0.5)
    big = mixed_problem(0.05, h=h, half=1.0)
    qbig = build_quadrature(1, 1.0, h, 16.0)
    ss = solve_obstacle(small, tol=1e-9, quad=QUAD16)
    sb = solve_obstacle(big, tol=1e-9, quad=qbig)
    # node i of the small box is node i + 8 of the big one
    inner = sb.u[8:-8]
    assert np.min(inner - ss.u) >= -1e-7


def test_extremal_forced_subadditive_coupling():
    h = 2.0**-6
    box = Box((0.0,), 1.0, h)
    quad = build_quadrature(1, 1.0, h, 16.0)
    x = box.axis_nodes(0)
    g1 = np.where(np.abs(x) < 0.25, 1.0, 0.0)
    g2 = np.where(np.abs(x - 0.3) < 0.2, 0.7, 0.0)
    handle = OperatorHandle(fam=FAM, extremal_sign=+1)

    def forced(g):
        p = DirichletProblem(handle=handle, domain=box, rhs=-g,
                             exterior=ExteriorRule.zero(), shape="ball")
        u, _ = solve_dirichlet(p, quad=quad, fixed_sweeps=200)
        return u

    v1, v2, v12 = forced(g1), forced(g2), forced(g1 + g2)
    assert np.max(v12 - v1 - v2) <= 1e-12


def test_obstacle_translation_covariance_bit_exact():
    eps, h, s = 0.25, 1.0 / 16, 0.25
    env = mixed_env(seed=5)
    box = Box((0.0,), 0.5, h)
    p1 = DirichletProblem(handle=OperatorHandle(fam=FAM, env=env, eps=eps),
                          domain=box, rhs=0.05, exterior=ExteriorRule.zero())
    moved = translate(env, np.array([s]))
    box2 = Box((-eps * s,), 0.5, h)
    p2 = DirichletProblem(handle=OperatorHandle(fam=FAM, env=moved, eps=eps),
                          domain=box2, rhs=0.05, exterior=ExteriorRule.zero())
    s1 = solve_obstacle(p1, tol=1e-9, quad=QUAD16)
    s2 = solve_obstacle(p2, tol=1e-9, quad=QUAD16)
    assert np.array_equal(s1.u, s2.u)
    assert np.array_equal(s1.contact, s2.contact)


def test_residual_field_reports_zero_outside_ball():
    h = 2.0**-5
    prob = sqrt_problem(h)
    quad = build_quadrature(1, 1.0, h, 16.0)
    u, _ = solve_dirichlet(prob, tol=1e-8, quad=quad)
    r = residual_field(prob, u, quad=quad)
    x = prob.domain.axis_nodes(0)
    outside = np.abs(x) >= 1.0
    assert np.array_equal(r[outside], np.zeros(np.sum(outside)))
    assert np.max(np.abs(r[~outside])) <= 1e-8


# ---------------------------------------------------------------------------
# the low certificate: F at the zero function

def test_barrier_check_certifies_extreme_levels():
    # the threshold is finite, so every level far enough below it is
    # certified
    thr, _ = barrier_threshold(solve._lattice(mixed_problem(0.0), QUAD16))
    assert -1e6 <= thr < 1e6
    # with zero forcing, F(0) is zero on every cell
    box = Box((0.0,), 0.5, 1.0 / 16)
    flat = DirichletProblem(handle=OperatorHandle(fam=FAM, env=const_env()),
                            domain=box, rhs=0.0, exterior=ExteriorRule.zero())
    assert barrier_threshold(solve._lattice(flat, QUAD16)) == (0.0, 0.0)


def _problem_2d(shape="cube", exterior=ExteriorRule.zero(), kind="a", seed=1):
    spec = EnvironmentSpec(dim=2, kernel_class=kind, n_alpha=2, n_beta=2,
                           coeff_law="uniform", forcing_law="uniform")
    fam = KernelFamily(kind=kind, dim=2, sigma=1.0, lam=1.0, lam_big=2.0)
    prob = DirichletProblem(
        handle=OperatorHandle(fam=fam, env=sample_environment(spec, seed=seed), eps=0.5),
        domain=Box((0.0, 0.0), 0.5, 0.125), rhs=0.3, exterior=exterior, shape=shape)
    return prob, build_quadrature(2, 1.0, 0.125, 2.0)


@pytest.mark.parametrize("budget_rows", [None, 7, 1], ids=["default", "7-rows", "row-by-row"])
def test_2d_exterior_is_read_in_blocks_of_rows_bitwise_as_row_by_row(monkeypatch, budget_rows):
    # a 2d cosine lattice at h 2^-3: (8 + 2J)^2 padded points, read in blocks
    # of whole rows under EXTERIOR_POINTS; a budget of one point reads one row
    # a call, which is the row-by-row build
    from nlhomog.homog import _exterior_from_tag
    cosine = _exterior_from_tag("cosine", 2)
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return cosine.fn(pts)

    prob, _ = _problem_2d(exterior=ExteriorRule(fn=counted, far=cosine.far))
    quad = default_quadrature(prob.handle.fam, prob.domain)
    monkeypatch.setattr(solve, "EXTERIOR_POINTS", 1)
    by_row = solve._lattice(prob, quad)
    side = by_row.m + 2 * by_row.J
    assert calls == [side] * side
    calls.clear()
    if budget_rows is not None:
        monkeypatch.setattr(solve, "EXTERIOR_POINTS", budget_rows * side + side // 2)
    else:
        monkeypatch.undo()
    lat = solve._lattice(prob, quad)
    rows = max(1, solve.EXTERIOR_POINTS // side)
    assert len(calls) == -(-side // rows) and sum(calls) == side * side
    assert max(calls) <= max(side, solve.EXTERIOR_POINTS)
    assert lat.fixed.tobytes() == by_row.fixed.tobytes()
    assert lat.fixed_corr.tobytes() == by_row.fixed_corr.tobytes()
    assert np.any(lat.fixed != 0.0)


@pytest.mark.parametrize("dim, shape", [(1, "cube"), (1, "ball"), (2, "cube"), (2, "ball")])
def test_barrier_threshold_is_the_min_of_F_at_zero_on_the_active_cells(dim, shape):
    if dim == 1:
        prob, quad = replace(mixed_problem(0.3), shape=shape), QUAD16
    else:
        prob, quad = _problem_2d(shape)
    lat = solve._lattice(prob, quad)
    # evaluated on the held lattice, which keeps its own arrays
    fixed, fixed_corr = lat.fixed.copy(), lat.fixed_corr.copy()
    F, _ = lat.operator_values(np.zeros(lat.active.shape))
    low, high = barrier_threshold(lat)
    assert np.float64(low).tobytes() == np.min(F[lat.active]).tobytes()
    assert np.float64(high).tobytes() == np.max(F[lat.active]).tobytes()
    assert np.array_equal(lat.fixed, fixed) and np.array_equal(lat.fixed_corr, fixed_corr)


def _certificates_bound_contact(frozen):
    # strictly below each lattice's own certificate no cell touches, and at
    # its zero level every cell does
    for lat in frozen.lattices.values():
        low, high = barrier_threshold(lat)
        sol = solve_obstacle(replace(lat.problem, rhs=np.nextafter(low, -np.inf)),
                             tol=frozen.tol, lattice=lat)
        assert sol.fraction == 0.0
        sol = solve_obstacle(replace(lat.problem, rhs=high), tol=frozen.tol, lattice=lat)
        assert sol.fraction == 1.0


def test_1d_frozen_problems_have_no_contact_below_their_certificate():
    # the lattices of the effective-1d golden's bisection (newton engine),
    # whose zero exterior data make the 1d comparison exact in floating point
    from nlhomog.homog import _FrozenSystems, fam_of, quadratic_bank
    spec = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                           forcing_law="uniform", f_bound=1.0)
    frozen = _FrozenSystems(quadratic_bank(1)[4], np.zeros(1), spec, fam_of(spec),
                            None, 8.0, 1e-7, (0.0625, 0.03125, 0.015625), tuple(range(8)))
    assert all(lat.engine == "newton" and lat.G is not None for lat in frozen.lattices.values())
    _certificates_bound_contact(frozen)


def test_2d_frozen_problems_have_no_contact_below_their_certificate():
    from nlhomog.homog import _FrozenSystems, fam_of, quadratic_bank
    spec = EnvironmentSpec(dim=2, n_alpha=2, n_beta=2, kernel_class="a",
                           coeff_law="uniform", forcing_law="uniform")
    frozen = _FrozenSystems(quadratic_bank(2)[7], np.zeros(2), spec, fam_of(spec), 1.0 / 8,
                            1.0, 1e-8, (1.0, 0.5), (0, 1))
    assert all(lat.engine == "policy" and lat.L is not None for lat in frozen.lattices.values())
    _certificates_bound_contact(frozen)


@pytest.mark.parametrize("dim", [1, 2])
def test_one_off_obstacle_with_exterior_data_has_no_contact_below_its_certificate(dim):
    # the exterior terms are the same in F(U) and F(0), so the certificate
    # holds for the lattice's own exterior data
    cosine = ExteriorRule(fn=lambda pts: np.cos(2.0 * pts[:, 0]), far=0.0)
    if dim == 1:
        prob, quad = replace(mixed_problem(0.3), exterior=cosine), QUAD16
    else:
        prob, quad = _problem_2d(exterior=cosine)
    lat = solve._lattice(prob, quad)
    assert np.any(lat.fixed != 0.0)
    low = np.nextafter(barrier_threshold(lat)[0], -np.inf)
    sol = solve_obstacle(replace(prob, rhs=low), tol=1e-8, quad=quad)
    assert sol.fraction == 0.0
    assert np.min(sol.u[lat.active]) > 0.0


def test_2d_frozen_cube_has_no_contact_at_the_certified_low_end():
    # the frozen problems of one 2d eps, as the bisection builds them: at
    # the certified level of each seed's lattice no cell of the cube
    # touches the obstacle
    from nlhomog.homog import _FrozenSystems, fam_of, quadratic_bank
    spec = EnvironmentSpec(dim=2, n_alpha=2, n_beta=2, kernel_class="a",
                           coeff_law="uniform", forcing_law="uniform")
    frozen = _FrozenSystems(quadratic_bank(2)[7], np.zeros(2), spec, fam_of(spec), 1.0 / 8,
                            1.0, 1e-8, (0.5,), (0, 1))
    for lat in frozen.lattices.values():
        assert lat.problem.shape == "cube" and lat.active.all()
        level, _ = barrier_threshold(lat)
        sol = solve_obstacle(replace(lat.problem, rhs=level), tol=1e-8, lattice=lat)
        assert sol.fraction == 0.0
        assert np.min(sol.u[lat.active]) > 0.0


# ---------------------------------------------------------------------------
# the 2d policy engine: moment maps from the stencil, Hoffman-Karp over the branches

COSINE_2D = ExteriorRule(fn=lambda pts: np.cos(2.0 * pts[:, 0] - pts[:, 1]), far=0.3)


def _policy_lattice(kind="a", shape="cube", r_out=2.0):
    """`_problem_2d` on cosine exterior data at level 30, where its obstacle
    solve touches on part of the domain, for either class and shape."""
    prob, _ = _problem_2d(shape, COSINE_2D, kind)
    return solve._lattice(replace(prob, rhs=30.0), build_quadrature(2, 1.0, 0.125, r_out))


@pytest.mark.parametrize("r_out", [2.0, 0.5])
@pytest.mark.parametrize("shape", ["cube", "ball"])
@pytest.mark.parametrize("kind", ["a", "cs"])
def test_moment_maps_match_unit_vector_probing_of_the_moments(kind, shape, r_out):
    # B(u) = B(0) + L u, with L gathered from the stencil; the moments of each
    # unit vector give the same columns to rounding.  r_out 2.0 reaches past
    # the box (J > m - 1); r_out 0.5 does not
    lat = _policy_lattice(kind, shape, r_out)
    L, e = lat.moment_maps(), lat.load()
    n = int(np.count_nonzero(lat.active))
    assert L.shape == (3, n, n) and e.shape == (3, n)
    zero = np.zeros(lat.active.shape)
    assert np.array_equal(e, np.stack(lat.moments(lat.padded(zero, 1)))[:, lat.active])
    probed = np.empty_like(L)
    for j, cell in enumerate(zip(*np.nonzero(lat.active))):
        unit = zero.copy()
        unit[cell] = 1.0
        probed[:, :, j] = np.stack(lat.moments(lat.padded(unit, 1)))[:, lat.active] - e
    assert np.max(np.abs(probed - L)) <= 1e-13 * np.max(np.abs(L))


@pytest.mark.parametrize("obstacle", [False, True])
@pytest.mark.parametrize("shape", ["cube", "ball"])
@pytest.mark.parametrize("kind", ["a", "cs"])
def test_policy_solutions_match_sweeps_within_residual_over_margin(kind, shape, obstacle):
    # both engines solve one monotone scheme whose rows are strictly
    # diagonally dominant by mu, so each lies within its residual / mu of the
    # discrete solution (Varah, Linear Algebra Appl. 11, 1975)
    lat = _policy_lattice(kind, shape)
    mu = lat.premise(lat.L)
    u, solves, trail = lat.policy_solve(obstacle)
    w, _, sweep_trail = lat.sweep_solve(obstacle, 1e-12)
    assert trail[-1] == lat.residual(u, obstacle) <= 1e-12 and sweep_trail[-1] <= 1e-12
    assert mu > 1.0 and solves <= 12
    bound = (trail[-1] + sweep_trail[-1]) / mu + 4.0 * np.finfo(float).eps * np.max(np.abs(w))
    assert np.max(np.abs(u - w)) <= bound
    if obstacle:
        contact = lat.active & (u == 0.0)
        assert 0 < np.count_nonzero(contact) < np.count_nonzero(lat.active)
        assert np.array_equal(contact, lat.active & (w == 0.0))


def test_policy_obstacle_contact_is_exact_zeros_and_ties_go_to_contact():
    lat = _policy_lattice()
    sol = solve_obstacle(lat.problem, tol=1e-12, lattice=lat)
    assert sol.diagnostics.method == "policy"
    free = lat.active & ~sol.contact
    assert 0.0 < sol.fraction < 1.0 and np.min(sol.u[free]) > 0.0
    # contact cells are written +0.0, never solved for
    assert not np.signbit(sol.u[sol.contact]).any()
    # zero forcing and exterior data at level zero: F(0) = 0 = -0 at every
    # cell, a tie between every branch and the obstacle, so the first policy
    # is all contact, and it stands
    spec = EnvironmentSpec(dim=2, kernel_class="a", n_alpha=2, n_beta=2,
                           coeff_law="uniform", forcing_law="fixed", forcing_value=0.0)
    prob = replace(lat.problem, handle=replace(lat.problem.handle,
                                               env=sample_environment(spec, seed=1)),
                   rhs=0.0, exterior=ExteriorRule.zero())
    sol = solve_obstacle(prob, tol=1e-12, quad=lat.quad)
    assert sol.fraction == 1.0 and sol.diagnostics.iterations == 1
    assert sol.diagnostics.residual == 0.0 and not np.signbit(sol.u).any()


@pytest.mark.parametrize("obstacle", [False, True])
def test_identical_branches_terminate_without_cycling(obstacle):
    # every branch a copy of branch (0, 0): they tie at every cell after
    # every solve, and a tie replaces no policy, so the game is solved as the
    # one branch is, to its bits and in as many policy solves
    lat = _policy_lattice()
    one, tied = copy.copy(lat), copy.copy(lat)
    one.A, one.forc = lat.A[:1, :1], lat.forc[:1, :1]
    tied.A = np.broadcast_to(one.A, lat.A.shape)
    tied.forc = np.broadcast_to(one.forc, lat.forc.shape)
    u1, s1, _ = one.policy_solve(obstacle)
    u2, s2, trail = tied.policy_solve(obstacle)
    assert u1.tobytes() == u2.tobytes() and s1 == s2 < solve.MAX_STEPS
    assert trail[-1] <= 1e-12


def test_policy_solve_gives_equal_systems_equal_bits_anywhere():
    # a policy solve reads its maps and load through whole-array products,
    # matvecs and LAPACK's own copy, so neither where they start in memory
    # nor the batch around a problem reaches its solution's bits
    lat = _policy_lattice()
    L, e = lat.L, lat.e
    alone, solves, _ = lat.policy_solve(True)
    # L and e at every 8-byte offset within a 64-byte line
    buf = np.zeros(L.size + e.size + 8)
    for start in range(8):
        moved = copy.copy(lat)
        moved.L = buf[start:start + L.size].reshape(L.shape)
        moved.e = buf[start + L.size:start + L.size + e.size].reshape(e.shape)
        moved.L[...], moved.e[...] = L, e
        u, s, _ = moved.policy_solve(True)
        assert u.tobytes() == alone.tobytes() and s == solves
    # a Dirichlet batch holding one problem twice, among others
    problems = [_problem_2d(exterior=COSINE_2D, seed=seed)[0] for seed in (1, 2, 1, 3)]
    quad = lat.quad
    batch = solve_dirichlet_many(problems, tol=1e-12, quad=quad)
    single = solve_dirichlet(problems[0], tol=1e-12, quad=quad)[0]
    assert batch[0][0].tobytes() == batch[2][0].tobytes() == single.tobytes()
    assert [d.method for _, d in batch] == ["policy"] * 4


def test_2d_policy_obstacle_translation_covariance_bit_exact():
    # the environment and the domain shifted by one cell on each axis: the
    # maps, the load and the branches are the same bits, so the solution is
    prob, quad = _problem_2d(seed=5)
    prob = replace(prob, rhs=0.1)
    eps, s = prob.handle.eps, 0.25
    moved = replace(prob, handle=replace(prob.handle, env=translate(prob.handle.env, [s, s])),
                    domain=Box((-eps * s, -eps * s), 0.5, prob.domain.h))
    a, b = (solve_obstacle(p, tol=1e-10, quad=quad) for p in (prob, moved))
    assert a.diagnostics.method == "policy" and 0.0 < a.fraction < 1.0
    assert a.u.tobytes() == b.u.tobytes()
    assert np.array_equal(a.contact, b.contact)


@pytest.mark.parametrize("field, message", [
    ([[1.0, 2.0], [2.0, 1.0]], "off-centre weight"),  # eigenvalues 3 and -1
    ([[0.0, 0.0], [0.0, 0.0]], "not strictly diagonally dominant"),
], ids=["not-psd", "zero"])
def test_a_matrix_field_that_breaks_the_m_matrix_premise_is_refused(
        monkeypatch, count_calls, field, message):
    # branch (1, 0) doctored: a non-PSD A gives some offset y a negative
    # weight y'Ay / |y|^2, and a zero A leaves its rows no dominance; the
    # policy engine checks both on the held maps, before any solve
    matrix_field = solve.matrix_field

    def doctored(*args):
        fields = matrix_field(*args)
        for A in fields:
            A[1, 0] = field
        return fields

    monkeypatch.setattr(solve, "matrix_field", doctored)
    lapack = count_calls(np.linalg, "solve")
    prob, quad = _problem_2d(exterior=COSINE_2D)
    with pytest.raises(ConfigurationError, match=rf"branch \(alpha=1, beta=0\).*{message}"):
        solve_dirichlet(prob, quad=quad)
    assert lapack == []


@pytest.mark.parametrize("dim", [1, 2])
def test_a_batch_checks_its_dense_arrays_before_it_builds_them(monkeypatch, dim):
    # MAX_DENSE_BYTES just below one grid's G (8 m^2 bytes) or the 2d maps
    # with their policy matrix (5 x 8 n^2): each entry refuses before the
    # array is built, and at exactly that size it runs
    if dim == 1:
        (prob, quad), name, need = (mixed_problem(0.05), QUAD16), "_toeplitz_inverse", 8 * 16**2
    else:
        (prob, quad), name, need = _problem_2d(), "moment_maps", 40 * 64**2
    built = []
    for owner, attr in ((solve, "_toeplitz_inverse"), (solve._Lattice2D, "moment_maps")):
        def recorded(*args, _orig=getattr(owner, attr), _attr=attr):
            built.append(_attr)
            return _orig(*args)

        monkeypatch.setattr(owner, attr, recorded)
    for run in (lambda: solve._lattices([prob], quad),
                lambda: solve_dirichlet_many([prob, prob], tol=1e-8, quad=quad),
                lambda: solve_obstacle(prob, tol=1e-8, quad=quad)):
        monkeypatch.setattr(solve, "MAX_DENSE_BYTES", need - 1)
        with pytest.raises(ConfigurationError, match=f"MAX_DENSE_BYTES = {need - 1}"):
            run()
        assert built == []
        monkeypatch.setattr(solve, "MAX_DENSE_BYTES", need)
        run()
        assert built == [name]
        built.clear()


# ---------------------------------------------------------------------------
# the sweep engine: one evaluation of F per sweep, which also certifies

def _sweep_problem(dim, shape):
    if dim == 1:
        return mixed_problem(0.3), QUAD16
    return _problem_2d(shape)


def _evaluations(monkeypatch, lat):
    """The values of each later operator_values call on lat, copied, in call order."""
    seen, evaluate = [], lat.operator_values

    def spy(vals):
        seen.append(vals.copy())
        return evaluate(vals)

    monkeypatch.setattr(lat, "operator_values", spy)
    return seen


@pytest.mark.parametrize("fixed_sweeps", [None, 24])
@pytest.mark.parametrize("obstacle", [False, True])
@pytest.mark.parametrize("dim, shape", [(1, "cube"), (2, "cube"), (2, "ball")])
def test_a_sweep_solve_evaluates_F_once_per_sweep_and_once_to_certify(
        monkeypatch, dim, shape, obstacle, fixed_sweeps):
    lat = solve._lattice(*_sweep_problem(dim, shape))
    seen = _evaluations(monkeypatch, lat)
    vals, its, _ = lat.sweep_solve(obstacle, 1e-8, fixed_sweeps)
    if fixed_sweeps is not None:
        assert its == fixed_sweeps
    assert len(seen) == its + 1 > 1
    # the last evaluation read the values returned
    assert np.array_equal(seen[-1], vals)


@pytest.mark.parametrize("obstacle", [False, True])
@pytest.mark.parametrize("dim, shape", [(1, "cube"), (2, "cube"), (2, "ball")])
def test_sweep_residuals_are_certified_by_the_evaluation_that_moves_the_values(
        monkeypatch, dim, shape, obstacle):
    prob, quad = _sweep_problem(dim, shape)
    lat = solve._lattice(prob, quad)
    seen = _evaluations(monkeypatch, lat)
    vals, its, trail = lat.sweep_solve(obstacle, 1e-8)
    # every sweep evaluated F once, and its residual is in the record: the
    # record ends with the residuals of the last evaluations, bitwise
    certified = [lat.residual(v, obstacle) for v in seen[:its + 1]]
    assert len(trail) > 1 and trail == certified[-len(trail):]
    assert trail[-1] == lat.residual(vals, obstacle) <= 1e-8 < trail[-2]
    # and the solve reports that residual
    if dim == 2:
        run = solve_obstacle if obstacle else solve_dirichlet
        out = run(prob, tol=1e-8, quad=quad)
        u, d = (out.u, out.diagnostics) if obstacle else out
        assert d.residual == solve._lattice(prob, quad).residual(u, obstacle)


@pytest.mark.parametrize("obstacle", [False, True])
def test_a_sweep_solve_whose_zero_start_meets_tol_takes_no_sweep(count_calls, obstacle):
    # zero forcing and zero exterior data: F(0) = 0 exactly, so the zero
    # function solves level 0, and at level 1 it is the least nonnegative
    # supersolution, touching everywhere
    prob, quad = _problem_2d()
    spec = EnvironmentSpec(dim=2, kernel_class="a", n_alpha=2, n_beta=2,
                           coeff_law="uniform", forcing_law="fixed", forcing_value=0.0)
    prob = replace(prob, handle=replace(prob.handle, env=sample_environment(spec, seed=1)))
    prob = replace(prob, rhs=1.0 if obstacle else 0.0)
    calls = count_calls(solve._Lattice2D, "operator_values")
    vals, its, trail = solve._lattice(prob, quad).sweep_solve(obstacle, 1e-12)
    assert its == 0 and trail == [0.0] and not vals.any()
    assert len(calls) == 1
    # the policy engine solves the greedy policy at zero once, and certifies it
    if obstacle:
        sol = solve_obstacle(prob, tol=1e-12, quad=quad)
        u, d = sol.u, sol.diagnostics
        assert sol.fraction == 1.0
    else:
        u, d = solve_dirichlet(prob, tol=1e-12, quad=quad)
    assert d.method == "policy" and d.iterations == 1 and d.residual == 0.0
    assert len(calls) == 2
    assert not u.any()


# ---------------------------------------------------------------------------
# failure modes and validation

def test_solver_error_carries_diagnostics(monkeypatch):
    prob = mixed_problem(0.05)
    monkeypatch.setattr(solve, "MAX_SWEEPS", 8)
    with pytest.raises(SolverError) as exc:
        sweeps(prob, QUAD16, tol=1e-15)
    assert exc.value.iterations == 8
    assert exc.value.residual > 1e-15


def test_stagnating_sweeps_fail_fast():
    prob = mixed_problem(0.05)
    for obstacle in (False, True):
        with pytest.raises(SolverError) as exc:
            sweeps(prob, QUAD16, obstacle, tol=1e-300)
        # the residual floors at roundoff within a few hundred sweeps; the
        # stagnation window stops the solve long before MAX_SWEEPS
        assert exc.value.iterations <= 5000
        assert "last residuals" in str(exc.value)


@pytest.mark.parametrize("run", [solve_dirichlet, solve_obstacle])
def test_newton_missing_tol_raises_without_sweeps(run, monkeypatch):
    def no_sweeps(*args, **kwargs):
        raise AssertionError("the linear engine has no sweep fallback")

    monkeypatch.setattr(solve._Lattice, "sweep_solve", no_sweeps)
    with pytest.raises(SolverError) as exc:
        run(mixed_problem(0.05), tol=1e-300, quad=QUAD16)
    assert exc.value.iterations <= 60
    assert exc.value.residual > 1e-300


def test_fixed_sweeps_never_raises():
    prob = mixed_problem(0.05)
    u, diag = solve_dirichlet(prob, tol=1e-15, quad=QUAD16, fixed_sweeps=5)
    assert not diag.converged
    assert u.shape == (prob.domain.m,)


def test_the_problem_picks_the_engine():
    # 1d operators but the pointwise "cs" extremal: the linear engine
    _, d = solve_dirichlet(mixed_problem(0.05), tol=1e-9, quad=QUAD16)
    assert d.method == "newton"
    # 2d branch operators of either class: the policy engine
    quad = build_quadrature(2, 1.0, 1.0 / 8, 4.0)
    for kind in ("a", "cs"):
        spec = EnvironmentSpec(dim=2, kernel_class=kind, coeff_law="fixed", coeff_value=1.0,
                               forcing_law="fixed", forcing_value=0.0)
        fam = KernelFamily(kind=kind, dim=2, sigma=1.0, lam=1.0, lam_big=2.0)
        prob = DirichletProblem(handle=OperatorHandle(fam=fam, env=sample_environment(spec, 0),
                                                      eps=0.5),
                                domain=Box((0.0, 0.0), 0.5, 1.0 / 8), rhs=0.0,
                                exterior=ExteriorRule.zero())
        _, d = solve_dirichlet(prob, quad=quad)
        assert d.method == "policy"
        sol = solve_obstacle(replace(prob, rhs=0.5), quad=quad)
        assert sol.diagnostics.method == "policy"
    # the extremals with no finite policy set (the 1d "cs" and the 2d one)
    # and any fixed_sweeps solve: sweeps
    box = Box((0.0,), 0.5, 1.0 / 16)
    cs_extremal = DirichletProblem(handle=OperatorHandle(fam=FAM, extremal_sign=+1),
                                   domain=box, rhs=-1.0, exterior=ExteriorRule.zero())
    _, d = solve_dirichlet(cs_extremal, tol=1e-6, quad=QUAD16)
    assert d.method == "sweeps"
    extremal_2d = replace(prob, handle=OperatorHandle(fam=replace(fam, kind="a"),
                                                      extremal_sign=-1), rhs=-1.0)
    _, d = solve_dirichlet(extremal_2d, tol=1e-6, quad=quad)
    assert d.method == "sweeps"
    _, d = solve_dirichlet(prob, quad=quad, fixed_sweeps=5)
    assert d.method == "sweeps"
    _, d = solve_dirichlet(mixed_problem(0.05), quad=QUAD16, fixed_sweeps=5)
    assert d.method == "sweeps"
    sol = solve_obstacle(mixed_problem(0.05), quad=QUAD16, fixed_sweeps=5)
    assert sol.diagnostics.method == "sweeps"


@pytest.mark.parametrize("build", [
    lambda: OperatorHandle(fam=FAM, env=None).validate(),
    lambda: OperatorHandle(fam=FAM, env=const_env(), extremal_sign=2).validate(),
    lambda: OperatorHandle(fam=FAM, env=const_env(), eps=0.0).validate(),
    lambda: DirichletProblem(handle=OperatorHandle(fam=FAM, env=const_env()),
                             domain=Box((0.0,), 0.5, 1.0 / 16), rhs=0.0,
                             exterior=ExteriorRule.zero(),
                             shape="triangle").validate(),
    lambda: DirichletProblem(handle=OperatorHandle(fam=FAM, env=mixed_env(),
                                                   eps=1.0 / 16),
                             domain=Box((0.0,), 0.5, 1.0 / 16), rhs=0.0,
                             exterior=ExteriorRule.zero()).validate(),
    # the pointwise extremal of the "cs" class is 1d only
    lambda: OperatorHandle(fam=KernelFamily(kind="cs", dim=2, sigma=1.0, lam=1.0,
                                            lam_big=2.0), extremal_sign=+1).validate(),
])
def test_configuration_rejections(build):
    with pytest.raises(ConfigurationError):
        build()


def test_rhs_grid_must_match_domain():
    prob = DirichletProblem(handle=OperatorHandle(fam=FAM, env=const_env()),
                            domain=Box((0.0,), 0.5, 1.0 / 16),
                            rhs=np.zeros(7), exterior=ExteriorRule.zero())
    with pytest.raises(ConfigurationError):
        solve_dirichlet(prob, quad=QUAD16)


def test_quadrature_grid_mismatch_rejected():
    prob = mixed_problem(0.0)
    with pytest.raises(ConfigurationError):
        solve_dirichlet(prob, quad=build_quadrature(1, 1.0, 1.0 / 32, 8.0))


# ---------------------------------------------------------------------------
# helpers

def test_2d_lattice_build_allocates_little_beyond_what_it_keeps():
    # h 2^-5, J = 362: the padded exterior array is (32 + 2 * 362)^2 doubles.
    # The lattice alone is a batch without its system; the held system adds
    # no more than the 5 x 8 n^2 bytes `check_dense_arrays` counts for it
    box = Box((0.0, 0.0), 0.5, 2.0**-5)
    fam = KernelFamily(kind="a", dim=2, sigma=1.0, lam=1.0, lam_big=2.0)
    env = sample_environment(EnvironmentSpec(dim=2, n_alpha=2, n_beta=2, kernel_class="a",
                                             coeff_law="uniform", forcing_law="uniform"), seed=0)
    quad = default_quadrature(fam, box)
    prob = DirichletProblem(handle=OperatorHandle(fam=fam, env=env, eps=0.5), domain=box,
                            rhs=0.0, exterior=ExteriorRule(
                                fn=lambda pts: np.cos(2.0 * pts[:, 0] - pts[:, 1]), far=0.0))
    peaks = []
    for dense in (False, True):
        tracemalloc.start()
        try:
            lat, = solve._lattices([prob], quad, dense=dense)
            peaks.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
    (kept, peak), (_, dense_peak) = peaks
    assert lat.J == 362 and lat.fixed.shape == (756, 756)
    assert peak - kept <= 0.25 * lat.fixed.nbytes
    n = lat.L.shape[1]
    assert n == 32 * 32 and dense_peak - kept <= 40.0 * n * n + 0.25 * lat.fixed.nbytes


def test_default_quadrature_radius():
    box = Box((0.0,), 0.5, 1.0 / 16)
    q = default_quadrature(FAM, box, r_out_factor=8.0)
    # radius covers eight box diameters
    assert q.w.shape[0] * box.h >= 8.0 * 1.0 - box.h
