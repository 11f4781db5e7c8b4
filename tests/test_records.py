"""Record types: construction, ==, hash, immutability, repr and `replace`."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from nlhomog.env import Environment, EnvironmentSpec, sample_environment
from nlhomog.errors import ConfigurationError
from nlhomog.homog import EffectiveSample, MbarEstimate
from nlhomog.kernels import KernelFamily, QuadratureTable, build_quadrature
from nlhomog.operators import Box, ExteriorRule, TestFunction, _Constant
from nlhomog.records import FrozenRecord, Record, replace
from nlhomog.solve import DirichletProblem, ObstacleSolution, OperatorHandle, SolveDiagnostics

TestFunction.__test__ = False  # imported record class, not a pytest class

FROZEN = (EnvironmentSpec, Environment, KernelFamily, QuadratureTable, Box, _Constant,
          ExteriorRule, TestFunction, OperatorHandle, DirichletProblem)
MUTABLE = (SolveDiagnostics, ObstacleSolution, MbarEstimate, EffectiveSample)

FAM = KernelFamily("cs", 1, 1.0, 1.0, 2.0)


@pytest.mark.parametrize("cls", FROZEN + MUTABLE, ids=lambda c: c.__name__)
def test_fields_are_the_init_parameters_in_order(cls):
    assert issubclass(cls, FrozenRecord if cls in FROZEN else Record)
    assert cls._fields == tuple(inspect.signature(cls).parameters)


def test_defaults_are_kept():
    assert EnvironmentSpec() == EnvironmentSpec(
        1, 1, 1, "cs", 1.0, 2.0, "uniform", None, "uniform", 1.0, None, "multilinear",
        "iid", 2, 1.0)
    assert OperatorHandle(FAM) == OperatorHandle(FAM, None, 1.0, None, 0)
    box = Box((0.0,), 1.0, 0.25)
    rule = ExteriorRule.zero()
    assert DirichletProblem(OperatorHandle(FAM), box, 0.0, rule).shape == "cube"
    diag = SolveDiagnostics()
    assert (diag.iterations, diag.residual, diag.wall_ms, diag.method) == (0, np.inf, 0.0, "")
    table = build_quadrature(1, 1.0, 0.25, 4.0)
    assert (table.kxx, table.kyy, table.kxy, table.sums, table.abs_kxy) == (None,) * 5


def test_frozen_records_compare_and_hash_by_their_fields():
    spec = EnvironmentSpec(dim=2, kernel_class="a")
    same = EnvironmentSpec(2, 1, 1, "a")
    assert spec == same and spec is not same
    assert hash(spec) == hash(same) == hash(spec._values())
    assert spec != EnvironmentSpec(dim=2, kernel_class="a", lam=0.5)
    assert spec != (2, 1, 1, "a") and spec.__eq__(same._values()) is NotImplemented
    assert len({ExteriorRule.constant(1.0), ExteriorRule.constant(1.0),
                ExteriorRule.constant(2.0)}) == 2
    env = sample_environment(spec, seed=3)
    assert {env: 1}[Environment(spec, 3, env.shift)] == 1
    for record, name in ((spec, "lam"), (env, "seed"), (FAM, "kind"), (_Constant(1.0), "value")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.other = 1


def test_a_record_holding_arrays_compares_them_as_a_tuple_does():
    phi = TestFunction.make(np.eye(2))
    assert phi == phi
    with pytest.raises(ValueError):  # two distinct arrays have no single truth value
        _ = phi == TestFunction.make(np.eye(2))
    with pytest.raises(TypeError):
        hash(phi)


def test_mutable_records_assign_and_have_no_hash():
    diag = SolveDiagnostics(3, 1e-12, 0.5, "newton")
    assert diag == SolveDiagnostics(iterations=3, residual=1e-12, wall_ms=0.5, method="newton")
    diag.wall_ms = 1.0
    assert diag != SolveDiagnostics(3, 1e-12, 0.5, "newton")
    est = MbarEstimate(1.0, (0.5,), {}, {}, {}, 0.25, 0.0)
    sample = EffectiveSample((0.0, 1.0), 0.5, 0.5, (0.5,), (0,), {}, [])
    for record in (diag, est, sample, ObstacleSolution(None, None, 0.0, diag)):
        with pytest.raises(TypeError):
            hash(record)
    assert est.validate() is est and sample.validate() is sample


def test_replace_changes_only_what_it_names_and_reruns_the_checks():
    box = Box((0.0,), 1.0, 0.25)
    wider = replace(box, half=2.0)
    assert (wider.center, wider.half, wider.h) == ((0.0,), 2.0, 0.25)
    assert replace(box) == box and replace(box) is not box
    with pytest.raises(ConfigurationError):
        replace(box, h=0.3)  # Box's own check: 0.3 does not tile the box
    with pytest.raises(TypeError):
        replace(box, width=1.0)
    diag = SolveDiagnostics(3, 1e-12, 0.5, "newton")
    assert replace(diag, method="sweeps") == SolveDiagnostics(3, 1e-12, 0.5, "sweeps")
    assert diag.method == "newton"


def test_repr_shows_every_field():
    assert repr(KernelFamily("a", 2, 1.5, 1.0, 2.0)) == (
        "KernelFamily(kind='a', dim=2, sigma=1.5, lam=1.0, lam_big=2.0)")
    assert repr(SolveDiagnostics()) == (
        "SolveDiagnostics(iterations=0, residual=inf, wall_ms=0.0, method='')")


def test_records_survive_copy_and_pickle():
    spec = EnvironmentSpec(dim=2, n_alpha=2)
    problem = DirichletProblem(OperatorHandle(FAM, sample_environment(EnvironmentSpec(), 1)),
                               Box((0.0,), 1.0, 0.25), 0.5, ExteriorRule.constant(1.0), "ball")
    for record in (spec, problem):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
