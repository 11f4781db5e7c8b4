"""Homogenization experiment tests.

Two independent references pin the effective-level extraction: a fixed
environment, whose effective level is the frozen moment times the
coefficient plus the forcing, and a piecewise-constant random
conductivity, whose level should approach the harmonic-mean prediction.
"""

import csv
import math

import numpy as np
import pytest

from nlhomog.env import EnvironmentSpec, sample_environment
from nlhomog.errors import ConfigurationError
from nlhomog.homog import (
    ExtractionConfig,
    RowLog,
    abp_scaling_experiment,
    comparison_measurable_experiment,
    contact_statistic,
    convergence_experiment,
    corrector_decay_profile,
    effective_value,
    estimate_mbar,
    fam_of,
    quadratic_bank,
    worker_count,
)
from nlhomog.kernels import KernelFamily, build_quadrature
from nlhomog.operators import unit_moment

BANK1 = quadratic_bank(1)
PHI = BANK1[4]  # curvature +2

FIXED_SPEC = EnvironmentSpec(dim=1, coeff_law="fixed", coeff_value=1.5,
                             forcing_law="fixed", forcing_value=0.25)
MIXED_SPEC = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                             forcing_law="uniform", f_bound=1.0)


def frozen_constant(spec, phi, eps):
    h = eps / 4.0
    quad = build_quadrature(1, 1.0, h, 8.0)
    return spec.coeff_value * float(unit_moment(phi, np.zeros(1), quad)) \
        + spec.forcing_value


# ---------------------------------------------------------------------------
# effective level against independent references

def test_effective_value_fixed_environment_matches_direct_constant():
    # with fixed coefficient a and forcing f the frozen obstacle problem
    # switches regimes exactly at a * (moment of phi) + f
    cfg = ExtractionConfig(eps_list=(0.25,), seeds=(0,), tol=2.0**-7)
    s = effective_value(PHI, np.zeros(1), cfg, FIXED_SPEC, fam_of(FIXED_SPEC))
    direct = frozen_constant(FIXED_SPEC, PHI, 0.25)
    assert s.bracket[1] - s.bracket[0] <= 2.0**-7 + 1e-12
    assert abs(s.value - direct) <= 2.0 * 2.0**-7


def test_effective_value_harmonic_mean_reference():
    # piecewise-constant uniform conductivity on [lam, lam_big]: the
    # classical 1d limit is the harmonic mean, here (lam_big - lam) /
    # log(lam_big / lam) = 1 / log 2 times the frozen moment
    spec = EnvironmentSpec(dim=1, coeff_law="uniform", forcing_law="fixed",
                           forcing_value=0.0, interpolation="constant")
    eps = 2.0**-6
    cfg = ExtractionConfig(eps_list=(eps,), seeds=(0, 1, 2, 3), tol=2.0**-6)
    s = effective_value(PHI, np.zeros(1), cfg, spec, fam_of(spec))
    quad = build_quadrature(1, 1.0, eps / 4.0, 8.0)
    pred = float(unit_moment(PHI, np.zeros(1), quad)) / math.log(2.0)
    assert abs(s.value - pred) / abs(pred) <= 0.08


def test_effective_value_bisection_record():
    cfg = ExtractionConfig(eps_list=(0.25,), seeds=(0,), tol=2.0**-5)
    log = RowLog()
    s = effective_value(PHI, np.zeros(1), cfg, FIXED_SPEC, fam_of(FIXED_SPEC),
                        log=log)
    lo, hi = s.bracket
    assert lo <= s.value <= hi
    assert s.certificates["lo"][0] == "barrier"
    assert s.certificates["hi"][0] == "zero-function"
    # each step records the probed level, its contact estimate and side
    for level, m, side in s.steps:
        assert side in ("zero", "positive")
        assert (m <= s.theta) == (side == "zero")
    assert len(log.rows) == len(s.steps)


def test_effective_value_builds_each_system_once(monkeypatch):
    # one lattice per (eps, seed), which the barrier reuses, and one table
    # per eps; nothing is rebuilt per level.  Every table is built through
    # solve.default_quadrature.
    from nlhomog import kernels, solve
    counts = {"lattice": 0, "quad": 0}
    init = solve._Lattice1D.__init__

    def counted_init(self, *args, **kwargs):
        counts["lattice"] += 1
        init(self, *args, **kwargs)

    def counted_quad(*args, **kwargs):
        counts["quad"] += 1
        return build_quadrature(*args, **kwargs)

    monkeypatch.setattr(solve._Lattice1D, "__init__", counted_init)
    for module in (kernels, solve):
        monkeypatch.setattr(module, "build_quadrature", counted_quad)
    eps_list, seeds = (0.25, 0.125), (0, 1, 2)
    cfg = ExtractionConfig(eps_list=eps_list, seeds=seeds, tol=2.0**-5)
    s = effective_value(PHI, np.zeros(1), cfg, MIXED_SPEC, fam_of(MIXED_SPEC))
    assert len(s.steps) >= 5
    n = len(eps_list) * len(seeds)
    assert counts["lattice"] == n
    assert counts["quad"] <= len(eps_list) + n


# ---------------------------------------------------------------------------
# contact statistic and its Monte Carlo average

def test_contact_statistic_extreme_levels():
    fam = fam_of(MIXED_SPEC)
    env = sample_environment(MIXED_SPEC, seed=2)
    # far below any operator value of the zero function: no contact;
    # far above: total contact
    assert contact_statistic(PHI, np.zeros(1), -1e4, 0.25, env, fam) == 0.0
    assert contact_statistic(PHI, np.zeros(1), 1e4, 0.25, env, fam) == 1.0


def test_estimate_mbar_monotone_in_level():
    fam = fam_of(MIXED_SPEC)
    seeds = (0, 1)
    lo = estimate_mbar(PHI, np.zeros(1), 10.0, (0.25,), seeds, MIXED_SPEC, fam)
    hi = estimate_mbar(PHI, np.zeros(1), 14.0, (0.25,), seeds, MIXED_SPEC, fam)
    for key in lo.fractions:
        assert lo.fractions[key] <= hi.fractions[key]
    assert lo.estimate <= hi.estimate


def test_estimate_mbar_bookkeeping():
    fam = fam_of(MIXED_SPEC)
    log = RowLog()
    est = estimate_mbar(PHI, np.zeros(1), 12.0, (0.25, 0.125), (0, 1, 2),
                        MIXED_SPEC, fam, log=log)
    assert est.eps_list == (0.25, 0.125)
    assert set(est.fractions) == {(e, s) for e in (0.25, 0.125) for s in (0, 1, 2)}
    assert set(est.means) == {0.25, 0.125}
    for eps in est.eps_list:
        vals = [est.fractions[(eps, s)] for s in (0, 1, 2)]
        assert est.means[eps] == pytest.approx(np.mean(vals))
        assert est.spreads[eps] == pytest.approx(max(vals) - min(vals))
    assert est.extrapolation == "last"
    assert est.estimate == est.means[0.125]
    assert len(log.rows) == 6
    with pytest.raises(ConfigurationError):
        estimate_mbar(PHI, np.zeros(1), 12.0, (0.25,), (), MIXED_SPEC, fam)


def test_estimate_mbar_richardson_stays_in_unit_interval():
    fam = fam_of(MIXED_SPEC)
    est = estimate_mbar(PHI, np.zeros(1), 12.0, (0.25, 0.125), (0, 1),
                        MIXED_SPEC, fam, richardson=True)
    assert est.extrapolation == "richardson"
    assert 0.0 <= est.estimate <= 1.0


def test_estimate_mbar_worker_invariance():
    fam = fam_of(MIXED_SPEC)
    kw = dict(level=12.0, eps_list=(0.25,), seeds=(0, 1), spec=MIXED_SPEC,
              fam=fam)
    serial = estimate_mbar(PHI, np.zeros(1), **kw, workers=1)
    pooled = estimate_mbar(PHI, np.zeros(1), **kw, workers=2)
    assert serial.fractions == pooled.fractions
    assert serial.estimate == pooled.estimate


# ---------------------------------------------------------------------------
# corrector decay

def test_corrector_profile_exact_dichotomy_for_fixed_environment():
    # fixed environment: at the exact effective level the zero function
    # solves the corrector problem, so every sup vanishes; one level up
    # the corrector must produce a unit moment and its size cannot decay
    fam = fam_of(FIXED_SPEC)
    eps_list = (2.0**-3, 2.0**-4)
    # pin one grid across eps so the frozen moment, and hence the exact
    # level, is the same number in every solve
    h = min(eps_list) / 4.0
    lstar = frozen_constant(FIXED_SPEC, PHI, min(eps_list))
    sups_on = corrector_decay_profile(PHI, np.zeros(1), lstar, eps_list, 0,
                                      FIXED_SPEC, fam, h=h)
    assert max(sups_on) == 0.0
    sups_off = corrector_decay_profile(PHI, np.zeros(1), lstar + 2.0,
                                       eps_list, 0, FIXED_SPEC, fam, h=h)
    assert min(sups_off) >= 0.05
    assert len(sups_on) == len(eps_list)


# ---------------------------------------------------------------------------
# scaling experiments

def test_abp_experiment_matrix_class_only():
    cs = KernelFamily(kind="cs", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
    with pytest.raises(ConfigurationError):
        abp_scaling_experiment(cs)


def test_abp_experiment_quick_run(count_calls):
    fam = KernelFamily(kind="a", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
    dense = count_calls(np.linalg, "solve")
    out = abp_scaling_experiment(fam, h=2.0**-7, amplitudes=(1.0, 2.0),
                                 supports=(2.0**-1, 2.0**-3, 2.0**-5),
                                 tol=1e-7)
    # both sweeps share one grid, so all five problems are one solve
    assert len(dense) == 1
    assert len(out["amplitude_ratios"]) == 1
    # positive homogeneity: doubling the forcing doubles the bound
    assert out["amplitude_ratios"][0] == pytest.approx(2.0, abs=0.05)
    # shrinking support shrinks the bound, with a definite rate
    sups = [r["sup_v"] for r in out["support_rows"]]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert out["support_slope"] > 0.0


def test_measures_snapping_to_one_cell_count_are_refused():
    # at h = 2^-5 both 2^-7 and 2^-9 snap to one cell: a slope fitted
    # through them would use one measure twice
    fam = KernelFamily(kind="a", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
    with pytest.raises(ConfigurationError, match="snap"):
        abp_scaling_experiment(fam, h=2.0**-5, supports=(0.5, 2.0**-7, 2.0**-9))
    with pytest.raises(ConfigurationError, match="snap"):
        comparison_measurable_experiment((2.0**-7, 2.0**-9), 0, fam, h=2.0**-5)


def test_cmi_refuses_scalar_class_without_conjecture_flag():
    cs = KernelFamily(kind="cs", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
    with pytest.raises(ConfigurationError):
        comparison_measurable_experiment((0.25,), 0, cs)


def test_cmi_quick_run_and_conjecture_marking():
    fam = KernelFamily(kind="a", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
    out = comparison_measurable_experiment((2.0**-1, 2.0**-3, 2.0**-5), 0,
                                           fam, h=2.0**-7, tol=1e-7)
    sups = [r["sup_v"] for r in out["rows"]]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert all(not r["conjecture"] for r in out["rows"])
    # the split-moment extremal sweeps are slow, so the conjecture-path
    # probe runs on a coarse grid at loose tolerance
    cs = KernelFamily(kind="cs", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
    out2 = comparison_measurable_experiment((2.0**-1, 2.0**-3), 0, cs,
                                            h=2.0**-5, tol=1e-4,
                                            conjecture_cs=True)
    assert all(r["conjecture"] for r in out2["rows"])


# ---------------------------------------------------------------------------
# convergence harness

def test_convergence_flat_environment_is_exactly_trivial():
    spec = EnvironmentSpec(dim=1, coeff_law="fixed", coeff_value=1.0,
                           forcing_law="fixed", forcing_value=0.0)
    out = convergence_experiment("zero", (0.25, 0.125), (0, 1), spec,
                                 fam_of(spec))
    assert all(v == 0.0 for v in out["seed_discrepancy"].values())
    assert all(v == 0.0 for v in out["cauchy_gaps"].values())
    assert out["translation_gap"] == 0.0


def test_convergence_solves_each_eps_as_one_system(count_calls):
    # one table per fold state and one dense solve per eps, the translated
    # route's included; its values still land bit-exact
    from nlhomog import solve
    dense = count_calls(np.linalg, "solve")
    tables = count_calls(solve, "build_quadrature")
    eps_list = (0.25, 0.125, 0.0625)
    out = convergence_experiment("cosine", eps_list, (0, 1, 2), MIXED_SPEC,
                                 fam_of(MIXED_SPEC))
    assert len(dense) <= len(eps_list)
    assert len(tables) == 1
    assert out["translation_gap"] == 0.0


def test_convergence_needs_two_eps():
    with pytest.raises(ConfigurationError):
        convergence_experiment("cosine", (0.25,), (0,), MIXED_SPEC,
                               fam_of(MIXED_SPEC))


def test_convergence_shift_must_be_whole_cells():
    with pytest.raises(ConfigurationError):
        convergence_experiment("cosine", (0.25, 0.125), (0,), MIXED_SPEC,
                               fam_of(MIXED_SPEC), translation_shift=0.3)


def test_convergence_unknown_exterior_tag():
    with pytest.raises(ConfigurationError):
        convergence_experiment("bogus", (0.25, 0.125), (0,), MIXED_SPEC,
                               fam_of(MIXED_SPEC))


# ---------------------------------------------------------------------------
# small pieces

def test_quadratic_bank_shapes():
    assert len(BANK1) == 5
    curvs = [float(phi.P[0, 0]) for phi in BANK1]
    assert curvs == [-2.0, -1.0, 0.0, 1.0, 2.0]
    bank2 = quadratic_bank(2)
    assert len(bank2) == 17
    for phi in bank2:
        assert np.array_equal(phi.P, phi.P.T)
    # the last two entries probe off-diagonal curvature
    assert any(abs(phi.P[0, 1]) > 0.1 for phi in bank2[-2:])
    with pytest.raises(ConfigurationError):
        quadratic_bank(3)


def test_worker_count_resolution(monkeypatch):
    monkeypatch.delenv("NONLOCAL_HOMOG_WORKERS", raising=False)
    assert worker_count(3) == 3
    assert worker_count() >= 1
    # without the environment variable the config decides
    assert worker_count(config=4) == 4
    assert worker_count(3, config=4) == 3
    monkeypatch.setenv("NONLOCAL_HOMOG_WORKERS", "2")
    assert worker_count() == 2
    # an explicit request wins over the environment override
    assert worker_count(5) == 5
    # the environment variable wins over the config
    assert worker_count(config=4) == 2
    assert worker_count(5, config=4) == 5
    for bad in ("two", "0", "-3"):
        monkeypatch.setenv("NONLOCAL_HOMOG_WORKERS", bad)
        with pytest.raises(ConfigurationError):
            worker_count()
        with pytest.raises(ConfigurationError):
            worker_count(config=4)


def test_fam_of_maps_spec_fields():
    fam = fam_of(MIXED_SPEC)
    assert fam.kind == MIXED_SPEC.kernel_class
    assert fam.sigma == 1.0
    assert fam.lam == MIXED_SPEC.lam and fam.lam_big == MIXED_SPEC.lam_big
    assert fam_of(MIXED_SPEC, sigma=1.5).sigma == 1.5


def test_rowlog_format(tmp_path):
    log = RowLog()
    log.add("demo", eps=0.25, seed=3, l=1.0, contact_fraction=0.5,
            sup_norm=0.125, iterations=7, residual=1e-9, wall_ms=12.5)
    path = tmp_path / "rows.csv"
    log.write(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "experiment_id" and rows[0][-1] == "wall_ms"
    assert rows[1][0] == "demo"
    assert rows[1][2] == "3"          # integers print bare
    assert rows[1][5] == "0.125"      # floats print via repr
