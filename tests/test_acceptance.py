"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Desk scale throughout: 1d, sigma = 1 unless a criterion says otherwise,
grids at or below 2048 points, eps in {1/8, 1/16, 1/32, 1/64}, seed
counts in the single digits to 8.  Every threshold is stated inline next
to its measurement.
"""

import json

import numpy as np

from nlhomog.cli import main as cli_main
from nlhomog.env import (
    EnvironmentSpec,
    forcing_field,
    multiplier_field,
    sample_environment,
    translate,
)
from nlhomog.homog import (
    abp_scaling_experiment,
    comparison_measurable_experiment,
    convergence_experiment,
    corrector_decay_profile,
    effective_value,
    fam_of,
    quadratic_bank,
)
from nlhomog.kernels import KernelFamily, build_quadrature
from nlhomog.operators import (
    Box,
    ExteriorRule,
    TestFunction,
    unit_moment,
)
from nlhomog.solve import (
    DirichletProblem,
    OperatorHandle,
    solve_dirichlet,
    solve_obstacle,
)

from oracles import (
    GridFunction, evaluate_F, extremal, extremal_from_moment, kernel_value,
    residual_field,
)

TestFunction.__test__ = False

FAM = KernelFamily(kind="cs", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
MIXED_SPEC = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2, coeff_law="uniform",
                             forcing_law="uniform", f_bound=1.0)
BANK = quadratic_bank(1)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def random_grid(rng, box):
    return GridFunction(box=box, values=rng.standard_normal(box.m),
                        exterior=ExteriorRule.zero())


def frozen_corrector(phi, level, eps, seed, spec, fam, tol=1e-7):
    """One Dirichlet corrector solve on the unit ball, grid eps / 4."""
    env = sample_environment(spec, seed=seed)
    h = eps / 4.0
    handle = OperatorHandle(fam=fam, env=env, eps=eps,
                            frozen=(phi, np.zeros(spec.dim)))
    box = Box((0.0,) * spec.dim, 1.0, h)
    prob = DirichletProblem(handle=handle, domain=box, rhs=level,
                            exterior=ExteriorRule.zero(), shape="ball")
    quad = build_quadrature(spec.dim, fam.sigma, h, 16.0)
    u, _ = solve_dirichlet(prob, tol=tol, quad=quad)
    return u


# ---------------------------------------------------------------------------
# 1. exact structural identities (bit-exact or 1e-9)

def test_acceptance_1_exact_structural_identities():
    clauses = []
    rng = np.random.default_rng(11)

    # stationarity of translation: shifted fields equal shifted reads
    env = sample_environment(MIXED_SPEC, seed=7)
    s = 0.25
    moved = translate(env, np.array([s]))
    pts = (rng.integers(-2**20, 2**20, size=64) * 2.0**-26)[:, None]
    stat = all(
        np.array_equal(multiplier_field(moved, a, b, pts),
                       multiplier_field(env, a, b, pts + s))
        and np.array_equal(forcing_field(moved, a, b, pts),
                           forcing_field(env, a, b, pts + s))
        for a in range(2) for b in range(2)
    )
    clauses.append(("translate-stationarity-bit-exact", stat))

    # kernel symmetry in y and the power-law scaling under doubling
    env1 = sample_environment(MIXED_SPEC, seed=0)
    sym, scal = True, True
    for _ in range(50):
        x = rng.uniform(-1, 1, size=1)
        y = rng.uniform(0.05, 2.0, size=1) * rng.choice([-1.0, 1.0])
        k1 = kernel_value(FAM, env1, 0, 1, x, y)
        sym &= kernel_value(FAM, env1, 0, 1, x, -y) == k1
        k2 = kernel_value(FAM, env1, 0, 1, x, 2.0 * y)
        scal &= abs(k2 * 2.0 ** (FAM.dim + FAM.sigma) - k1) <= 1e-9 * abs(k1)
    clauses.append(("kernel-symmetry-bit-exact", sym))
    clauses.append(("kernel-scaling-law-1e-9", scal))

    # contact counts are subadditive over a partition of the box
    fam = FAM
    env2 = sample_environment(MIXED_SPEC, seed=3)
    eps, h = 0.25, 1.0 / 16
    quad = build_quadrature(1, 1.0, h, 8.0)

    def contact_count(center, half, level):
        box = Box((center,), half, h)
        prob = DirichletProblem(handle=OperatorHandle(fam=fam, env=env2, eps=eps),
                                domain=box, rhs=level,
                                exterior=ExteriorRule.zero())
        return int(np.sum(solve_obstacle(prob, tol=1e-9, quad=quad).contact))

    subadd = all(
        contact_count(0.0, 0.5, lvl)
        <= contact_count(-0.25, 0.25, lvl) + contact_count(0.25, 0.25, lvl)
        for lvl in (0.0, 0.05, 0.1, 0.2)
    )
    clauses.append(("contact-count-subadditive-exact", subadd))

    # obstacle monotonicity in the level (exact coupling) and the domain
    box = Box((0.0,), 0.5, h)

    def obstacle(level, fixed_sweeps=None, tol=1e-10, half=0.5):
        prob = DirichletProblem(
            handle=OperatorHandle(fam=fam, env=env2, eps=eps),
            domain=Box((0.0,), half, h), rhs=level,
            exterior=ExteriorRule.zero())
        q = quad if half == 0.5 else build_quadrature(1, 1.0, h, 16.0)
        return solve_obstacle(prob, tol=tol, quad=q, fixed_sweeps=fixed_sweeps)

    lo = obstacle(0.05, fixed_sweeps=240)
    hi = obstacle(0.35, fixed_sweeps=240)
    clauses.append(("rhs-monotone-exact", bool(np.all(lo.u >= hi.u))))
    small = obstacle(0.05)
    big = obstacle(0.05, half=1.0)
    clauses.append(("domain-monotone-1e-9",
                    float(np.min(big.u[8:-8] - small.u)) >= -1e-9))

    # extremal sandwich on 100 random pairs
    env3 = sample_environment(MIXED_SPEC, seed=1)
    sbox = Box((0.0,), 1.0, 2.0**-5)
    squad = build_quadrature(1, 1.0, 2.0**-5, 16.0)
    sandwich = True
    for _ in range(100):
        u = random_grid(rng, sbox)
        v = random_grid(rng, sbox)
        x = float(rng.uniform(-0.9, 0.9))
        df = evaluate_F(u, x, env3, FAM, squad) - evaluate_F(v, x, env3, FAM, squad)
        w = u - v
        lo_b = extremal(w, x, -1, FAM, squad)
        hi_b = extremal(w, x, +1, FAM, squad)
        slack = 1e-9 * max(1.0, abs(lo_b), abs(hi_b))
        sandwich &= (lo_b - slack <= df <= hi_b + slack)
    clauses.append(("ellipticity-sandwich-100-pairs", sandwich))

    failed = [n for n, ok in clauses if not ok]
    report(1, not failed, f"exact identities, failed={failed or 'none'}")


# ---------------------------------------------------------------------------
# 2. extremal-operator oracles

def test_acceptance_2_extremal_oracles():
    rng = np.random.default_rng(17)
    lam, lam_big = 1.0, 2.0

    def brute_sup(B, n_samples):
        theta = rng.uniform(0.0, np.pi, size=n_samples)
        c, s = np.cos(theta), np.sin(theta)
        q1 = B[0, 0] * c * c + 2.0 * B[0, 1] * c * s + B[1, 1] * s * s
        q2 = B[0, 0] * s * s - 2.0 * B[0, 1] * c * s + B[1, 1] * c * c
        corners = [(lam, 0.0), (0.0, lam), (lam_big, 0.0), (0.0, lam_big),
                   (lam_big, lam_big), (lam, lam_big), (lam_big, lam)]
        return max(float(np.max(e1 * q1 + e2 * q2)) for e1, e2 in corners)

    worst = 0.0
    sound = True
    for _ in range(100):
        raw = rng.standard_normal((2, 2)) * rng.uniform(0.5, 3.0)
        B = 0.5 * (raw + raw.T)
        closed = extremal_from_moment(B, +1, lam, lam_big)
        brute = brute_sup(B, 10**5)
        sound &= brute <= closed + 1e-9
        worst = max(worst, closed - brute)
    matrix_ok = sound and worst <= 1e-3

    # 1d coincidence of the two families on a single-signed profile
    phi = TestFunction.make([[1.5]], p=[0.0], const=0.0, center=[0.0])
    quad = build_quadrature(1, 1.0, 2.0**-6, 16.0)
    fam_a = KernelFamily(kind="a", dim=1, sigma=1.0, lam=lam, lam_big=lam_big)
    gaps = []
    for sign in (+1, -1):
        va = extremal(phi, 0.0, sign, fam_a, quad)
        vc = extremal(phi, 0.0, sign, FAM, quad)
        gaps.append(abs(va - vc) / max(1.0, abs(va)))
    coincide_ok = max(gaps) <= 1e-8

    report(2, matrix_ok and coincide_ok,
           f"matrix-class search deficit {worst:.2e} <= 1e-3, "
           f"1d family gap {max(gaps):.2e} <= 1e-8")


# ---------------------------------------------------------------------------
# 3. obstacle / Dirichlet consistency

def test_acceptance_3_obstacle_dirichlet_consistency():
    # VI residual and obstacle bound, multi-branch random environment
    tol = 1e-8
    env = sample_environment(MIXED_SPEC, seed=3)
    h = 1.0 / 16
    box = Box((0.0,), 0.5, h)
    quad = build_quadrature(1, 1.0, h, 8.0)
    prob = DirichletProblem(handle=OperatorHandle(fam=FAM, env=env, eps=0.25),
                            domain=box, rhs=0.05,
                            exterior=ExteriorRule.zero())
    sol = solve_obstacle(prob, tol=tol, quad=quad)
    r = residual_field(prob, sol.u, quad=quad)
    vi = float(np.max(np.abs(np.maximum(r, -sol.u))))
    nonneg = bool(np.all(sol.u >= 0.0))

    # self-convergence of the constant-coefficient benchmark under 4x
    # refinement, compared at the coarse nodes
    cenv = sample_environment(EnvironmentSpec(dim=1, coeff_law="fixed",
                                              coeff_value=1.0,
                                              forcing_law="fixed",
                                              forcing_value=0.0), seed=0)
    sols = {}
    for k in (6, 8):
        hk = 2.0**-k
        bk = Box((0.0,), 1.0, hk)
        pk = DirichletProblem(handle=OperatorHandle(fam=FAM, env=cenv),
                              domain=bk, rhs=-2.0 * np.pi,
                              exterior=ExteriorRule.zero(), shape="ball")
        qk = build_quadrature(1, 1.0, hk, 16.0)
        sols[k] = GridFunction(bk, solve_dirichlet(pk, tol=1e-8, quad=qk)[0], pk.exterior)
    xc = sols[6].box.axis_nodes(0)
    fine_at_coarse = sols[8].sample(xc[:, None])
    gap = float(np.max(np.abs(fine_at_coarse - sols[6].values)))

    ok = vi <= tol and nonneg and gap <= 2e-2
    report(3, ok, f"VI residual {vi:.2e} <= {tol}, obstacle bound "
                  f"{'holds' if nonneg else 'fails'}, refinement gap "
                  f"{gap:.4f} <= 0.02")


# ---------------------------------------------------------------------------
# 4. forced-bound scaling in the support measure

def test_acceptance_4_abp_scaling():
    fam = KernelFamily(kind="a", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
    rep = abp_scaling_experiment(fam)  # supports 2^-1 .. 2^-9, two+ decades
    ratios = rep["amplitude_ratios"]
    slope = rep["support_slope"]
    floor = fam.sigma / 2.0 - 0.15
    ok = all(r <= 2.05 for r in ratios) and slope >= floor
    report(4, ok, f"amplitude ratios {[f'{r:.4f}' for r in ratios]} <= 2.05, "
                  f"support slope {slope:.4f} >= {floor:.2f}")


# ---------------------------------------------------------------------------
# 5. comparison with measurable ingredients

def test_acceptance_5_measurable_comparison():
    fam = KernelFamily(kind="a", dim=1, sigma=1.0, lam=1.0, lam_big=2.0)
    sizes = (2.0**-1, 2.0**-3, 2.0**-5, 2.0**-7, 2.0**-9)  # 256x reduction
    rep = comparison_measurable_experiment(sizes, 0, fam)
    sups = [r["sup_v"] for r in rep["rows"]]
    monotone = all(a >= b for a, b in zip(sups, sups[1:]))
    final_ratio = sups[-1] / sups[0]
    ok = monotone and final_ratio <= 0.05
    report(5, ok, f"sups monotone={monotone}, final/initial "
                  f"{final_ratio:.4f} <= 0.05")


# ---------------------------------------------------------------------------
# 6. effective-operator sanity

def test_acceptance_6_effective_operator_sanity():
    tol = 2.0**-6
    phi = BANK[4]

    # constant coefficients: extraction must land on the frozen constant
    fixed = EnvironmentSpec(dim=1, coeff_law="fixed", coeff_value=1.5,
                            forcing_law="fixed", forcing_value=0.25)
    got = effective_value(phi, np.zeros(1), (0.125,), (0,), fixed, fam_of(fixed),
                          bisect_tol=tol).value
    quad = build_quadrature(1, 1.0, 0.125 / 4.0, 8.0)
    direct = 1.5 * float(unit_moment(phi, np.zeros(1), quad)) + 0.25
    const_gap = abs(got - direct)

    # adding a constant forcing shifts the effective level by it
    seeds = (0, 1, 2, 3)
    vals = {}
    for f in (0.0, 0.25):
        spec_f = EnvironmentSpec(dim=1, coeff_law="uniform",
                                 forcing_law="fixed", forcing_value=f)
        vals[f] = effective_value(phi, np.zeros(1), (0.125,), seeds, spec_f,
                                  fam_of(spec_f), bisect_tol=tol).value
    shift_gap = abs((vals[0.25] - vals[0.0]) - 0.25)

    # extremal sandwich of effective differences over bank pairs
    spec_u = EnvironmentSpec(dim=1, coeff_law="uniform", forcing_law="fixed",
                             forcing_value=0.0)
    famu = fam_of(spec_u)
    fbar = {i: effective_value(BANK[i], np.zeros(1), (0.125,), seeds, spec_u, famu,
                               bisect_tol=tol).value
            for i in (2, 3, 4)}
    sandwich = True
    margins = []
    for i, j in ((4, 3), (4, 2)):
        mdiff = float(unit_moment(BANK[i], np.zeros(1), quad)) \
            - float(unit_moment(BANK[j], np.zeros(1), quad))
        lo = extremal_from_moment(mdiff, -1, famu.lam, famu.lam_big)
        hi = extremal_from_moment(mdiff, +1, famu.lam, famu.lam_big)
        df = fbar[i] - fbar[j]
        slack = 4.0 * tol  # two extractions, each within 2x bisection tol
        sandwich &= (lo - slack <= df <= hi + slack)
        margins.append(min(df - lo, hi - df))

    ok = const_gap <= 2.0 * tol and shift_gap <= 2.0 * tol and sandwich
    report(6, ok, f"constant gap {const_gap:.2e} <= {2 * tol:.4f}, "
                  f"forcing-shift gap {shift_gap:.2e} <= {2 * tol:.4f}, "
                  f"sandwich margins {[f'{m:.2f}' for m in margins]}")


# ---------------------------------------------------------------------------
# 7. corrector dichotomy and decay

def test_acceptance_7_corrector_dichotomy():
    # single-branch periodic medium at sigma = 3/2: a deterministic layout
    # gives a clean effective level at desk resolution
    spec = EnvironmentSpec(dim=1, n_alpha=1, n_beta=1, kernel_class="cs",
                           lam=1.0, lam_big=2.0, coeff_law="uniform",
                           forcing_law="fixed", forcing_value=0.0,
                           interpolation="constant", layout="periodic",
                           period=8)
    fam = KernelFamily(kind="cs", dim=1, sigma=1.5, lam=1.0, lam_big=2.0)
    phi = BANK[4]
    tol = 2.0**-5
    fbar = effective_value(phi, np.zeros(1), (2.0**-5,), (0,), spec, fam,
                           bisect_tol=tol).value

    eps_list = (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)
    sups_on = corrector_decay_profile(phi, np.zeros(1), fbar, eps_list, 0,
                                      spec, fam)
    on_ratio = sups_on[-1] / sups_on[0]

    # ten tolerances below: the corrector sup stalls at a positive floor;
    # ten above: the solution dips below a negative floor
    low = fbar - 10.0 * tol
    sups_low = corrector_decay_profile(phi, np.zeros(1), low, eps_list, 0,
                                       spec, fam)
    low_ratio = sups_low[-1] / sups_low[0]
    low_floor = sups_low[-1]

    high = fbar + 10.0 * tol
    w_high = frozen_corrector(phi, high, eps_list[-1], 0, spec, fam, tol=1e-9)
    high_min = float(np.min(w_high))

    ok = (on_ratio <= 0.1
          and low_ratio >= 0.25 and low_floor >= 0.01
          and high_min <= -0.01)
    report(7, ok, f"on-level ratio {on_ratio:.4f} <= 0.1, low-side ratio "
                  f"{low_ratio:.4f} >= 0.25 with floor {low_floor:.4f} "
                  f">= 0.01, high-side min {high_min:.4f} <= -0.01")


# ---------------------------------------------------------------------------
# 8. homogenization signal

def test_acceptance_8_homogenization_signal():
    fam = fam_of(MIXED_SPEC)
    eps_list = (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)

    rep = convergence_experiment("cosine", eps_list, tuple(range(8)),
                                 MIXED_SPEC, fam)
    sd = rep["seed_discrepancy"]
    sd_ratio = sd[eps_list[-1]] / sd[eps_list[0]]

    spec_per = EnvironmentSpec(dim=1, n_alpha=2, n_beta=2,
                               coeff_law="uniform", forcing_law="uniform",
                               f_bound=1.0, interpolation="constant",
                               layout="periodic", period=8)
    rep_p = convergence_experiment("cosine", eps_list, (0, 1), spec_per, fam)
    gaps = list(rep_p["cauchy_gaps"].values())
    cauchy_ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    # the periodic layout ignores the seed, so a second seed replays the
    # deterministic oracle run exactly
    oracle_gap = max(rep_p["seed_discrepancy"].values())

    spec_triv = EnvironmentSpec(dim=1, coeff_law="fixed", coeff_value=1.5,
                                forcing_law="fixed", forcing_value=0.25)
    rep_t = convergence_experiment("cosine", eps_list[:2], (0, 1), spec_triv,
                                   fam)
    triv_worst = max(max(rep_t["seed_discrepancy"].values()),
                     max(rep_t["cauchy_gaps"].values()),
                     rep_t["translation_gap"])

    ok = (sd_ratio <= 0.5 and cauchy_ok and oracle_gap == 0.0
          and triv_worst == 0.0)
    report(8, ok, f"seed-discrepancy ratio {sd_ratio:.4f} <= 0.5, periodic "
                  f"gaps strictly decreasing={cauchy_ok}, periodic oracle "
                  f"gap {oracle_gap!r}, trivial environment worst "
                  f"{triv_worst!r}")


# ---------------------------------------------------------------------------
# 9. replay determinism

def test_acceptance_9_replay_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "mbar",
        "environment": {"dim": 1, "n_alpha": 2, "n_beta": 2,
                        "coeff_law": "uniform", "forcing_law": "uniform",
                        "f_bound": 1.0},
        "kernel": {"sigma": 1.0},
        "numerics": {"eps_list": [0.125], "seeds": [0, 1, 2, 3]},
        "experiment": {"phi_index": 4, "level": 12.0},
        "out_dir": str(tmp_path / "first"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--workers", "2"]) == 0
    replay = tmp_path / "first" / "replay.json"
    assert cli_main(["run", str(replay), "--out", str(tmp_path / "second"),
                     "--workers", "1"]) == 0
    same = all(
        (tmp_path / "first" / f).read_bytes()
        == (tmp_path / "second" / f).read_bytes()
        for f in ("rows.csv", "summary.json")
    )

    # a solve-kind config must also replay its solution table exactly
    cfg2 = dict(cfg, kind="solve", experiment={"rhs": 0.05},
                out_dir=str(tmp_path / "s1"))
    path2 = tmp_path / "cfg2.json"
    path2.write_text(json.dumps(cfg2))
    assert cli_main(["run", str(path2)]) == 0
    assert cli_main(["run", str(tmp_path / "s1" / "replay.json"),
                     "--out", str(tmp_path / "s2")]) == 0
    same2 = all(
        (tmp_path / "s1" / f).read_bytes()
        == (tmp_path / "s2" / f).read_bytes()
        for f in ("rows.csv", "summary.json", "solution.csv")
    )
    report(9, same and same2,
           f"mbar artifacts identical={same}, solve artifacts "
           f"identical={same2}")
