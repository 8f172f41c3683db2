"""Verification suite: one test per release criterion.

Each test prints a single PASS line with its headline numbers; tolerances are
pinned here and nowhere else.  Heavy shared computations (the random-instance
sweeps) live in session fixtures so dependent criteria reuse them.
"""

import csv
import time

import numpy as np
import pytest

from popdyn import (
    EquilibriumDetector,
    SystemState,
    classify_state,
    convex_hulls_disjoint,
    empirical_stability_probe,
    enumerate_split_equilibria,
    example_c1_stability_predicate,
    perturb,
    potential_gradient,
    potential_value,
    quadratic_risk,
    simulate,
    step,
    theta_for_assignment,
    total_risk,
)
from popdyn.cli import main as cli_main
from popdyn.goldens import (
    minority_closed_forms,
    minority_scenario,
    partition_pair_scenario,
    partition_pair_state,
    two_group_gap_curve,
    two_group_gap_scenario,
)
from popdyn.scenario_io import load_scenario, packaged_scenario

from conftest import random_scenario, random_state
from reference import detect_equilibrium, full_minimize


# ---------------------------------------------------------------------------
# shared sweeps


@pytest.fixture(scope="session")
def monotonicity_sweep():
    """500 random instances, 300 full steps each, no early stopping."""
    rng = np.random.default_rng(101)
    runs = []
    start = time.perf_counter()
    for k in range(500):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(3, n) + 1))
        d = int(rng.integers(1, 4))
        learner = "full_min" if k % 2 == 0 else "repeated_gd"
        sc = random_scenario(rng, n, m, d, learner=learner,
                             gamma_range=(0.1, 5.0))
        state = random_state(rng, sc)
        # window larger than the horizon: every one of the 300 steps executes
        traj = simulate(sc, state, 300, EquilibriumDetector(window=301))
        increases = np.diff(traj.total_risks)
        converged = detect_equilibrium(traj, EquilibriumDetector()) is not None
        runs.append({
            "scenario": sc,
            "final_state": traj.final_state,
            "final_total": float(traj.total_risks[-1]),
            "max_increase": float(increases.max()),
            "converged": converged,
        })
    elapsed = time.perf_counter() - start
    return {"runs": runs, "elapsed": elapsed}


@pytest.fixture(scope="session")
def certification_sweep():
    """200 random instances: enumerate every split assignment and probe each
    one whose certification margin is decisive (|margin| > 1e-3)."""
    rng = np.random.default_rng(202)
    instances = []
    start = time.perf_counter()
    for k in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, min(3, n) + 1))
        d = int(rng.integers(1, 3))
        identity = bool(k % 2 == 0)
        sc = random_scenario(rng, n, m, d, gamma_range=(1.0, 4.0),
                             identity_curvature=identity,
                             offset_range=(0.0, 0.5))
        reports = enumerate_split_equilibria(sc, dedupe=True)
        probed = []
        for rep in reports:
            if rep.margin is None or abs(rep.margin) <= 1e-3:
                continue
            theta = theta_for_assignment(rep.assignment, sc)
            eq_state = SystemState(rep.assignment.to_alpha(m), theta, 0)
            fraction = empirical_stability_probe(sc, eq_state, sigma=1e-4,
                                                 trials=10, seed=7000 + k)
            probed.append({"margin": rep.margin, "fraction": fraction,
                           "assignment": rep.assignment})
        instances.append({"scenario": sc, "identity": identity,
                          "reports": reports, "probed": probed})
    elapsed = time.perf_counter() - start
    return {"instances": instances, "elapsed": elapsed}


@pytest.fixture(scope="session")
def gap_curve():
    betas = np.linspace(0.30, 0.49, 20)
    return [two_group_gap_curve(float(b), eps=0.01) for b in betas]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_total_risk_monotone(monotonicity_sweep):
    worst = max(r["max_increase"] for r in monotonicity_sweep["runs"])
    violations = sum(r["max_increase"] > 1e-8
                     for r in monotonicity_sweep["runs"])
    assert violations == 0
    assert monotonicity_sweep["elapsed"] < 60.0
    print(f"\nACCEPTANCE 1: PASS — 500 instances x 300 steps, max per-step "
          f"risk increase {worst:.2e} (tol 1e-8), "
          f"{monotonicity_sweep['elapsed']:.1f}s")


def test_criterion_2_three_center_reproduction():
    start = time.perf_counter()
    loaded = load_scenario(packaged_scenario("three_centers"))
    s0 = loaded.initial_state

    s1 = step(s0, loaded.scenario)
    assert np.array_equal(s1.alpha, s0.alpha)
    assert np.array_equal(s1.theta, s0.theta)

    for seed in (1, 2, 3):
        st = perturb(s0, 1e-3, seed, target="theta_only")
        traj = simulate(loaded.scenario, st, 500, loaded.detector)
        assert traj.converged_at is not None
        final = traj.final_state.alpha
        assert np.abs(final - np.round(final)).max() <= 1e-6
        total_down = np.diff(traj.total_risks) <= 1e-8
        assert total_down.all()
        component_up = ((np.diff(traj.subpop_risks, axis=0) > 1e-12).any(axis=1)
                        | (np.diff(traj.learner_risks, axis=0) > 1e-12).any(axis=1))
        strictly_down = np.diff(traj.total_risks) < 0
        assert (component_up & strictly_down).any()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2: PASS — balanced start exactly stationary; 3 "
          f"perturbed runs reached split markets with non-monotone component "
          f"risks, {elapsed:.2f}s")


def test_criterion_3_certificates_match_probes(certification_sweep):
    stable = unstable = 0
    for inst in certification_sweep["instances"]:
        for p in inst["probed"]:
            if p["margin"] > 1e-3:
                stable += 1
                assert p["fraction"] == 1.0, (
                    f"certified-stable assignment {p['assignment'].gamma_map} "
                    f"(margin {p['margin']:.3e}) lost trials: {p['fraction']}")
            elif p["margin"] < -1e-3:
                unstable += 1
                assert p["fraction"] < 1.0, (
                    f"certified-unstable assignment {p['assignment'].gamma_map} "
                    f"(margin {p['margin']:.3e}) always returned")
    assert stable >= 100 and unstable >= 100  # sweep actually exercised both
    assert certification_sweep["elapsed"] < 180.0
    print(f"\nACCEPTANCE 3: PASS — {stable} stable certificates all returned "
          f"10/10 trials, {unstable} unstable certificates all escaped, "
          f"{certification_sweep['elapsed']:.1f}s")


def test_criterion_4_partition_predicate_agrees_with_classifier():
    rng = np.random.default_rng(404)
    grid = np.linspace(0.04, 0.92, 20)
    compared = skipped = 0
    for triple in range(50):
        d = 1 if triple < 25 else 2
        phis = [rng.uniform(-2.0, 2.0, d) for _ in range(3)]
        lhs = np.linalg.norm(phis[1] - phis[2])
        for beta2 in grid:
            for beta3 in grid:
                if beta2 + beta3 >= 0.95:
                    continue
                bound = (beta2 + beta3) * min(
                    np.linalg.norm(phis[1] - phis[0]) / beta3,
                    np.linalg.norm(phis[2] - phis[0]) / beta2)
                predicate = example_c1_stability_predicate(*phis, beta2, beta3)
                sc = partition_pair_scenario(*phis, beta2, beta3)
                report = classify_state(partition_pair_state(sc), sc)
                in_band = (abs(lhs - bound) < 1e-6
                           or (report.margin is not None
                               and abs(report.margin) < 1e-6))
                if in_band:
                    skipped += 1
                    continue
                compared += 1
                certified = report.stability == "asymptotically_stable"
                assert predicate == certified, (
                    f"disagreement at beta2={beta2:.4f} beta3={beta3:.4f} "
                    f"phis={phis}")
    # 190 feasible (beta2, beta3) pairs per triple, 50 triples
    assert compared + skipped == 9500
    assert compared >= 9000
    print(f"\nACCEPTANCE 4: PASS — predicate and classifier agree on "
          f"{compared} grid points over 50 center triples "
          f"({skipped} inside the 1e-6 margin band)")


def test_criterion_5_single_learner_minority_goldens():
    phi = 10.0
    for beta in np.arange(0.05, 0.951, 0.05):
        beta = float(round(beta, 10))
        sc = minority_scenario(beta, phi)
        expected = minority_closed_forms(beta, phi)
        theta = full_minimize(np.ones(2), sc.beta, sc.risks)
        state = SystemState(alpha=np.ones((2, 1)), theta=theta[None, :])
        from popdyn.model import risk_value
        assert abs(theta[0] - expected["theta_star"]) <= 1e-9
        assert abs(total_risk(state, sc) - expected["total_risk"]) <= 1e-9
        assert abs(risk_value(sc.risks[1], theta)
                   - expected["minority_risk"]) <= 1e-9
    print("\nACCEPTANCE 5: PASS — theta*=(1-beta)phi, total risk "
          "beta(1-beta)phi^2 and minority risk beta^2 phi^2 reproduced to "
          "1e-9 for beta in {0.05..0.95}")


def test_criterion_6_welfare_gap_family(gap_curve):
    # canonical instance: the enumerated optimum is beta/2 exactly
    canonical = two_group_gap_curve(0.4, eps=0.01)
    assert abs(canonical["optimum"] - 0.2) <= 1e-9

    # the locked-in equilibrium's excess over beta/2 grows strictly with beta
    claims = [c["gap_vs_claim"] for c in gap_curve]
    assert all(b > a for a, b in zip(claims, claims[1:]))

    # wherever beta/2 really is the enumerated optimum the gap is positive;
    # that regime covers the upper part of the sweep
    positive_regime = [c for c in gap_curve
                       if abs(c["optimum"] - c["claimed_optimum"]) <= 1e-9]
    assert positive_regime and min(c["beta"] for c in positive_regime) < 0.35
    for c in positive_regime:
        assert c["gap_vs_claim"] > 0
    # below the crossover the locked-in equilibrium is itself the optimum
    for c in gap_curve:
        assert c["gap_vs_optimum"] >= -1e-8

    # the independently printed expression is reported alongside, unasserted
    printed = [(c["beta"], c["eq_risk"], c["printed_total_risk"])
               for c in gap_curve]
    print("\nACCEPTANCE 6: PASS — optimum beta/2 at the canonical instance to "
          "1e-9; gap strictly increasing over beta in [0.30, 0.49] and "
          f"positive on the optimum regime (from beta="
          f"{min(c['beta'] for c in positive_regime):.3f}); oracle vs quoted "
          f"equilibrium risk at beta=0.4: {canonical['eq_risk']:.6f} vs "
          f"{canonical['printed_total_risk']:.6f} (reported, not asserted); "
          f"{len(printed)} grid points")


@pytest.mark.xfail(
    strict=True,
    reason="for beta below the crossover near 0.335 the {1}/{2,3} grouping is "
    "itself the welfare optimum (its risk drops below beta/2), so no gap "
    "definition can be positive over the entire [0.30, 0.49] sweep",
)
def test_criterion_6_literal_positivity_over_full_sweep(gap_curve):
    for c in gap_curve:
        assert c["gap_vs_claim"] > 0


def test_criterion_7_competition_cascade(tmp_path):
    start = time.perf_counter()
    rc = cli_main(["competition", str(packaged_scenario("competition12")),
                   "--target-m", "12", "--sigma", "1e-3", "--seed", "20240",
                   "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "competition.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert int(rows[0]["m"]) == 2 and int(rows[-1]["m"]) == 12
    totals = [float(r["total_risk"]) for r in rows]
    assert all(b <= a + 1e-8 for a, b in zip(totals, totals[1:]))
    for k, row in enumerate(rows[:-1]):
        if row["grad_hypothesis"] == "1":
            assert totals[k + 1] < totals[k] - 1e-6
    worsts = [float(r["worst_subpop_risk"]) for r in rows]
    assert worsts[-1] <= worsts[0]
    # uniform proportions and unit offsets: full segmentation leaves risk 1
    assert abs(totals[-1] - 1.0) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 7: PASS — m=2..12 cascade: equilibrium risk "
          f"{totals[0]:.4f} -> {totals[-1]:.6f} (= sum of offsets), worst-off "
          f"{worsts[0]:.4f} -> {worsts[-1]:.4f}, strict drop at every "
          f"hypothesis-bearing split, {elapsed:.1f}s")


def test_criterion_8_potential_analytics():
    rng = np.random.default_rng(808)
    segments = 0
    while segments < 200:
        sc = random_scenario(rng, int(rng.integers(2, 5)),
                             int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        a = rng.dirichlet(np.ones(sc.m), size=sc.n)
        b = rng.dirichlet(np.ones(sc.m), size=sc.n)
        fa, fb = potential_value(a, sc), potential_value(b, sc)
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
            mixed = potential_value(lam * a + (1 - lam) * b, sc)
            assert mixed >= lam * fa + (1 - lam) * fb - 1e-8
        segments += 1

    directions = 0
    h = 1e-6
    while directions < 100:
        sc = random_scenario(rng, 4, 2, 2)
        alpha = rng.dirichlet(np.full(2, 5.0), size=4)
        G = potential_gradient(alpha, sc)
        for _ in range(10):
            direction = rng.standard_normal((4, 2))
            direction -= direction.mean(axis=1, keepdims=True)
            direction /= np.abs(direction).max()
            fd = (potential_value(alpha + h * direction, sc)
                  - potential_value(alpha - h * direction, sc)) / (2 * h)
            analytic = float((G * direction).sum())
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))
            directions += 1
    print(f"\nACCEPTANCE 8: PASS — concavity held on {segments} random "
          f"segments (tol 1e-8); gradient matched finite differences along "
          f"{directions} simplex-tangent directions (rel tol 1e-5)")


def test_criterion_9_oracle_dominates_fixed_points(monotonicity_sweep,
                                                   certification_sweep):
    checked = 0
    for run in monotonicity_sweep["runs"]:
        sc = run["scenario"]
        if not run["converged"] or sc.m ** sc.n > 20_000:
            continue
        reports = enumerate_split_equilibria(sc, dedupe=True)
        assert run["final_total"] >= reports[0].total_risk - 1e-8
        checked += 1
    assert checked >= 100
    for inst in certification_sweep["instances"]:
        assert all(r.welfare_gap >= -1e-8 for r in inst["reports"])

    # a strictly positive welfare gap is realized by the locked-in
    # equilibrium of the two-learner gap family
    loaded = load_scenario(packaged_scenario("two_group_gap"))
    traj = simulate(loaded.scenario, loaded.initial_state, loaded.max_steps,
                    loaded.detector)
    assert traj.converged_at is not None
    reports = enumerate_split_equilibria(loaded.scenario, dedupe=True)
    gap = traj.total_risks[-1] - reports[0].total_risk
    assert gap > 1e-3
    print(f"\nACCEPTANCE 9: PASS — {checked} detected fixed points dominate "
          f"the enumerated optimum (tol 1e-8); locked-in equilibrium realizes "
          f"welfare gap {gap:.4f} > 0")


def test_criterion_10_stable_markets_have_disjoint_hulls(certification_sweep):
    checked = 0
    for inst in certification_sweep["instances"]:
        if not inst["identity"]:
            continue
        centers = inst["scenario"].centers()
        for rep in inst["reports"]:
            if rep.stability != "asymptotically_stable":
                continue
            assert convex_hulls_disjoint(rep.assignment, centers), (
                f"stable split {rep.assignment.gamma_map} has intersecting "
                "hulls")
            checked += 1
    assert checked >= 50
    print(f"\nACCEPTANCE 10: PASS — {checked} certified-stable split markets "
          f"with identity curvature all have pairwise-disjoint hulls")
