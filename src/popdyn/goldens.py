"""Canonical analytic cases with closed-form answers.

These small instances have hand-checkable optima and stability conditions.
``golden_rows`` replays them against the classification machinery and states
every comparison and tolerance; the goldens CLI command writes its rows.
"""

from __future__ import annotations

import numpy as np

from .allocation import mwud
from .equilibria import (
    DEFAULT_BUDGET,
    SplitAssignment,
    _welfare_optimum,
    classify_state,
    theta_for_assignment,
)
from .learners import full_min
from .model import (MONOTONE_TOL, Scenario, SystemState, quadratic_risk,
                    risk_value, total_risk)

GOLDEN_TOL = 1e-9   # a computed value matches its closed form this closely
# the C.1 predicate and the classifier may disagree where its two sides or
# the certified margin lie this close to a tie
TIE_BAND = 1e-6


def _golden_scenario(beta, centers, m: int, gamma: float) -> Scenario:
    """Identity-curvature risks at centers, m learners, MWUD at gamma and
    full minimization."""
    return Scenario(beta=beta,
                    risks=tuple(quadratic_risk(c) for c in centers), m=m,
                    subpop_rule=mwud(gamma=gamma), learner_rule=full_min())


def minority_scenario(beta: float, phi: float = 10.0) -> Scenario:
    """Two subpopulations (sizes beta, 1-beta), optima 0 and phi, one learner."""
    return _golden_scenario([beta, 1.0 - beta], ([0.0], [phi]), 1, 1.0)


def minority_closed_forms(beta: float, phi: float = 10.0) -> dict:
    """Single-learner equilibrium: theta* = (1-beta) phi, total risk
    beta (1-beta) phi^2, minority risk beta^2 phi^2."""
    return {
        "theta_star": (1.0 - beta) * phi,
        "total_risk": beta * (1.0 - beta) * phi ** 2,
        "minority_risk": beta ** 2 * phi ** 2,
    }


def two_group_gap_scenario(beta: float, eps: float = 0.01,
                           gamma: float = 1.0) -> Scenario:
    """Three subpopulations (beta, beta, 1-2 beta) with optima 0, 1 and
    (1-beta)/(1-2 beta) - eps, two learners.  For beta above roughly one
    third the welfare optimum groups {1,2}/{3} at total risk beta/2, while
    {1}/{2,3} is a distinct stable equilibrium whose excess risk grows
    without bound as beta approaches 1/2."""
    if not 0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    phi = (1.0 - beta) / (1.0 - 2.0 * beta) - eps
    return _golden_scenario([beta, beta, 1.0 - 2.0 * beta],
                            ([0.0], [1.0], [phi]), 2, gamma)


def two_group_gap_curve(beta: float, eps: float = 0.01) -> dict:
    """Oracle values for the gap family at one beta.

    The locked-in {1}/{2,3} equilibrium risk comes from the closed-form
    group minimization; ``printed_total_risk`` is the independently quoted
    expression beta + (beta-eps)^2/(1-2 beta), reported for comparison but
    not asserted anywhere (it disagrees with direct minimization).
    """
    scenario = two_group_gap_scenario(beta, eps)
    phi = float(scenario.risks[2].center[0])
    eq_risk = total_risk(partition_pair_state(scenario), scenario)
    optimum = _welfare_optimum(scenario, DEFAULT_BUDGET)
    return {
        "beta": beta,
        "eps": eps,
        "phi": phi,
        "eq_risk": eq_risk,
        "optimum": optimum,
        "claimed_optimum": beta / 2.0,
        "gap_vs_claim": eq_risk - beta / 2.0,
        "gap_vs_optimum": eq_risk - optimum,
        "printed_total_risk": beta + (beta - eps) ** 2 / (1.0 - 2.0 * beta),
    }


def partition_pair_scenario(phi1, phi2, phi3, beta2: float, beta3: float,
                            gamma: float = 1.0) -> Scenario:
    """Three subpopulations with identity-curvature risks and two learners."""
    beta1 = 1.0 - beta2 - beta3
    if beta1 <= 0:
        raise ValueError("beta2 + beta3 must be < 1")
    return _golden_scenario([beta1, beta2, beta3], (phi1, phi2, phi3), 2,
                            gamma)


def partition_pair_state(scenario: Scenario) -> SystemState:
    """The {1}/{2,3} split state with per-group optimal parameters."""
    assignment = SplitAssignment((0, 1, 1))
    theta = theta_for_assignment(assignment, scenario)
    return SystemState(alpha=assignment.to_alpha(2), theta=theta, t=0)


def _c1_sides(phi1, phi2, phi3, beta2: float, beta3: float) -> tuple:
    """The left and right sides of example_c1_stability_predicate's bound."""
    phi1, phi2, phi3 = (np.atleast_1d(np.asarray(p, dtype=float))
                        for p in (phi1, phi2, phi3))
    bound = (beta2 + beta3) * min(np.linalg.norm(phi2 - phi1) / beta3,
                                  np.linalg.norm(phi3 - phi1) / beta2)
    return np.linalg.norm(phi2 - phi3), bound


def example_c1_stability_predicate(phi1, phi2, phi3, beta2: float,
                                   beta3: float) -> bool:
    """Closed-form stability test for the {1}/{2,3} partition with
    identity-curvature quadratic risks:

        ||phi2 - phi3|| < (beta2 + beta3) * min(||phi2 - phi1|| / beta3,
                                                ||phi3 - phi1|| / beta2)
    """
    if beta2 <= 0 or beta3 <= 0:
        raise ValueError("beta2 and beta3 must be positive")
    lhs, bound = _c1_sides(phi1, phi2, phi3, beta2, beta3)
    return bool(lhs < bound)


def golden_rows():
    """Rows [golden, p1, p2, p3, quantity, computed, expected, ok] of every
    analytic case; ok is None where a value is reported but not checked."""
    phi = 10.0
    for beta in np.arange(0.05, 0.951, 0.05):
        beta = round(float(beta), 10)
        scenario = minority_scenario(beta, phi)
        expected = minority_closed_forms(beta, phi)
        theta = theta_for_assignment(SplitAssignment((0, 0)), scenario)
        state = SystemState(alpha=np.ones((2, 1)), theta=theta, t=0)
        computed = {"theta_star": float(theta[0, 0]),
                    "total_risk": total_risk(state, scenario),
                    "minority_risk": risk_value(scenario.risks[1], theta[0])}
        for key, value in expected.items():
            yield ["minority", beta, phi, "", key, computed[key], value,
                   abs(computed[key] - value) <= GOLDEN_TOL]

    phis = ([0.0], [1.0], [2.0])
    grid = np.linspace(0.04, 0.92, 20)
    for beta2 in grid:
        for beta3 in grid:
            if beta2 + beta3 >= 0.95:
                continue
            predicate = example_c1_stability_predicate(*phis, beta2, beta3)
            slack, bound = _c1_sides(*phis, beta2, beta3)
            scenario = partition_pair_scenario(*phis, beta2, beta3)
            report = classify_state(partition_pair_state(scenario), scenario)
            certified = report.stability == "asymptotically_stable"
            in_band = abs(slack - bound) < TIE_BAND or (
                report.margin is not None and abs(report.margin) < TIE_BAND)
            yield ["partition_agreement", beta2, beta3, "", "stability_match",
                   int(certified), int(predicate),
                   in_band or predicate == certified]

    eps = 0.01
    canonical = two_group_gap_curve(0.4, eps)
    yield ["gap_curve", 0.4, eps, canonical["phi"], "enumerated_optimum",
           canonical["optimum"], 0.2,
           abs(canonical["optimum"] - 0.2) <= GOLDEN_TOL]
    prev = None
    for beta in np.linspace(0.30, 0.49, 20):
        c = two_group_gap_curve(float(beta), eps)
        head = ["gap_curve", c["beta"], eps, c["phi"]]
        # the printed expression disagrees with the group-minimization
        # oracle (see README), so it is reported, not checked
        yield head + ["eq_total_risk", c["eq_risk"], c["printed_total_risk"],
                      None]
        yield head + ["gap_vs_optimum", c["gap_vs_optimum"], "",
                      c["gap_vs_optimum"] >= -MONOTONE_TOL]
        if (c["phi"] > 2.0
                and abs(c["optimum"] - c["claimed_optimum"]) <= GOLDEN_TOL):
            yield head + ["gap_positive", c["gap_vs_claim"], "",
                          c["gap_vs_claim"] > 0]
        if prev is not None:
            yield head + ["gap_increasing", c["gap_vs_claim"],
                          prev["gap_vs_claim"],
                          c["gap_vs_claim"] > prev["gap_vs_claim"]]
        prev = c
