"""Canonical analytic cases with closed-form answers.

These small instances have hand-checkable optima and stability conditions;
the goldens CLI command and the verification suite replay them against the
simulation and classification machinery.
"""

from __future__ import annotations

import numpy as np

from .allocation import mwud
from .equilibria import (
    DEFAULT_BUDGET,
    SplitAssignment,
    _split_catalog,
    classify_state,
    theta_for_assignment,
)
from .learners import full_min
from .model import Scenario, SystemState, quadratic_risk


def minority_scenario(beta: float, phi: float = 10.0) -> Scenario:
    """Two subpopulations (sizes beta, 1-beta), optima 0 and phi, one learner."""
    return Scenario(
        beta=np.array([beta, 1.0 - beta]),
        risks=(quadratic_risk([0.0]), quadratic_risk([phi])),
        m=1,
        subpop_rule=mwud(gamma=1.0),
        learner_rule=full_min(),
    )


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
    return Scenario(
        beta=np.array([beta, beta, 1.0 - 2.0 * beta]),
        risks=(quadratic_risk([0.0]), quadratic_risk([1.0]),
               quadratic_risk([phi])),
        m=2,
        subpop_rule=mwud(gamma=gamma),
        learner_rule=full_min(),
    )


def two_group_gap_curve(beta: float, eps: float = 0.01) -> dict:
    """Oracle values for the gap family at one beta.

    The locked-in {1}/{2,3} equilibrium risk comes from the closed-form
    group minimization; ``printed_total_risk`` is the independently quoted
    expression beta + (beta-eps)^2/(1-2 beta), reported for comparison but
    not asserted anywhere (it disagrees with direct minimization).
    """
    scenario = two_group_gap_scenario(beta, eps)
    phi = float(scenario.risks[2].center[0])
    assignment = SplitAssignment((0, 1, 1))
    theta = theta_for_assignment(assignment, scenario)
    R = scenario.risk_matrix(theta)
    eq_risk = float(scenario.beta @ R[np.arange(3), [0, 1, 1]])
    optimum = float(_split_catalog(scenario, True, DEFAULT_BUDGET)[1][0])
    return {
        "beta": beta,
        "eps": eps,
        "phi": phi,
        "eq_theta2": float(theta[1, 0]),
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
    return Scenario(
        beta=np.array([beta1, beta2, beta3]),
        risks=(quadratic_risk(phi1), quadratic_risk(phi2),
               quadratic_risk(phi3)),
        m=2,
        subpop_rule=mwud(gamma=gamma),
        learner_rule=full_min(),
    )


def partition_pair_state(scenario: Scenario) -> SystemState:
    """The {1}/{2,3} split state with per-group optimal parameters."""
    assignment = SplitAssignment((0, 1, 1))
    theta = theta_for_assignment(assignment, scenario)
    return SystemState(alpha=assignment.to_alpha(2), theta=theta, t=0)


def classify_partition_pair(phi1, phi2, phi3, beta2: float, beta3: float):
    """Certify the {1}/{2,3} partition; returns (report, margin)."""
    scenario = partition_pair_scenario(phi1, phi2, phi3, beta2, beta3)
    state = partition_pair_state(scenario)
    report = classify_state(state, scenario)
    return report, report.margin
