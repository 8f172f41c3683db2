import numpy as np
import pytest

from popdyn import (
    Scenario,
    SystemState,
    custom_risk,
    full_min,
    mwud,
    quadratic_risk,
    repeated_gd,
    risk_gradient,
    risk_hessian,
    risk_value,
)
from popdyn.scenario_io import load_scenario, packaged_scenario


def random_scenario(rng, n, m, d, learner="full_min", gamma_range=(0.1, 5.0),
                    identity_curvature=None, offset_range=(0.0, 1.0),
                    beta_floor=0.05):
    """Random quadratic instance with safe step sizes for gradient learners."""
    beta = rng.dirichlet(np.full(n, 2.0))
    beta = np.maximum(beta, beta_floor)
    beta = beta / beta.sum()
    risks = []
    max_eig = 0.0
    for _ in range(n):
        center = rng.uniform(-2.0, 2.0, d)
        use_identity = (identity_curvature if identity_curvature is not None
                        else rng.random() < 0.5)
        if use_identity:
            A = np.eye(d)
        else:
            Q = rng.standard_normal((d, d))
            A = Q @ Q.T / d + 0.3 * np.eye(d)
        max_eig = max(max_eig, float(np.linalg.eigvalsh(A).max()))
        offset = float(rng.uniform(*offset_range))
        risks.append(quadratic_risk(center, A, offset=offset))
    gamma = float(rng.uniform(*gamma_range))
    if learner == "full_min":
        rule = full_min()
    else:
        # 0.45/max_eig keeps every gradient step strictly inside the descent
        # region 2/lambda_max of any mixture Hessian
        rule = repeated_gd(base=0.45 / max_eig, form="harmonic")
    return Scenario(beta=beta, risks=tuple(risks), m=m,
                    subpop_rule=mwud(gamma), learner_rule=rule)


def as_custom(risk):
    """The same risk through the custom-risk callbacks."""
    return custom_risk(risk.dim, lambda th: risk_value(risk, th),
                       lambda th: risk_gradient(risk, th),
                       lambda th: risk_hessian(risk, th))


def random_state(rng, scenario):
    alpha = rng.dirichlet(np.ones(scenario.m), size=scenario.n)
    theta = rng.uniform(-2.0, 2.0, (scenario.m, scenario.d))
    return SystemState(alpha=alpha, theta=theta, t=0)


@pytest.fixture(scope="session")
def three_centers():
    return load_scenario(packaged_scenario("three_centers"))


@pytest.fixture(scope="session")
def competition12_path():
    return packaged_scenario("competition12")
