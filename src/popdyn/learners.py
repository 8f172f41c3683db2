"""Learner-update rules.

A learner observes the mixture of subpopulations currently allocated to it
and reduces its mixture risk: either one (or a few) gradient steps per time
step, or a full re-minimization.  For quadratic risks the minimizer solves
(sum_i w_i A_i) theta = sum_i w_i A_i phi_i with weights w_i = alpha_ij beta_i;
unnormalized weights suffice because the normalization cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EmptyLearnerError
from .model import (
    EMPTY_MASS_TOL,
    require_choice,
    require_number,
    risk_gradient,
    risk_hessian,
    risk_value,
)

STEP_FORMS = ("harmonic", "constant")
FULL_MIN_METHODS = ("closed_form_quadratic", "newton")


@dataclass(frozen=True)
class StepSchedule:
    """Step-size schedule gamma^t: base/(t+1) (harmonic) or constant base."""

    form: str = "harmonic"
    base: float = 1.0

    def __post_init__(self):
        require_choice(self.form, "form", STEP_FORMS)
        require_number(self.base, "base", 0, strict=True)


@dataclass(frozen=True)
class LearnerRule:
    """Configuration for a learner update rule.

    kind="repeated_gd" takes inner_steps gradient steps of size gamma^t per
    time step; kind="full_min" re-minimizes the observed mixture risk, in
    closed form for quadratics or by damped Newton otherwise.
    """

    kind: str
    schedule: StepSchedule = StepSchedule()
    inner_steps: int = 1
    method: str = "closed_form_quadratic"
    tolerance: float = 1e-10
    max_iterations: int = 100

    def __post_init__(self):
        require_choice(self.kind, "kind", ("repeated_gd", "full_min"))
        require_number(self.inner_steps, "inner_steps", 1, integer=True)
        require_choice(self.method, "method", FULL_MIN_METHODS)
        require_number(self.tolerance, "tolerance", 0, strict=True)
        require_number(self.max_iterations, "max_iterations", 0, integer=True)


def repeated_gd(base: float = 1.0, form: str = "harmonic",
                inner_steps: int = 1) -> LearnerRule:
    return LearnerRule(kind="repeated_gd",
                       schedule=StepSchedule(form=form, base=base),
                       inner_steps=inner_steps)


def full_min(method: str = "closed_form_quadratic", tolerance: float = 1e-10,
             max_iterations: int = 100) -> LearnerRule:
    return LearnerRule(kind="full_min", method=method, tolerance=tolerance,
                       max_iterations=max_iterations)


def step_size(t: int, schedule: StepSchedule) -> float:
    """gamma^t for the given schedule; harmonic returns exactly base/(t+1)."""
    if schedule.form == "harmonic":
        return schedule.base / (t + 1)
    return schedule.base


def _weights(alpha_col, beta):
    alpha_col = np.asarray(alpha_col, dtype=float)
    beta = np.asarray(beta, dtype=float)
    w = alpha_col * beta
    mass = w.sum()
    if mass < EMPTY_MASS_TOL:
        raise EmptyLearnerError(f"learner mass {mass!r} below {EMPTY_MASS_TOL}")
    return w, mass


def learner_gradient(theta_j, alpha_col, beta, risks) -> np.ndarray:
    """Gradient of the mass-normalized mixture risk at theta_j."""
    w, mass = _weights(alpha_col, beta)
    g = np.zeros_like(np.asarray(theta_j, dtype=float))
    for wi, r in zip(w, risks):
        if wi != 0.0:
            g += wi * risk_gradient(r, theta_j)
    return g / mass


def gradient_step(theta_j, alpha_col, beta, risks, gamma_t: float) -> np.ndarray:
    """One step theta - gamma^t * grad of the observed mixture risk."""
    if gamma_t <= 0:
        raise ValueError(f"gamma_t must be > 0, got {gamma_t}")
    theta_j = np.asarray(theta_j, dtype=float)
    return theta_j - gamma_t * learner_gradient(theta_j, alpha_col, beta, risks)


def group_minimize(weights, risks, tolerance: float = 1e-10,
                   max_iterations: int = 100, start=None) -> np.ndarray:
    """Minimize sum_i w_i R_i(theta) over theta for nonnegative weights by
    damped Newton: steps are halved until the objective decreases, so the
    update stays risk reducing even far from the optimum."""
    weights = np.asarray(weights, dtype=float)
    active = [(wi, r) for wi, r in zip(weights, risks) if wi != 0.0]
    if not active:
        raise EmptyLearnerError("group has no positive weight")
    d = active[0][1].dim

    def objective(th):
        return sum(wi * risk_value(r, th) for wi, r in active)

    def grad(th):
        return sum(wi * risk_gradient(r, th) for wi, r in active)

    def hess(th):
        return sum(wi * risk_hessian(r, th) for wi, r in active)

    if start is not None:
        theta = np.asarray(start, dtype=float).copy()
    elif all(r.kind == "quadratic" for _, r in active):
        theta = sum(wi * r.center for wi, r in active) / sum(wi for wi, _ in active)
    else:
        theta = np.zeros(d)
    value = objective(theta)
    for _ in range(max_iterations):
        g = grad(theta)
        if np.linalg.norm(g) <= tolerance:
            return theta
        direction = np.linalg.solve(hess(theta), -g)
        if -(g @ direction) / 2 <= np.finfo(float).eps * abs(value):
            # the full step's predicted decrease is below the objective's
            # rounding: no step can be seen to lower it, so theta is optimal
            # to working precision
            return theta
        scale = 1.0
        while scale > 1e-12:
            candidate = theta + scale * direction
            cand_value = objective(candidate)
            if cand_value <= value:
                theta, value = candidate, cand_value
                break
            scale *= 0.5
        else:
            raise ConvergenceError("newton step failed to decrease the objective")
    if np.linalg.norm(grad(theta)) <= tolerance:
        return theta
    raise ConvergenceError(
        f"newton did not reach gradient norm {tolerance} in {max_iterations} iterations"
    )


def minimize_mixtures(scenario, W, method: str = "closed_form_quadratic",
                      tolerance: float = 1e-10, max_iterations: int = 100,
                      start=None) -> np.ndarray:
    """Minimizers (k, d) of the mixtures weighted by the columns of W (n, k),
    each of positive mass: one batched normal-equation solve for quadratics
    in closed form, else group_minimize per column, from start[k] if given."""
    if method == "closed_form_quadratic" and scenario._quad is not None:
        H, b = scenario.normal_equations(W)
        return np.linalg.solve(H, b[:, :, None])[:, :, 0]
    thetas = [group_minimize(w, scenario.risks, tolerance=tolerance,
                             max_iterations=max_iterations,
                             start=None if start is None else start[k])
              for k, w in enumerate(W.T)]
    return np.array(thetas).reshape(len(thetas), scenario.d)

