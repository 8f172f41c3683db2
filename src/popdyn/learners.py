"""Learner-update rules.

Learner j reduces the mixture risk sum_i w_i R_i(theta_j) that it observes,
w_i = alpha_ij beta_i: repeated gradient descent steps down its gradient
(mixture_gradients), repeated risk minimization re-minimizes it
(minimize_mixtures).  For quadratics both use the normal equations
H = sum_i w_i A_i, b = sum_i w_i A_i phi_i: the gradient is 2 (H theta - b)
and the minimizer H^-1 b, for which unnormalized weights suffice.  Other
risks sum their gradient callbacks and are minimized by damped Newton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EmptyLearnerError
from .model import (
    require_choice,
    require_number,
    risk_gradient,
    risk_hessian,
    risk_value,
)

STEP_FORMS = ("harmonic", "constant")


@dataclass(frozen=True)
class LearnerRule:
    """Configuration for a learner update rule.

    kind="repeated_gd" takes inner_steps gradient steps of size
    step_size(t, rule) per time step; kind="full_min" re-minimizes the
    observed mixture risk, in closed form for quadratics or by damped Newton
    (tolerance, max_iterations) otherwise.
    """

    kind: str
    form: str = "harmonic"
    base: float = 1.0
    inner_steps: int = 1
    tolerance: float = 1e-10
    max_iterations: int = 100

    def __post_init__(self):
        require_choice(self.kind, "kind", ("repeated_gd", "full_min"))
        require_choice(self.form, "form", STEP_FORMS)
        require_number(self.base, "base", 0, strict=True)
        require_number(self.inner_steps, "inner_steps", 1, integer=True)
        require_number(self.tolerance, "tolerance", 0, strict=True)
        require_number(self.max_iterations, "max_iterations", 0, integer=True)


def repeated_gd(base: float = 1.0, form: str = "harmonic",
                inner_steps: int = 1) -> LearnerRule:
    return LearnerRule(kind="repeated_gd", form=form, base=base,
                       inner_steps=inner_steps)


def full_min(tolerance: float = 1e-10, max_iterations: int = 100) -> LearnerRule:
    return LearnerRule(kind="full_min", tolerance=tolerance,
                       max_iterations=max_iterations)


def step_size(t: int, rule: LearnerRule) -> float:
    """gamma^t: exactly base/(t+1) for form="harmonic", else base."""
    if rule.form == "harmonic":
        return rule.base / (t + 1)
    return rule.base


def _gradient_sum(weights, risks, theta):
    # sum_i w_i grad R_i(theta) over the nonzero weights; 0 for none
    return sum((wi * risk_gradient(r, theta) for wi, r in zip(weights, risks)
                if wi != 0.0), np.zeros(len(theta)))


def mixture_gradients(scenario, W, theta) -> np.ndarray:
    """Gradients (..., k, d) of the mixtures weighted by the columns of W
    (..., n, k), each of positive mass, at theta (..., k, d):
    sum_i W_ik grad R_i(theta_k), which is 2 (H_k theta_k - b_k) from the
    normal equations for quadratics.  Leading axes index batches."""
    if scenario._quad is not None:
        H, b = scenario.normal_equations(W)
        return 2.0 * ((H @ theta[..., None])[..., 0] - b)
    cols = W.swapaxes(-1, -2).reshape(-1, W.shape[-2])
    return np.array([_gradient_sum(w, scenario.risks, th) for w, th in
                     zip(cols, theta.reshape(-1, scenario.d))]).reshape(theta.shape)


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
        return _gradient_sum(weights, risks, th)

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
        decrease = -(g @ direction) / 2   # predicted by the quadratic model
        if not decrease >= 0:
            raise ConvergenceError(
                f"newton direction is not a descent direction (predicted "
                f"change {-decrease:.3g}): the hessian is not positive definite")
        if decrease <= np.finfo(float).eps * abs(value):
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


def minimize_mixtures(scenario, W, tolerance: float = 1e-10,
                      max_iterations: int = 100, start=None,
                      hold=None) -> np.ndarray:
    """Minimizers (..., k, d) of the mixtures weighted by the columns of W
    (..., n, k): one batched normal-equation solve for quadratics, else
    group_minimize per column, from the matching row of start (..., k, d)
    if given.  A column marked in hold (..., k) is not minimized and may
    have any mass: it returns its row of start exactly, or 0 without a
    start.  Every other column needs positive mass, or EmptyLearnerError
    is raised.  Leading axes index batches.

    With every curvature diagonal, so is H, and a positive diagonal is
    solved as b / diag(H), which is what pivoted LU computes: LAPACK's bits,
    but a -0.0 in b stays -0.0 where LAPACK may return +0.0."""
    if scenario._quad is not None:
        H, b = scenario.normal_equations(W)
        if hold is not None:
            # a held column solves I x = start, which returns start exactly
            H = np.where(hold[..., None, None], np.eye(scenario.d), H)
            b = np.where(hold[..., None], 0.0 if start is None else start, b)
        h = H.diagonal(axis1=-2, axis2=-1)
        if scenario._quad[4] and (h > 0.0).all():
            return b / h
        try:
            return np.linalg.solve(H, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            empty = ~W.any(axis=-2) & (True if hold is None else ~hold)
            if not empty.any():
                raise
            *batch, j = np.argwhere(empty)[0].tolist()
            raise EmptyLearnerError(
                f"mixture column W[{', '.join(map(str, [*batch, ':', j]))}] "
                "has no positive weight") from None
    cols = W.swapaxes(-1, -2).reshape(-1, W.shape[-2])
    starts = ([None] * len(cols) if start is None
              else np.reshape(start, (-1, scenario.d)))
    held = np.zeros(len(cols), bool) if hold is None else np.ravel(hold)
    thetas = [(np.zeros(scenario.d) if s is None else s) if h else
              group_minimize(w, scenario.risks, tolerance=tolerance,
                             max_iterations=max_iterations, start=s)
              for w, s, h in zip(cols, starts, held)]
    return np.array(thetas).reshape(*W.shape[:-2], W.shape[-1], scenario.d)
