"""Learner-update rules.

Learner j reduces the mixture risk sum_i w_i R_i(theta_j) that it observes,
w_i = alpha_ij beta_i: repeated gradient descent steps down its gradient
(mixture_gradients), repeated risk minimization re-minimizes it
(minimize_mixtures).  For quadratics both use the normal equations
H = sum_i w_i A_i, b = sum_i w_i A_i phi_i: the gradient is 2 (H theta - b)
and the minimizer H^-1 b, for which unnormalized weights suffice.  Other
risks sum their batched callbacks, minimized by one damped Newton.
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
    otherwise, within max_iterations steps, to a gradient norm of the
    learner's mass-normalized mixture risk at most tolerance.
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


def _mix(W, risks, fn, theta) -> np.ndarray:
    """sum_i W[..., i, k] fn(R_i, theta[..., k, :]) for W (..., n, k), one fn
    call per risk on the batch; a zero weight adds 0, even to inf or NaN."""
    total = 0.0
    for w, r in zip(np.moveaxis(W, -2, 0), risks):
        term = fn(r, theta)
        w = w.reshape(w.shape + (1,) * (term.ndim - w.ndim))
        total = total + np.multiply(w, term, out=np.zeros_like(term), where=w != 0)
    return total


def mixture_gradients(scenario, W, theta) -> np.ndarray:
    """Gradients (..., k, d) of the mixtures weighted by the columns of W
    (..., n, k), each of positive mass, at theta (..., k, d):
    sum_i W_ik grad R_i(theta_k), which is 2 (H_k theta_k - b_k) from the
    normal equations for quadratics.  Leading axes index batches."""
    if scenario._quad is not None:
        H, b = scenario.normal_equations(W)
        return 2.0 * ((H @ theta[..., None])[..., 0] - b)
    return _mix(W, scenario.risks, risk_gradient, theta)


def _require_mass(W, hold) -> None:
    """EmptyLearnerError naming the first unheld column of W with no mass."""
    empty = np.argwhere(~W.any(axis=-2) & (True if hold is None else ~hold))
    if empty.size:
        *batch, j = empty[0].tolist()
        raise EmptyLearnerError(
            f"mixture column W[{', '.join(map(str, [*batch, ':', j]))}] "
            "has no positive weight") from None


def _newton(W, risks, tolerance, max_iterations, start, hold) -> np.ndarray:
    """minimize_mixtures' damped Newton, all unheld columns at once.  A column
    is done once the gradient norm of its mass-normalized mixture is <=
    tolerance or its full step's predicted decrease is below rounding; its
    step halves until its risk does not rise."""
    _require_mass(W, hold)
    theta = (np.zeros((*W.shape[:-2], W.shape[-1], risks[0].dim))
             if start is None else np.array(start, dtype=float))
    x = theta.reshape(-1, theta.shape[-1])   # a view, one row per column
    live = np.arange(len(x)) if hold is None else np.flatnonzero(~hold)
    w = np.moveaxis(W, -2, 0).reshape(len(risks), -1)[:, live]
    value = _mix(w, risks, risk_value, x[live])
    for iteration in range(max_iterations + 1):
        g = _mix(w, risks, risk_gradient, x[live])
        # g / mass is the normalized mixture's gradient; NaN goes on
        going = ~(np.linalg.norm(g, axis=-1) <= tolerance * w.sum(axis=0))
        live, w, value, g = live[going], w[:, going], value[going], g[going]
        if not live.size:
            return theta
        if iteration == max_iterations:
            raise ConvergenceError("newton did not reach gradient norm "
                                   f"{tolerance} in {max_iterations} iterations")
        step = np.linalg.solve(_mix(w, risks, risk_hessian, x[live]),
                               -g[..., None])[..., 0]
        decrease = -(g * step).sum(axis=-1) / 2   # by the quadratic model
        if not (decrease >= 0).all():
            raise ConvergenceError(
                "newton direction is not a descent direction (predicted change "
                f"{-decrease.min():.3g}): the hessian is not positive definite")
        going = ~(decrease <= np.finfo(float).eps * np.abs(value))
        live, w, value, step = live[going], w[:, going], value[going], step[going]
        if not live.size:
            return theta
        scale, search = 1.0, np.arange(live.size)
        while search.size:
            if not scale > 1e-12:
                raise ConvergenceError("newton step failed to decrease the objective")
            candidate = x[live[search]] + scale * step[search]
            cand_value = _mix(w[:, search], risks, risk_value, candidate)
            ok = cand_value <= value[search]
            x[live[search[ok]]], value[search[ok]] = candidate[ok], cand_value[ok]
            search, scale = search[~ok], scale * 0.5


def group_minimize(weights, risks, tolerance: float = 1e-10,
                   max_iterations: int = 100, start=None) -> np.ndarray:
    """Damped Newton on sum_i w_i R_i(theta), w_i >= 0, from start or 0, to a
    gradient norm of the normalized sum_i w_i R_i / sum_i w_i <= tolerance."""
    full_min(tolerance, max_iterations)   # checks both as LearnerRule does
    return _newton(np.asarray(weights, dtype=float)[:, None], risks, tolerance,
                   max_iterations, None if start is None else [start], None)[0]


def minimize_mixtures(scenario, W, tolerance: float = 1e-10,
                      max_iterations: int = 100, start=None,
                      hold=None) -> np.ndarray:
    """Minimizers (..., k, d) of the mixtures weighted by the columns of W
    (..., n, k): one batched normal-equation solve for quadratics, else one
    damped Newton over every column, from the matching row of start
    (..., k, d) if given, or 0.  A column marked in hold (..., k) is not
    minimized and may have any mass: it returns its row of start exactly,
    or 0 without a start.  Every other column needs positive mass, or
    EmptyLearnerError is raised.  Leading axes index batches.

    With every curvature diagonal, so is H, and a positive diagonal is
    solved as b / diag(H), which is what pivoted LU computes: LAPACK's bits,
    but a -0.0 in b stays -0.0 where LAPACK may return +0.0."""
    if scenario._quad is None:
        return _newton(W, scenario.risks, tolerance, max_iterations, start, hold)
    H, b = scenario.normal_equations(W)
    if hold is not None:
        # a held column solves I x = start, which returns start exactly
        H = np.where(hold[..., None, None], np.eye(scenario.d), H)
        b = np.where(hold[..., None], 0.0 if start is None else start, b)
    h = H.diagonal(axis1=-2, axis2=-1)
    if scenario._quad[4] and np.logical_and.reduce(h > 0.0, axis=None):
        return b / h
    try:
        return np.linalg.solve(H, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        _require_mass(W, hold)
        raise
