"""Scalar reference implementations that the tests compare the library to.

The library computes each concept once, batched over rows, learners and
trials (``engine._core_step``, ``Scenario.risk_matrix``,
``Scenario.normal_equations``, ``engine._watched_steps``).  These are the
same concepts written one row, one learner or one trajectory at a time,
straight from their definitions, so property tests can check the batched
kernels against them.
"""

from typing import Optional

import numpy as np

from popdyn.errors import DimensionError, EmptyLearnerError, SimplexError
from popdyn.learners import _weights, group_minimize
from popdyn.model import (
    EMPTY_MASS_TOL,
    MONOTONE_TOL,
    SIMPLEX_TOL,
    RiskFunction,
    risk_value,
)


def mwud_step(alpha_row, risk_vector, gamma: float,
              comparison: str = "absolute", prev_mix_risk=None) -> np.ndarray:
    """One multiplicative-weights update of a single allocation row.

    Returns the row proportional to alpha_ij * exp(-gamma * c_j).  The
    exponent is shifted by the supported minimum of gamma * c_j before
    exponentiating (invariant under the renormalization) so the update
    cannot underflow to an all-zero row.  Zero entries stay exactly zero:
    a multiplicative update cannot revive a learner.
    """
    alpha_row = np.asarray(alpha_row, dtype=float)
    risk_vector = np.asarray(risk_vector, dtype=float)
    if not np.all(np.isfinite(risk_vector)):
        raise ValueError(f"risk vector must be finite, got {risk_vector!r}")
    cost = gamma * risk_vector
    if comparison == "relative":
        if prev_mix_risk is None or prev_mix_risk <= 0:
            raise ValueError(
                "relative comparison needs the previous mixture risk (> 0) "
                f"as denominator, got {prev_mix_risk!r}"
            )
        cost = cost / prev_mix_risk
    elif comparison != "absolute":
        raise ValueError(f"unknown comparison {comparison!r}")
    support = alpha_row > 0.0
    shift = cost[support].min()
    # exponent <= 0 on the support; clip only silences overflow warnings for
    # unsupported entries whose weight is zeroed anyway
    arg = np.clip(shift - cost, None, 0.0)
    weights = np.where(support, alpha_row * np.exp(arg), 0.0)
    return weights / weights.sum()


def best_response_step(alpha_row, risk_vector, tie_tolerance: float = 0.0,
                       tie_policy: str = "split_evenly") -> np.ndarray:
    """All mass on the argmin learner; ties resolved by splitting evenly or by
    renormalizing the previous row over the tied set: the learners within
    tie_tolerance of the minimum and at most MONOTONE_TOL above the row's
    current average risk, so the rule never raises the row's risk."""
    alpha_row = np.asarray(alpha_row, dtype=float)
    risk_vector = np.asarray(risk_vector, dtype=float)
    if not np.all(np.isfinite(risk_vector)):
        raise ValueError(f"risk vector must be finite, got {risk_vector!r}")
    low = risk_vector.min()
    avg = (alpha_row * risk_vector).sum()
    tied = risk_vector <= min(low + tie_tolerance,
                              max(avg + MONOTONE_TOL, low))
    out = np.zeros_like(risk_vector, dtype=float)
    if tie_policy == "keep_previous":
        prev = np.where(tied, alpha_row, 0.0)
        if prev.sum() > 0.0:
            return prev / prev.sum()
        # previous row carried no mass on the tied set; fall through to even split
    out[tied] = 1.0 / tied.sum()
    return out


def subpop_avg_risk(alpha_row, theta_all, risk: RiskFunction) -> float:
    """Average risk sum_j alpha_ij R_i(theta_j) experienced by one subpopulation."""
    alpha_row = np.asarray(alpha_row, dtype=float)
    theta_all = np.asarray(theta_all, dtype=float)
    if alpha_row.shape[0] != theta_all.shape[0]:
        raise DimensionError(
            f"{alpha_row.shape[0]} allocations for {theta_all.shape[0]} learners"
        )
    if np.any(alpha_row < -SIMPLEX_TOL) or abs(alpha_row.sum() - 1.0) > SIMPLEX_TOL:
        raise SimplexError(f"allocation row not on simplex: {alpha_row!r}")
    return float(sum(
        a * risk_value(risk, th) for a, th in zip(alpha_row, theta_all) if a != 0.0
    ))


def learner_avg_risk(alpha_col, beta, risks, theta_j) -> float:
    """Mass-normalized mixture risk observed by one learner.

    Invariant to positive rescaling of alpha_col; raises EmptyLearnerError
    when the mass falls below EMPTY_MASS_TOL rather than dividing by ~0.
    """
    alpha_col = np.asarray(alpha_col, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha_col.shape != beta.shape or alpha_col.shape[0] != len(risks):
        raise DimensionError("alpha_col, beta and risks must have equal length")
    w = alpha_col * beta
    mass = w.sum()
    if mass < EMPTY_MASS_TOL:
        raise EmptyLearnerError(f"learner mass {mass!r} below {EMPTY_MASS_TOL}")
    total = sum(
        wi * risk_value(r, theta_j) for wi, r in zip(w, risks) if wi != 0.0
    )
    return float(total / mass)


def full_minimize(alpha_col, beta, risks, method: str = "closed_form_quadratic",
                  tolerance: float = 1e-10, max_iterations: int = 100,
                  start=None) -> np.ndarray:
    """argmin over theta of the learner's observed mixture risk: the weighted
    normal equations summed one risk at a time when every weighted risk is
    quadratic and method is closed form, else damped Newton."""
    w, _ = _weights(alpha_col, beta)
    active = [(wi, r) for wi, r in zip(w, risks) if wi != 0.0]
    if (method == "closed_form_quadratic"
            and all(r.kind == "quadratic" for _, r in active)):
        d = active[0][1].dim
        H = np.zeros((d, d))
        b = np.zeros(d)
        for wi, r in active:
            H += wi * r.curvature
            b += wi * (r.curvature @ r.center)
        return np.linalg.solve(H, b)
    return group_minimize(w, risks, tolerance=tolerance,
                          max_iterations=max_iterations, start=start)


def detect_equilibrium(trajectory, detector) -> Optional[int]:
    """First index where the state stops moving for a full detector window:
    a rescan of the recorded states."""
    states = trajectory.states
    quiet = 0
    for k, (a, b) in enumerate(zip(states, states[1:])):
        delta = np.maximum(np.abs(a.alpha - b.alpha).max(),
                           np.abs(a.theta - b.theta).max())
        quiet = quiet + 1 if delta <= detector.state_tolerance else 0
        if quiet >= detector.window:
            return k - detector.window + 1
    return None
