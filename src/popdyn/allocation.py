"""Allocation-update rules for subpopulations.

Both rules map (current row, per-learner risk vector) to the next row and
never increase the subpopulation's average risk against the current learner
parameters.  MWUD is stateful (multiplicative reweighting of the current
shares); best response is stateless (all mass to the argmin learner).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnderflowError
from .model import require_choice, require_number, subpop_avg_risk

COMPARISONS = ("absolute", "relative")
TIE_POLICIES = ("split_evenly", "keep_previous")


@dataclass(frozen=True)
class AllocationRule:
    """Configuration for a subpopulation update rule.

    kind="mwud": shares are reweighted by exp(-gamma * c_j) and renormalized,
    with c_j the absolute risk R_i(theta_j) or the relative risk
    R_i(theta_j) / subpop-average.  kind="best_response": all mass moves to
    the minimum-risk learner, ties resolved per tie_policy within
    tie_tolerance.
    """

    kind: str
    gamma: float = 1.0
    comparison: str = "absolute"
    tie_tolerance: float = 0.0
    tie_policy: str = "split_evenly"

    def __post_init__(self):
        require_choice(self.kind, "kind", ("mwud", "best_response"))
        if self.kind == "mwud":
            require_number(self.gamma, "gamma", 0, strict=True)
            require_choice(self.comparison, "comparison", COMPARISONS)
        else:
            require_number(self.tie_tolerance, "tie_tolerance", 0)
            require_choice(self.tie_policy, "tie_policy", TIE_POLICIES)


def mwud(gamma: float = 1.0, comparison: str = "absolute") -> AllocationRule:
    return AllocationRule(kind="mwud", gamma=gamma, comparison=comparison)


def best_response(tie_tolerance: float = 0.0,
                  tie_policy: str = "split_evenly") -> AllocationRule:
    return AllocationRule(kind="best_response", tie_tolerance=tie_tolerance,
                          tie_policy=tie_policy)


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
    if not np.any(support):
        raise UnderflowError("allocation row has no support")
    shift = cost[support].min()
    # exponent <= 0 on the support; clip only silences overflow warnings for
    # unsupported entries whose weight is zeroed anyway
    arg = np.clip(shift - cost, None, 0.0)
    weights = np.where(support, alpha_row * np.exp(arg), 0.0)
    total = weights.sum()
    if total <= 0.0:
        raise UnderflowError("all multiplicative weights underflowed to zero")
    return weights / total


def best_response_step(alpha_row, risk_vector, tie_tolerance: float = 0.0,
                       tie_policy: str = "split_evenly") -> np.ndarray:
    """All mass on the argmin learner; ties within tie_tolerance resolved
    by splitting evenly or by renormalizing the previous row over the tied set."""
    alpha_row = np.asarray(alpha_row, dtype=float)
    risk_vector = np.asarray(risk_vector, dtype=float)
    if not np.all(np.isfinite(risk_vector)):
        raise ValueError(f"risk vector must be finite, got {risk_vector!r}")
    tied = risk_vector <= risk_vector.min() + tie_tolerance
    out = np.zeros_like(risk_vector, dtype=float)
    if tie_policy == "keep_previous":
        prev = np.where(tied, alpha_row, 0.0)
        if prev.sum() > 0.0:
            return prev / prev.sum()
        # previous row carried no mass on the tied set; fall through to even split
    out[tied] = 1.0 / tied.sum()
    return out


def verify_risk_reducing(rule, alpha_before, alpha_after, theta_all, risk,
                         tol: float = 1e-10) -> bool:
    """Runtime assertion hook: did the update not increase the subpop risk?"""
    before = subpop_avg_risk(alpha_before, theta_all, risk)
    after = subpop_avg_risk(alpha_after, theta_all, risk)
    return after <= before + tol
