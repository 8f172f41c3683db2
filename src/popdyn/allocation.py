"""Allocation-update rules for subpopulations.

Both rules map (current row, per-learner risk vector) to the next row and
never increase the subpopulation's average risk against the current learner
parameters.  MWUD is stateful (multiplicative reweighting of the current
shares); best response is stateless (all mass to the argmin learner or
the learners tied with it).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import require_choice, require_number

COMPARISONS = ("absolute", "relative")
TIE_POLICIES = ("split_evenly", "keep_previous")


@dataclass(frozen=True)
class AllocationRule:
    """Configuration for a subpopulation update rule.

    kind="mwud": shares are reweighted by exp(-gamma * c_j) and renormalized,
    with c_j the absolute risk R_i(theta_j) or the relative risk
    R_i(theta_j) / subpop-average.  kind="best_response": all mass moves to
    the minimum-risk learner.  The tied set is the learners within
    tie_tolerance of the minimum and at most MONOTONE_TOL above the row's
    current average risk; tie_policy splits the mass evenly over it or
    renormalizes the previous row over it.
    """

    kind: str
    gamma: float = 1.0
    comparison: str = "absolute"
    tie_tolerance: float = 0.0
    tie_policy: str = "split_evenly"

    def __post_init__(self):
        require_choice(self.kind, "kind", ("mwud", "best_response"))
        require_number(self.gamma, "gamma", 0, strict=True)
        require_choice(self.comparison, "comparison", COMPARISONS)
        require_number(self.tie_tolerance, "tie_tolerance", 0)
        require_choice(self.tie_policy, "tie_policy", TIE_POLICIES)


def mwud(gamma: float = 1.0, comparison: str = "absolute") -> AllocationRule:
    return AllocationRule(kind="mwud", gamma=gamma, comparison=comparison)


def best_response(tie_tolerance: float = 0.0,
                  tie_policy: str = "split_evenly") -> AllocationRule:
    return AllocationRule(kind="best_response", tie_tolerance=tie_tolerance,
                          tie_policy=tie_policy)
