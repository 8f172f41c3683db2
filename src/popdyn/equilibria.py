"""Static equilibrium analysis.

The total risk minimized over learner parameters,

    F(alpha) = min_Theta  sum_ij beta_i alpha_ij R_i(theta_j),

is concave in alpha, so its minima over the product of row simplices sit on
vertices (split markets) or on faces where it is constant (balanced
configurations).  This module evaluates F and its gradient, classifies
candidate equilibria as split-market / balanced / neither, certifies
asymptotic stability of split markets by the strict no-switching
inequalities, cross-checks the convex-hull separation condition, and
enumerates all surjective assignments as a brute-force welfare oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    BudgetError,
    EmptyLearnerError,
    NotOptimalError,
    PopdynError,
    SplitError,
)
from .learners import learner_gradient, minimize_mixtures
from .model import (
    EMPTY_MASS_TOL,
    Scenario,
    SystemState,
    risk_gradient,
    subpop_risk_vector,
    validate_allocation,
    validate_state,
)

CLASSIFICATIONS = ("split_market", "balanced_candidate", "non_equilibrium")
STABILITIES = ("asymptotically_stable", "unstable", "possibly_stable_not_asymptotic")

# A split market is certified stable only when every no-switching inequality
# holds strictly by at least this much; floating-point ties count as unstable.
STRICT_MARGIN = 1e-9


@dataclass(frozen=True)
class SplitAssignment:
    """gamma_map[i] = the sole learner serving subpopulation i."""

    gamma_map: tuple

    def __post_init__(self):
        object.__setattr__(self, "gamma_map", tuple(map(int, self.gamma_map)))
        if self.gamma_map and min(self.gamma_map) < 0:
            raise ValueError("learner indices must be nonnegative")

    def groups(self, m: int):
        """Members per learner, as a list of index lists."""
        out = [[] for _ in range(m)]
        for i, j in enumerate(self.gamma_map):
            out[j].append(i)
        return out

    def is_surjective(self, m: int) -> bool:
        return len(set(self.gamma_map)) == m and max(self.gamma_map) < m

    def to_alpha(self, m: int) -> np.ndarray:
        alpha = np.zeros((len(self.gamma_map), m))
        alpha[np.arange(len(self.gamma_map)), list(self.gamma_map)] = 1.0
        return alpha


@dataclass
class EquilibriumReport:
    """Classification plus stability certificate for one candidate state."""

    classification: str
    stability: str
    total_risk: float
    per_subpop_risks: np.ndarray
    margin: Optional[float] = None
    welfare_gap: Optional[float] = None
    assignment: Optional[SplitAssignment] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")
        if self.stability not in STABILITIES:
            raise ValueError(f"unknown stability {self.stability!r}")
        if (self.stability == "asymptotically_stable"
                and self.classification != "split_market"):
            raise ValueError("only split markets can be asymptotically stable")
        if self.welfare_gap is not None and self.welfare_gap < -1e-8:
            raise ValueError(f"welfare gap {self.welfare_gap} below -1e-8")

    def to_dict(self) -> dict:
        return {
            "classification": self.classification,
            "stability": self.stability,
            "total_risk": self.total_risk,
            "per_subpop_risks": [float(x) for x in self.per_subpop_risks],
            "margin": self.margin,
            "welfare_gap": self.welfare_gap,
            "assignment": (list(self.assignment.gamma_map)
                           if self.assignment is not None else None),
            "details": self.details,
        }


def _minimizers(alpha: np.ndarray, beta: np.ndarray, scenario: Scenario) -> tuple:
    """Per-learner minimizers of the observed mixtures; empty learners flagged."""
    W = alpha * beta[:, None]
    empty = W.sum(axis=0) < EMPTY_MASS_TOL
    theta = np.zeros((alpha.shape[1], scenario.d))
    theta[~empty] = minimize_mixtures(scenario, W[:, ~empty])
    return theta, empty


def potential_value(alpha, scenario: Scenario) -> float:
    """F(alpha): total risk with every non-empty learner fully minimized."""
    alpha = validate_allocation(alpha, scenario.n, scenario.m)
    theta, empty = _minimizers(alpha, scenario.beta, scenario)
    W = alpha[:, ~empty] * scenario.beta[:, None]
    return float((W * scenario.risk_matrix(theta[~empty])).sum())


def _potential_gradient_raw(alpha, beta, scenario: Scenario) -> np.ndarray:
    """Gradient entries beta_i * R_i(theta*_j(alpha)); beta need not sum to 1."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    theta, empty = _minimizers(alpha, beta, scenario)
    if empty.any():
        raise EmptyLearnerError(
            f"potential gradient undefined with empty learners {np.where(empty)[0]}"
        )
    return beta[:, None] * scenario.risk_matrix(theta)


def potential_gradient(alpha, scenario: Scenario) -> np.ndarray:
    """dF/dalpha_ij = beta_i R_i(theta*_j(alpha)); needs all learners non-empty."""
    alpha = validate_allocation(alpha, scenario.n, scenario.m)
    return _potential_gradient_raw(alpha, scenario.beta, scenario)


def split_certificate(R: np.ndarray, gamma_map) -> Optional[float]:
    """Smallest slack min_{i, j != gamma(i)} R_i(theta_j) - R_i(theta_gamma(i)).

    Positive margin means every subpopulation strictly prefers its own
    learner.  None when there is a single learner (no comparisons exist).
    """
    if R.shape[1] == 1:
        return None
    return float(_split_margins(R.T, np.asarray(gamma_map))[1])


def _split_margins(columns, gamma):
    """Own risks (..., n) and no-switching margins (...) of split
    assignments: columns[j] holds R_i(theta_j) and gamma the serving learner
    of each subpopulation, both of shape (..., n).  One learner gives +inf."""
    own = np.full(gamma.shape, np.nan)
    others = np.full(gamma.shape, np.inf)
    for j, col in enumerate(columns):
        mine = gamma == j
        np.copyto(own, col, where=mine)
        np.minimum(others, col, out=others, where=~mine)
    others -= own
    return own, others.min(axis=-1)


def classify_state(state: SystemState, scenario: Scenario,
                   zero_tol: float = 1e-6,
                   strict_margin: float = STRICT_MARGIN,
                   oracle_budget: Optional[int] = None) -> EquilibriumReport:
    """Classify a candidate equilibrium and certify its stability.

    Requires Theta to minimize each non-empty learner's mixture risk
    (gradient norm <= 1e-6), otherwise raises NotOptimalError.  A state whose
    allocation is 0/1 with every learner serving someone is a split market,
    asymptotically stable iff every no-switching inequality is strict beyond
    strict_margin.  A state where some subpopulation spreads over several
    learners is a balanced candidate when the spread learners are risk
    equivalent; it is possibly stable (never asymptotically) when they are
    also optimal for that subpopulation, unstable otherwise.  Anything else
    is not an equilibrium.
    """
    validate_state(state, scenario)
    alpha, theta = state.alpha, state.theta
    beta, risks = scenario.beta, scenario.risks
    masses = beta @ alpha

    grad_norms = {}
    for j in range(scenario.m):
        if masses[j] < EMPTY_MASS_TOL:
            continue
        g = learner_gradient(theta[j], alpha[:, j], beta, risks)
        grad_norms[j] = float(np.linalg.norm(g))
    worst = max(grad_norms.values(), default=0.0)
    if worst > 1e-6:
        raise NotOptimalError(
            "learner parameters are not optimal for this allocation; "
            f"gradient norms {grad_norms}"
        )

    R = scenario.risk_matrix(theta)
    per_subpop = subpop_risk_vector(alpha, R)
    total = float(beta @ per_subpop)

    gap = None
    if (oracle_budget is not None
            and _stirling2(scenario.n, scenario.m) <= oracle_budget):
        reports = enumerate_split_equilibria(scenario, dedupe=True,
                                             budget=oracle_budget)
        gap = total - reports[0].total_risk

    binary = np.all((alpha <= zero_tol) | (alpha >= 1 - zero_tol))
    if binary and np.all(masses >= EMPTY_MASS_TOL):
        gamma_map = tuple(int(j) for j in alpha.argmax(axis=1))
        # a learner can carry mass above the empty floor yet serve nobody at
        # zero_tol resolution; such uncovered learners rule out stability
        uncovered = sorted(set(range(scenario.m)) - set(gamma_map))
        margin = split_certificate(R, gamma_map)
        stable = not uncovered and (margin is None or margin > strict_margin)
        details = {"learner_gradient_norms": grad_norms}
        if uncovered:
            details["uncovered_learners"] = uncovered
        return EquilibriumReport(
            classification="split_market",
            stability="asymptotically_stable" if stable else "unstable",
            total_risk=total, per_subpop_risks=per_subpop, margin=margin,
            welfare_gap=gap, assignment=SplitAssignment(gamma_map),
            details=details,
        )

    support = alpha > zero_tol
    multi_rows = np.where(support.sum(axis=1) >= 2)[0]
    if multi_rows.size > 0:
        spreads = {}
        opt_norms = {}
        for i in multi_rows:
            J = np.where(support[i])[0]
            spreads[int(i)] = float(R[i, J].max() - R[i, J].min())
            opt_norms[int(i)] = max(
                float(np.linalg.norm(risk_gradient(risks[i], theta[j])))
                for j in J
            )
        risk_equivalent = max(spreads.values()) <= zero_tol
        optimal = max(opt_norms.values()) <= zero_tol
        details = {
            "risk_spreads": spreads,
            "subpop_gradient_norms": opt_norms,
            "learner_gradient_norms": grad_norms,
        }
        if risk_equivalent:
            return EquilibriumReport(
                classification="balanced_candidate",
                stability=("possibly_stable_not_asymptotic" if optimal
                           else "unstable"),
                total_risk=total, per_subpop_risks=per_subpop,
                welfare_gap=gap,
                details={**details,
                         "failed": [] if optimal else ["optimality"]},
            )
        return EquilibriumReport(
            classification="non_equilibrium", stability="unstable",
            total_risk=total, per_subpop_risks=per_subpop, welfare_gap=gap,
            details={**details, "failed": ["risk_equivalence"]},
        )

    return EquilibriumReport(
        classification="non_equilibrium", stability="unstable",
        total_risk=total, per_subpop_risks=per_subpop, welfare_gap=gap,
        details={"learner_gradient_norms": grad_norms,
                 "failed": ["empty_learner_or_degenerate_support"]},
    )


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


def _hulls_intersect(X: np.ndarray, Y: np.ndarray) -> bool:
    """Linear feasibility: is some point a convex combination of both sets?"""
    from scipy.optimize import linprog

    kx, d = X.shape
    ky = Y.shape[0]
    # variables [lambda, mu]; constraints: X^T lambda - Y^T mu = 0,
    # sum lambda = 1, sum mu = 1, lambda, mu >= 0
    A_eq = np.zeros((d + 2, kx + ky))
    A_eq[:d, :kx] = X.T
    A_eq[:d, kx:] = -Y.T
    A_eq[d, :kx] = 1.0
    A_eq[d + 1, kx:] = 1.0
    b_eq = np.concatenate([np.zeros(d), [1.0, 1.0]])
    res = linprog(c=np.zeros(kx + ky), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * (kx + ky), method="highs")
    return res.status == 0


def convex_hulls_disjoint(partition: SplitAssignment, centers) -> bool:
    """Pairwise over learner groups: are the hulls of their subpopulation
    optima non-intersecting?  Necessary for stability under symmetric risks."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim == 1:
        centers = centers[:, None]
    m = max(partition.gamma_map) + 1
    groups = [g for g in partition.groups(m) if g]
    for a, b in itertools.combinations(range(len(groups)), 2):
        if _hulls_intersect(centers[groups[a]], centers[groups[b]]):
            return False
    return True


def _assignments(n: int, m: int, dedupe: bool) -> np.ndarray:
    """Every surjective map of n subpopulations onto m learners as an (S, n)
    array in lexicographic order; with dedupe only the restricted growth
    strings (labels in first-occurrence order), one per relabeling."""
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(m - 1))
    seen = np.zeros((1, m), dtype=bool)   # the labels each prefix uses
    for k in range(n):
        parent = np.repeat(np.arange(len(rows)), m)
        label = np.tile(np.arange(m, dtype=rows.dtype), len(rows))
        used = seen.sum(axis=1)[parent]
        labels_after = used + ~seen[parent, label]
        # the rest of the row must still be able to reach all m labels
        keep = labels_after + (n - k - 1) >= m
        if dedupe:
            keep &= label <= used   # a new label is the next unused one
        parent, label = parent[keep], label[keep]
        rows = np.column_stack([rows[parent], label])
        seen = seen[parent]
        seen[np.arange(len(label)), label] = True
    return rows


def theta_for_assignment(assignment: SplitAssignment,
                         scenario: Scenario) -> np.ndarray:
    """Per-group weighted minimizers for a split assignment."""
    return _minimizers(assignment.to_alpha(scenario.m), scenario.beta,
                       scenario)[0]


def _stirling2(n: int, m: int) -> int:
    """S(n, m): the canonical assignments a deduplicated enumeration visits."""
    return sum((-1) ** k * math.comb(m, k) * (m - k) ** n
               for k in range(m + 1)) // math.factorial(m)


def enumerate_split_equilibria(scenario: Scenario, dedupe: bool = True,
                               budget: int = int(2e7)) -> list:
    """Evaluate every surjective assignment of subpopulations to learners.

    Non-surjective assignments are skipped: an empty learner can always adopt
    some subpopulation's optimum without increasing total risk, so surjective
    assignments dominate.  With dedupe, one representative per learner
    relabeling is kept.  All distinct groups go to one minimize_mixtures call.
    Reports come back sorted by total risk, exact ties in lexicographic
    assignment order; the first is the social-welfare optimum, and each
    welfare_gap is measured against it.  BudgetError is raised when the
    assignments to visit, S(n, m) with dedupe and m**n without, exceed budget.
    """
    n, m = scenario.n, scenario.m
    required = _stirling2(n, m) if dedupe else m ** n
    if required > budget:
        raise BudgetError(required, budget)

    rows = _assignments(n, m, dedupe)
    # total risk decomposes over groups: key each (assignment, learner)
    # group by its member bitmask and solve every distinct group once
    keys = np.stack([np.packbits(rows == j, axis=1) for j in range(m)], axis=1)
    keys = keys.view(f"V{keys.shape[2]}")[..., 0]
    groups, gid = np.unique(keys, return_inverse=True)
    gid = gid.reshape(rows.shape[0], m)
    W = np.unpackbits(groups.view(np.uint8).reshape(len(groups), -1),
                      axis=1, count=n) * scenario.beta
    thetas = minimize_mixtures(scenario, W.T)
    R = np.ascontiguousarray(scenario.risk_matrix(thetas).T)   # R[g, i]
    values = np.einsum("gi,gi->g", W, R)

    totals = np.zeros(rows.shape[0])
    for j in range(m):
        totals += values[gid[:, j]]
    own, margins = _split_margins((R[gid[:, j]] for j in range(m)), rows)
    del gid, R

    # reports are built 4096 at a time so that no list of all S rows exists
    # beside them; each report's own risks are a row view of `own`
    order = np.argsort(totals, kind="stable")
    gaps = totals - totals[order[0]]
    reports = []
    for start in range(0, len(order), 4096):
        idx = order[start:start + 4096]
        reports += [
            EquilibriumReport(
                classification="split_market",
                stability=("asymptotically_stable" if margin > STRICT_MARGIN
                           else "unstable"),
                total_risk=total, per_subpop_risks=own[s],
                margin=margin if m > 1 else None, welfare_gap=gap,
                assignment=SplitAssignment(gamma_map),
            )
            for s, total, margin, gap, gamma_map in zip(
                idx.tolist(), totals[idx].tolist(), margins[idx].tolist(),
                gaps[idx].tolist(), rows[idx].tolist())
        ]
    return reports


def welfare_gap(report_list: list, fixed_point_total_risk: float) -> float:
    """Fixed-point total risk minus the enumerated optimum (>= -1e-8)."""
    if not report_list:
        raise ValueError("empty report list")
    optimum = min(r.total_risk for r in report_list)
    gap = fixed_point_total_risk - optimum
    if gap < -1e-8:
        # the oracle lower-bounds every feasible state, so this is a bug
        raise PopdynError(f"welfare gap {gap} below -1e-8")
    return gap


def split_learner(state: SystemState, scenario: Scenario, j: int):
    """Duplicate learner j with half its user base appended as learner m.

    The result is an equilibrium by construction (identical twins share the
    load), with identical total risk; it is unstable whenever some
    subpopulation served by j is away from its own optimum.
    """
    if scenario.m >= scenario.n:
        raise SplitError(
            f"cannot split: already {scenario.m} learners for {scenario.n} "
            "subpopulations"
        )
    if not (0 <= j < scenario.m):
        raise ValueError(f"learner index {j} out of range")
    validate_state(state, scenario)
    half = state.alpha[:, j] / 2.0
    alpha = np.column_stack([state.alpha[:, :j], half,
                             state.alpha[:, j + 1:], half])
    theta = np.vstack([state.theta, state.theta[j]])
    new_scenario = replace(scenario, m=scenario.m + 1)
    return SystemState(alpha=alpha, theta=theta, t=state.t), new_scenario
