"""Static equilibrium analysis.

The total risk minimized over learner parameters,

    F(alpha) = min_Theta  sum_ij beta_i alpha_ij R_i(theta_j),

is concave in alpha, so its minima over the product of row simplices sit on
vertices (split markets) or on faces where it is constant (balanced
configurations).  This module evaluates F and its gradient, classifies
candidate equilibria as split-market / balanced / neither, certifies
asymptotic stability of split markets by the strict no-switching
inequalities, and enumerates all surjective assignments as a brute-force
welfare oracle.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    BudgetError,
    EmptyLearnerError,
    NotOptimalError,
    SplitError,
)
from .learners import minimize_mixtures, mixture_gradients
from .model import (
    EMPTY_MASS_TOL,
    MONOTONE_TOL,
    Scenario,
    SystemState,
    require_number,
    validate_allocation,
    validate_state,
)

CLASSIFICATIONS = ("split_market", "balanced_candidate", "non_equilibrium")
STABILITIES = ("asymptotically_stable", "unstable", "possibly_stable_not_asymptotic")

# A split market is certified stable only when every no-switching inequality
# holds strictly by at least this much; floating-point ties count as unstable.
STRICT_MARGIN = 1e-9

# shares, risk spreads and gradient norms this small count as 0
ZERO_TOL = 1e-6

# Assignments the welfare oracle visits before raising BudgetError.
DEFAULT_BUDGET = int(2e7)

# Cells of one block of the oracle's streamed margins and optimum.
CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class SplitAssignment:
    """gamma_map[i] = the sole learner serving subpopulation i."""

    gamma_map: tuple

    def __post_init__(self):
        gamma_map = tuple(self.gamma_map)
        # int() would truncate 1.5 and take True as 1
        if not all(isinstance(j, numbers.Integral) and not isinstance(j, bool)
                   for j in gamma_map):
            raise ValueError(f"learner indices must be integers, got {gamma_map!r}")
        object.__setattr__(self, "gamma_map", tuple(map(int, gamma_map)))
        if self.gamma_map and min(self.gamma_map) < 0:
            raise ValueError("learner indices must be nonnegative")

    def _require_fits(self, m: int):
        if max(self.gamma_map, default=-1) >= m:
            raise ValueError(f"gamma map {self.gamma_map} has a learner index "
                             f">= m={m}")

    def groups(self, m: int):
        """Members per learner, as a list of index lists."""
        self._require_fits(m)
        out = [[] for _ in range(m)]
        for i, j in enumerate(self.gamma_map):
            out[j].append(i)
        return out

    def to_alpha(self, m: int) -> np.ndarray:
        self._require_fits(m)
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
        if self.welfare_gap is not None and self.welfare_gap < -MONOTONE_TOL:
            raise ValueError(
                f"welfare gap {self.welfare_gap} below {-MONOTONE_TOL}")

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


def _minimizers(alpha: np.ndarray, scenario: Scenario) -> tuple:
    """Per-learner minimizers of the observed mixtures; empty learners at 0."""
    beta = scenario.beta
    empty = beta @ alpha < EMPTY_MASS_TOL
    return minimize_mixtures(scenario, alpha * beta[:, None], hold=empty), empty


def _stability(margin, covered=True):
    """A split market's verdict, elementwise: "asymptotically_stable" where
    every learner serves someone and the no-switching margin exceeds
    STRICT_MARGIN, "unstable" elsewhere; a str for scalar input."""
    stable = np.greater(margin, STRICT_MARGIN)
    stable &= covered   # in place: no second array per CSV chunk
    verdict = np.where(stable, "asymptotically_stable", "unstable")
    return verdict if verdict.ndim else str(verdict)


def potential_value(alpha, scenario: Scenario) -> float:
    """F(alpha): total risk with every non-empty learner fully minimized."""
    alpha = validate_allocation(alpha, scenario.n, scenario.m)
    theta, empty = _minimizers(alpha, scenario)
    W = alpha[:, ~empty] * scenario.beta[:, None]
    return float((W * scenario.risk_matrix(theta[~empty])).sum())


def potential_gradient(alpha, scenario: Scenario) -> np.ndarray:
    """dF/dalpha_ij = beta_i R_i(theta*_j(alpha)); needs all learners non-empty."""
    alpha = validate_allocation(alpha, scenario.n, scenario.m)
    theta, empty = _minimizers(alpha, scenario)
    if empty.any():
        raise EmptyLearnerError(
            f"potential gradient undefined with empty learners {np.where(empty)[0]}"
        )
    return scenario.beta[:, None] * scenario.risk_matrix(theta)


def _split_margins(R, member, gid, rows, own=None):
    """No-switching margins (S,) of split assignments from per-group tables,
    R[g, i] = R_i(theta_g) and member[g, i] = (i in g), with gid (S, m) the
    groups by learner and rows (S, n) the learners by subpopulation: the least
    R_i(theta_j) - R_i(theta_rows[s, i]) over i and j != rows[s, i], +inf for
    m=1, CHUNK_CELLS cells at a time.  own (S, n) receives the own risks."""
    others = np.where(member, np.inf, R)   # no group is a rival to its own
    margins = np.empty(len(rows))
    i = np.arange(rows.shape[1])
    step = max(1, CHUNK_CELLS // rows.shape[1])
    for lo in range(0, len(rows), step):
        g = gid[lo:lo + step]
        mine = R[np.take_along_axis(g, rows[lo:lo + step], axis=1), i]
        if own is not None:
            own[lo:lo + step] = mine
        least = others[g[:, 0]]
        for j in range(1, g.shape[1]):
            np.minimum(least, others[g[:, j]], out=least)
        least -= mine
        margins[lo:lo + step] = least.min(axis=1)
    return margins


def _subpop_gradient_norms(scenario: Scenario, theta) -> np.ndarray:
    """Norms (n, k) of grad R_i(theta_j) for theta (k, d): one
    mixture_gradients call whose batch i weighs subpopulation i alone."""
    n, (k, d) = scenario.n, theta.shape
    W = np.broadcast_to(np.eye(n)[:, :, None], (n, n, k))
    G = mixture_gradients(scenario, W, np.broadcast_to(theta, (n, k, d)))
    return np.linalg.norm(G, axis=-1)


def classify_state(state: SystemState, scenario: Scenario,
                   oracle_budget: Optional[int] = None) -> EquilibriumReport:
    """Classify a candidate equilibrium and certify its stability.

    Requires Theta to minimize each non-empty learner's mixture risk
    (gradient norm <= ZERO_TOL), otherwise raises NotOptimalError.  A state whose
    allocation is 0/1 with every learner carrying mass is a split market,
    asymptotically stable (_stability) iff every learner serves someone and
    every no-switching inequality is strict beyond STRICT_MARGIN.  A state
    where some subpopulation spreads over several learners is a balanced
    candidate when the spread learners are risk equivalent; it is possibly
    stable (never asymptotically) when they are also optimal for that
    subpopulation, unstable otherwise.  Anything else is not an equilibrium.
    With oracle_budget, welfare_gap is measured against _welfare_optimum
    under _assignment_count's budget rule: None past the budget, and a
    ValueError for a budget that is not an integer >= 0.
    """
    validate_state(state, scenario)
    alpha, theta, beta = state.alpha, state.theta, scenario.beta
    masses = beta @ alpha

    live = np.flatnonzero(masses >= EMPTY_MASS_TOL)
    G = (mixture_gradients(scenario, alpha[:, live] * beta[:, None], theta[live])
         / masses[live, None])
    grad_norms = {int(j): float(np.linalg.norm(g)) for j, g in zip(live, G)}
    if max(grad_norms.values(), default=0.0) > ZERO_TOL:
        raise NotOptimalError(
            "learner parameters are not optimal for this allocation; "
            f"gradient norms {grad_norms}"
        )

    R = scenario.risk_matrix(theta)
    per_subpop = (alpha * R).sum(axis=1)
    total = float(beta @ per_subpop)
    gap = None
    if oracle_budget is not None:   # past the oracle's budget: unknown
        with contextlib.suppress(BudgetError):
            gap = total - _welfare_optimum(scenario, oracle_budget)
    details = {"learner_gradient_norms": grad_norms}
    report = functools.partial(EquilibriumReport, total_risk=total,
                               per_subpop_risks=per_subpop, welfare_gap=gap,
                               details=details)

    binary = np.all((alpha <= ZERO_TOL) | (alpha >= 1 - ZERO_TOL))
    if binary and np.all(masses >= EMPTY_MASS_TOL):
        gamma = alpha.argmax(axis=1)
        gamma_map = tuple(gamma.tolist())
        # a learner can carry mass above the empty floor yet serve nobody at
        # ZERO_TOL resolution; such uncovered learners rule out stability
        uncovered = sorted(set(range(scenario.m)) - set(gamma_map))
        if uncovered:
            details["uncovered_learners"] = uncovered
        j = np.arange(scenario.m)
        margin = float(_split_margins(R.T, gamma == j[:, None], j[None],
                                      gamma[None])[0])
        return report("split_market", _stability(margin, not uncovered),
                      margin=margin if scenario.m > 1 else None,
                      assignment=SplitAssignment(gamma_map))

    support = alpha > ZERO_TOL
    multi_rows = np.flatnonzero(support.sum(axis=1) >= 2)
    if multi_rows.size == 0:
        details["failed"] = ["empty_learner_or_degenerate_support"]
        return report("non_equilibrium", "unstable")
    norms = _subpop_gradient_norms(scenario, theta)
    spreads = {int(i): float(np.ptp(R[i, support[i]])) for i in multi_rows}
    opt_norms = {int(i): float(norms[i, support[i]].max()) for i in multi_rows}
    details.update(risk_spreads=spreads, subpop_gradient_norms=opt_norms)
    if max(spreads.values()) <= ZERO_TOL:
        optimal = max(opt_norms.values()) <= ZERO_TOL
        details["failed"] = [] if optimal else ["optimality"]
        return report("balanced_candidate", "possibly_stable_not_asymptotic"
                      if optimal else "unstable")
    details["failed"] = ["risk_equivalence"]
    return report("non_equilibrium", "unstable")


def _assignments(n: int, m: int, dedupe: bool, used: int = 0) -> np.ndarray:
    """Every surjective map of n subpopulations onto m learners as an (S, n)
    array in lexicographic order; with dedupe only the restricted growth
    strings (labels in first-occurrence order), one per relabeling.  With
    used, the rows continue a prefix that already holds labels 0..used-1."""
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(m - 1))
    seen = (np.arange(m) < used)[None]   # the labels each prefix uses
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
    gamma_map = assignment.gamma_map
    if len(gamma_map) != scenario.n or max(gamma_map) >= scenario.m:
        raise ValueError(f"gamma map {gamma_map} must have {scenario.n} "
                         f"learner indices in [0, {scenario.m})")
    return _minimizers(assignment.to_alpha(scenario.m), scenario)[0]


def _stirling2(n: int, m: int) -> int:
    """S(n, m): the canonical assignments a deduplicated enumeration visits."""
    return sum((-1) ** k * math.comb(m, k) * (m - k) ** n
               for k in range(m + 1)) // math.factorial(m)


def _assignment_count(n: int, m: int, dedupe: bool, budget: int) -> int:
    """The oracle's one budget rule: the assignments an enumeration visits,
    S(n, m) with dedupe and m**n without, checked against budget, an
    integer >= 0 (else ValueError); BudgetError when they exceed it."""
    count = _stirling2(n, m) if dedupe else m ** n
    if count > require_number(budget, "budget", 0, integer=True):
        raise BudgetError(count, budget)
    return count


def _group_table(scenario: Scenario, member) -> tuple:
    """Risks R[g, i] = R_i(theta_g) (G, n) and values (G,) of the groups
    with members member (G, n), each solved with weights beta_i on its
    members: the one place the oracle solves groups.  A value's bits
    depend on the layout of W = member * beta, since einsum's summation
    order follows it, and on the rows solved together, since the solve's
    products change path with the batch size.  So W is made C-ordered
    here, and callers that must agree bit for bit pass the same rows."""
    W = np.multiply(member, scenario.beta, order="C")
    R = np.ascontiguousarray(
        scenario.risk_matrix(minimize_mixtures(scenario, W.T)).T)
    return R, np.einsum("gi,gi->g", W, R)


def _mask_members(n: int):
    """Members (2**n - 1, n) of every group, numbered by its member mask:
    row mask - 1 holds group mask, subpopulation i at bit n-1-i.  The
    group table that _split_catalog and _welfare_optimum share."""
    bit = 1 << np.arange(n - 1, -1, -1)
    return np.arange(1, 2 ** n)[:, None] & bit > 0


def _split_catalog(scenario: Scenario, dedupe: bool, budget: int) -> tuple:
    """Assignments (S, n) in _assignments order, totals (S,), group ids
    (S, m), and per group g its _group_table risks R[g, i] and members
    member[g, i], under _assignment_count's budget rule.

    Each (assignment, learner) group is keyed by its member bitmask
    (subpopulation i at bit hi-1-i of word i // 64, which holds [lo, hi)).
    When 2**n is at most twice the keys, every mask 1 .. 2**n - 1 is a
    group (_mask_members), numbered mask - 1: the table rows are
    _welfare_optimum's value[mask] table.  Masks with more than n - m + 1
    members occur in no assignment yet are solved too (466 of 511 at
    n=9, m=8), so a custom risk whose solve fails on one of them makes
    this raise.  Otherwise only the distinct keys are groups, numbered in
    key order by sorting them.  A total sums its groups' values in label
    order from 0.0."""
    n, m = scenario.n, scenario.m
    _assignment_count(n, m, dedupe, budget)
    rows = _assignments(n, m, dedupe)
    i = np.arange(n)
    words = [slice(lo, min(lo + 64, n)) for lo in range(0, n, 64)]
    bit = 1 << (np.minimum(i | 63, n - 1) - i).astype(
        np.min_scalar_type(2 ** min(n, 64) - 1))
    keys = np.stack([np.einsum("si,i->s", rows[:, w] == j, bit[w])
                     for j in range(m) for w in words], axis=1).reshape(
        -1, len(words))   # s * m + j: learner j's group in assignment s
    if 2 ** n <= 2 * len(keys):   # one word: bit n-1-i
        member, gid = _mask_members(n), keys[:, 0] - 1
    else:
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        new = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
        gid = np.empty(len(keys), np.intp)
        gid[order] = np.cumsum(new) - 1
        member = np.take(keys[new], i // 64, axis=1) & bit > 0
    gid = gid.reshape(rows.shape[0], m)
    R, values = _group_table(scenario, member)

    totals = np.zeros(rows.shape[0])
    for j in range(m):
        totals += values[gid[:, j]]
    return rows, totals, gid, R, member


def _welfare_optimum(scenario: Scenario, budget: int) -> float:
    """The social-welfare optimum: the least total risk of any split
    assignment, bit for bit the least of _split_catalog's totals, under
    _assignment_count's budget rule.  Where 2**n is at most twice the
    catalog's S * m keys, the catalog's group table, the values of all
    2**n - 1 groups, is solved as value[mask] and the restricted growth
    strings are walked as blocks of prefixes (the first n - n // 2
    labels, u distinct) against the suffixes that complete u labels to m,
    CHUNK_CELLS totals at a time, each summed in label order from 0.0;
    elsewhere S(n, m) is small and the catalog is read."""
    n, m = scenario.n, scenario.m
    if 2 ** n > 2 * m * _assignment_count(n, m, True, budget):
        return float(_split_catalog(scenario, True, budget)[1].min())
    bit = 1 << np.arange(n - 1, -1, -1)   # subpopulation i at bit n-1-i
    value = np.r_[np.inf, _group_table(scenario, _mask_members(n))[1]]
    q = n // 2   # the suffix length
    best = np.inf
    for u in range(max(1, m - q), min(n - q, m) + 1):
        # member masks (rows, m) by label: the prefixes using u labels, and
        # the suffixes that complete them to m
        prefixes, suffixes = (
            np.stack([(rows == j) @ b for j in range(m)], axis=1)
            for rows, b in ((_assignments(n - q, u, True), bit[:n - q]),
                            (_assignments(q, m, True, u), bit[n - q:])))
        step = max(1, CHUNK_CELLS // len(suffixes))
        for block in np.split(prefixes, range(step, len(prefixes), step)):
            totals = np.zeros((len(block), len(suffixes)))
            for j in range(m):
                totals += value[block[:, j, None] | suffixes[:, j]]
            best = np.minimum(best, totals.min())
    return float(best)


def _split_ranking(scenario: Scenario, dedupe: bool, budget: int,
                   own: bool = False) -> tuple:
    """Assignments (S, n), totals and margins (+inf for one learner) of
    _split_catalog's rows, stably sorted by total, so that totals[0] is the
    welfare optimum, and with own their own risks (S, n), else None.  Its
    callers turn margins into verdicts with _stability, one chunk or one
    report list at a time."""
    rows, totals, gid, R, member = _split_catalog(scenario, dedupe, budget)
    order = np.argsort(totals, kind="stable")
    rows, gid = rows[order], gid[order]
    own = np.empty(rows.shape) if own else None
    return rows, totals[order], _split_margins(R, member, gid, rows, own), own


def enumerate_split_equilibria(scenario: Scenario, dedupe: bool = True,
                               budget: int = DEFAULT_BUDGET) -> list:
    """Evaluate every surjective assignment of subpopulations to learners.

    Non-surjective assignments are skipped: an empty learner can always adopt
    some subpopulation's optimum without increasing total risk, so surjective
    assignments dominate.  With dedupe, one representative per learner
    relabeling is kept.  The catalog's groups are solved in one _group_table
    call, and each report's margin and own risks are read from the
    per-group tables.  Reports come back sorted by total risk, exact ties in
    lexicographic assignment order; the first is the social-welfare optimum,
    and each welfare_gap is measured against it.  Each stability is
    _stability's verdict on the report's margin, as in classify_state.
    Under _assignment_count's budget rule, BudgetError is raised when the
    assignments to visit, S(n, m) with dedupe and m**n without, exceed
    budget, and ValueError when budget is not an integer >= 0.
    """
    rows, totals, margins, own = _split_ranking(scenario, dedupe, budget, True)
    totals = totals.tolist()
    return [EquilibriumReport(
                "split_market", stability, total, own_row,
                margin=margin if scenario.m > 1 else None,
                welfare_gap=total - totals[0],
                assignment=SplitAssignment(gamma_map))
            for gamma_map, total, stability, margin, own_row in zip(
                map(np.ndarray.tolist, rows), totals,
                _stability(margins).tolist(), margins.tolist(), own)]


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
    require_number(j, "j", 0, integer=True)
    if j >= scenario.m:
        raise ValueError(f"j must be < m={scenario.m}, got {j}")
    validate_state(state, scenario)
    half = state.alpha[:, j] / 2.0
    alpha = np.column_stack([state.alpha[:, :j], half,
                             state.alpha[:, j + 1:], half])
    theta = np.vstack([state.theta, state.theta[j]])
    new_scenario = replace(scenario, m=scenario.m + 1)
    return SystemState(alpha=alpha, theta=theta, t=state.t), new_scenario
