"""Sequential feedback loop between allocations and learner parameters.

Each time step first updates allocations against the current parameters,
then updates learner parameters against the new allocations:

    alpha^{t+1} = nu(alpha^t, Theta^t)
    Theta^{t+1} = mu(alpha^{t+1}, Theta^t)

Because both halves are risk reducing (neither raises a subpopulation's or
a learner's own risk), the total risk never increases; the engine checks
all three every step and aborts with a diagnostic naming the violation.
Component risks along a trajectory are recorded and are in general not
monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, MonotonicityError
from .learners import gradient_step, minimize_mixtures, step_size
from .model import (
    EMPTY_MASS_TOL,
    MONOTONE_TOL,
    Scenario,
    SystemState,
    _total_risk,
    learner_risk_vector,
    renormalize_rows,
    require_choice,
    require_number,
    subpop_risk_vector,
    total_risk,
    validate_state,
)

SCHEDULE_KINDS = (
    "all_sequential",
    "round_robin_subpops",
    "round_robin_learners",
    "custom_order",
)


@dataclass(frozen=True)
class UpdateSchedule:
    """Which subpopulations and learners update at each time step.

    all_sequential updates everyone every step.  The round-robin kinds cycle
    one index (subpopulation or learner) per step through ``order`` while the
    other side updates fully.  custom_order updates the fixed subsets
    ``subpops`` and ``learners`` every step; each index may appear at most
    once per step.
    """

    kind: str = "all_sequential"
    order: Optional[tuple] = None
    subpops: Optional[tuple] = None
    learners: Optional[tuple] = None

    def __post_init__(self):
        require_choice(self.kind, "kind", SCHEDULE_KINDS)
        for name in ("order", "subpops", "learners"):
            val = getattr(self, name)
            if val is not None:
                if not isinstance(val, (list, tuple)):
                    raise ValueError(f"{name} must be a list of integers, got {val!r}")
                val = tuple(int(require_number(i, f"{name}[{k}]", 0, integer=True))
                            for k, i in enumerate(val))
                if len(set(val)) != len(val):
                    raise ValueError(f"{name} repeats an index: {val}")
                object.__setattr__(self, name, val)


@dataclass(frozen=True)
class EquilibriumDetector:
    """Declare convergence after `window` consecutive steps with state deltas
    (max of infinity norms over alpha and Theta) at most state_tolerance."""

    state_tolerance: float = 1e-9
    window: int = 10

    def __post_init__(self):
        require_number(self.state_tolerance, "state_tolerance", 0, strict=True)
        require_number(self.window, "window", 1, integer=True)


@dataclass
class Trajectory:
    """Recorded run: states plus per-step risk summaries.

    learner_risks entries are NaN wherever the learner was empty at that
    step (empty_flags marks them).  converged_at is the first index of the
    quiet window found by the detector, or None.
    """

    states: list
    total_risks: np.ndarray
    subpop_risks: np.ndarray
    learner_risks: np.ndarray
    empty_flags: np.ndarray
    converged_at: Optional[int] = None
    frozen_learner_steps: int = 0

    @property
    def final_state(self) -> SystemState:
        return self.states[-1]


def _subpop_subset(schedule: Optional[UpdateSchedule], t: int, n: int):
    # an index selecting the rows of alpha that update at step t
    if schedule is None or schedule.kind == "all_sequential":
        return slice(None)  # all rows
    if schedule.kind == "round_robin_subpops":
        order = schedule.order or tuple(range(n))
        return [order[t % len(order)]]
    if schedule.kind == "round_robin_learners":
        return slice(None)
    return list(schedule.subpops or ())


def _learner_subset(schedule: Optional[UpdateSchedule], t: int, m: int):
    if schedule is None or schedule.kind == "all_sequential":
        return range(m)  # all columns
    if schedule.kind == "round_robin_learners":
        order = schedule.order or tuple(range(m))
        return (order[t % len(order)],)
    if schedule.kind == "round_robin_subpops":
        return range(m)
    return schedule.learners or ()


def _mwud_rows(alpha, R, gamma, comparison):
    # every row at once; tests/reference.py has the one-row mwud_step
    cost = gamma * R
    if comparison == "relative":
        mix = (alpha * R).sum(axis=-1)
        if np.any(mix <= 0):
            raise ValueError("relative comparison needs positive mixture risks")
        cost = cost / mix[..., None]
    support = alpha > 0.0
    shift = np.where(support, cost, np.inf).min(axis=-1)
    # arg <= 0 keeps exp finite, so an unsupported share stays exactly zero
    arg = np.minimum(shift[..., None] - cost, 0.0)
    weights = alpha * np.exp(arg)
    return weights / weights.sum(axis=-1, keepdims=True)


def _best_response_rows(alpha, R, tie_tolerance, tie_policy):
    # every row at once; tests/reference.py has the one-row best_response_step
    low = R.min(axis=-1, keepdims=True)
    avg = (alpha * R).sum(axis=-1, keepdims=True)
    tied = R <= np.minimum(low + tie_tolerance,
                           np.maximum(avg + MONOTONE_TOL, low))
    even = tied / tied.sum(axis=-1, keepdims=True)
    if tie_policy == "split_evenly":
        return even
    prev = np.where(tied, alpha, 0.0)
    mass = prev.sum(axis=-1, keepdims=True)
    # rows with no previous mass on the tied set fall back to the even split
    return np.where(mass > 0.0, prev / np.where(mass > 0.0, mass, 1.0), even)


def _update_alpha(alpha, R, scenario: Scenario, t: int):
    rule = scenario.subpop_rule
    rows = _subpop_subset(scenario.schedule, t, scenario.n)
    new = alpha.copy()
    a, r = alpha[..., rows, :], R[..., rows, :]
    if rule.kind == "mwud":
        new[..., rows, :] = _mwud_rows(a, r, rule.gamma, rule.comparison)
    else:
        new[..., rows, :] = _best_response_rows(a, r, rule.tie_tolerance,
                                                rule.tie_policy)
    return new


def _update_theta(alpha, theta, scenario: Scenario, t: int):
    """Returns (theta', frozen count, masses beta @ alpha) per trial; empty
    learners stay put."""
    rule = scenario.learner_rule
    indices = list(_learner_subset(scenario.schedule, t, scenario.m))
    scheduled = np.zeros(scenario.m, bool)
    scheduled[indices] = True
    masses = scenario.beta @ alpha
    updating = scheduled & (masses >= EMPTY_MASS_TOL)
    frozen = len(indices) - updating.sum(axis=-1)
    active = updating.ravel().nonzero()[0]   # rows of the flat arrays below
    if not active.size:
        return theta, frozen, masses
    new = theta.copy()
    flat = new.reshape(-1, scenario.d)   # a view: writes land in new
    cols = alpha.swapaxes(-1, -2).reshape(-1, scenario.n)[active]
    W = (cols * scenario.beta).T
    if rule.kind == "full_min":
        flat[active] = minimize_mixtures(scenario, W, rule.method,
                                         rule.tolerance, rule.max_iterations,
                                         start=flat[active])
        return new, frozen, masses
    gamma_t = step_size(t, rule.schedule)
    th = flat[active]
    if scenario._quad is not None:
        H, b = scenario.normal_equations(W)
        # the mixture gradient 2 (H_j theta_j - b_j) / mass_j, for all pairs
        scale = 2.0 * gamma_t / masses.reshape(-1)[active, None]
        for _ in range(rule.inner_steps):
            th = th - scale * ((H @ th[..., None])[..., 0] - b)
    else:
        for p, col in enumerate(cols):
            for _ in range(rule.inner_steps):
                th[p] = gradient_step(th[p], col, scenario.beta,
                                      scenario.risks, gamma_t)
    flat[active] = th
    return new, frozen, masses


def _core_step(alpha, theta, t, scenario, R, labels=None):
    """Advance K trials one step; R must be the risk matrices at theta.

    The gate: the total risk, each subpopulation's average risk at theta
    (allocation half) and each learner's mixture risk at alpha' (learner
    half) may rise by at most MONOTONE_TOL, checked in that order.  Returns
    (alpha', theta', R', total_after, frozen), the last two of shape (K,);
    R' is the risk matrices at theta' for reuse by the caller.
    """
    beta = scenario.beta
    rows_before = (alpha * R).sum(axis=-1)
    alpha2 = _update_alpha(alpha, R, scenario, t)
    theta2, frozen, masses = _update_theta(alpha2, theta, scenario, t)
    R2 = R if theta2 is theta else scenario.risk_matrix(theta2)
    P, Q = alpha2 * R, alpha2 * R2
    total_before, total_after = rows_before @ beta, Q.sum(axis=-1) @ beta
    rows_after = P.sum(axis=-1)
    gains = beta @ (Q - P)   # per learner: mass times mixture-risk change
    # each comparison is written so that a NaN trips it too
    ok = (total_after <= total_before + MONOTONE_TOL,
          rows_after <= rows_before + MONOTONE_TOL,
          gains <= MONOTONE_TOL * masses)
    if ok[0].all() and ok[1].all() and ok[2].all():
        return alpha2, theta2, R2, total_after, frozen
    h = next(h for h in range(3) if not ok[h].all())
    pos = tuple(np.argwhere(~ok[h])[0])   # (trial,) or (trial, index)
    before, after = ((total_before, total_after), (rows_before, rows_after),
                     (beta @ P, beta @ Q))[h]
    mass = masses[pos] if h == 2 else 1.0
    raise MonotonicityError(
        t, float(before[pos] / mass), float(after[pos] / mass), MONOTONE_TOL,
        None if labels is None else int(labels[pos[0]]),
        ("total", "allocation", "learner")[h], int(pos[1]) if h else None)


def _delta(alpha_a, theta_a, alpha_b, theta_b):
    """max(||alpha_a - alpha_b||_inf, ||Theta_a - Theta_b||_inf), one per
    leading index."""
    return np.maximum(np.abs(alpha_a - alpha_b).max(axis=(-2, -1)),
                      np.abs(theta_a - theta_b).max(axis=(-2, -1)))


def _steps(scenario: Scenario, alpha, theta, R, t: int, labels=None):
    """The step loop: endless sequential updates of K trials in lockstep
    from alpha (K, n, m), theta (K, m, d) and their risk matrices R at time
    t.  Yields (alpha, theta, R, total_risk, frozen, delta) after each step,
    with the step's total, frozen count and delta per trial.  labels names
    the trials in a MonotonicityError."""
    while True:
        alpha2, theta2, R2, total, frozen = _core_step(alpha, theta, t,
                                                       scenario, R, labels)
        alpha2 = renormalize_rows(alpha2)
        delta = _delta(alpha2, theta2, alpha, theta)
        alpha, theta, R, t = alpha2, theta2, R2, t + 1
        yield alpha, theta, R, total, frozen, delta


def step(state: SystemState, scenario: Scenario) -> SystemState:
    """One sequential update: allocations first, then learner parameters."""
    validate_state(state, scenario)
    theta = state.theta[None]
    alpha, theta, *_ = next(_steps(scenario, state.alpha[None], theta,
                                   scenario.risk_matrix(theta), state.t))
    return SystemState(alpha=alpha[0], theta=theta[0], t=state.t + 1)


def _watched_steps(scenario: Scenario, alpha, theta, R, t: int,
                   detector: EquilibriumDetector):
    """_steps for one trial (alpha (n, m), theta (m, d)) under the detector's
    quiet-window rule: yields (alpha, theta, R, total, frozen, fired), fired
    on a step that completes a window; the count then starts afresh."""
    quiet = 0
    for alpha, theta, R, total, frozen, delta in _steps(
            scenario, alpha[None], theta[None], R[None], t):
        quiet = quiet + 1 if delta[0] <= detector.state_tolerance else 0
        fired = quiet == detector.window
        yield alpha[0], theta[0], R[0], total[0], int(frozen[0]), fired
        if fired:
            quiet = 0


def simulate(scenario: Scenario, initial_state: SystemState, max_steps: int,
             detector: Optional[EquilibriumDetector] = None) -> Trajectory:
    """Run up to max_steps updates, stopping early once the detector fires."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if detector is None:
        detector = EquilibriumDetector()
    validate_state(initial_state, scenario)
    beta = scenario.beta
    alpha = np.asarray(initial_state.alpha, dtype=float)
    theta = np.asarray(initial_state.theta, dtype=float)
    t0 = initial_state.t
    R = scenario.risk_matrix(theta)

    states = [SystemState(alpha=alpha, theta=theta, t=t0)]
    totals = [_total_risk(alpha, R, beta)]
    sub = [subpop_risk_vector(alpha, R)]
    lr, emp = learner_risk_vector(alpha, beta, R)
    learner = [lr]
    empties = [emp]
    frozen_total = 0
    converged_at = None

    steps = _watched_steps(scenario, alpha, theta, R, t0, detector)
    for k, (alpha, theta, R, total, frozen, fired) in zip(range(max_steps),
                                                          steps):
        frozen_total += frozen
        states.append(SystemState(alpha=alpha, theta=theta, t=t0 + k + 1))
        totals.append(total)
        sub.append(subpop_risk_vector(alpha, R))
        lr, emp = learner_risk_vector(alpha, beta, R)
        learner.append(lr)
        empties.append(emp)
        if fired:
            converged_at = k - detector.window + 1
            break

    return Trajectory(
        states=states,
        total_risks=np.array(totals),
        subpop_risks=np.array(sub),
        learner_risks=np.array(learner),
        empty_flags=np.array(empties),
        converged_at=converged_at,
        frozen_learner_steps=frozen_total,
    )


def perturb(state: SystemState, sigma: float, seed, target: str = "both") -> SystemState:
    """Seeded Gaussian perturbation of the targeted state components.

    Allocation rows receive noise magnitudes (|N(0, sigma)|), then are clipped
    and renormalized: magnitudes keep every share strictly positive, which the
    multiplicative dynamics need since they cannot revive an exactly-zero
    share.  Parameters receive signed Gaussian noise.  Deterministic in seed.
    """
    require_number(sigma, "sigma", 0)
    if target not in ("theta_only", "alpha_only", "both"):
        raise ValueError(f"unknown perturbation target {target!r}")
    if sigma == 0:
        return state
    rng = np.random.default_rng(seed)
    alpha = state.alpha
    theta = state.theta
    if target in ("alpha_only", "both"):
        noise = sigma * np.abs(rng.standard_normal(alpha.shape))
        alpha = renormalize_rows(alpha + noise)
    if target in ("theta_only", "both"):
        theta = theta + sigma * rng.standard_normal(theta.shape)
    return SystemState(alpha=alpha, theta=theta, t=state.t)


def _perfect_matching(prefs, allowed) -> bool:
    """Kuhn's augmenting paths: can each row j take a distinct column among
    the first allowed[j] of prefs[j]?"""
    owner = {}   # column -> the row holding it

    def augment(j, seen):
        for k in prefs[j][:allowed[j]]:
            if k not in seen:
                seen.add(k)
                if k not in owner or augment(owner[k], seen):
                    owner[k] = j
                    return True
        return False

    # a row that cannot augment stays unmatched, so stop at the first
    return all(augment(j, set()) for j in range(len(prefs)))


def state_distance_upto_permutation(a: SystemState, b: SystemState) -> float:
    """State delta minimized over learner column relabelings, exactly.

    The minimum over relabelings of the largest per-column distance is a
    bottleneck assignment: bisect over the distinct column-pair distances
    for the smallest one whose thresholded graph has a perfect matching.
    States with different shapes have no relabeling: DimensionError.
    """
    if a.alpha.shape != b.alpha.shape or a.theta.shape != b.theta.shape:
        raise DimensionError(
            f"states differ in shape: alpha {a.alpha.shape} against "
            f"{b.alpha.shape}, theta {a.theta.shape} against {b.theta.shape}")
    # cost[j, k]: distance when column j of a is relabeled as column k of b
    cost = np.maximum(
        np.abs(a.alpha[:, :, None] - b.alpha[:, None, :]).max(axis=0),
        np.abs(a.theta[:, None, :] - b.theta[None, :, :]).max(axis=2))
    prefs = np.argsort(cost, axis=1).tolist()   # cheapest columns first
    levels = np.unique(cost)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching(prefs, (cost <= levels[mid]).sum(axis=1).tolist()):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def _probe_batch(scenario, eq_state, sigma, trials, seed, target="both",
                 max_steps=6000, return_tol=1e-4):
    """Run a probe's trials as one batch; returns one record per trial."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    eq_risk = total_risk(eq_state, scenario)   # validates eq_state too
    escape_tol = 1e-9 * max(1.0, abs(eq_risk))
    starts = [perturb(eq_state, sigma, [seed, k], target) for k in range(trials)]
    alpha = np.stack([s.alpha for s in starts])
    theta = np.stack([s.theta for s in starts])
    R = scenario.risk_matrix(theta)
    steps, escaped_at = np.zeros((2, trials), int)   # escaped_at 0: never
    distance = np.full(trials, np.nan)
    live, escaped, t = np.arange(trials), np.zeros(trials, bool), 0
    while live.size:   # each pass drops the trials that finished
        for alpha, theta, R, total, _, delta in _steps(
                scenario, alpha, theta, R, t, labels=live):
            t += 1
            # Total risk is monotone, so dropping below the equilibrium level
            # is irreversible: the run can never return once clearly below it.
            escaped |= total < eq_risk - escape_tol
            done = (delta <= 1e-13) | (t >= max_steps)
            for i in np.flatnonzero(done | escaped):
                k = live[i]
                if escaped[i] and not escaped_at[k]:
                    escaped_at[k] = t
                distance[k] = state_distance_upto_permutation(
                    SystemState(alpha[i], theta[i], 0), eq_state)
                done[i] |= distance[k] > return_tol
            if done.any():
                steps[live[done]] = t
                live, escaped, alpha, theta, R = (
                    x[~done] for x in (live, escaped, alpha, theta, R))
                break
    return [{"returned": bool(distance[k] <= return_tol), "steps": int(steps[k]),
             "escaped_at": int(escaped_at[k]) or None,
             "distance": float(distance[k])} for k in range(trials)]


def empirical_stability_probe(scenario: Scenario, eq_state: SystemState,
                              sigma: float, trials: int, seed: int,
                              target: str = "both", max_steps: int = 6000,
                              return_tol: float = 1e-4) -> float:
    """Perturb-and-resimulate: fraction of trials re-converging to eq_state.

    Trial k perturbs eq_state from the seed stream [seed, k].  The trials
    step as one batch, so a probe costs as many steps as its longest trial.
    A trial stops when its state stops moving (delta <= 1e-13), once its
    total risk is below the equilibrium's and it is farther than return_tol,
    or at max_steps.  It has returned if it ends within return_tol of the
    equilibrium, compared up to learner permutation.
    """
    records = _probe_batch(scenario, eq_state, sigma, trials, seed, target,
                           max_steps, return_tol)
    return sum(r["returned"] for r in records) / trials
