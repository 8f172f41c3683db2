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

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equilibria import ZERO_TOL, _subpop_gradient_norms, split_learner
from .errors import DimensionError, MonotonicityError
from .learners import minimize_mixtures, mixture_gradients, step_size
from .model import (
    EMPTY_MASS_TOL,
    MONOTONE_TOL,
    Scenario,
    SystemState,
    require_choice,
    require_number,
    total_risk,
    validate_state,
)

PERTURB_TARGETS = ("theta_only", "alpha_only", "both")


@dataclass(frozen=True)
class EquilibriumDetector:
    """Declare convergence after `window` consecutive steps with state deltas
    (max of infinity norms over alpha and Theta) at most state_tolerance,
    ending at a stationary state: one where no positive share alpha_ij has
    R_ij < sum_k alpha_ik R_ik - MONOTONE_TOL.  A window that ends anywhere
    else, a slow pass by a saddle, starts a fresh one."""

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
    quiet window on which the detector fired, the run's last, or None.
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


def _mwud_rows(alpha, R, gamma, comparison):
    # every row at once; tests/reference.py has the one-row mwud_step
    cost = gamma * R   # a fresh buffer, worked on in place below
    if comparison == "relative":
        mix = np.add.reduce(alpha * R, axis=-1)
        if np.any(mix <= 0):
            raise ValueError("relative comparison needs positive mixture risks")
        cost /= mix[..., None]
    shift = np.minimum.reduce(cost, axis=-1, where=alpha > 0.0, initial=np.inf)
    # arg <= 0 keeps exp finite, so an unsupported share stays exactly zero
    np.minimum(np.subtract(shift[..., None], cost, out=cost), 0.0, out=cost)
    np.exp(cost, out=cost)
    cost *= alpha
    cost /= np.add.reduce(cost, axis=-1, keepdims=True)
    return cost


def _best_response_rows(alpha, R, tie_tolerance, tie_policy):
    # every row at once; tests/reference.py has the one-row best_response_step
    low = np.minimum.reduce(R, axis=-1, keepdims=True)
    avg = np.add.reduce(alpha * R, axis=-1, keepdims=True)
    tied = R <= np.minimum(low + tie_tolerance,
                           np.maximum(avg + MONOTONE_TOL, low))
    even = tied / np.add.reduce(tied, axis=-1, keepdims=True)
    if tie_policy == "split_evenly":
        return even
    prev = np.where(tied, alpha, 0.0)
    mass = np.add.reduce(prev, axis=-1, keepdims=True)
    # rows with no previous mass on the tied set fall back to the even split
    return np.where(mass > 0.0, prev / np.where(mass > 0.0, mass, 1.0), even)


def _update_alpha(alpha, R, scenario: Scenario, t: int):
    rule = scenario.subpop_rule
    rows = scenario._cycle[t % len(scenario._cycle)][0]
    every = isinstance(rows, slice)   # a slice: every row updates
    a, r = (alpha, R) if every else (alpha[..., rows, :], R[..., rows, :])
    if rule.kind == "mwud":
        out = _mwud_rows(a, r, rule.gamma, rule.comparison)
    else:
        out = _best_response_rows(a, r, rule.tie_tolerance, rule.tie_policy)
    if every:
        return out   # the rules return a fresh array
    new = alpha.copy()
    new[..., rows, :] = out
    return new


def _update_theta(alpha, theta, scenario: Scenario, t: int):
    """Returns (theta', frozen count, masses beta @ alpha) per trial, for
    alpha (..., n, m) and theta (..., m, d).

    One kernel call on the whole batch, with weights W = beta_i alpha_ij,
    updates every (trial, learner) pair but the held ones: those whose
    learner the schedule skips at step t or is empty (mass below
    EMPTY_MASS_TOL).  A held pair keeps its theta exactly: full_min holds
    it inside the kernel and a gradient step moves it by zero.  No pair's
    arithmetic depends on another's, so a trial's update is the same in any
    batch.  With no pair updating, theta itself is returned."""
    rule = scenario.learner_rule
    _, scheduled, count = scenario._cycle[t % len(scenario._cycle)]
    masses = scenario.beta @ alpha
    updating = scheduled & (masses >= EMPTY_MASS_TOL)
    frozen = count - np.add.reduce(updating, axis=-1)
    hold = None if np.logical_and.reduce(updating, axis=None) else ~updating
    if hold is not None and np.logical_and.reduce(hold, axis=None):
        return theta, frozen, masses
    W = alpha * scenario.beta[:, None]
    if rule.kind == "full_min":
        return (minimize_mixtures(scenario, W, rule.tolerance, rule.max_iterations,
                                  start=theta, hold=hold), frozen, masses)
    # each step moves down the mass-normalized gradient; a held pair's step is 0
    gamma = step_size(t, rule)
    scale = (gamma / masses if hold is None else np.divide(
        gamma, masses, out=np.zeros_like(masses), where=updating))[..., None]
    for _ in range(rule.inner_steps):
        theta = theta - scale * mixture_gradients(scenario, W, theta)
    return theta, frozen, masses


def _beta_sums(rows, beta):
    """rows @ beta per trial, each a (1, n) @ (n,) product of its own: one
    (K, n) @ (n,) product can differ from a trial's own in the last bit."""
    return (rows[..., None, :] @ beta)[..., 0]


# the start or one step of K trials as the gate checks it, each field
# batched over them
StepRecord = namedtuple("StepRecord",
                        "alpha theta R Q rows total masses frozen")


def _core_step(prev, t, scenario, labels=None):
    """Advance K trials one step from prev, the StepRecord of their state:
    the gate's baseline is its risk matrices R = R(theta), its sums rows =
    (alpha * R).sum(-1) and their _beta_sums total.

    The gate: the total risk, each subpopulation's average risk at theta
    (allocation half) and each learner's mixture risk at alpha' (learner
    half) may rise by at most MONOTONE_TOL, checked in that order on every
    step.  Returns the StepRecord: R' = R(theta'), Q = alpha' * R' and its
    sums that the gate compared, the next step's baseline, and per trial
    beta @ alpha' and the frozen count.  When the learner update leaves
    every bit of theta unchanged, R' is R itself and Q is P = alpha' * R.
    """
    beta, theta, R = scenario.beta, prev.theta, prev.R
    alpha2 = _update_alpha(prev.alpha, R, scenario, t)
    theta2, frozen, masses = _update_theta(alpha2, theta, scenario, t)
    P = alpha2 * R
    rows_after = np.add.reduce(P, axis=-1)
    # bytes, not ==: -0.0 == +0.0 holds and NaN == NaN does not
    if theta2 is theta or theta2.tobytes() == theta.tobytes():
        R2, Q, rows = R, P, rows_after
    else:
        R2 = scenario.risk_matrix(theta2)
        Q = alpha2 * R2
        rows = np.add.reduce(Q, axis=-1)
    total_after = _beta_sums(rows, beta)
    gains = beta @ (Q - P)   # per learner: mass times mixture-risk change
    # each comparison is written so that a NaN trips it too
    ok = (total_after <= prev.total + MONOTONE_TOL,
          rows_after <= prev.rows + MONOTONE_TOL,
          gains <= MONOTONE_TOL * masses)
    if all(np.logical_and.reduce(c, axis=None) for c in ok):
        return StepRecord(alpha2, theta2, R2, Q, rows, total_after, masses,
                          frozen)
    h = next(h for h in range(3) if not ok[h].all())
    pos = tuple(np.argwhere(~ok[h])[0])   # (trial,) or (trial, index)
    before, after = ((prev.total, total_after), (prev.rows, rows_after),
                     (beta @ P, beta @ Q))[h]
    mass = masses[pos] if h == 2 else 1.0
    raise MonotonicityError(
        t, float(before[pos] / mass), float(after[pos] / mass), MONOTONE_TOL,
        None if labels is None else int(labels[pos[0]]),
        ("total", "allocation", "learner")[h], int(pos[1]) if h else None)


def _watched_steps(scenario: Scenario, alpha, theta, t: int,
                   detector: EquilibriumDetector, max_steps: int, labels=None):
    """The step loop and its one stop rule: sequential updates of K trials
    in lockstep from alpha (K, n, m) and theta (K, m, d) at time t.  The
    loop checks max_steps, an integer >= 1, and records the start itself:
    its first StepRecord holds R = R(theta), Q = alpha * R, the sums rows
    and total, the masses beta @ alpha and frozen 0, so the gate's first
    baseline is always the start's own risk.  Yields (live, record, stop):
    the trials' batch positions, the record and each one's stop reason or
    None, first for the start (stop all None) and then per step for
    _core_step's StepRecord (the state it checked, kept as it is since the
    rules return normalized rows, and what it returned beside it), whose
    stop the caller may set.  A trial stops with "detector" on the step
    that completes the detector's quiet window of deltas max(||alpha' -
    alpha||_inf, ||Theta' - Theta||_inf) at a stationary state, where no
    positive share alpha_ij has R_ij < rows_i - MONOTONE_TOL (a window
    ended anywhere else, a slow pass by a saddle, restarts the count); else
    with "budget" on its max_steps-th step.  A stopped trial leaves the
    batch, and the others step on as they would alone; labels names them
    in a MonotonicityError."""
    require_number(max_steps, "max_steps", 1, integer=True)
    live, quiet, end = list(range(len(alpha))), [0] * len(alpha), t + max_steps
    R = scenario.risk_matrix(theta)
    Q = alpha * R
    rows = np.add.reduce(Q, axis=-1)
    s = StepRecord(alpha, theta, R, Q, rows, _beta_sums(rows, scenario.beta),
                   scenario.beta @ alpha, np.zeros(len(alpha), int))
    yield live, s, [None] * len(live)
    while live:
        prev, s, t = s, _core_step(s, t, scenario, labels), t + 1
        delta = np.maximum(
            np.maximum.reduce(np.abs(s.alpha - prev.alpha), axis=(-2, -1)),
            np.maximum.reduce(np.abs(s.theta - prev.theta), axis=(-2, -1)))
        stop = [None] * len(live)
        for i, d in enumerate(delta.tolist()):
            quiet[i] = quiet[i] + 1 if d <= detector.state_tolerance else 0
            if quiet[i] == detector.window:
                quiet[i] = 0   # a window that ends on a saddle starts afresh
                if not ((s.alpha[i] > 0.0) & (s.R[i] < s.rows[i][:, None]
                                              - MONOTONE_TOL)).any():
                    stop[i] = "detector"
        if t == end:
            stop[:] = [reason or "budget" for reason in stop]
        yield live, s, stop
        if any(stop):   # the others' records are theirs alone
            keep = [i for i, reason in enumerate(stop) if reason is None]
            live, quiet = [live[i] for i in keep], [quiet[i] for i in keep]
            s = StepRecord._make(x[keep] for x in s)
            labels = None if labels is None else labels[keep]


def step(state: SystemState, scenario: Scenario) -> SystemState:
    """One sequential update: allocations first, then learner parameters."""
    return simulate(scenario, state, 1).final_state


def simulate(scenario: Scenario, initial_state: SystemState, max_steps: int,
             detector: Optional[EquilibriumDetector] = None) -> Trajectory:
    """Run up to max_steps updates, stopping early once the detector fires.
    Collects the watched loop's records, the start's first: per state its
    total, subpopulation risks, beta @ Q and learner masses."""
    detector = EquilibriumDetector() if detector is None else detector
    validate_state(initial_state, scenario)
    t0, states, records, frozen_total = initial_state.t, [], [], 0
    for k, (_, s, stop) in enumerate(_watched_steps(
            scenario, initial_state.alpha[None], initial_state.theta[None], t0,
            detector, max_steps)):
        frozen_total += int(s.frozen[0])
        states.append(SystemState(s.alpha[0], s.theta[0], t0 + k) if k
                      else initial_state)
        records.append((s.total[0], s.rows[0], scenario.beta @ s.Q[0],
                        s.masses[0]))
    converged_at = k - detector.window if stop[0] == "detector" else None

    totals, sub, mixed, masses = map(np.array, zip(*records))
    # a learner of mass below EMPTY_MASS_TOL is empty, with risk NaN
    empties = masses < EMPTY_MASS_TOL
    learner = np.divide(mixed, masses, out=np.full(masses.shape, np.nan),
                        where=~empties)
    return Trajectory(states, totals, sub, learner, empties, converged_at,
                      frozen_total)


# one cascade phase; rows and total are the gate's sums at its last step
Phase = namedtuple("Phase", "scenario start end steps stop rows total split "
                            "hypothesis")


def _cascade(scenario: Scenario, state: SystemState, target_m: int,
             detector: EquilibriumDetector, max_steps: int, sigma: float, seed):
    """The competition cascade from state up to target_m > m learners: yields
    one Phase per phase, each a run of the watched loop.  A phase that stops
    on the detector below target_m splits its largest-mass learner j (lowest
    index on ties; hypothesis: some subpopulation j serves, share above
    ZERO_TOL, has gradient norm above ZERO_TOL at j), and the next starts
    from split_learner's state with both twins nudged by N(0, sigma) draws
    from the seed stream [*seed, phase].  The last phase, which reaches
    target_m or ends on its budget, has split and hypothesis None."""
    for phase in range(target_m - scenario.m + 1):
        loop = _watched_steps(scenario, state.alpha[None], state.theta[None],
                              state.t, detector, max_steps)
        for steps, (_, last, stop) in enumerate(loop):
            pass   # the last step ends the phase: it fired or used the budget
        end = SystemState(last.alpha[0], last.theta[0], state.t + steps)
        record = Phase(scenario, state, end, steps, stop[0], last.rows[0],
                       last.total[0], None, None)
        if stop[0] != "detector" or scenario.m == target_m:
            yield record
            return
        j = int(np.argmax(last.masses[0]))   # lowest index on ties
        norms = _subpop_gradient_norms(scenario, end.theta[j:j + 1])[:, 0]
        yield record._replace(split=j, hypothesis=bool(
            (norms[end.alpha[:, j] > ZERO_TOL] > ZERO_TOL).any()))
        state, scenario = split_learner(end, scenario, j)
        theta = state.theta.copy()   # the twins, j and the new m - 1
        theta[[j, -1]] += sigma * np.random.default_rng(
            [*seed, phase]).standard_normal((2, scenario.d))
        state = SystemState(state.alpha, theta, 0)


def perturb(state: SystemState, sigma: float, seed, target: str = "both") -> SystemState:
    """Seeded Gaussian perturbation of the targeted state components.

    Allocation rows receive noise magnitudes (|N(0, sigma)|), then are
    divided by their sums: magnitudes keep every share strictly positive,
    which the multiplicative dynamics need since they cannot revive an
    exactly-zero share.  Parameters receive signed Gaussian noise.
    Deterministic in seed.
    """
    require_number(sigma, "sigma", 0)
    require_choice(target, "target", PERTURB_TARGETS)
    if sigma == 0:
        return state
    rng = np.random.default_rng(seed)
    alpha = state.alpha
    theta = state.theta
    if target in ("alpha_only", "both"):
        alpha = alpha + sigma * np.abs(rng.standard_normal(alpha.shape))
        alpha = alpha / alpha.sum(axis=1, keepdims=True)
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
    bottleneck assignment: the smallest distinct column-pair distance whose
    thresholded graph has a perfect matching.  No relabeling beats the
    largest of the row and column minima, so that level is tried first and
    the bisection runs only over the levels above it.  States with
    different shapes have no relabeling: DimensionError.
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
    levels = np.unique(cost)   # a NaN sorts last
    # a NaN fills a learner's row or column, so then the bound is NaN too
    lo = mid = int(np.searchsorted(levels, max(cost.min(axis=1).max(),
                                               cost.min(axis=0).max())))
    hi = len(levels) - 1
    while lo < hi:
        if _perfect_matching(prefs, (cost <= levels[mid]).sum(axis=1).tolist()):
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return float(levels[lo])


def _probe_batch(scenario, eq_state, sigma, trials, seed, target="both",
                 max_steps=6000, return_tol=1e-4):
    """Run a probe's trials as one batch; returns one record per trial."""
    require_number(trials, "trials", 1, integer=True)
    require_number(return_tol, "return_tol", 0)
    eq_risk = total_risk(eq_state, scenario)   # validates eq_state too
    escape_tol = 1e-9 * max(1.0, abs(eq_risk))
    starts = [perturb(eq_state, sigma, [seed, k], target) for k in range(trials)]
    alpha = np.stack([s.alpha for s in starts])
    theta = np.stack([s.theta for s in starts])
    records = [dict.fromkeys(("returned", "steps", "escaped_at", "distance",
                              "stop_reason")) for _ in range(trials)]
    loop = _watched_steps(scenario, alpha, theta, 0, EquilibriumDetector(),
                          max_steps, np.arange(trials))
    next(loop)   # the start, which no trial stops on
    for t, (live, s, stop) in enumerate(loop, 1):
        for i, total in enumerate(s.total.tolist()):
            r = records[live[i]]
            # Total risk is monotone, so dropping below the equilibrium level
            # is irreversible: the run can never return once clearly below it.
            if r["escaped_at"] is None and total < eq_risk - escape_tol:
                r["escaped_at"] = t
            if r["escaped_at"] is not None or stop[i]:
                r["distance"] = state_distance_upto_permutation(
                    SystemState(s.alpha[i], s.theta[i], 0), eq_state)
                if stop[i] is None and r["distance"] > return_tol:
                    stop[i] = "departed"
            if stop[i]:
                r.update(returned=r["distance"] <= return_tol, steps=t,
                         stop_reason=stop[i])
    return records


def empirical_stability_probe(scenario: Scenario, eq_state: SystemState,
                              sigma: float, trials: int, seed: int,
                              target: str = "both", max_steps: int = 6000,
                              return_tol: float = 1e-4) -> float:
    """Perturb-and-resimulate: fraction of trials re-converging to eq_state.

    Trial k perturbs eq_state from the seed stream [seed, k].  The trials
    step as one batch, so a probe costs as many steps as its longest trial.
    A trial stops by the stop rule of simulate under the default
    EquilibriumDetector ("detector", or "budget" at max_steps), or
    "departed" once its total risk is below the equilibrium's and it is
    farther than return_tol.  It has returned if it ends within return_tol
    of the equilibrium, compared up to learner permutation.
    """
    records = _probe_batch(scenario, eq_state, sigma, trials, seed, target,
                           max_steps, return_tol)
    return sum(r["returned"] for r in records) / trials
