"""Scalar reference implementations that the tests compare the library to.

The library computes each concept once, batched over rows, learners and
trials (``engine._core_step``, ``Scenario.risk_matrix``,
``Scenario.normal_equations``, ``learners.mixture_gradients``,
``learners.minimize_mixtures``, ``engine._watched_steps``).  These are the
same concepts written one row, one learner or one trajectory at a time,
straight from their definitions, so property tests can check the batched
kernels against them; ``newton_minimize`` is the damped Newton of one
mixture, evaluated one point at a time.
``detect_equilibrium`` rescans a recorded trajectory with the one stop
rule that ``simulate``, every ``competition`` phase and every probe trial
share: a quiet window counts only where it ends at a state that
``stationary`` accepts.

``split_margins`` is the no-switching margin of split assignments taken
one learner label at a time over whole (S, n) arrays, the form the
oracle's chunked per-group kernel (``equilibria._split_margins``) replaced.

``convex_hulls_disjoint`` is an independent oracle for stable split
markets: a linear program tests whether the hulls of two learner groups'
optima intersect.

``csv_text`` is the CLI's CSV written the plain way: ``csv.writer`` with a
cell rule per value type, one row at a time.
"""

import csv
import io
import itertools

import numpy as np
from scipy.optimize import linprog

from popdyn.equilibria import SplitAssignment
from popdyn.errors import (
    ConvergenceError,
    DimensionError,
    EmptyLearnerError,
    SimplexError,
)
from popdyn.model import (
    EMPTY_MASS_TOL,
    MONOTONE_TOL,
    SIMPLEX_TOL,
    RiskFunction,
    risk_gradient,
    risk_hessian,
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
    return newton_minimize(w, risks, tolerance=tolerance,
                           max_iterations=max_iterations, start=start)


def _gradient_sum(weights, risks, theta):
    # sum_i w_i grad R_i(theta) over the nonzero weights; 0 for none
    return sum((wi * risk_gradient(r, theta) for wi, r in zip(weights, risks)
                if wi != 0.0), np.zeros(len(theta)))


def newton_minimize(weights, risks, tolerance: float = 1e-10,
                    max_iterations: int = 100, start=None) -> np.ndarray:
    """Minimize sum_i w_i R_i(theta) over theta for nonnegative weights by
    damped Newton, one mixture at a time: steps are halved until the
    objective decreases, so the update stays risk reducing even far from
    the optimum.  It stops once the normalized mixture sum_i w_i R_i /
    sum_i w_i has gradient norm at most tolerance."""
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
        if np.linalg.norm(g) <= tolerance * weights.sum():
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


def stationary(state, scenario):
    """No positive share alpha_ij has R_ij < sum_k alpha_ik R_ik -
    MONOTONE_TOL: no subpopulation holds mass on a learner that is worse
    for it than one it could move that mass to."""
    R = scenario.risk_matrix(state.theta)
    mix = (state.alpha * R).sum(axis=1)
    return not ((R < mix[:, None] - MONOTONE_TOL) & (state.alpha > 0.0)).any()


def detect_equilibrium(trajectory, detector, scenario):
    """A rescan of the recorded states under the detector's rule: returns
    the first index of the first quiet window (detector.window steps in a
    row whose state delta is at most state_tolerance) that ends at a
    stationary state, where no positive share alpha_ij has
    R_ij < sum_k alpha_ik R_ik - MONOTONE_TOL, or None; and the steps at
    which a window ended anywhere else, a saddle, and the count restarted."""
    states = trajectory.states
    quiet = 0
    restarts = []
    for k, (a, b) in enumerate(zip(states, states[1:])):
        delta = np.maximum(np.abs(a.alpha - b.alpha).max(),
                           np.abs(a.theta - b.theta).max())
        quiet = quiet + 1 if delta <= detector.state_tolerance else 0
        if quiet == detector.window:
            if stationary(b, scenario):
                return k - detector.window + 1, restarts
            restarts.append(k + 1)
            quiet = 0
    return None, restarts


def split_margins(columns, gamma):
    """Own risks (..., n) and no-switching margins (...) of split
    assignments: columns[j] holds R_i(theta_j) and gamma the serving learner
    of each subpopulation, both of shape (..., n); the margin is the least
    R_i(theta_j) - R_i(theta_gamma(i)) over j != gamma(i), +inf for m=1."""
    own = np.full(gamma.shape, np.nan)
    others = np.full(gamma.shape, np.inf)
    for j, col in enumerate(columns):
        mine = gamma == j
        np.copyto(own, col, where=mine)
        np.minimum(others, col, out=others, where=~mine)
    others -= own
    return own, others.min(axis=-1)


def _hulls_intersect(X: np.ndarray, Y: np.ndarray) -> bool:
    """Linear feasibility: is some point a convex combination of both sets?"""
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


def csv_cell(x) -> str:
    """The CLI's cell rule: None empty, bools 1/0, ints in full, every other
    number with 17 significant digits."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([csv_cell(x) for x in row])
    return buf.getvalue()
