"""Problem instances and risk aggregates.

A subpopulation is represented directly by its risk function R_i over the
shared parameter space R^d; a learner by the parameter vector theta_j it
currently serves.  Participation is an n x m row-stochastic matrix alpha.
Three aggregates drive everything else:

    subpop average   sum_j alpha_ij R_i(theta_j)
    learner average  sum_i alpha_ij beta_i R_i(theta_j) / sum_i alpha_ij beta_i
    total risk       sum_ij beta_i alpha_ij R_i(theta_j)

All types are immutable after construction; the operations are pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from .errors import DimensionError, NonFiniteError, SimplexError

if TYPE_CHECKING:  # rule configs live with their dynamics modules
    from .allocation import AllocationRule
    from .learners import LearnerRule
    from .engine import UpdateSchedule

# Simplex tolerance for a given allocation.  Both allocation rules return
# rows that are nonnegative and sum to one within rounding, and the engine
# keeps them as they are, so drift beyond this indicates a bug.
SIMPLEX_TOL = 1e-10
# A learner whose user mass sum_i alpha_ij beta_i falls below this is "empty".
EMPTY_MASS_TOL = 1e-12
# Permitted per-step increase of the total risk (floating-point slack only).
MONOTONE_TOL = 1e-8


def require_finite(x, name: str) -> np.ndarray:
    """Return x as a float array; raise ValueError naming x if it is not
    numeric, and NonFiniteError naming its first NaN or infinite entry."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be numeric, got {x!r}") from None
    if np.all(np.isfinite(arr)):
        return arr
    index = tuple(np.argwhere(~np.isfinite(arr))[0])
    label = f"{name}[{','.join(map(str, index))}]" if index else name
    raise NonFiniteError(f"{label}={float(arr[index])!r} is not finite")


def require_number(value, name: str, low, strict: bool = False,
                   integer: bool = False):
    """Return value if it is a finite real number (an integer when
    `integer`) at least `low`, or above it when `strict`; else raise
    ValueError naming `name`.  None, booleans and numeric strings are not
    numbers here, and non-integers are rejected rather than truncated."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, kind) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value))
            and (value > low if strict else value >= low)):
        return value
    raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}"
                     f" {'>' if strict else '>='} {low}, got {value!r}")


def require_choice(value, name: str, choices):
    """Return value if it is one of the strings `choices`; else raise
    ValueError naming `name`."""
    if isinstance(value, str) and value in choices:
        return value
    raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _as_points(theta, d) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (d,):
        raise DimensionError(f"theta: expected shape (..., {d}), got {theta.shape}")
    return theta


def _callback(fn, theta, tail, name) -> np.ndarray:
    """fn(theta), checked so that an unbatched callback cannot broadcast."""
    out, shape = np.asarray(fn(theta), dtype=float), theta.shape[:-1] + tail
    if out.shape != shape:
        raise DimensionError(f"custom risk {name}: expected shape {shape} at "
                             f"theta of shape {theta.shape}, got {out.shape}")
    return out


@dataclass(frozen=True)
class RiskFunction:
    """Strongly convex per-subpopulation risk.

    ``quadratic`` kind evaluates (theta-center)^T curvature (theta-center)
    + offset with a symmetric positive-definite curvature matrix.  The
    ``custom`` kind delegates to strongly convex batched callbacks: at theta
    (..., d), value, gradient and hessian return (...), (..., d), (..., d, d)."""

    kind: str
    dim: int
    center: Optional[np.ndarray] = None
    curvature: Optional[np.ndarray] = None
    offset: float = 0.0
    value_fn: Optional[Callable] = field(default=None, repr=False)
    grad_fn: Optional[Callable] = field(default=None, repr=False)
    hess_fn: Optional[Callable] = field(default=None, repr=False)


def quadratic_risk(center, curvature=None, offset: float = 0.0) -> RiskFunction:
    """Build a quadratic risk with center phi, SPD curvature A and offset c."""
    center = np.atleast_1d(require_finite(center, "center"))
    if center.ndim != 1 or center.size == 0:
        raise DimensionError(
            f"center: expected a nonempty vector, got shape {center.shape}")
    d = center.shape[0]
    curvature = (np.eye(d) if curvature is None
                 else require_finite(curvature, "curvature"))
    if curvature.shape != (d, d):
        raise DimensionError(
            f"curvature: expected shape ({d},{d}), got {curvature.shape}"
        )
    require_finite(offset, "offset")   # names a NaN or inf as non-finite
    require_number(offset, "offset", 0)
    if not np.allclose(curvature, curvature.T, rtol=0, atol=1e-10):
        raise ValueError("curvature must be symmetric within 1e-10")
    # the tolerated asymmetry is averaged away, so value, gradient and the
    # kernels all see one symmetric matrix (unchanged for symmetric input)
    curvature = (curvature + curvature.T) / 2
    eigs = np.linalg.eigvalsh(curvature)
    if eigs.min() <= 0:
        raise ValueError(f"curvature must be positive definite, eigmin={eigs.min()}")
    center = center.copy()
    center.setflags(write=False)
    curvature.setflags(write=False)
    return RiskFunction(
        kind="quadratic", dim=d, center=center, curvature=curvature,
        offset=float(offset),
    )


def custom_risk(dim: int, value, gradient, hessian) -> RiskFunction:
    """Build a risk from batched callbacks; caller guarantees strong convexity."""
    require_number(dim, "dim", 1, integer=True)
    for name, fn in dict(value=value, gradient=gradient, hessian=hessian).items():
        if not callable(fn):
            raise ValueError(f"{name} must be callable, got {fn!r}")
    return RiskFunction(kind="custom", dim=int(dim), value_fn=value,
                        grad_fn=gradient, hess_fn=hessian)


def risk_value(risk: RiskFunction, theta):
    """R_i(theta) at theta (..., d), a float at one point; exact
    (theta-phi)^T A (theta-phi) + c for quadratics."""
    theta = _as_points(theta, risk.dim)
    if risk.kind == "quadratic":
        v = (theta - risk.center)[..., None, :]   # row vectors (..., 1, d)
        out = (v @ risk.curvature @ v.swapaxes(-1, -2))[..., 0, 0] + risk.offset
    else:
        out = _callback(risk.value_fn, theta, (), "value")
    return float(out) if out.ndim == 0 else out


def risk_gradient(risk: RiskFunction, theta) -> np.ndarray:
    """grad R_i at theta (..., d); 2 A (theta-phi) for quadratics."""
    theta = _as_points(theta, risk.dim)
    if risk.kind == "quadratic":
        return 2.0 * (risk.curvature @ (theta - risk.center)[..., None])[..., 0]
    return _callback(risk.grad_fn, theta, (risk.dim,), "gradient")


def risk_hessian(risk: RiskFunction, theta) -> np.ndarray:
    """Hessian of R_i at theta (..., d); the constant 2A for quadratics."""
    theta = _as_points(theta, risk.dim)
    if risk.kind == "quadratic":
        return 2.0 * risk.curvature * np.ones(theta.shape[:-1] + (1, 1))
    return _callback(risk.hess_fn, theta, (risk.dim,) * 2, "hessian")


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance.

    beta holds the population proportions (positive, summing to one), one
    risk function per subpopulation, and the update-rule configuration that
    the engine uses.  ``schedule=None`` means all subpopulations and all
    learners update every step.  A rejected value's error starts with the
    field's name.
    """

    beta: np.ndarray
    risks: tuple
    m: int
    subpop_rule: "AllocationRule"
    learner_rule: "LearnerRule"
    schedule: Optional["UpdateSchedule"] = None

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float).copy()
        if beta.ndim != 1:
            raise DimensionError("beta must be a vector")
        require_finite(beta, "beta")
        if np.any(beta <= 0):
            i = int(np.argmin(beta))
            raise ValueError(f"beta[{i}]={float(beta[i])!r} is not positive")
        if abs(beta.sum() - 1.0) > 1e-12:
            raise ValueError(
                f"beta must sum to 1 within 1e-12, sum={beta.sum()!r}"
            )
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        risks = tuple(self.risks)
        object.__setattr__(self, "risks", risks)
        if len(risks) != beta.shape[0]:
            raise DimensionError(
                f"risks: {len(risks)} risk functions for {beta.shape[0]} "
                "proportions"
            )
        dims = {r.dim for r in risks}
        if len(dims) != 1:
            raise DimensionError(f"risks disagree on dimension: {dims}")
        require_number(self.m, "m", 1, integer=True)
        if self.m > beta.shape[0]:
            raise ValueError(
                f"m: need 1 <= m <= n, got m={self.m}, n={beta.shape[0]}"
            )
        from .engine import UpdateSchedule   # engine imports this module
        # the engine reads entry t % len at step t
        object.__setattr__(self, "_cycle", (self.schedule or UpdateSchedule())
                           .cycle(beta.shape[0], self.m))

    @property
    def n(self) -> int:
        return self.beta.shape[0]

    @property
    def d(self) -> int:
        return self.risks[0].dim

    @cached_property
    def _quad(self):
        """(phi, o, F, N, diagonal) when every risk is quadratic, o the mean
        center.  With p_i = phi_i - o, row i of F is [vec(A_i), -2 A_i p_i,
        p_i^T A_i p_i + c_i], so R_i(theta) = F_i . [vec(t t^T), t, 1] at
        t = theta - o; row i of N is [vec(A_i), A_i phi_i].  diagonal: no
        stored (symmetrized) A_i, so no H, has a nonzero off-diagonal entry."""
        if any(r.kind != "quadratic" for r in self.risks):
            return None
        A = np.stack([r.curvature for r in self.risks])
        phi = np.stack([r.center for r in self.risks])
        c = np.array([r.offset for r in self.risks])
        o = phi.mean(axis=0)
        p = phi - o
        Ap = np.einsum("nde,ne->nd", A, p)
        vecA = A.reshape(self.n, -1)
        F = np.column_stack([vecA, -2.0 * Ap, np.einsum("nd,nd->n", p, Ap) + c])
        N = np.column_stack([vecA, np.einsum("nde,ne->nd", A, phi)])
        diagonal = not A[:, ~np.eye(self.d, dtype=bool)].any()
        return phi, o, F, N, diagonal

    def risk_matrix(self, theta: np.ndarray) -> np.ndarray:
        """R[..., i, j] = R_i(theta[..., j, :]) for theta of shape (..., m, d).

        Quadratics take one matrix product per leading index, expanded about
        the mean center o: the error is about
        eps * ||A_i|| * (|theta_j - o|^2 + |phi_i - o|^2), not eps * R_ij;
        risk_value is the exact path, which other risks take on the batch."""
        theta = np.asarray(theta, dtype=float)
        if self._quad is not None:
            _, o, F, *_ = self._quad
            d = self.d
            t = (theta - o).swapaxes(-1, -2)   # (..., d, m)
            lead, m = t.shape[:-2], t.shape[-1]
            G = np.empty((*lead, d * d + d + 1, m))   # [vec(t t^T); t; 1]
            G[..., :d * d, :] = (t[..., :, None, :] * t[..., None, :, :]
                                 ).reshape(*lead, d * d, m)
            G[..., d * d:-1, :] = t
            G[..., -1, :] = 1.0
            return F @ G
        return np.stack([risk_value(r, theta) for r in self.risks], axis=-2)

    def normal_equations(self, W: np.ndarray):
        """Normal equations of quadratic mixtures with weights W (..., n, k):
        H[j] = sum_i W_ij A_i and b[j] = sum_i W_ij A_i phi_i.  Mixture j is
        minimized at H[j]^-1 b[j]; its gradient is 2 (H[j] theta - b[j])."""
        if self._quad is None:
            raise ValueError("normal equations are only defined for quadratic risks")
        d = self.d
        Hb = W.swapaxes(-1, -2) @ self._quad[3]
        return Hb[..., :d * d].reshape(*Hb.shape[:-1], d, d), Hb[..., d * d:]

    def centers(self) -> np.ndarray:
        """Per-subpopulation optimal parameters (quadratic scenarios only)."""
        if self._quad is None:
            raise ValueError("centers are only defined for quadratic risks")
        return self._quad[0]


def validate_allocation(alpha, n: int, m: int) -> np.ndarray:
    """Check alpha is an n x m row-stochastic matrix within SIMPLEX_TOL;
    returns it as float array."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (n, m):
        raise DimensionError(f"alpha: expected shape ({n},{m}), got {alpha.shape}")
    if not np.all(np.isfinite(alpha)):
        i, j = np.argwhere(~np.isfinite(alpha))[0]
        raise SimplexError(f"alpha[{i},{j}]={alpha[i, j]!r} is not finite")
    if np.any(alpha < -SIMPLEX_TOL) or np.any(alpha > 1 + SIMPLEX_TOL):
        i, j = np.unravel_index(
            np.argmax(np.abs(alpha - np.clip(alpha, 0, 1))), alpha.shape
        )
        raise SimplexError(f"alpha[{i},{j}]={alpha[i, j]!r} outside [0,1]")
    sums = alpha.sum(axis=1)
    bad = np.abs(sums - 1.0) > SIMPLEX_TOL
    if np.any(bad):
        i = int(np.argmax(np.abs(sums - 1.0)))
        raise SimplexError(f"row {i} sums to {sums[i]!r}, expected 1 "
                           f"within {SIMPLEX_TOL}")
    return alpha


@dataclass(frozen=True)
class SystemState:
    """Joint state (alpha, Theta) at time step t."""

    alpha: np.ndarray
    theta: np.ndarray
    t: int = 0

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float).copy()
        theta = np.asarray(self.theta, dtype=float).copy()
        if theta.ndim != 2:
            raise DimensionError("theta must have shape (m, d)")
        alpha.setflags(write=False)
        theta.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", theta)


def validate_state(state: SystemState, scenario: Scenario) -> None:
    """Check state dimensions, time step and allocation invariants against
    the scenario."""
    require_number(state.t, "t", 0, integer=True)
    validate_allocation(state.alpha, scenario.n, scenario.m)
    if state.theta.shape != (scenario.m, scenario.d):
        raise DimensionError(
            f"theta: expected shape ({scenario.m},{scenario.d}), "
            f"got {state.theta.shape}"
        )
    require_finite(state.theta, "theta")


def total_risk(state: SystemState, scenario: Scenario) -> float:
    """Total risk sum_ij beta_i alpha_ij R_i(theta_j), the dynamics' potential."""
    validate_state(state, scenario)
    R = scenario.risk_matrix(state.theta)
    return float((state.alpha * R).sum(axis=1) @ scenario.beta)
