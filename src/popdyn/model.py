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

# Simplex tolerance: rows are renormalized after every allocation update,
# so drift beyond this indicates a bug rather than accumulated rounding.
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


def _as_vector(x, d, name) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (d,):
        raise DimensionError(f"{name}: expected shape ({d},), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class RiskFunction:
    """Strongly convex per-subpopulation risk.

    ``quadratic`` kind evaluates (theta-center)^T curvature (theta-center)
    + offset with a symmetric positive-definite curvature matrix.  The
    ``custom`` kind delegates to user callbacks (value, gradient, hessian)
    that must themselves be strongly convex.
    """

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
    """Build a risk from callbacks; caller guarantees strong convexity."""
    return RiskFunction(
        kind="custom", dim=int(dim),
        value_fn=value, grad_fn=gradient, hess_fn=hessian,
    )


def risk_value(risk: RiskFunction, theta) -> float:
    """R_i(theta); exact (theta-phi)^T A (theta-phi) + c for quadratics."""
    theta = _as_vector(theta, risk.dim, "theta")
    if risk.kind == "quadratic":
        diff = theta - risk.center
        return float(diff @ risk.curvature @ diff) + risk.offset
    return float(risk.value_fn(theta))


def risk_gradient(risk: RiskFunction, theta) -> np.ndarray:
    """grad R_i(theta); 2 A (theta-phi) for quadratics."""
    theta = _as_vector(theta, risk.dim, "theta")
    if risk.kind == "quadratic":
        return 2.0 * (risk.curvature @ (theta - risk.center))
    return np.asarray(risk.grad_fn(theta), dtype=float)


def risk_hessian(risk: RiskFunction, theta) -> np.ndarray:
    """Hessian of R_i at theta; the constant 2A for quadratics."""
    theta = _as_vector(theta, risk.dim, "theta")
    if risk.kind == "quadratic":
        return 2.0 * risk.curvature
    return np.asarray(risk.hess_fn(theta), dtype=float)


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
        if not (1 <= self.m <= beta.shape[0]):
            raise ValueError(
                f"m: need 1 <= m <= n, got m={self.m}, n={beta.shape[0]}"
            )
        if self.schedule is not None:
            sched, n = self.schedule, beta.shape[0]
            cycled = {"round_robin_subpops": n, "round_robin_learners": self.m}
            for name, size in (("order", cycled.get(sched.kind)),
                               ("subpops", n), ("learners", self.m)):
                for k, i in enumerate(getattr(sched, name) or ()):
                    if size is not None and i >= size:
                        raise ValueError(
                            f"schedule.{name}[{k}] must be < {size}, got {i}")

    @property
    def n(self) -> int:
        return self.beta.shape[0]

    @property
    def d(self) -> int:
        return self.risks[0].dim

    @cached_property
    def _quad(self):
        """(phi, o, F, N) when every risk is quadratic, o the mean center.
        With p_i = phi_i - o, row i of F is [vec(A_i), -2 A_i p_i,
        p_i^T A_i p_i + c_i], so R_i(theta) = F_i . [vec(t t^T), t, 1] at
        t = theta - o; row i of N is [vec(A_i), A_i phi_i]."""
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
        return phi, o, F, N

    def risk_matrix(self, theta: np.ndarray) -> np.ndarray:
        """R[..., i, j] = R_i(theta[..., j, :]) for theta of shape (..., m, d).

        Quadratics take one matrix product per leading index, expanded about
        the mean center o: the error is about
        eps * ||A_i|| * (|theta_j - o|^2 + |phi_i - o|^2), not eps * R_ij;
        risk_value is the exact path."""
        theta = np.asarray(theta, dtype=float)
        if self._quad is not None:
            _, o, F, _ = self._quad
            d = self.d
            t = (theta - o).swapaxes(-1, -2)   # (..., d, m)
            lead, m = t.shape[:-2], t.shape[-1]
            G = np.empty((*lead, d * d + d + 1, m))   # [vec(t t^T); t; 1]
            G[..., :d * d, :] = (t[..., :, None, :] * t[..., None, :, :]
                                 ).reshape(*lead, d * d, m)
            G[..., d * d:-1, :] = t
            G[..., -1, :] = 1.0
            return F @ G
        values = [[risk_value(r, th) for th in theta.reshape(-1, self.d)]
                  for r in self.risks]
        return np.moveaxis(np.reshape(values, (self.n, *theta.shape[:-1])), 0, -2)

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


def validate_allocation(alpha, n: int, m: int, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Check alpha is an n x m row-stochastic matrix; returns it as float array."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (n, m):
        raise DimensionError(f"alpha: expected shape ({n},{m}), got {alpha.shape}")
    if not np.all(np.isfinite(alpha)):
        i, j = np.argwhere(~np.isfinite(alpha))[0]
        raise SimplexError(f"alpha[{i},{j}]={alpha[i, j]!r} is not finite")
    if np.any(alpha < -tol) or np.any(alpha > 1 + tol):
        i, j = np.unravel_index(
            np.argmax(np.abs(alpha - np.clip(alpha, 0, 1))), alpha.shape
        )
        raise SimplexError(f"alpha[{i},{j}]={alpha[i, j]!r} outside [0,1]")
    sums = alpha.sum(axis=1)
    bad = np.abs(sums - 1.0) > tol
    if np.any(bad):
        i = int(np.argmax(np.abs(sums - 1.0)))
        raise SimplexError(f"row {i} sums to {sums[i]!r}, expected 1 within {tol}")
    return alpha


def renormalize_rows(alpha: np.ndarray) -> np.ndarray:
    """Clip to nonnegative and rescale each row to sum exactly one."""
    clipped = np.maximum(alpha, 0.0)
    return clipped / clipped.sum(axis=-1, keepdims=True)


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
    """Check state dimensions and allocation invariants against the scenario."""
    validate_allocation(state.alpha, scenario.n, scenario.m)
    if state.theta.shape != (scenario.m, scenario.d):
        raise DimensionError(
            f"theta: expected shape ({scenario.m},{scenario.d}), "
            f"got {state.theta.shape}"
        )
    require_finite(state.theta, "theta")


def _total_risk(alpha: np.ndarray, R: np.ndarray, beta: np.ndarray):
    # one total per leading index of R[..., i, j] = R_i(theta_j)
    return (alpha * R).sum(axis=-1) @ beta


def total_risk(state: SystemState, scenario: Scenario) -> float:
    """Total risk sum_ij beta_i alpha_ij R_i(theta_j), the dynamics' potential."""
    validate_state(state, scenario)
    R = scenario.risk_matrix(state.theta)
    return float(_total_risk(state.alpha, R, scenario.beta))


def subpop_risk_vector(alpha: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Per-subpopulation average risks from a precomputed risk matrix."""
    return (alpha * R).sum(axis=1)


def learner_risk_vector(alpha, beta, R):
    """Per-learner mixture risks; empty learners yield NaN plus a flag array."""
    w = alpha * beta[:, None]
    masses = w.sum(axis=0)
    empty = masses < EMPTY_MASS_TOL
    vals = np.full(alpha.shape[1], np.nan)
    ok = ~empty
    vals[ok] = (w[:, ok] * R[:, ok]).sum(axis=0) / masses[ok]
    return vals, empty
