"""Plain-numpy reference computations for the benchmark checks.

Nothing here imports popdyn: every check compares the package's outputs with
these independent formulas, or with properties the method must have.

Quadratic risks are given as arrays: ``centers`` (n, d), ``curv`` (n, d, d)
and ``offsets`` (n,), so R_i(theta) = (theta - phi_i)^T A_i (theta - phi_i)
+ c_i.
"""

from __future__ import annotations

import numpy as np

EMPTY_MASS = 1e-12


def risk_matrix(theta, centers, curv, offsets):
    """R[i, j] = R_i(theta_j)."""
    diff = theta[None, :, :] - centers[:, None, :]
    return np.einsum("ijd,ide,ije->ij", diff, curv, diff) + offsets[:, None]


def total_risk(alpha, R, beta):
    """sum_ij beta_i alpha_ij R_ij."""
    return float(np.sum(beta[:, None] * alpha * R))


def mwud_rows(alpha, R, gamma):
    """Multiplicative-weights update of every row: alpha_ij exp(-gamma R_ij),
    renormalized.  Exact zeros stay zero."""
    out = np.zeros_like(alpha)
    for i in range(alpha.shape[0]):
        support = alpha[i] > 0.0
        cost = gamma * R[i]
        shift = cost[support].min()
        weights = np.where(support, alpha[i] * np.exp(np.minimum(shift - cost, 0.0)), 0.0)
        out[i] = weights / weights.sum()
    return out


def gd_step(theta, alpha, beta, centers, curv, step):
    """One gradient step of every non-empty learner on its mass-normalized
    mixture risk; empty learners keep their parameter."""
    out = theta.copy()
    for j in range(theta.shape[0]):
        w = alpha[:, j] * beta
        mass = w.sum()
        if mass < EMPTY_MASS:
            continue
        grad = 2.0 * np.einsum("i,ide,ie->d", w, curv, theta[j] - centers)
        out[j] = theta[j] - step * grad / mass
    return out


def group_minimizer(weights, centers, curv):
    """argmin_theta sum_i w_i R_i(theta): (sum w A) theta = sum w A phi."""
    H = np.einsum("i,ide->de", weights, curv)
    b = np.einsum("i,ide,ie->d", weights, curv, centers)
    return np.linalg.solve(H, b)


def split_margin(R, gamma_map):
    """min over i and j != gamma(i) of R_ij - R_i,gamma(i)."""
    return float(min(R[i, j] - R[i, g]
                     for i, g in enumerate(gamma_map)
                     for j in range(R.shape[1]) if j != g))


def assignment_value(gamma_map, m, beta, centers, curv, offsets):
    """Total risk and margin of a split assignment at its group minimizers."""
    gamma_map = np.asarray(gamma_map)
    theta = np.empty((m, centers.shape[1]))
    for j in range(m):
        theta[j] = group_minimizer(np.where(gamma_map == j, beta, 0.0), centers, curv)
    R = risk_matrix(theta, centers, curv, offsets)
    total = float(sum(beta[i] * R[i, g] for i, g in enumerate(gamma_map)))
    return total, split_margin(R, gamma_map)


def stirling2(n, m):
    """Stirling number of the second kind S(n, m), exact."""
    row = [1] + [0] * m
    for k in range(1, n + 1):
        new = [0] * (m + 1)
        for j in range(1, min(k, m) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[m]


def kmeans1d(x, w, k):
    """Exact minimum of sum_i w_i (x_i - mean of its cluster)^2 over
    partitions of the points into k nonempty clusters (weighted means).

    Optimal clusters are contiguous in sorted order, so a dynamic program
    over prefixes solves it in O(k n^2) (Wang & Song, Ckmeans.1d.dp, 2011).
    """
    order = np.argsort(x, kind="stable")
    x = np.asarray(x, dtype=float)[order]
    w = np.asarray(w, dtype=float)[order]
    n = x.size

    def cost(a, b):  # points a..b-1 as one cluster
        mean = np.dot(w[a:b], x[a:b]) / w[a:b].sum()
        return float(np.dot(w[a:b], (x[a:b] - mean) ** 2))

    best = [cost(0, b) if b > 0 else np.inf for b in range(n + 1)]
    for clusters in range(2, k + 1):
        nxt = [np.inf] * (n + 1)
        for b in range(clusters, n + 1):
            nxt[b] = min(best[a] + cost(a, b) for a in range(clusters - 1, b))
        best = nxt
    return float(best[n])
