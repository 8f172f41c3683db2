"""Output checks, one per workload.

Each check takes plain data (parsed CSV rows, arrays, floats) and returns a
list of problems; an empty list means the outputs are correct.  They compare
against ``reference`` or against properties the method must have, never
against a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

import reference as ref

MONOTONE_TOL = 1e-8      # permitted rise of the total risk
STRICT_MARGIN = 1e-9     # certified stable iff margin exceeds this
DECISIVE = 1e-3          # probed splits: |margin| above this


def check_cascade(rows, beta, offsets, first_m, target_m):
    """competition.csv: one row per m, non-increasing totals, consistent
    per-phase aggregates, productive splits, and the m = n optimum."""
    problems = []
    ms = [int(r["m"]) for r in rows]
    if ms != list(range(first_m, target_m + 1)):
        problems.append(f"phases cover m={ms}, expected {first_m}..{target_m}")
    totals = [float(r["total_risk"]) for r in rows]
    for k in range(1, len(totals)):
        if totals[k] > totals[k - 1] + MONOTONE_TOL:
            problems.append(f"total risk rose at phase {k}: "
                            f"{totals[k - 1]!r} -> {totals[k]!r}")
    for k, r in enumerate(rows):
        sub = np.array([float(r[f"subpop_risk_{i + 1}"]) for i in range(beta.size)])
        if abs(totals[k] - float(beta @ sub)) > 1e-9:
            problems.append(f"phase {k}: total_risk {totals[k]!r} is not "
                            f"sum beta_i subpop_risk_i = {float(beta @ sub)!r}")
        if float(r["worst_subpop_risk"]) != sub.max():
            problems.append(f"phase {k}: worst_subpop_risk is not the maximum")
        if r["grad_hypothesis"] == "1" and not (
                k + 1 < len(totals) and totals[k + 1] < totals[k] - 1e-6):
            problems.append(f"phase {k}: split flagged grad_hypothesis did not "
                            "lower the total by more than 1e-6")
    if target_m == beta.size and totals:
        floor = float(beta @ offsets)
        if abs(totals[-1] - floor) > 1e-6:
            problems.append(f"final total {totals[-1]!r} != sum beta_i c_i = {floor!r}")
    return problems


def check_gd(alphas, thetas, spec, sample):
    """A repeated-GD/MWUD run: reference totals never rise, and sampled
    transitions replay exactly with the reference updates."""
    problems = []
    beta, centers, curv, offsets = spec["beta"], spec["centers"], spec["curv"], spec["offsets"]
    if len(alphas) != spec["steps"] + 1:
        problems.append(f"{len(alphas)} recorded states, expected {spec['steps'] + 1}")
    totals = [ref.total_risk(a, ref.risk_matrix(th, centers, curv, offsets), beta)
              for a, th in zip(alphas, thetas)]
    rises = np.diff(totals)
    if rises.size and rises.max() > MONOTONE_TOL:
        k = int(rises.argmax())
        problems.append(f"reference total rose by {rises[k]:.3e} at step {k}")
    for k in sample:
        if k + 1 >= len(alphas):
            continue
        R = ref.risk_matrix(thetas[k], centers, curv, offsets)
        alpha = ref.mwud_rows(alphas[k], R, spec["gamma"])
        theta = ref.gd_step(thetas[k], alpha, beta, centers, curv,
                            spec["base"] / (k + 1))
        err = max(np.abs(alpha - alphas[k + 1]).max(),
                  np.abs(theta - thetas[k + 1]).max())
        if not err <= 1e-9:
            problems.append(f"transition {k}->{k + 1} differs from the "
                            f"reference by {err:.3e}")
    return problems


def check_oracle(rows, spec, sample):
    """equilibria.csv: S(n,m) distinct surjective rows sorted by total, gaps
    against the first row, the exact 1-D k-means optimum, and sampled rows
    recomputed from scratch."""
    problems = []
    n, m = spec["beta"].size, spec["m"]
    expected = ref.stirling2(n, m)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected S({n},{m}) = {expected}")
    labels = [tuple(int(j) for j in r["assignment"].split("-")) for r in rows]
    if len(set(labels)) != len(labels) or any(len(set(g)) != m for g in labels):
        problems.append("assignments are repeated or not surjective")
    if not rows:
        return problems
    totals = [float(r["total_risk"]) for r in rows]
    if any(b < a for a, b in zip(totals, totals[1:])):
        problems.append("totals are not ascending")
    if any(abs(float(r["welfare_gap"]) - (t - totals[0])) > 1e-12
           for r, t in zip(rows, totals)):
        problems.append("welfare_gap is not total - first total")
    beta, centers, curv, offsets = spec["beta"], spec["centers"], spec["curv"], spec["offsets"]
    optimum = (ref.kmeans1d(centers[:, 0], beta * curv[:, 0, 0], m)
               + float(beta @ offsets))
    if abs(totals[0] - optimum) > 1e-9:
        problems.append(f"first total {totals[0]!r} is not the 1-D k-means "
                        f"optimum {optimum!r}")
    for k in sample:
        if k >= len(rows):
            continue
        total, margin = ref.assignment_value(labels[k], m, beta, centers, curv, offsets)
        row = rows[k]
        if abs(float(row["total_risk"]) - total) > 1e-9:
            problems.append(f"row {k}: total {row['total_risk']} != reference {total!r}")
        if abs(float(row["margin"]) - margin) > 1e-9:
            problems.append(f"row {k}: margin {row['margin']} != reference {margin!r}")
        stable = "asymptotically_stable" if margin > STRICT_MARGIN else "unstable"
        if row["stability"] != stable:
            problems.append(f"row {k}: stability {row['stability']} with "
                            f"reference margin {margin!r}")
    return problems


def check_certify(instances):
    """Certification sweep: S(n,m) reports per enumerated instance, probed
    margins equal to the reference, decisive stable splits always return,
    decisive unstable splits lose a trial, and both kinds occur."""
    problems = []
    stable = unstable = 0
    for k, inst in enumerate(instances):
        spec = inst["spec"]
        n, m = spec["beta"].size, spec["m"]
        if inst["reports"] is not None and inst["reports"] != ref.stirling2(n, m):
            problems.append(f"instance {k}: {inst['reports']} reports, "
                            f"expected S({n},{m}) = {ref.stirling2(n, m)}")
        for gamma_map, margin, fraction in inst["probed"]:
            _, want = ref.assignment_value(gamma_map, m, spec["beta"], spec["centers"],
                                              spec["curv"], spec["offsets"])
            if abs(margin - want) > 1e-9:
                problems.append(f"instance {k} split {gamma_map}: margin "
                                f"{margin!r} != reference {want!r}")
            if want > DECISIVE:
                stable += 1
                if fraction != 1.0:
                    problems.append(f"instance {k} split {gamma_map}: certified "
                                    f"stable but returned {fraction!r}")
            elif want < -DECISIVE:
                unstable += 1
                if fraction >= 1.0:
                    problems.append(f"instance {k} split {gamma_map}: certified "
                                    "unstable but returned in every trial")
            else:
                problems.append(f"instance {k} split {gamma_map}: probed an "
                                f"indecisive margin {want!r}")
    if not stable or not unstable:
        problems.append(f"sweep probed {stable} stable and {unstable} unstable splits")
    return problems
