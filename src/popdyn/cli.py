"""Command-line front end.

Subcommands: simulate, classify, enumerate, competition, goldens, probe.
All output files are written atomically (temp file + rename) so no command
leaves partial CSV/JSON behind on failure.  Floats are written with 17
significant digits; CSV follows RFC 4180 with '.' as the decimal separator.

Exit codes: 0 success/converged/stable, 1 error, 2 max-steps without
convergence, 3 risk-reducing violation (the total risk, or the average risk
of one subpopulation or the mixture risk of one learner, rose in a step),
4 unstable, 5 non-equilibrium, 6 enumeration budget exceeded, 7 golden
mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .engine import _probe_batch, _watched_steps, perturb, simulate
from .equilibria import (
    DEFAULT_BUDGET,
    SplitAssignment,
    _c1_sides,
    _split_rows,
    classify_state,
    example_c1_stability_predicate,
    split_learner,
    theta_for_assignment,
)
from .errors import BudgetError, MonotonicityError, PopdynError
from .goldens import (
    classify_partition_pair,
    minority_closed_forms,
    minority_scenario,
    two_group_gap_curve,
)
from .model import (
    SystemState,
    require_number,
    risk_gradient,
    risk_value,
    total_risk,
)
from .scenario_io import (
    SCHEMA_VERSION,
    STREAM_PERTURB,
    load_scenario,
    load_state,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 2
EXIT_MONOTONE = 3
EXIT_UNSTABLE = 4
EXIT_NON_EQUILIBRIUM = 5
EXIT_BUDGET = 6
EXIT_GOLDEN_MISMATCH = 7


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _atomic_write(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    _atomic_write(path, buf.getvalue())


def _write_json(path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _trajectory_header(n, m, d):
    return (["t", "total_risk"]
            + [f"subpop_risk_{i + 1}" for i in range(n)]
            + [f"learner_risk_{j + 1}" for j in range(m)]
            + [f"alpha_{i + 1}_{j + 1}" for i in range(n) for j in range(m)]
            + [f"theta_{j + 1}_{k + 1}" for j in range(m) for k in range(d)])


def _trajectory_rows(traj):
    for k, state in enumerate(traj.states):
        yield ([state.t, traj.total_risks[k]]
               + list(traj.subpop_risks[k])
               + list(traj.learner_risks[k])
               + list(state.alpha.ravel())
               + list(state.theta.ravel()))


def _summary(traj, scenario, budget):
    final = traj.final_state
    worst = float(traj.subpop_risks[-1].max())
    summary = {
        "converged": traj.converged_at is not None,
        "steps": len(traj.states) - 1,
        "converged_at": traj.converged_at,
        "final_total_risk": float(traj.total_risks[-1]),
        "worst_subpop_risk": worst,
        "classification": None,
        "stability": None,
        "margin": None,
        "welfare_gap": None,
        "frozen_learner_steps": traj.frozen_learner_steps,
        "empty_learner_flagged": bool(traj.empty_flags.any()),
    }
    try:
        report = classify_state(final, scenario, oracle_budget=budget)
        summary["classification"] = report.classification
        summary["stability"] = report.stability
        summary["margin"] = report.margin
        summary["welfare_gap"] = report.welfare_gap
    except PopdynError:
        pass
    return summary


def cmd_simulate(args) -> int:
    loaded = load_scenario(args.scenario)
    scenario = loaded.scenario
    seed = args.seed if args.seed is not None else loaded.seed
    state = loaded.initial_state
    events = [f"loaded scenario {args.scenario} (n={scenario.n}, "
              f"m={scenario.m}, d={scenario.d}, seed={seed})"]
    if args.sigma > 0:
        state = perturb(state, args.sigma, [seed, STREAM_PERTURB],
                        target=args.perturb_target)
        events.append(f"perturbed initial state: sigma={args.sigma} "
                      f"target={args.perturb_target} seed={seed}")
    max_steps = loaded.max_steps if args.max_steps is None else args.max_steps
    try:
        traj = simulate(scenario, state, max_steps, loaded.detector)
    except MonotonicityError as exc:
        events.append(f"aborted: {exc}")
        _atomic_write(os.path.join(args.out, "events.log"),
                      "\n".join(events) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MONOTONE

    if traj.converged_at is not None:
        events.append(f"detector fired: quiet window starts at step "
                      f"{traj.converged_at}")
    else:
        events.append(f"no convergence within {max_steps} steps")
    if traj.frozen_learner_steps:
        events.append(f"empty-learner freezes: {traj.frozen_learner_steps}")

    n, m, d = scenario.n, scenario.m, scenario.d
    _write_csv(os.path.join(args.out, "trajectory.csv"),
               _trajectory_header(n, m, d), _trajectory_rows(traj))
    _write_json(os.path.join(args.out, "summary.json"),
                _summary(traj, scenario, args.budget))
    _atomic_write(os.path.join(args.out, "events.log"),
                  "\n".join(events) + "\n")
    return EXIT_OK if traj.converged_at is not None else EXIT_NO_CONVERGENCE


def cmd_classify(args) -> int:
    loaded = load_scenario(args.scenario)
    state = load_state(args.state, loaded.scenario)
    report = classify_state(state, loaded.scenario, oracle_budget=args.budget)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if report.classification == "non_equilibrium":
        return EXIT_NON_EQUILIBRIUM
    if report.stability == "unstable":
        return EXIT_UNSTABLE
    return EXIT_OK


def cmd_enumerate(args) -> int:
    loaded = load_scenario(args.scenario)
    header = ["assignment", "total_risk", "classification", "stability",
              "margin", "welfare_gap"]
    rows = [["-".join(map(str, gamma_map)), total, "split_market", stability,
             margin, gap]
            for gamma_map, total, stability, margin, gap, _ in _split_rows(
                loaded.scenario, args.dedupe, args.budget)]
    out = args.out or "equilibria.csv"
    _write_csv(out, header, rows)
    print(f"{len(rows)} assignments written to {out}; "
          f"optimum total risk {rows[0][1]:.17g}")
    return EXIT_OK


def _run_phase(scenario, state, detector, max_steps):
    """Step until the detector fires where no positive share strictly prefers
    another learner (R_ij < mix_i - 1e-8; a firing on such a saddle starts a
    fresh window) or max_steps run out: (state, R, steps, converged)."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    steps = _watched_steps(scenario, state.alpha, state.theta,
                           scenario.risk_matrix(state.theta), state.t, detector)
    for used, (alpha, theta, R, *_, fired) in enumerate(steps, 1):
        converged = fired and not ((alpha > 0.0) & (
            R < (alpha * R).sum(axis=1, keepdims=True) - 1e-8)).any()
        if converged or used >= max_steps:
            return (SystemState(alpha=alpha, theta=theta, t=state.t + used),
                    R, used, converged)


def cmd_competition(args) -> int:
    loaded = load_scenario(args.scenario)
    scenario = loaded.scenario
    state = loaded.initial_state
    seed = args.seed if args.seed is not None else loaded.seed
    target_m = args.target_m
    if not scenario.m < target_m <= scenario.n:
        print(f"error: need initial m={scenario.m} < target-m <= n={scenario.n}",
              file=sys.stderr)
        return EXIT_ERROR
    max_steps = loaded.max_steps if args.max_steps is None else args.max_steps

    header = (["phase", "m", "steps", "cumulative_steps", "total_risk",
               "worst_subpop_risk", "split_learner", "grad_hypothesis"]
              + [f"subpop_risk_{i + 1}" for i in range(scenario.n)])
    rows = []
    cumulative = 0
    phase = 0
    while True:
        state, R, steps, converged = _run_phase(scenario, state,
                                                loaded.detector, max_steps)
        cumulative += steps
        if not converged:
            print(f"error: phase {phase} (m={scenario.m}) did not converge "
                  f"within {max_steps} steps", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        per_subpop = (state.alpha * R).sum(axis=1)
        total = float(scenario.beta @ per_subpop)
        if scenario.m >= target_m:
            rows.append([phase, scenario.m, steps, cumulative, total,
                         float(per_subpop.max()), None, None]
                        + list(per_subpop))
            break
        j = int(np.argmax(scenario.beta @ state.alpha))  # lowest index on ties
        hypothesis = any(
            float(np.linalg.norm(risk_gradient(scenario.risks[i],
                                               state.theta[j]))) > 1e-6
            for i in range(scenario.n) if state.alpha[i, j] > 1e-6
        )
        rows.append([phase, scenario.m, steps, cumulative, total,
                     float(per_subpop.max()), j, hypothesis]
                    + list(per_subpop))
        state, scenario = split_learner(state, scenario, j)
        rng = np.random.default_rng([seed, STREAM_PERTURB, phase])
        theta = state.theta.copy()
        for col in (j, scenario.m - 1):
            theta[col] += args.sigma * rng.standard_normal(scenario.d)
        state = SystemState(alpha=state.alpha, theta=theta, t=0)
        phase += 1

    _write_csv(os.path.join(args.out, "competition.csv"), header, rows)
    return EXIT_OK


def _goldens_minority(rows, failures):
    phi = 10.0
    for beta in np.arange(0.05, 0.951, 0.05):
        beta = round(float(beta), 10)
        scenario = minority_scenario(beta, phi)
        expected = minority_closed_forms(beta, phi)
        theta = theta_for_assignment(SplitAssignment((0, 0)), scenario)
        state = SystemState(alpha=np.ones((2, 1)), theta=theta, t=0)
        computed = {
            "theta_star": float(theta[0, 0]),
            "total_risk": total_risk(state, scenario),
            "minority_risk": risk_value(scenario.risks[1], theta[0]),
        }
        for key in expected:
            ok = abs(computed[key] - expected[key]) <= 1e-9
            rows.append(["minority", beta, phi, "", key, computed[key],
                         expected[key], ok])
            if not ok:
                failures.append(f"minority beta={beta} {key}: "
                                f"{computed[key]} vs {expected[key]}")


def _goldens_partition_agreement(rows, failures):
    phis = ([0.0], [1.0], [2.0])
    grid = np.linspace(0.04, 0.92, 20)
    band = 1e-6
    for beta2 in grid:
        for beta3 in grid:
            if beta2 + beta3 >= 0.95:
                continue
            predicate = example_c1_stability_predicate(*phis, beta2, beta3)
            report, margin = classify_partition_pair(*phis, beta2, beta3)
            certified = report.stability == "asymptotically_stable"
            slack, bound = _c1_sides(*phis, beta2, beta3)
            in_band = abs(slack - bound) < band or (
                margin is not None and abs(margin) < band)
            ok = in_band or predicate == certified
            rows.append(["partition_agreement", beta2, beta3, "",
                         "stability_match", int(certified), int(predicate),
                         ok])
            if not ok:
                failures.append(
                    f"partition beta2={beta2:.4f} beta3={beta3:.4f}: "
                    f"predicate={predicate} classified={certified}")


def _goldens_gap_curve(rows, failures):
    betas = np.linspace(0.30, 0.49, 20)
    eps = 0.01
    curve = [two_group_gap_curve(float(b), eps) for b in betas]
    canonical = two_group_gap_curve(0.4, eps)
    ok = abs(canonical["optimum"] - 0.2) <= 1e-9
    rows.append(["gap_curve", 0.4, eps, canonical["phi"],
                 "enumerated_optimum", canonical["optimum"], 0.2, ok])
    if not ok:
        failures.append("gap curve: enumerated optimum at beta=0.4 is "
                        f"{canonical['optimum']}, expected 0.2")
    for prev, cur in zip(curve, curve[1:]):
        if cur["gap_vs_claim"] <= prev["gap_vs_claim"]:
            failures.append(
                f"gap curve not increasing between beta={prev['beta']:.4f} "
                f"and beta={cur['beta']:.4f}")
    for c in curve:
        # printed expression reported, not asserted (it disagrees with the
        # group-minimization oracle; see README)
        rows.append(["gap_curve", c["beta"], eps, c["phi"], "eq_total_risk",
                     c["eq_risk"], c["printed_total_risk"], ""])
        rows.append(["gap_curve", c["beta"], eps, c["phi"], "gap_vs_optimum",
                     c["gap_vs_optimum"], "", c["gap_vs_optimum"] >= -1e-8])
        if c["phi"] > 2.0 and abs(c["optimum"] - c["claimed_optimum"]) <= 1e-9:
            ok = c["gap_vs_claim"] > 0
            rows.append(["gap_curve", c["beta"], eps, c["phi"],
                         "gap_positive", c["gap_vs_claim"], "", ok])
            if not ok:
                failures.append(f"gap curve: nonpositive gap at "
                                f"beta={c['beta']:.4f}")


def cmd_goldens(args) -> int:
    rows = []
    failures = []
    _goldens_minority(rows, failures)
    _goldens_partition_agreement(rows, failures)
    _goldens_gap_curve(rows, failures)
    header = ["golden", "p1", "p2", "p3", "quantity", "computed", "expected",
              "ok"]
    out = os.path.join(args.out, "goldens.csv")
    _write_csv(out, header, rows)
    if failures:
        for f in failures:
            print(f"MISMATCH: {f}", file=sys.stderr)
        return EXIT_GOLDEN_MISMATCH
    print(f"all goldens match; {len(rows)} rows written to {out}")
    return EXIT_OK


def cmd_probe(args) -> int:
    loaded = load_scenario(args.scenario)
    scenario = loaded.scenario
    if args.assignment is not None:
        indices = args.assignment.split(",")
        if len(indices) != scenario.n or not all(
                i.strip().isdecimal() and int(i) < scenario.m for i in indices):
            raise ValueError(f"--assignment must be {scenario.n} comma-"
                             f"separated learner indices in [0, {scenario.m}),"
                             f" got {args.assignment!r}")
        assignment = SplitAssignment(indices)
        theta = theta_for_assignment(assignment, scenario)
        state = SystemState(alpha=assignment.to_alpha(scenario.m),
                            theta=theta, t=0)
    elif args.state:
        state = load_state(args.state, scenario)
    else:
        print("error: probe needs --state or --assignment", file=sys.stderr)
        return EXIT_ERROR
    seed = args.seed if args.seed is not None else loaded.seed
    records = _probe_batch(scenario, state, args.sigma, args.trials, seed,
                           target=args.perturb_target)
    fraction = sum(r["returned"] for r in records) / args.trials
    print(json.dumps({"fraction_returned": fraction, "sigma": args.sigma,
                      "trials": args.trials, "seed": seed,
                      "trial_records": records}))
    return EXIT_OK


def _sigma(text: str) -> float:
    # argparse turns a ValueError into its own usage error (exit 2); a
    # PopdynError passes through to main, which reports it with exit 1
    try:
        return require_number(float(text), "--sigma", 0)
    except ValueError:
        raise PopdynError(
            f"--sigma must be a finite number >= 0, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popdyn",
        description="Simulate and analyze multi-learner participation dynamics",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"popdyn {__version__} (scenario schema {SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the coupled dynamics")
    sim.add_argument("scenario")
    sim.add_argument("--out", default="out")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--max-steps", type=int, default=None)
    sim.add_argument("--sigma", type=_sigma, default=0.0,
                     help="perturb the initial state before simulating")
    sim.add_argument("--perturb-target", default="theta_only",
                     choices=["theta_only", "alpha_only", "both"])
    sim.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sim.set_defaults(func=cmd_simulate)

    cls = sub.add_parser("classify", help="classify a stored state")
    cls.add_argument("scenario")
    cls.add_argument("--state", required=True)
    cls.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    cls.set_defaults(func=cmd_classify)

    enm = sub.add_parser("enumerate", help="brute-force welfare oracle")
    enm.add_argument("scenario")
    enm.add_argument("--out", default="equilibria.csv")
    enm.add_argument("--dedupe", action="store_true")
    enm.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    enm.set_defaults(func=cmd_enumerate)

    comp = sub.add_parser("competition",
                          help="split learners until target-m is reached")
    comp.add_argument("scenario")
    comp.add_argument("--target-m", type=int, required=True)
    comp.add_argument("--sigma", type=_sigma, default=1e-3)
    comp.add_argument("--seed", type=int, default=None)
    comp.add_argument("--out", default="out")
    comp.add_argument("--max-steps", type=int, default=None)
    comp.set_defaults(func=cmd_competition)

    gld = sub.add_parser("goldens", help="replay analytic reference cases")
    gld.add_argument("--out", default="out")
    gld.set_defaults(func=cmd_goldens)

    prb = sub.add_parser("probe", help="empirical stability probe")
    prb.add_argument("scenario")
    prb.add_argument("--state", default=None)
    prb.add_argument("--assignment", default=None,
                     help="comma-separated learner index per subpopulation")
    prb.add_argument("--sigma", type=_sigma, default=1e-3)
    prb.add_argument("--trials", type=int, default=10)
    prb.add_argument("--seed", type=int, default=None)
    prb.add_argument("--perturb-target", default="both",
                     choices=["theta_only", "alpha_only", "both"])
    prb.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MonotonicityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MONOTONE
    except (PopdynError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
