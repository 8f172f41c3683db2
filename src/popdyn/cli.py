"""Command-line front end.

Subcommands: simulate, classify, enumerate, competition, goldens, probe.
All output files are written atomically (temp file + rename) so no command
leaves partial CSV/JSON behind on failure.  Floats are written with 17
significant digits and '.' as the decimal separator.  CSV cells are never
quoted because none needs it: numbers, dash-joined labels and fixed words.

Exit codes: 0 success/converged/stable, 1 error (a usage error too), 2
max-steps without convergence, 3 risk-reducing violation (the total risk,
or the average risk of one subpopulation or the mixture risk of one
learner, rose in a step), 4 unstable, 5 non-equilibrium, 6 enumeration
budget exceeded, 7 golden mismatch.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .engine import PERTURB_TARGETS, _cascade, _probe_batch, perturb, simulate
from .equilibria import (
    DEFAULT_BUDGET,
    SplitAssignment,
    _split_ranking,
    _stability,
    classify_state,
    theta_for_assignment,
)
from .errors import BudgetError, MonotonicityError, PopdynError
from .goldens import golden_rows
from .model import SystemState, require_number
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

# an error's exit code: that of the first class it is an instance of, else
# EXIT_ERROR
_EXIT_CODES = ((BudgetError, EXIT_BUDGET), (MonotonicityError, EXIT_MONOTONE))

CSV_CHUNK_CELLS = 1 << 15   # cells per %-template call: bounds those held


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


def _atomic_write(path, chunks) -> None:
    """Temp file + rename: on any error, chunks' own too, path is untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header, line, count, cells) -> None:
    """Header, then count rows in chunks of CSV_CHUNK_CELLS cells (one row at
    least): cells(s) returns the rows of slice s as a 2-D array or row lists
    whose cells fill line, one row's %-template."""
    step = max(1, CSV_CHUNK_CELLS // line.count("%"))
    blocks = (cells(slice(lo, lo + step)) for lo in range(0, count, step))
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], (
        (line * len(block)) % tuple(np.asarray(block, object).ravel().tolist())
        for block in blocks)))


def _write_table(path, header, rows) -> None:   # mixed types, via _fmt
    _write_csv(path, header, ",".join(["%s"] * len(header)) + "\n", len(rows),
               lambda s: [list(map(_fmt, row)) for row in rows[s]])


def _summary(traj, scenario, budget):
    try:   # a state classify_state rejects leaves the report's keys null
        report = classify_state(traj.final_state, scenario,
                                oracle_budget=budget).to_dict()
    except PopdynError:
        report = {}
    summary = {
        "converged": traj.converged_at is not None,
        "steps": len(traj.states) - 1,
        "converged_at": traj.converged_at,
        "final_total_risk": float(traj.total_risks[-1]),
        "worst_subpop_risk": float(traj.subpop_risks[-1].max()),
        "frozen_learner_steps": traj.frozen_learner_steps,
        "empty_learner_flagged": bool(traj.empty_flags.any()),
        **{key: report.get(key) for key in ("classification", "stability",
                                            "margin", "welfare_gap")},
    }
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def _load(args):
    """The scenario file args.scenario, with --seed and --max-steps in
    place of its seed and step budget where the command has them and they
    are given, before the initial state is drawn."""
    given = {key: getattr(args, key, None) for key in ("seed", "max_steps")}
    return load_scenario(args.scenario, **{
        key: value for key, value in given.items() if value is not None})


def cmd_simulate(args) -> int:
    loaded = _load(args)
    scenario, seed, state = loaded.scenario, loaded.seed, loaded.initial_state
    events = [f"loaded scenario {args.scenario} (n={scenario.n}, "
              f"m={scenario.m}, d={scenario.d}, seed={seed})"]
    if args.sigma > 0:
        state = perturb(state, args.sigma, [seed, STREAM_PERTURB],
                        target=args.perturb_target)
        events.append(f"perturbed initial state: sigma={args.sigma} "
                      f"target={args.perturb_target} seed={seed}")
    try:
        traj = simulate(scenario, state, loaded.max_steps, loaded.detector)
    except MonotonicityError as exc:
        events.append(f"aborted: {exc}")
        _atomic_write(os.path.join(args.out, "events.log"),
                      ["\n".join(events) + "\n"])
        raise   # main reports it with EXIT_MONOTONE

    if traj.converged_at is not None:
        events.append(f"detector fired: quiet window starts at step "
                      f"{traj.converged_at}")
    else:
        events.append(f"no convergence within {loaded.max_steps} steps")
    if traj.frozen_learner_steps:
        events.append(f"empty-learner freezes: {traj.frozen_learner_steps}")

    n, m, d = scenario.n, scenario.m, scenario.d
    header = (["t", "total_risk"] + [f"subpop_risk_{i + 1}" for i in range(n)]
              + [f"learner_risk_{j + 1}" for j in range(m)]
              + [f"alpha_{i + 1}_{j + 1}" for i in range(n) for j in range(m)]
              + [f"theta_{j + 1}_{k + 1}" for j in range(m) for k in range(d)])
    _write_csv(os.path.join(args.out, "trajectory.csv"), header,
               "%d" + ",%.17g" * (len(header) - 1) + "\n", len(traj.states),
               lambda s: np.column_stack([
                   np.array([x.t for x in traj.states[s]], dtype=object),
                   traj.total_risks[s],
                   traj.subpop_risks[s], traj.learner_risks[s],
                   [x.alpha.ravel() for x in traj.states[s]],
                   [x.theta.ravel() for x in traj.states[s]]]))
    _atomic_write(os.path.join(args.out, "summary.json"),
                  [_summary(traj, scenario, args.budget)])
    _atomic_write(os.path.join(args.out, "events.log"),
                  ["\n".join(events) + "\n"])
    return EXIT_OK if traj.converged_at is not None else EXIT_NO_CONVERGENCE


def cmd_classify(args) -> int:
    loaded = _load(args)
    state = load_state(args.state, loaded.scenario)
    report = classify_state(state, loaded.scenario, oracle_budget=args.budget)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if report.classification == "non_equilibrium":
        return EXIT_NON_EQUILIBRIUM
    if report.stability == "unstable":
        return EXIT_UNSTABLE
    return EXIT_OK


def cmd_enumerate(args) -> int:
    scenario = _load(args).scenario
    rows, totals, margins, _ = _split_ranking(scenario, args.dedupe, args.budget)
    header = ["assignment", "total_risk", "classification", "stability",
              "margin", "welfare_gap"]
    m = scenario.m
    # one learner has no margin (+inf here): %.0s leaves its cell empty
    line = ("%s,%.17g,split_market,%s," + ("%.17g" if m > 1 else "%.0s")
            + ",%.17g\n")
    # "j0-j1-...": per-label strings, "-" before all but the first column's
    labels = [np.array([f"{sep}{j}" for j in range(m)]) for sep in ("", "-")]
    out = args.out or "equilibria.csv"
    _write_csv(out, header, line, len(totals), lambda s: np.column_stack([
        functools.reduce(np.char.add, (labels[i > 0][column] for i, column in
                                       enumerate(rows[s].T))).astype(object),
        totals[s], _stability(margins[s]), margins[s], totals[s] - totals[0]]))
    print(f"{len(totals)} assignments written to {out}; "
          f"optimum total risk {totals[0]:.17g}")
    return EXIT_OK


def cmd_competition(args) -> int:
    loaded = _load(args)
    scenario = loaded.scenario
    if not scenario.m < args.target_m <= scenario.n:
        raise ValueError(
            f"need initial m={scenario.m} < target-m <= n={scenario.n}")

    header = (["phase", "m", "steps", "cumulative_steps", "total_risk",
               "worst_subpop_risk", "split_learner", "grad_hypothesis"]
              + [f"subpop_risk_{i + 1}" for i in range(scenario.n)])
    rows, cumulative, code = [], 0, EXIT_OK
    for phase, p in enumerate(_cascade(
            scenario, loaded.initial_state, args.target_m, loaded.detector,
            loaded.max_steps, args.sigma, [loaded.seed, STREAM_PERTURB])):
        cumulative += p.steps
        if p.stop != "detector":   # the last phase
            print(f"error: phase {phase} (m={p.scenario.m}) did not converge "
                  f"within {loaded.max_steps} steps", file=sys.stderr)
            code = EXIT_NO_CONVERGENCE
            break
        rows.append([phase, p.scenario.m, p.steps, cumulative, p.total,
                     float(p.rows.max()), p.split, p.hypothesis]
                    + list(p.rows))

    if rows:   # the phases that converged, when a later one did not
        _write_table(os.path.join(args.out, "competition.csv"), header, rows)
    return code


def cmd_goldens(args) -> int:
    header = ["golden", "p1", "p2", "p3", "quantity", "computed", "expected",
              "ok"]
    rows = list(golden_rows())
    out = os.path.join(args.out, "goldens.csv")
    _write_table(out, header, rows)
    failed = [row for row in rows if row[-1] is not None and not row[-1]]
    for row in failed:
        print("MISMATCH:", *map("=".join, zip(header, map(_fmt, row[:-1]))),
              file=sys.stderr)
    if failed:
        return EXIT_GOLDEN_MISMATCH
    print(f"all goldens match; {len(rows)} rows written to {out}")
    return EXIT_OK


def cmd_probe(args) -> int:
    loaded = _load(args)
    scenario = loaded.scenario
    if args.assignment is not None:
        indices = args.assignment.split(",")
        if len(indices) != scenario.n or not all(
                i.strip().isdecimal() and int(i) < scenario.m for i in indices):
            raise ValueError(f"--assignment must be {scenario.n} comma-"
                             f"separated learner indices in [0, {scenario.m}),"
                             f" got {args.assignment!r}")
        assignment = SplitAssignment(map(int, indices))
        state = SystemState(assignment.to_alpha(scenario.m),
                            theta_for_assignment(assignment, scenario), 0)
    else:
        state = load_state(args.state, scenario)
    records = _probe_batch(scenario, state, args.sigma, args.trials,
                           loaded.seed, target=args.perturb_target)
    fraction = sum(r["returned"] for r in records) / args.trials
    print(json.dumps({"fraction_returned": fraction, "sigma": args.sigma,
                      "trials": args.trials, "seed": loaded.seed,
                      "trial_records": records}))
    return EXIT_OK


def _at_least(name: str, low: int, kind=int):
    """The argparse type of the numeric option name: kind(text), an integer
    (a finite number for kind float) >= low.  Bad text raises a PopdynError
    naming the option, which main reports with exit 1 before any command
    runs; argparse would turn a ValueError into its own "invalid ... value"
    message, which names no bound."""
    what = "an integer" if kind is int else "a finite number"

    def parse(text: str):
        try:
            return require_number(kind(text), name, low, integer=kind is int)
        except ValueError:
            raise PopdynError(f"{name} must be {what} >= {low}, got {text!r}") from None
    return parse


class _Parser(argparse.ArgumentParser):
    """A usage error is a PopdynError, exit 1: 2 is EXIT_NO_CONVERGENCE."""
    def error(self, message):
        raise PopdynError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="popdyn",
        description="Simulate and analyze multi-learner participation dynamics",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"popdyn {__version__} (scenario schema {SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)
    # the types of the numeric options shared by several commands
    seed, steps = _at_least("--seed", 0), _at_least("--max-steps", 1)
    sigma, budget = _at_least("--sigma", 0, float), _at_least("--budget", 0)

    sim = sub.add_parser("simulate", help="run the coupled dynamics")
    sim.add_argument("scenario")
    sim.add_argument("--out", default="out")
    sim.add_argument("--seed", type=seed, default=None)
    sim.add_argument("--max-steps", type=steps, default=None)
    sim.add_argument("--sigma", type=sigma, default=0.0,
                     help="perturb the initial state before simulating")
    sim.add_argument("--perturb-target", default="theta_only",
                     choices=PERTURB_TARGETS)
    sim.add_argument("--budget", type=budget, default=DEFAULT_BUDGET)
    sim.set_defaults(func=cmd_simulate)

    cls = sub.add_parser("classify", help="classify a stored state")
    cls.add_argument("scenario")
    cls.add_argument("--state", required=True)
    cls.add_argument("--budget", type=budget, default=DEFAULT_BUDGET)
    cls.set_defaults(func=cmd_classify)

    enm = sub.add_parser("enumerate", help="brute-force welfare oracle")
    enm.add_argument("scenario")
    enm.add_argument("--out", default="equilibria.csv")
    enm.add_argument("--dedupe", action="store_true")
    enm.add_argument("--budget", type=budget, default=DEFAULT_BUDGET)
    enm.set_defaults(func=cmd_enumerate)

    comp = sub.add_parser("competition",
                          help="split learners until target-m is reached")
    comp.add_argument("scenario")
    comp.add_argument("--target-m", type=_at_least("--target-m", 1), required=True)
    comp.add_argument("--sigma", type=sigma, default=1e-3)
    comp.add_argument("--seed", type=seed, default=None)
    comp.add_argument("--out", default="out")
    comp.add_argument("--max-steps", type=steps, default=None)
    comp.set_defaults(func=cmd_competition)

    gld = sub.add_parser("goldens", help="replay analytic reference cases")
    gld.add_argument("--out", default="out")
    gld.set_defaults(func=cmd_goldens)

    prb = sub.add_parser("probe", help="empirical stability probe")
    prb.add_argument("scenario")
    target = prb.add_mutually_exclusive_group(required=True)
    target.add_argument("--state", default=None)
    target.add_argument("--assignment", default=None,
                        help="comma-separated learner index per subpopulation")
    prb.add_argument("--sigma", type=sigma, default=1e-3)
    prb.add_argument("--trials", type=_at_least("--trials", 1), default=10)
    prb.add_argument("--seed", type=seed, default=None)
    prb.add_argument("--perturb-target", default="both", choices=PERTURB_TARGETS)
    prb.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (PopdynError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES
                     if isinstance(exc, kind)), EXIT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
