"""Plant each mutant of a table in a copy of the checkout and run its tests.

    python3 tools/mutants.py

Each entry of MUTANTS is (name, file, old, new, tests).  The exact text old
must occur once in file, a module of src/popdyn in this checkout.  For each
mutant the checkout is copied to a temporary folder, old is replaced by new
there, and `pytest -x -q` runs the test ids listed in tests.  A mutant is
"killed" when pytest reports a failed test (exit 1) and "survived" when
every test passes; any other exit, a run past TIMEOUT_S or an old text that
does not occur exactly once is an "error".  The mutants in SURVIVORS are
equivalent to the code and must survive; every other must be killed.  One
JSON line per mutant goes to stdout, and the exit status is 0 when every
outcome is the expected one, else 1.  When a change rewrites the code a
mutant plants into, it ports the mutant; a change that plants checks of its
own adds them here.  The script uses the standard library only.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 600

_ENGINE, _EQUILIBRIA, _CLI = "engine.py", "equilibria.py", "cli.py"
_T_ENGINE = "tests/test_engine.py::"
_T_CLI = "tests/test_cli.py::"
_T_CLASSIFY = "tests/test_equilibria.py::TestClassifyState::"
_T_ORACLE = "tests/test_equilibria.py::TestStreamedOracle::"
_T_WATCHED = _T_ENGINE + "TestWatchedBatchIndependence::"
_T_CARRY = _T_ENGINE + "TestCarriedRisk::"
_T_START = _T_ENGINE + "TestWatchedLoopStart::"
_T_GATE = _T_ENGINE + "TestPerAgentGate::"
_T_KEPT = _T_ENGINE + "TestKeptState::"

MUTANTS = [
    # the watched loop's stop rule and its drop-outs
    ("loop-labels-not-reindexed", _ENGINE,
     "labels = None if labels is None else labels[keep]",
     "labels = labels",
     [_T_WATCHED + "test_a_trip_after_a_drop_out_names_the_original_trial"]),
    ("loop-quiet-not-reset", _ENGINE,
     "quiet[i] = 0   # a window that ends on a saddle starts afresh",
     "pass",
     ["tests/test_cli.py::TestPhaseRunner::"
      "test_loose_detectors_fire_on_many_saddles"]),
    ("loop-quiet-not-filtered", _ENGINE,
     "live, quiet = [live[i] for i in keep], [quiet[i] for i in keep]",
     "live = [live[i] for i in keep]",
     [_T_WATCHED + "test_every_trial_stops_as_it_would_alone"]),
    ("loop-budget-one-step-short", _ENGINE,
     "if t == end:",
     "if t >= end - 1:",
     [_T_WATCHED + "test_one_batch_ends_every_way"]),
    ("loop-stationarity-skipped", _ENGINE,
     "if not ((s.alpha[i] > 0.0) & (s.R[i] < s.rows[i][:, None]",
     "if True or not ((s.alpha[i] > 0.0) & (s.R[i] < s.rows[i][:, None]",
     [_T_WATCHED + "test_one_batch_ends_every_way"]),
    ("probe-departure-ignored", _ENGINE,
     'stop[i] = "departed"',
     "pass",
     [_T_ENGINE + "TestStabilityProbe::test_records_describe_each_trial"]),
    ("probe-escape-ignored", _ENGINE,
     'if r["escaped_at"] is None and total < eq_risk - escape_tol:',
     "if False:",
     [_T_ENGINE + "TestStabilityProbe::test_records_describe_each_trial"]),
    ("probe-returns-at-any-distance", _ENGINE,
     'r.update(returned=r["distance"] <= return_tol,',
     "r.update(returned=True,",
     [_T_ENGINE + "TestStabilityProbe::test_balanced_point_never_returns"]),
    ("loop-delta-ignores-theta", _ENGINE,
     "delta = np.maximum(delta, np.maximum.reduce(\n"
     "                np.abs(s.theta - prev.theta), axis=(-2, -1)))",
     "delta = np.maximum(delta, 0.0)",
     [_T_ENGINE + "TestDetectEquilibrium::test_simulate_agrees_with_rescan"]),
    ("loop-theta-delta-skipped-when-not-carried", _ENGINE,
     "if s.R is not prev.R:",
     "if s.R is prev.R:",
     [_T_ENGINE + "TestDetectEquilibrium::test_simulate_agrees_with_rescan"]),
    # what simulate and the cascade report of a run
    ("frozen-steps-not-counted", _ENGINE,
     "frozen_total += int(s.frozen[0])",
     "frozen_total += 0",
     [_T_ENGINE + "TestSimulate::test_empty_learner_frozen_and_flagged"]),
    ("summary-empty-learner-never-flagged", _CLI,
     '"empty_learner_flagged": bool(traj.empty_flags.any()),',
     '"empty_learner_flagged": False,',
     [_T_CLI + "TestSimulate::test_empty_learner_cells_written_as_nan"]),
    ("cascade-hypothesis-forced-false", _ENGINE,
     "yield record._replace(split=j, hypothesis=bool(",
     "yield record._replace(split=j, hypothesis=False and bool(",
     ["tests/test_acceptance.py::test_criterion_7_competition_cascade"]),
    # the loop's start record and budget, which it owns
    ("loop-scales-its-own-risks", _ENGINE,
     "R = scenario.risk_matrix(theta)\n    Q = alpha * R",
     "R = scenario.risk_matrix(theta) * 0.5\n    Q = alpha * R",
     [_T_START + "test_a_fixed_point_records_its_own_risks"]),
    ("start-record-total-scaled", _ENGINE,
     "_beta_sums(rows, scenario.beta),",
     "_beta_sums(rows, scenario.beta) * 2,",
     [_T_START + "test_the_first_record_is_the_start"]),
    ("loop-skips-its-budget-check", _ENGINE,
     '    require_number(max_steps, "max_steps", 1, integer=True)\n',
     "",
     [_T_START + "test_every_run_rejects_a_bad_budget"]),
    # the gate: its halves, their order, what a trip reports
    ("gate-allocation-half-dropped", _ENGINE,
     "rows_after <= prev.rows + MONOTONE_TOL,",
     "rows_after == rows_after,",
     [_T_GATE + "test_allocation_half_names_the_subpopulation"]),
    ("gate-learner-gain-sign-flipped", _ENGINE,
     "gains = beta @ (Q - P)",
     "gains = beta @ (P - Q)",
     [_T_GATE + "test_learner_half_names_the_learner"]),
    ("gate-halves-in-reverse-order", _ENGINE,
     "h = next(h for h in range(3) if not ok[h].all())",
     "h = next(h for h in reversed(range(3)) if not ok[h].all())",
     [_T_GATE + "test_total_half_keeps_precedence"]),
    ("gate-reports-the-trial-as-the-index", _ENGINE,
     "int(pos[1]) if h else None)",
     "int(pos[0]) if h else None)",
     [_T_GATE + "test_learner_half_names_the_learner"]),
    ("gate-learner-values-unnormalized", _ENGINE,
     "mass = masses[pos] if h == 2 else 1.0",
     "mass = 1.0",
     [_T_GATE + "test_learner_slack_is_per_unit_mass"]),
    ("gate-count-verdict-drops-the-learner-half", _ENGINE,
     "if all(np.count_nonzero(c) == c.size for c in ok):",
     "if all(np.count_nonzero(c) == c.size for c in ok[:2]):",
     [_T_GATE + "test_learner_half_names_the_learner"]),
    ("gate-learner-slack-not-scaled-by-mass", _ENGINE,
     "gains <= MONOTONE_TOL * masses)",
     "gains <= MONOTONE_TOL)",
     [_T_GATE + "test_learner_slack_is_per_unit_mass"]),
    # each trial's total is its own row's sum, as it would be alone
    ("totals-summed-as-one-product", _ENGINE,
     "return (rows[..., None, :] @ beta)[..., 0]",
     "return rows @ beta",
     [_T_KEPT + "test_carried_sums_are_the_yielded_states"]),
    # the step's risk-matrix carry
    ("carry-when-theta-moved-below-1e-12", _ENGINE,
     "if theta2 is theta or theta2.tobytes() == theta.tobytes():",
     "if theta2 is theta or np.abs(theta2 - theta).max() < 1e-12:",
     [_T_START + "test_a_move_of_a_zero_evaluates_fresh_risks"]),
    ("carry-always", _ENGINE,
     "if theta2 is theta or theta2.tobytes() == theta.tobytes():",
     "if True:",
     [_T_CARRY + "test_a_still_theta_carries_the_previous_risks"]),
    ("carry-when-theta-compares-equal", _ENGINE,
     "if theta2 is theta or theta2.tobytes() == theta.tobytes():",
     "if theta2 is theta or np.array_equal(theta2, theta):",
     [_T_START + "test_a_move_of_a_zero_evaluates_fresh_risks"]),
    # the learner update's shortcut when no pair is held
    ("theta-all-updating-keyed-on-the-schedule", _ENGINE,
     "if moving == updating.size:",
     "if np.count_nonzero(scheduled) == scheduled.size:",
     [_T_ENGINE + "TestSimulate::test_empty_learner_frozen_and_flagged"]),
    # a last-bit change of the MWUD cost shows in the CLI digest
    ("mwud-cost-off-by-1e-12", _ENGINE,
     "cost = gamma * R   #",
     "cost = gamma * R * (1 + 1e-12)   #",
     ["tests/test_cli_digest.py::"
      "test_every_cli_output_is_byte_identical_to_the_digest"]),
    # the permutation distance's exit when the identity attains the bound
    ("distance-exit-above-the-bound", _ENGINE,
     "if cost.diagonal().max() <= bound:   # the identity attains the bound\n"
     "        return float(bound)",
     "if True:\n        return float(cost.diagonal().max())",
     [_T_ENGINE + "TestPermutationDistance::"
      "test_settled_at_the_bound_by_one_matching"]),
    # the classifier's verdicts
    ("classify-uncovered-learners-ignored", _EQUILIBRIA,
     "_stability(margin, not uncovered)",
     "_stability(margin)",
     [_T_CLASSIFY
      + "test_uncovered_learner_blocks_stability_at_a_positive_margin"]),
    ("strict-margin-zero", _EQUILIBRIA,
     "STRICT_MARGIN = 1e-9",
     "STRICT_MARGIN = 0",
     [_T_CLASSIFY + "test_margin_inside_strict_margin_is_unstable"]),
    ("balanced-risk-equivalence-skipped", _EQUILIBRIA,
     "if max(spreads.values()) <= ZERO_TOL:",
     "if True:",
     [_T_CLASSIFY + "test_non_equilibrium_interior_state"]),
    ("balanced-optimality-skipped", _EQUILIBRIA,
     "optimal = max(opt_norms.values()) <= ZERO_TOL",
     "optimal = True",
     [_T_CLASSIFY + "test_three_centers_balanced_point_unstable"]),
    # the goldens' comparisons (the minority family's, which a test breaks)
    ("goldens-ok-forced-true", "goldens.py",
     "abs(computed[key] - value) <= GOLDEN_TOL]",
     "True]",
     [_T_CLI + "TestGoldens::test_wrong_closed_form_is_a_mismatch"]),
    # the run limits, each checked once where it enters
    ("parse-rule-ignores-its-bound", _CLI,
     "require_number(kind(text), name, low, integer=kind is int)",
     'require_number(kind(text), name, float("-inf"), integer=kind is int)',
     [_T_CLI + "TestErrorHandling::test_a_bad_count_names_its_option"]),
    ("load-file-fields-win", "scenario_io.py",
     "{**data, **fields}",
     "{**fields, **data}",
     ["tests/test_scenario_io.py::TestParsing::"
      "test_given_fields_replace_the_files_before_the_draw"]),
    ("load-drops-max-steps", _CLI,
     'for key in ("seed", "max_steps")}',
     'for key in ("seed",)}',
     [_T_CLI + "TestSimulate::test_unoptimized_final_state_has_no_classification"]),
    ("budget-rule-refuses-an-equal-count", _EQUILIBRIA,
     'if count > require_number(budget, "budget", 0, integer=True):',
     'if count >= require_number(budget, "budget", 0, integer=True):',
     [_T_CLASSIFY + "test_welfare_gap_attached_when_budget_allows"]),
    ("budget-rule-without-its-type-check", _EQUILIBRIA,
     'if count > require_number(budget, "budget", 0, integer=True):',
     "if count > budget:",
     ["tests/test_equilibria.py::TestEnumerate::"
      "test_a_bad_budget_is_an_error_not_a_budget_error"]),
    # the oracle's margins and streamed optimum
    ("margins-own-members-unmasked", _EQUILIBRIA,
     "others = np.where(member, np.inf, R)",
     "others = R",
     [_T_ORACLE + "test_chunked_margins_match_the_reference"]),
    ("optimum-labels-summed-in-reverse", _EQUILIBRIA,
     "for j in range(m):\n                totals += value[",
     "for j in reversed(range(m)):\n                totals += value[",
     [_T_ORACLE + "test_optimum_is_the_first_report"]),
    ("optimum-first-prefix-block-only", _EQUILIBRIA,
     "np.split(prefixes, range(step, len(prefixes), step)):",
     "np.split(prefixes, range(step, len(prefixes), step))[:1]:",
     [_T_ORACLE + "test_optimum_is_the_first_report"]),
    ("optimum-min-drops-nan", _EQUILIBRIA,
     "best = np.minimum(best, totals.min())",
     "best = min(best, totals.min())",
     [_T_ORACLE + "test_optimum_keeps_a_nan_total"]),
    # equivalent: the gate's halves in the same order
    ("noop-gate-halves-as-a-tuple", _ENGINE,
     "h = next(h for h in range(3) if not ok[h].all())",
     "h = next(h for h in (0, 1, 2) if not ok[h].all())",
     [_T_ENGINE + "TestPerAgentGate"]),
]

SURVIVORS = {"noop-gate-halves-as-a-tuple"}

# not copied: version control, caches and earlier runs' outputs
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                 ".pytest_cache", "*.egg-info")


def plant_problems(root, mutants=MUTANTS):
    """One message per mutant whose old text does not occur exactly once in
    its module under root/src/popdyn; an empty list when every one fits."""
    problems = []
    for name, file, old, _, _ in mutants:
        path = os.path.join(root, "src", "popdyn", file)
        with open(path) as fh:
            found = fh.read().count(old)
        if found != 1:
            problems.append(f"{name}: old text occurs {found} times in {file}")
    return problems


def run_mutant(root, mutant):
    """(outcome, seconds) of one mutant, planted in a copy of root."""
    name, file, old, new, tests = mutant
    if plant_problems(root, [mutant]):
        return "error", 0.0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(root, copy, ignore=_IGNORE)
        path = os.path.join(copy, "src", "popdyn", file)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(copy, "src")]
            + [p for p in [os.environ.get("PYTHONPATH")] if p])
        try:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p",
                 "no:cacheprovider", *tests], cwd=copy, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
    outcome = {0: "survived", 1: "killed"}.get(code, "error")
    return outcome, round(time.perf_counter() - start, 1)


def main():
    root = os.path.dirname(HERE)
    ok = True
    for mutant in MUTANTS:
        outcome, seconds = run_mutant(root, mutant)
        expected = "survived" if mutant[0] in SURVIVORS else "killed"
        ok &= outcome == expected
        print(json.dumps({"name": mutant[0], "file": mutant[1],
                          "outcome": outcome, "expected": expected,
                          "seconds": seconds}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
