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

_ENGINE, _EQUILIBRIA = "engine.py", "equilibria.py"
_T_ENGINE = "tests/test_engine.py::"
_T_ORACLE = "tests/test_equilibria.py::TestStreamedOracle::"
_T_WATCHED = _T_ENGINE + "TestWatchedBatchIndependence::"
_T_CARRY = _T_ENGINE + "TestCarriedRisk::"
_T_START = _T_ENGINE + "TestWatchedLoopStart::"

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
     "if not ((alpha[i] > 0.0) & (R[i] < rows[i][:, None]",
     "if True or not ((alpha[i] > 0.0) & (R[i] < rows[i][:, None]",
     [_T_WATCHED + "test_one_batch_ends_every_way"]),
    ("probe-departure-ignored", _ENGINE,
     'stop[i] = "departed"',
     "pass",
     [_T_ENGINE + "TestStabilityProbe::test_records_describe_each_trial"]),
    # the loop's start and budget, which it owns
    ("loop-scales-its-own-risks", _ENGINE,
     "R = scenario.risk_matrix(theta)\n    rows = (alpha * R)",
     "R = scenario.risk_matrix(theta) * 0.5\n    rows = (alpha * R)",
     [_T_START + "test_a_fixed_point_records_its_own_risks"]),
    ("loop-skips-its-budget-check", _ENGINE,
     '    require_number(max_steps, "max_steps", 1, integer=True)\n',
     "",
     [_T_START + "test_every_run_rejects_a_bad_budget"]),
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
    # a last-bit change of the MWUD cost shows in the CLI digest
    ("mwud-cost-off-by-1e-12", _ENGINE,
     "cost = gamma * R   #",
     "cost = gamma * R * (1 + 1e-12)   #",
     ["tests/test_cli_digest.py::"
      "test_every_cli_output_is_byte_identical_to_the_digest"]),
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
