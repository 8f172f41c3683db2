"""Digest every CLI output of one checkout, to compare two checkouts.

    python3 tools/cli_digest.py [--root CHECKOUT] > digest.jsonl
    python3 tools/cli_digest.py [--root CHECKOUT] --against OTHER

Runs, each in a fresh interpreter with CHECKOUT/src first on the path
(CHECKOUT defaults to the checkout holding this script):

- ``simulate`` on every shipped scenario, and on two derived ones that
  hold learners back: ``competition12`` under a ``round_robin_learners``
  schedule, and ``three_centers`` started with every subpopulation on
  learner 0, so that learner 1 is empty on every step;
- ``simulate --sigma 1e-3`` on ``competition12``, a longer trajectory;
- ``simulate`` on ``three_centers`` with ``--budget 1``, whose summary has
  no welfare gap, and for one step on a copy with ``repeated_gd`` learners,
  whose final state is not classified;
- ``simulate --seed 5 --max-steps 3`` on a copy of ``three_centers`` saved
  with seed 0 whose learners (``random_gaussian``) and shares
  (``random_dirichlet``) are drawn from the seed, so they are drawn from 5;
- ``competition`` on ``competition12`` (to m=12) and ``competition50``
  (to m=50);
- ``competition`` to m=12 and ``simulate --sigma 1e-3`` on two copies of
  ``competition12`` whose risks all have one curvature: diag(1, 3), whose
  normal equations are solved by division, and [[2, 0.5], [0.5, 1]], which
  LAPACK solves (every shipped scenario has identity curvature, so the
  other runs never reach LAPACK);
- ``probe`` on ``three_centers`` and ``competition12``;
- ``classify`` at states that reach every branch of ``classify_state``:
  on ``three_centers`` at its split state (0, 1, 1) with the optimal
  parameters, at its balanced initial state, with one subpopulation spread
  over learners of unequal risk, and with learner 1 empty; at that
  balanced state on a copy whose risks have curvature [[2.0]]; and on
  copies with other centers or learner counts, at a split with a negative
  margin, a split with an uncovered learner, a one-learner split and a
  balanced state that is possibly stable;
- ``classify --budget`` on a copy of ``competition12`` with m=4, at a split
  state with the optimal parameters: its welfare gap is measured against
  the optimum over all S(12, 4) = 611,501 assignments, which is exactly the
  budget;
- ``enumerate --dedupe`` on every shipped scenario with n <= 12; on a copy
  of ``three_centers`` with one learner, whose margin cells are empty; on a
  copy of ``competition12`` with m=11, whose labels run to two digits; and
  on a copy of ``competition50`` widened to n=70 (20 more subpopulations,
  the first 20 centers moved by (0.5, 0.5)) with m=69: its 2,415
  assignments have far fewer group keys than the 2**70 possible, so the
  catalog sorts them, and each key spans two 64-bit words;
- ``enumerate`` without ``--dedupe`` on ``three_centers`` and
  ``two_group_gap``;
- ``goldens``;
- on a ``best_response`` copy of ``three_centers``: ``simulate``, ``simulate
  --sigma 1e-3 --perturb-target both``, ``probe --assignment 0,1,1`` and
  ``competition --target-m 3``; and ``simulate --sigma 1e-3
  --perturb-target alpha_only`` on a copy whose rule has ``tie_tolerance``
  0.05 and ``tie_policy`` ``keep_previous``: both learners start at one
  parameter, so every row is tied, and ``keep_previous`` keeps the
  perturbed rows where ``split_evenly`` would return to even ones (with
  ``--perturb-target both``, or unperturbed, the two policies write the
  same trajectory).

All runs start in one temporary directory, with relative paths, and write
their outputs there, as do the derived scenarios and the state files that
``classify`` reads; it is removed at the end.  Prints one JSON line per
output file: the run's name, its exit code, the file and the file's sha256
and size.  ``probe`` and ``classify`` write their result to standard output,
which is digested as ``stdout.json``.  Run it on two checkouts and diff the
two outputs; the script uses the standard library only.

``--against OTHER`` runs both checkouts instead and prints one JSON line per
output file, with both exit codes and whether the digests agree.  Where they
differ it adds both files' row counts and, per value group that both files
have, over the rows both have, the largest absolute and relative difference
of the numbers and the count of other values that differ; groups found in
one file only (a new column or JSON key) are listed under ``only``.  A
CSV's rows are its data rows and a JSON document is one row; any other file
compares line by line.  A CSV column's group is its name without index
suffixes (``alpha_2_1`` is in ``alpha``), a JSON value's is its key path
without list indices (``trial_records.distance``).  The exit code is 1 when
some output differs.
"""

import argparse
import csv
import glob
import hashlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
# enumerate's catalog grows as S(n, m); the cascade scenarios' n=50 is far
# past the oracle's budget
ENUMERATE_MAX_N = 12


def _runs(root, workdir):
    """(name, CLI arguments with {out} for the run's directory) per run.  The
    shipped scenarios are copied to workdir/scenarios and named by a path
    relative to workdir, so that logs that quote it agree across checkouts."""
    os.makedirs(os.path.join(workdir, "scenarios"))
    scenarios = {}
    for src in sorted(glob.glob(os.path.join(root, "src", "popdyn", "scenarios",
                                             "*.json"))):
        path = os.path.join("scenarios", os.path.basename(src))
        shutil.copyfile(src, os.path.join(workdir, path))
        scenarios[os.path.basename(src)[:-5]] = path
    runs = [(f"simulate-{name}", ["simulate", path, "--out", "{out}"])
            for name, path in scenarios.items()]
    for base, name, change in (
            ("competition12", "round_robin_learners",
             {"schedule": {"kind": "round_robin_learners"}}),
            ("three_centers", "empty_learner",
             {"initial_alpha": {"kind": "explicit",
                                "alpha": [[1, 0], [1, 0], [1, 0]]}})):
        path = _derived(workdir, scenarios[base], name, change)
        runs.append((f"simulate-{base}-{name}",
                     ["simulate", path, "--out", "{out}"]))
    runs.append(("simulate-competition12-sigma",
                 ["simulate", scenarios["competition12"], "--sigma", "1e-3",
                  "--out", "{out}"]))
    # one gradient step leaves the learners off their optima: classify_state
    # rejects the final state, and the summary's report keys are null
    gd = _derived(workdir, scenarios["three_centers"], "repeated_gd",
                  {"learner_rule": {"kind": "repeated_gd", "base": 0.4}})
    runs += [("simulate-three_centers-repeated_gd-sigma",
              ["simulate", gd, "--sigma", "1e-3", "--max-steps", "1",
               "--out", "{out}"]),
             ("simulate-three_centers-budget1",
              ["simulate", scenarios["three_centers"], "--budget", "1",
               "--out", "{out}"])]
    # the learners and shares are drawn from the seed, which --seed 5
    # replaces before they are drawn
    drawn = _derived(workdir, scenarios["three_centers"], "random_init", {
        "seed": 0, "learners": {"m": 2, "init": {"kind": "random_gaussian"}},
        "initial_alpha": {"kind": "random_dirichlet"}})
    runs.append(("simulate-three_centers-random_init-seed5",
                 ["simulate", drawn, "--seed", "5", "--max-steps", "3",
                  "--out", "{out}"]))
    runs += [(f"competition-{name}", ["competition", scenarios[name],
                                      "--target-m", str(m), "--out", "{out}"])
             for name, m in (("competition12", 12), ("competition50", 50))]
    with open(os.path.join(workdir, scenarios["competition12"])) as fh:
        population = json.load(fh)["population"]
    for name, curvature in (("diagonal", [[1.0, 0.0], [0.0, 3.0]]),
                            ("full", [[2.0, 0.5], [0.5, 1.0]])):
        name = f"{name}_curvature"
        path = _derived(workdir, scenarios["competition12"], name, {
            "population": {**population, "risks": [
                {**risk, "curvature": curvature}
                for risk in population["risks"]]}})
        runs += [(f"competition-competition12-{name}",
                  ["competition", path, "--target-m", "12", "--out", "{out}"]),
                 (f"simulate-competition12-{name}-sigma",
                  ["simulate", path, "--sigma", "1e-3", "--out", "{out}"])]
    runs += [("probe-three_centers", ["probe", scenarios["three_centers"],
                                      "--assignment", "0,1,1"]),
             ("probe-competition12", ["probe", scenarios["competition12"],
                                      "--assignment", ",".join("0" * 6 + "1" * 6)])]
    runs += _classify_runs(workdir, scenarios["three_centers"])
    for name, path in scenarios.items():
        with open(os.path.join(workdir, path)) as fh:
            n = len(json.load(fh)["population"]["betas"])
        if n <= ENUMERATE_MAX_N:
            runs.append((f"enumerate-{name}", ["enumerate", path, "--dedupe",
                                               "--out", "{out}/equilibria.csv"]))
    one_learner = _derived(workdir, scenarios["three_centers"], "m1", {
        "learners": {"m": 1, "init": {"kind": "explicit", "theta": [[1.0]]}}})
    runs.append(("enumerate-three_centers-m1", ["enumerate", one_learner,
                                                "--dedupe", "--out",
                                                "{out}/equilibria.csv"]))
    with open(os.path.join(workdir, scenarios["competition50"])) as fh:
        population = json.load(fh)["population"]
    risks = population["risks"] + [   # 20 more: centers moved by (0.5, 0.5)
        {**risk, "center": [x + 0.5 for x in risk["center"]]}
        for risk in population["risks"][:20]]
    for base, name, m, change in (
            ("competition12", "m11", 11, {}),
            ("competition50", "n70_m69", 69, {"population": {
                **population, "betas": [1 / 70] * 70, "risks": risks}})):
        path = _derived(workdir, scenarios[base], name, {**change, "learners": {
            "m": m, "init": {"kind": "centers_subset",
                             "indices": list(range(m))}}})
        runs.append((f"enumerate-{base}-{name}", ["enumerate", path, "--dedupe",
                                                  "--out",
                                                  "{out}/equilibria.csv"]))
    runs.append(_classify_budget_run(workdir, scenarios["competition12"]))
    runs += [(f"enumerate-{name}-all", ["enumerate", scenarios[name], "--out",
                                        "{out}/equilibria.csv"])
             for name in ("three_centers", "two_group_gap")]
    runs.append(("goldens", ["goldens", "--out", "{out}"]))
    return runs + _best_response_runs(workdir, scenarios["three_centers"])


def _best_response_runs(workdir, three_centers):
    """Runs on best-response copies of three_centers: no shipped scenario
    uses that rule.  The second copy keeps the previous row over a tied set
    0.05 wide."""
    path = _derived(workdir, three_centers, "best_response",
                    {"subpop_rule": {"kind": "best_response"}})
    ties = _derived(workdir, three_centers, "best_response_ties", {
        "subpop_rule": {"kind": "best_response", "tie_tolerance": 0.05,
                        "tie_policy": "keep_previous"}})
    name = "three_centers-best_response"
    return [(f"simulate-{name}", ["simulate", path, "--out", "{out}"]),
            (f"simulate-{name}-sigma",
             ["simulate", path, "--sigma", "1e-3", "--perturb-target", "both",
              "--out", "{out}"]),
            (f"probe-{name}", ["probe", path, "--assignment", "0,1,1"]),
            (f"competition-{name}", ["competition", path, "--target-m", "3",
                                     "--out", "{out}"]),
            (f"simulate-{name}_ties",
             ["simulate", ties, "--sigma", "1e-3", "--perturb-target",
              "alpha_only", "--out", "{out}"])]


def _classify_budget_run(workdir, competition12):
    """classify on an m=4 copy of competition12 (equal weights, identity
    curvatures) at a split of its centers into four groups, each learner at
    its group's mean center, with the budget at S(12, 4)."""
    gamma = [0, 0, 0, 1, 2, 3, 1, 3, 0, 1, 2, 0]
    path = _derived(workdir, competition12, "m4", {"learners": {
        "m": 4, "init": {"kind": "centers_subset", "indices": [0, 3, 4, 5]}}})
    with open(os.path.join(workdir, path)) as fh:
        centers = [r["center"] for r in json.load(fh)["population"]["risks"]]
    theta = [[sum(x) / len(x) for x in zip(*(c for c, g in zip(centers, gamma)
                                             if g == j))] for j in range(4)]
    state = os.path.join("states", "competition12-m4-split.json")
    with open(os.path.join(workdir, state), "w") as fh:
        json.dump({"alpha": [[int(g == j) for j in range(4)] for g in gamma],
                   "theta": theta}, fh)
    return ("classify-competition12-m4-split-budget",
            ["classify", path, "--state", state, "--budget", "611501"])


def _derived(workdir, path, name, change):
    """Write a copy of the scenario at path (relative to workdir) with the
    top-level keys of change replaced; returns the copy's relative path."""
    with open(os.path.join(workdir, path)) as fh:
        document = {**json.load(fh), **change}
    base = os.path.splitext(os.path.basename(path))[0]
    derived = os.path.join("scenarios", f"{base}-{name}.json")
    with open(os.path.join(workdir, derived), "w") as fh:
        json.dump(document, fh, indent=2)
    return derived


def _classify_runs(workdir, three_centers):
    """classify runs that reach every branch of classify_state, on
    three_centers (centers 0, 1 and 2 at equal weights) and on copies of it,
    with their state files written to workdir/states."""
    os.makedirs(os.path.join(workdir, "states"))
    with open(os.path.join(workdir, three_centers)) as fh:
        population = json.load(fh)["population"]

    def copy(name, centers, m, curvature=None):
        """three_centers with these centers at equal weights and m learners."""
        risk = {**population["risks"][0],
                **({"curvature": curvature} if curvature else {})}
        return _derived(workdir, three_centers, name, {
            "population": {**population,
                           "betas": [1 / len(centers)] * len(centers),
                           "risks": [{**risk, "center": [c]} for c in centers]},
            "learners": {"m": m, "init": {"kind": "explicit",
                                          "theta": [[0.0]] * m}}})

    eps = 1e-9
    runs = (
        # group means: learner 0 serves center 0, learner 1 centers 1 and 2
        ("three_centers-split", three_centers,
         {"alpha": [[1, 0], [0, 1], [0, 1]], "theta": [[0.0], [1.5]]}),
        ("three_centers-balanced", three_centers,
         {"alpha": [[0.5, 0.5]] * 3, "theta": [[1.0], [1.0]]}),
        # the subpopulation gradients are no longer those of identity
        # curvature
        ("three_centers-curvature2-balanced",
         copy("curvature2", [0.0, 1.0, 2.0], 2, [[2.0]]),
         {"alpha": [[0.5, 0.5]] * 3, "theta": [[1.0], [1.0]]}),
        # center 0 would rather switch to learner 1 at 1 than stay at 5
        ("three_centers-far-split", copy("far", [0.0, 1.0, 10.0], 2),
         {"alpha": [[1, 0], [0, 1], [1, 0]], "theta": [[5.0], [1.0]]}),
        # learner 2 holds shares of 1e-9 and serves nobody, at a positive
        # margin
        ("three_centers-uncovered-split",
         copy("uncovered", [0.0, 10.0, 10.5], 3),
         {"alpha": [[1 - eps, 0, eps], [0, 1 - eps, eps], [0, 1, 0]],
          "theta": [[0.0], [10.25], [5.0]]}),
        ("three_centers-single-split", copy("single", [0.0, 1.0, 2.0], 1),
         {"alpha": [[1]] * 3, "theta": [[1.0]]}),
        # two subpopulations at one center, each split evenly
        ("three_centers-twin-balanced", copy("twin", [1.0, 1.0], 2),
         {"alpha": [[0.5, 0.5]] * 2, "theta": [[1.0], [1.0]]}),
        # center 0 is split between learners at 0 and 1.2
        ("three_centers-spread", three_centers,
         {"alpha": [[0.5, 0.5], [0, 1], [0, 1]], "theta": [[0.0], [1.2]]}),
        ("three_centers-empty_learner", three_centers,
         {"alpha": [[1, 0]] * 3, "theta": [[1.0], [1.0]]}))
    for label, _, state in runs:
        with open(os.path.join(workdir, "states", f"{label}.json"), "w") as fh:
            json.dump(state, fh)
    return [(f"classify-{label}", ["classify", path, "--state",
                                   os.path.join("states", f"{label}.json")])
            for label, path, _ in runs]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _outputs(root, workdir):
    """Run every run of checkout root in workdir; yields (run, exit code,
    path) per output file."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    for name, cli_args in _runs(root, workdir):
        out = os.path.join(workdir, name)
        os.makedirs(out)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from popdyn.cli import main;"
             " sys.exit(main(sys.argv[1:]))",
             *(a.format(out=name) for a in cli_args)],
            env=env, cwd=workdir, capture_output=True, text=True)
        if cli_args[0] in ("probe", "classify"):
            with open(os.path.join(out, "stdout.json"), "w") as fh:
                fh.write(proc.stdout)
        for path in sorted(glob.glob(os.path.join(out, "*"))):
            yield name, proc.returncode, path


def _json_leaves(value, key=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _json_leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for v in value:
            yield from _json_leaves(v, key)
    else:
        yield key, value


def _rows(path):
    """One output file's rows of (group, value) pairs, in file order."""
    with open(path, newline="") as fh:
        text = fh.read()
    try:
        if path.endswith(".csv"):
            header, *rows = csv.reader(io.StringIO(text))
            groups = [re.sub(r"(_\d+)+$", "", c) for c in header]
            return [list(zip(groups, row)) for row in rows]
        if path.endswith(".json"):
            return [list(_json_leaves(json.loads(text)))]
    except ValueError:   # empty or malformed: compared line by line
        pass
    return [[("line", line)] for line in text.splitlines()]


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _compare(path_a, path_b):
    """Both files' row counts and, per group that both files have, over the
    rows both have, the largest absolute and relative difference of numbers
    and the count of other values that differ (a value with no counterpart
    in the other file's row counts as one); plus "only", the groups found
    in one file only, when there are any."""
    rows_a, rows_b = _rows(path_a), _rows(path_b)
    names_a, names_b = (dict.fromkeys(g for row in rows for g, _ in row)
                        for rows in (rows_a, rows_b))
    shared = [g for g in names_a if g in names_b]
    groups = {g: {"max_abs": 0.0, "max_rel": 0.0, "other": 0} for g in shared}
    for row_a, row_b in zip(rows_a, rows_b):
        values_a, values_b = {}, {}
        for values, row in ((values_a, row_a), (values_b, row_b)):
            for group, x in row:
                values.setdefault(group, []).append(x)
        for group, diff in groups.items():
            for x, y in itertools.zip_longest(values_a.get(group, ()),
                                              values_b.get(group, ())):
                u, v = _number(x), _number(y)
                if (u is None or v is None
                        or not (math.isfinite(u) and math.isfinite(v))):
                    diff["other"] += str(x) != str(y)   # text, NaN, infinity
                elif u != v:
                    gap = abs(u - v)
                    diff["max_abs"] = max(diff["max_abs"], gap)
                    diff["max_rel"] = max(diff["max_rel"],
                                          gap / max(abs(u), abs(v)))
    result = {"rows": [len(rows_a), len(rows_b)],
              "groups": {g: d for g, d in groups.items()
                         if d["max_abs"] or d["other"]}}
    only = [[g for g in names if g not in other]
            for names, other in ((names_a, names_b), (names_b, names_a))]
    if any(only):
        result["only"] = only
    return result


def _against(root, other, tmp):
    """Print one comparison line per output file of either checkout; True
    if every output is identical."""
    sides = [{(n, os.path.basename(p)): (c, p)
              for n, c, p in _outputs(r, os.path.join(tmp, side))}
             for r, side in ((root, "this"), (other, "against"))]
    same_all = True
    for key in sorted(sides[0].keys() | sides[1].keys()):
        (code, path), (code_b, path_b) = (s.get(key, (None, None)) for s in sides)
        same = (code == code_b and path is not None and path_b is not None
                and _sha256(path) == _sha256(path_b))
        line = {"run": key[0], "file": key[1], "exit": [code, code_b],
                "same": same}
        if not same and path is not None and path_b is not None:
            line.update(_compare(path, path_b))
        print(json.dumps(line), flush=True)
        same_all &= same
    return same_all


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--against", metavar="OTHER",
                        help="compare with checkout OTHER, value by value")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as tmp:
        if args.against is not None:
            return 0 if _against(root, os.path.abspath(args.against), tmp) else 1
        for name, code, path in _outputs(root, tmp):
            print(json.dumps({"run": name, "exit": code,
                              "file": os.path.basename(path),
                              "sha256": _sha256(path),
                              "bytes": os.path.getsize(path)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
