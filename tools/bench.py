"""Benchmark one checkout against its parent and write a BENCH file.

    python3 tools/bench.py --against PARENT --out BENCH_<pr>.json
        [--root CHECKOUT]

CHECKOUT defaults to the checkout holding this script.  The benchmark is
the one CHECKOUT's ``BENCHMARK.json`` declares: its command, its workloads
and its ``run_seconds``.  For every seed in SEEDS and every workload, each
checkout runs that command unchanged, in a subprocess started from the
checkout's root, with ``--workload``, ``--seed``, ``--seconds
run_seconds`` and ``--trace 0``.  The two checkouts alternate, and the one
that goes first alternates from pair to pair, so that the machine's slow
swings in speed fall on both alike.  Each run's last line of standard
output is its result (``correct``, ``attempted``, ``failed`` and the
end-to-end ``metrics``).

The output holds the run length, and per side (``change`` is
CHECKOUT, ``parent`` is PARENT):
- per workload, the medians of ``wall_s``, ``setup_s`` and
  ``peak_rss_mb`` over the seeds, the seeds, the run count, the summed
  ``attempted`` and ``failed`` counts, whether every run was correct, and
  each run's metrics;
- the total and code lines of ``src/popdyn`` and of ``tests``, as
  ``tools/src_size.py`` counts them;
- the tier-1 suite's outcome counts and time, from the summary line of
  ``python3 -m pytest -q`` run in that checkout.

A benchmark or suite run that fails to start or to give a result stops the
script with exit 1.  The script uses the standard library only.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from src_size import folder_size  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
# "596 passed, 1 xfailed in 62.26s (0:01:02)"
_SUITE_COUNT = re.compile(r"(\d+) (passed|failed|xfailed|xpassed|skipped|"
                          r"errors?|deselected|warnings?)")
_SUITE_TIME = re.compile(r" in (\d+(?:\.\d+)?)s\b")
_SINGULAR = {"errors": "error", "warnings": "warning"}


def parse_result(stdout):
    """The result object of one perfbench run: its last line of output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"perfbench result has no {key!r}: {lines[-1]}")
    return result


def parse_suite(stdout):
    """Outcome counts and time in seconds from pytest's summary line."""
    for line in reversed(stdout.strip().splitlines()):
        found = _SUITE_TIME.search(line)
        if found:
            counts = {_SINGULAR.get(name, name): int(k)
                      for k, name in _SUITE_COUNT.findall(line)}
            return {**counts, "time_s": float(found.group(1))}
    raise ValueError("no pytest summary line found")


def summarize(seeds, results):
    """One workload's figures on one side from its runs, one per seed."""
    return {
        "seeds": list(seeds),
        "runs": len(results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "correct": all(r["correct"] for r in results),
        "median": {m: statistics.median(r["metrics"][m]["value"]
                                        for r in results) for m in METRICS},
        "per_run": [{m: r["metrics"][m]["value"] for m in METRICS}
                    for r in results],
    }


def line_counts(root):
    """Total and code lines of root's src/popdyn and tests modules."""
    folders = {"src": os.path.join(root, "src", "popdyn"),
               "tests": os.path.join(root, "tests")}
    return {part: dict(zip(("lines", "code"), folder_size(folder)[-1][1:]))
            for part, folder in folders.items()}


def _run(cmd, root):
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_perfbench(root, command, workload, seed, seconds):
    code, stdout, stderr = _run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"], root)
    if code != 0:
        raise SystemExit(f"{workload} seed {seed} in {root} "
                         f"exited {code}:\n{stderr}")
    return parse_result(stdout)


def run_suite(root):
    code, stdout, stderr = _run([sys.executable, "-m", "pytest", "-q",
                                 "-p", "no:cacheprovider"], root)
    try:
        return {**parse_suite(stdout), "exit": code}
    except ValueError:
        raise SystemExit(f"pytest in {root} exited {code} with no summary:"
                         f"\n{stdout[-2000:]}{stderr[-2000:]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout measured as the change "
                             "(default: this one)")
    parser.add_argument("--against", required=True, metavar="PARENT",
                        help="checkout measured as the parent")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    args = parser.parse_args(argv)
    sides = {"change": os.path.abspath(args.root),
             "parent": os.path.abspath(args.against)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {side: {w: [] for w in workloads} for side in sides}
    pair = 0
    for seed in SEEDS:
        for workload in workloads:
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                result = run_perfbench(sides[side], spec["command"],
                                       workload, seed, seconds)
                results[side][workload].append(result)
                print(json.dumps({"side": side, "workload": workload,
                                  "seed": seed, **result}), flush=True)
            pair += 1
    bench = {"seconds": seconds}
    for side, root in sides.items():
        bench[side] = {
            "workloads": {w: summarize(SEEDS, runs)
                          for w, runs in results[side].items()},
            "line_counts": line_counts(root),
            "suite": run_suite(root),
        }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
