"""Digest every CLI output of one checkout, to compare two checkouts.

    python3 tools/cli_digest.py [--root CHECKOUT] > digest.jsonl

Runs, each in a fresh interpreter with CHECKOUT/src first on the path
(CHECKOUT defaults to the checkout holding this script):

- ``simulate`` on every shipped scenario;
- ``competition`` on ``competition12`` (to m=12) and ``competition50``
  (to m=50);
- ``probe`` on ``three_centers`` and ``competition12``;
- ``enumerate --dedupe`` on every shipped scenario with n <= 12;
- ``goldens``.

All runs start in one temporary directory, with relative paths, and write
their outputs there; it is removed at the end.  Prints one JSON line per
output file: the run's name, its exit code, the file and the file's sha256
and size.  ``probe`` writes its result to standard output,
which is digested as ``stdout.json``.  Run it on two checkouts and diff the
two outputs; the script uses the standard library only.
"""

import argparse
import glob
import hashlib
import json
import os
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
    runs += [(f"competition-{name}", ["competition", scenarios[name],
                                      "--target-m", str(m), "--out", "{out}"])
             for name, m in (("competition12", 12), ("competition50", 50))]
    runs += [("probe-three_centers", ["probe", scenarios["three_centers"],
                                      "--assignment", "0,1,1"]),
             ("probe-competition12", ["probe", scenarios["competition12"],
                                      "--assignment", ",".join("0" * 6 + "1" * 6)])]
    for name, path in scenarios.items():
        with open(os.path.join(workdir, path)) as fh:
            n = len(json.load(fh)["population"]["betas"])
        if n <= ENUMERATE_MAX_N:
            runs.append((f"enumerate-{name}", ["enumerate", path, "--dedupe",
                                               "--out", "{out}/equilibria.csv"]))
    runs.append(("goldens", ["goldens", "--out", "{out}"]))
    return runs


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src/ is run (default: this one)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as tmp:
        for name, cli_args in _runs(root, tmp):
            out = os.path.join(tmp, name)
            os.makedirs(out)
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from popdyn.cli import main;"
                 " sys.exit(main(sys.argv[1:]))",
                 *(a.format(out=name) for a in cli_args)],
                env=env, cwd=tmp, capture_output=True, text=True)
            if cli_args[0] == "probe":
                with open(os.path.join(out, "stdout.json"), "w") as fh:
                    fh.write(proc.stdout)
            for path in sorted(glob.glob(os.path.join(out, "*"))):
                print(json.dumps({"run": name, "exit": proc.returncode,
                                  "file": os.path.basename(path),
                                  "sha256": _sha256(path),
                                  "bytes": os.path.getsize(path)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
