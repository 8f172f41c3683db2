"""popdyn benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {cascade50,gd50,oracle,certify}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each run
  * sets up the workload in SETUPS fresh processes (``import popdyn`` plus
    building the inputs), half of them before the measuring process and
    half after it, and reports the median set-up time as ``setup_s``;
  * with ``--trace 0``, runs whole rounds of the workload's fixed work for
    S seconds in one more process and reports the median round time as
    ``wall_s`` and that process's peak resident memory as ``peak_rss_mb``;
  * with ``--trace 1``, alternates untraced and traced rounds for S seconds
    and reports the per-layer metrics of ``tracing.METRICS``.
Both times are given at a reference speed of the machine: each sample is
scaled by CALIBRATION_REF_S over the mean time of a fixed calibration loop
run before, during and after it (``worker._calibration_s``).  Every round's
outputs are checked.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
goes to ``perfbench/results/``.  Exits 2 without a result when the package
sources are missing, 1 when a worker process fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import METRICS  # noqa: E402

WORKLOADS = ("cascade50", "gd50", "oracle", "certify")
SETUPS = 9          # set-up samples per run, the worker's own included
# calibration loop time that defines the reference speed: about the loop's
# median time on the 2-vCPU VM of README.md
CALIBRATION_REF_S = 0.02
TIME_LIMIT = 170    # seconds for all of a run's processes together
# one thread everywhere: no probe thread pool, no BLAS threads
ENV = {"POPDYN_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def _worker(mode, args, workdir, tag, deadline):
    result = os.path.join(workdir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", os.path.join(workdir, tag),
           "--result", result]
    env = {**os.environ, **ENV}
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} exited {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _at_reference_speed(seconds, calibration_s):
    """A time taken while the calibration loop took `calibration_s`, as it
    would read at the speed where that loop takes CALIBRATION_REF_S.
    README.md shows the spreads that chose this."""
    return seconds * CALIBRATION_REF_S / calibration_s


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "popdyn", "__init__.py")):
        print("error: run from the root of a popdyn checkout (src/popdyn not found)",
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        deadline = time.monotonic() + TIME_LIMIT
        # set-up samples on both sides of the measuring process, so that
        # they see more of the machine's slow swings in speed
        before = (SETUPS - 1) // 2
        setups = [_worker("setup", args, workdir, f"setup{k}", deadline)
                  for k in range(before)]
        mode = "trace" if args.trace else "run"
        main_run = _worker(mode, args, workdir, mode, deadline)
        setups += [_worker("setup", args, workdir, f"setup{k}", deadline)
                   for k in range(before, SETUPS - 1)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(main_run)

    if args.trace:
        layers = dict(main_run["layers"])
        for part in ("import_s", "inputs_s"):
            layers[f"setup.{part}"] = statistics.median(
                _at_reference_speed(s[part], s["calibration_s"]) for s in setups)
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in METRICS}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(
                map(_at_reference_speed, main_run["round_s"],
                    main_run["round_calibration_s"])), "unit": "s"},
            "setup_s": {"value": statistics.median(
                _at_reference_speed(s["import_s"] + s["inputs_s"], s["calibration_s"])
                for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
        }
    for problem in main_run["problems"][:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    summary = {"correct": not main_run["problems"], "attempted": main_run["attempted"],
               "failed": main_run["failed"], "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "threads": ENV,
              "calibration_ref_s": CALIBRATION_REF_S, "rounds_s": main_run["round_s"],
              "rounds_calibration_s": main_run.get("round_calibration_s"),
              "setups": [{key: s[key] for key in ("import_s", "inputs_s", "calibration_s")}
                         for s in setups],
              "problems": main_run["problems"], **summary}
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
