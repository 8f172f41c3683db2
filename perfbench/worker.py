"""One benchmark process: set-up, then timed or traced rounds.

    python3 perfbench/worker.py {setup|run|trace} --workload W --seed N
        --seconds S --workdir DIR --result FILE

Run from the root of a checkout; popdyn is imported from ``src``.  The
result is written to FILE as JSON.  ``run.py`` starts these processes.
"""

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time

from tracing import Tracer  # standard library only: leaves the set-up timing alone


CALIBRATION_STEPS = 500   # about 20 ms on the machine of README.md
SAMPLE_PERIOD_S = 0.25    # calibration samples during a round


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _calibration_s():
    """Time of a fixed loop of small-array numpy calls and interpreter work,
    the mix that the package's engine steps and import are made of.

    The machine's speed swings by up to half for seconds to minutes at a
    time; a timing divided by the calibration time taken during it leaves
    most of that swing out.  The loop uses no popdyn code, so no change to
    the package moves it."""
    import numpy as np   # loaded already by popdyn, after the timed import

    rng = np.random.default_rng(0)
    centers = rng.random((50, 2))
    theta = rng.random((8, 2))
    alpha = rng.dirichlet(np.ones(8), 50)
    start = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        diff = centers[:, None, :] - theta[None, :, :]
        risk = np.einsum("ijk,ijk->ij", diff, diff)
        weights = alpha * np.exp(-0.5 * risk)
        alpha = weights / weights.sum(axis=1, keepdims=True)
        total = float((alpha * risk).sum())
        theta = theta + 1e-6 * total
        sum({i: i * total for i in range(20)}.values())
    return time.perf_counter() - start


class _SpeedSamples:
    """Calibration samples taken from a timer signal every SAMPLE_PERIOD_S
    while a round runs; `paused` is the time they took."""

    def __init__(self):
        self.samples = []
        self.paused = 0.0

    def _take(self, *_):
        start = time.perf_counter()
        self.samples.append(_calibration_s())
        self.paused += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _round(wl, seed, totals, during=True):
    """One round of the fixed work, timed while calibration samples are
    taken before, during and after it, then checked; returns the round's
    time without the samples' and the mean calibration time.

    With `during` false, samples are taken only before and after the round,
    so that none of their time lands in a traced span.

    The peak resident memory is taken after the first round's work and
    before its check, so it leaves out the checker's own memory; every
    round does the same work."""
    speed = _SpeedSamples()
    speed.samples.append(_calibration_s())
    start = time.perf_counter()
    with speed if during else contextlib.nullcontext():
        out = wl.run()
    elapsed = time.perf_counter() - start - speed.paused
    speed.samples.append(_calibration_s())
    totals.setdefault("peak_rss_mb", _peak_rss_mb())
    attempted, failed, problems = wl.check(out, seed)
    totals["attempted"] += attempted
    totals["failed"] += failed
    totals["problems"] += problems
    return elapsed, statistics.mean(speed.samples)


def _traced_rounds(wl, seed, seconds, totals):
    """Untraced and traced rounds, alternating, until `seconds` have passed.

    The overhead compares the two kinds of round at one speed, the run's
    median calibration time; alternation keeps the machine's slow swings
    out of the difference."""
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(_round(wl, seed, totals, during=False))
            continue
        tracer.install()
        try:
            traced.append(_round(wl, seed, totals, during=False))
        finally:
            tracer.uninstall()
    layers = tracer.metrics(len(traced))
    speed = statistics.median(c for _, c in plain + traced)

    def typical(rounds):
        return statistics.median(t / c for t, c in rounds) * speed
    layers["trace.overhead_s"] = typical(traced) - typical(plain)
    return [t for t, _ in traced], layers


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run", "trace"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import popdyn  # noqa: F401  (timed: the package's import cost)
    t1 = time.perf_counter()
    import workloads
    t2 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload]()
    os.makedirs(args.workdir, exist_ok=True)
    wl.build(args.seed, root, args.workdir)
    t3 = time.perf_counter()

    result = {"import_s": t1 - t0, "inputs_s": t3 - t2,
              "calibration_s": statistics.mean(_calibration_s() for _ in range(3))}
    totals = {"attempted": 0, "failed": 0, "problems": []}
    if args.mode == "run":
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(_round(wl, args.seed, totals))
        result["round_s"], result["round_calibration_s"] = map(list, zip(*rounds))
    elif args.mode == "trace":
        result["round_s"], result["layers"] = _traced_rounds(wl, args.seed, args.seconds,
                                                             totals)
    result.update(totals)
    result.setdefault("peak_rss_mb", _peak_rss_mb())   # a set-up process: no round
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
