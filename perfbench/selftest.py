"""Self-test of the benchmark checks: plant one wrong answer per check.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Each workload runs one round on the
benchmark's own inputs (seed 11); its real outputs must pass their check,
and every planted fault (a missing row, a risk increase, a shifted optimum,
a flipped stability, a probe that always returns, ...) must be reported by
it.  Exits 1 if a clean
output fails or a plant goes unnoticed.
"""

import copy
import csv
import os
import shutil
import sys
import tempfile
from types import SimpleNamespace

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)
os.environ["POPDYN_THREADS"] = "1"

import workloads  # noqa: E402

SEED = 11


def _rewrite(path, edit):
    """Apply `edit` to the CSV rows at `path` in place."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _set(row, **fields):
    return {**row, **{k: repr(v) if isinstance(v, float) else v for k, v in fields.items()}}


# --- cascade50: competition.csv -------------------------------------------

def _drop_phase(rows):
    return rows[:2] + rows[3:]


def _risk_increase(rows):
    k = len(rows) // 2
    bump = float(rows[k - 1]["total_risk"]) - float(rows[k]["total_risk"]) + 1e-6
    n = sum(1 for key in rows[k] if key.startswith("subpop_risk_"))
    subs = {f"subpop_risk_{i + 1}": float(rows[k][f"subpop_risk_{i + 1}"]) + bump
            for i in range(n)}
    rows[k] = _set(rows[k], total_risk=float(rows[k]["total_risk"]) + bump,
                   worst_subpop_risk=float(rows[k]["worst_subpop_risk"]) + bump, **subs)
    return rows


def _worst_not_max(rows):
    rows[1] = _set(rows[1], worst_subpop_risk=float(rows[1]["worst_subpop_risk"]) - 1e-3)
    return rows


def _unproductive_split(rows):
    rows[-1] = _set(rows[-1], grad_hypothesis="1")
    return rows


def _final_total_off(rows):
    n = sum(1 for key in rows[-1] if key.startswith("subpop_risk_"))
    subs = {f"subpop_risk_{i + 1}": float(rows[-1][f"subpop_risk_{i + 1}"]) + 1e-5
            for i in range(n)}
    rows[-1] = _set(rows[-1], total_risk=float(rows[-1]["total_risk"]) + 1e-5,
                    worst_subpop_risk=float(rows[-1]["worst_subpop_risk"]) + 1e-5, **subs)
    return rows


# --- oracle: equilibria.csv -----------------------------------------------

def _missing_row(rows):
    return rows[:-1]


def _duplicate_row(rows):
    rows[-1] = dict(rows[-2])
    return rows


def _shifted_optimum(rows):
    return [_set(r, total_risk=float(r["total_risk"]) + 1e-7) for r in rows]


def _unsorted(rows):
    rows[1], rows[2] = rows[2], rows[1]
    return rows


def _wrong_gap(rows):
    rows[3] = _set(rows[3], welfare_gap=float(rows[3]["welfare_gap"]) + 1e-9)
    return rows


def _sampled(wl, edit):
    """Edit every sampled row, so the sample check must see it."""
    n, m = wl.spec["beta"].size, wl.spec["m"]
    sample = set(workloads._rng(SEED, 30).choice(workloads.ref.stirling2(n, m), 40,
                                                 replace=False))

    def apply(rows):
        return [edit(r) if k in sample else r for k, r in enumerate(rows)]
    return apply


def _flip(row):
    other = "unstable" if row["stability"] == "asymptotically_stable" else "asymptotically_stable"
    return _set(row, stability=other)


# --- gd50: trajectory states ----------------------------------------------

def _states(out):
    return [SimpleNamespace(alpha=s.alpha.copy(), theta=s.theta.copy())
            for s in out["traj"].states]


def _gd_risk_increase(wl, out):
    states = _states(out)
    states[-1].theta = states[-1].theta + 0.5
    return {"traj": SimpleNamespace(states=states)}


def _gd_bad_transition(wl, out):
    states = _states(out)
    for s in states[1:]:
        s.theta = s.theta + 1e-7
    return {"traj": SimpleNamespace(states=states)}


def _gd_missing_state(wl, out):
    return {"traj": SimpleNamespace(states=_states(out)[:-1])}


# --- certify: probe outcomes ----------------------------------------------

def _probes(out, edit):
    out = copy.deepcopy(out)
    for inst in out["instances"]:
        inst["probed"] = [edit(*p) for p in inst["probed"]]
        inst["probed"] = [p for p in inst["probed"] if p is not None]
    return out


def _always_returns(wl, out):
    return _probes(out, lambda g, margin, frac: (g, margin, 1.0))


def _never_returns(wl, out):
    return _probes(out, lambda g, margin, frac: (g, margin, 0.0))


def _margin_off(wl, out):
    return _probes(out, lambda g, margin, frac: (g, margin + 1e-6, frac))


def _only_stable(wl, out):
    return _probes(out, lambda g, margin, frac: (g, margin, frac) if margin > 0 else None)


def _report_missing(wl, out):
    out = copy.deepcopy(out)
    out["instances"][0]["reports"] -= 1
    return out


def _csv_plants(wl, out, path, plants):
    caught = []
    backup = path + ".orig"
    shutil.copyfile(path, backup)
    for name, edit in plants:
        _rewrite(path, edit)
        caught.append((name, wl.check(out, SEED)[2]))
        shutil.copyfile(backup, path)
    return caught


def main():
    failures = 0
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=HERE)
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls()
            os.makedirs(os.path.join(workdir, name))
            wl.build(SEED, ROOT, os.path.join(workdir, name))
            out = wl.run()
            attempted, failed, problems = wl.check(out, SEED)
            clean = not problems and not failed
            print(f"{name}: clean outputs {'pass' if clean else 'FAIL'} "
                  f"({attempted} operations)")
            for problem in problems:
                print(f"    {problem}")
            failures += not clean
            if name == "cascade50":
                results = _csv_plants(wl, out, wl.csv, [
                    ("missing phase", _drop_phase), ("risk increase", _risk_increase),
                    ("worst is not the maximum", _worst_not_max),
                    ("unproductive flagged split", _unproductive_split),
                    ("final total off", _final_total_off)])
            elif name == "oracle":
                results = _csv_plants(wl, out, wl.csv, [
                    ("missing row", _missing_row), ("duplicated row", _duplicate_row),
                    ("shifted optimum", _shifted_optimum), ("unsorted rows", _unsorted),
                    ("wrong welfare gap", _wrong_gap),
                    ("flipped stability", _sampled(wl, _flip)),
                    ("wrong margin", _sampled(wl, lambda r: _set(
                        r, margin=float(r["margin"]) + 1e-6))),
                    ("wrong total", _sampled(wl, lambda r: _set(
                        r, total_risk=float(r["total_risk"]) + 1e-6)))])
            else:
                plants = {"gd50": [("risk increase", _gd_risk_increase),
                                   ("transition off", _gd_bad_transition),
                                   ("missing state", _gd_missing_state)],
                          "certify": [("probe always returns", _always_returns),
                                      ("probe never returns", _never_returns),
                                      ("wrong margin", _margin_off),
                                      ("no unstable split probed", _only_stable),
                                      ("missing report", _report_missing)]}[name]
                results = [(plant, wl.check(edit(wl, out), SEED)[2]) for plant, edit in plants]
            for plant, problems in results:
                print(f"  plant {plant}: {'caught' if problems else 'MISSED'}"
                      + (f" ({problems[0]})" if problems else ""))
                failures += not problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test " + ("passed" if not failures else f"FAILED ({failures})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
