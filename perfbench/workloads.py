"""The four workloads: inputs made from a seed, the timed work, and checks.

Each workload is a class with
  * ``build(seed, root, workdir)``: make the inputs (the set-up);
  * ``run()``: the fixed work of one round, through the package's public
    functions or its command line (the timed part);
  * ``check(out, seed)``: ``(attempted, failed, problems)`` for that round.

popdyn must already be importable;
the worker imports it first so that ``setup.import_s`` covers it.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

import popdyn
from popdyn import cli

import checks
import reference as ref

SCENARIOS = os.path.join("src", "popdyn", "scenarios")


def _rng(seed, tag):
    return np.random.default_rng([seed, tag])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _quad_spec(beta, centers, curv, offsets, m):
    return {"beta": np.asarray(beta, dtype=float), "centers": np.asarray(centers, dtype=float),
            "curv": np.asarray(curv, dtype=float), "offsets": np.asarray(offsets, dtype=float),
            "m": int(m)}


def _scenario_file(spec):
    """Scenario JSON (schema 1) for a quadratic spec; the loader normalizes
    the betas."""
    return {
        "schema_version": 1,
        "seed": 1,
        "population": {
            "betas": [float(b) for b in spec["beta"]],
            "normalize": True,
            "risks": [{"kind": "quadratic", "center": [float(x) for x in c],
                       "curvature": [[float(x) for x in row] for row in A],
                       "offset": float(o)}
                      for c, A, o in zip(spec["centers"], spec["curv"], spec["offsets"])],
        },
        "learners": {"m": spec["m"]},
        "subpop_rule": {"kind": "mwud", "gamma": 1.0},
        "learner_rule": {"kind": "full_min"},
    }


def _scenario(spec, gamma, learner_rule=None):
    risks = tuple(popdyn.quadratic_risk(c, A, offset=o)
                  for c, A, o in zip(spec["centers"], spec["curv"], spec["offsets"]))
    return popdyn.Scenario(beta=spec["beta"], risks=risks, m=spec["m"],
                           subpop_rule=popdyn.mwud(gamma),
                           learner_rule=learner_rule or popdyn.full_min())


def _random_beta(rng, n, floor=0.05):
    beta = np.maximum(rng.dirichlet(np.full(n, 2.0)), floor)
    return beta / beta.sum()


def _moved(rng, spec):
    """The same instance with subpopulations permuted and parameter space
    moved by a random orthogonal map plus a shift."""
    n, d = spec["centers"].shape
    perm = rng.permutation(n)
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    Q = Q * np.sign(np.diag(R))
    curv = np.einsum("ab,ibc,dc->iad", Q, spec["curv"][perm], Q)
    return _quad_spec(spec["beta"][perm], spec["centers"][perm] @ Q.T + rng.uniform(-1, 1, d),
                      (curv + curv.transpose(0, 2, 1)) / 2, spec["offsets"][perm], spec["m"])


class Cascade:
    """`popdyn competition` on the shipped n=50 scenario, with its
    subpopulations relabeled by a seeded permutation (the dynamics are
    unchanged up to rounding, so the work stays the same)."""

    name = "cascade50"

    def build(self, seed, root, workdir):
        with open(os.path.join(root, SCENARIOS, "competition50.json")) as fh:
            data = json.load(fh)
        pop = data["population"]
        n = len(pop["betas"])
        perm = _rng(seed, 1).permutation(n)
        pop["betas"] = [pop["betas"][k] for k in perm]
        pop["risks"] = [pop["risks"][k] for k in perm]
        init = data["learners"]["init"]
        position = np.argsort(perm)
        init["indices"] = [int(position[i]) for i in init["indices"]]
        self.first_m = data["learners"]["m"]
        self.target_m = n
        self.beta = np.array(pop["betas"], dtype=float)
        self.offsets = np.array([r.get("offset", 0.0) for r in pop["risks"]])
        self.path = os.path.join(workdir, "scenario.json")
        with open(self.path, "w") as fh:
            json.dump(data, fh)
        self.out = os.path.join(workdir, "cascade")
        self.csv = os.path.join(self.out, "competition.csv")

    def run(self):
        if os.path.exists(self.csv):
            os.unlink(self.csv)
        rc = cli.main(["competition", self.path, "--target-m", str(self.target_m),
                       "--out", self.out])
        return {"rc": rc}

    def check(self, out, seed):
        phases = self.target_m - self.first_m + 1
        if out["rc"] != 0 or not os.path.exists(self.csv):
            return phases, phases, []   # the CSV is written only on success
        return phases, 0, checks.check_cascade(_read_csv(self.csv), self.beta, self.offsets,
                                               self.first_m, self.target_m)


class GradientLearners:
    """`simulate` with repeated-GD learners and MWUD at m = n/2 on the
    competition centers, for a fixed number of steps (the detector window is
    longer than the run)."""

    name = "gd50"
    GAMMA = 0.05   # MWUD rate low enough that no share underflows to zero
    BASE = 0.45    # harmonic GD base step; identity curvature
    STEPS = 200

    def build(self, seed, root, workdir):
        with open(os.path.join(root, SCENARIOS, "competition50.json")) as fh:
            data = json.load(fh)
        centers = np.array([r["center"] for r in data["population"]["risks"]])
        n, m, steps = len(centers), len(centers) // 2, self.STEPS
        beta = np.full(n, 1.0 / n)
        rng = _rng(seed, 2)
        alpha = rng.dirichlet(np.ones(m), size=n)
        theta = centers[rng.choice(n, m, replace=False)] + 0.05 * rng.standard_normal((m, 2))
        self.spec = _quad_spec(beta, centers, np.broadcast_to(np.eye(2), (n, 2, 2)),
                               np.ones(n), m)
        self.spec.update(gamma=self.GAMMA, base=self.BASE, steps=steps)
        self.scenario = _scenario(self.spec, self.GAMMA,
                                  popdyn.repeated_gd(base=self.BASE, form="harmonic"))
        self.state = popdyn.SystemState(alpha=alpha, theta=theta, t=0)
        self.detector = popdyn.EquilibriumDetector(window=steps + 1)

    def run(self):
        try:
            return {"traj": popdyn.simulate(self.scenario, self.state, self.spec["steps"],
                                            self.detector)}
        except popdyn.PopdynError as exc:
            return {"traj": None, "error": str(exc)}

    def check(self, out, seed):
        if out["traj"] is None:
            return 1, 1, []
        states = out["traj"].states
        alphas = [s.alpha for s in states]
        thetas = [s.theta for s in states]
        sample = _rng(seed, 20).choice(self.spec["steps"], 8, replace=False)
        problems = checks.check_gd(alphas, thetas, self.spec, sorted(sample))
        return 1, 0, problems


class Oracle:
    """`popdyn enumerate --dedupe` on a seeded 1-D scenario, n=10, m=4."""

    name = "oracle"

    def build(self, seed, root, workdir):
        n, m = 10, 4
        rng = _rng(seed, 3)
        raw = _random_beta(rng, n)
        curv = rng.uniform(0.5, 2.0, n)[:, None, None]
        spec = _quad_spec(raw, rng.uniform(-3.0, 3.0, (n, 1)), curv,
                          rng.uniform(0.0, 0.5, n), m)
        self.path = os.path.join(workdir, "scenario.json")
        with open(self.path, "w") as fh:
            json.dump(_scenario_file(spec), fh)
        spec["beta"] = raw / raw.sum()   # as the scenario loader normalizes
        self.spec = spec
        self.csv = os.path.join(workdir, "equilibria.csv")

    def run(self):
        if os.path.exists(self.csv):
            os.unlink(self.csv)
        return {"rc": cli.main(["enumerate", self.path, "--dedupe", "--out", self.csv])}

    def check(self, out, seed):
        if out["rc"] != 0 or not os.path.exists(self.csv):
            return 1, 1, []
        rows = _read_csv(self.csv)
        n, m = self.spec["beta"].size, self.spec["m"]
        sample = _rng(seed, 30).choice(ref.stirling2(n, m), 40, replace=False)
        return 1, 0, checks.check_oracle(rows, self.spec, sorted(sample))


class Certify:
    """The acceptance-style certification sweep.

    Part one: small instances, every (n, m) with n in 2..5 and m in 2..3,
    enumerated; each split with a decisive margin is probed.  The instances
    are drawn once from BASE_SEED; the run seed relabels the subpopulations
    and applies a random isometry of parameter space (curvatures rotated
    along), which leaves every margin and every convergence rate unchanged.
    A probe's cost grows like 1/margin, so fresh instances per seed changed
    a round's time threefold.
    Part two: cluster instances at m = 6 and 7 (two subpopulations around
    each of m well-separated points, drawn from the run seed), probed at the
    cluster split (certified stable) and at that split with one
    subpopulation moved to a neighbouring cluster's learner (certified
    unstable).
    """

    name = "certify"
    SHAPES = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]
    BASE_SEED = 202
    SIGMA = 1e-4
    REPS = 2
    CLUSTER_MS = (6, 7)
    TRIALS = 6           # per small-instance probe
    CLUSTER_TRIALS = 4   # per cluster probe

    def build(self, seed, root, workdir):
        base = np.random.default_rng(self.BASE_SEED)
        rng = _rng(seed, 4)
        self.small = []
        for k, (n, m) in enumerate(self.SHAPES * self.REPS):
            d = 1 + k % 2
            if k % 4 < 2:
                curv = np.broadcast_to(np.eye(d), (n, d, d))
            else:
                Q = base.standard_normal((n, d, d))
                curv = Q @ Q.transpose(0, 2, 1) / d + 0.3 * np.eye(d)
            spec = _moved(rng, _quad_spec(_random_beta(base, n),
                                          base.uniform(-2.0, 2.0, (n, d)), curv,
                                          base.uniform(0.0, 0.5, n), m))
            gamma = float(base.uniform(1.0, 4.0))
            self.small.append((spec, _scenario(spec, gamma), int(rng.integers(2 ** 31))))
        self.clusters = []
        for m in self.CLUSTER_MS:
            angles = 2 * np.pi * (np.arange(m) / m + rng.uniform())
            points = 3.0 * np.column_stack([np.cos(angles), np.sin(angles)])
            jitter = rng.uniform(0.05, 0.2, (2 * m, 1)) * rng.standard_normal((2 * m, 2))
            centers = np.repeat(points, 2, axis=0) + jitter
            spec = _quad_spec(_random_beta(rng, 2 * m), centers,
                              np.broadcast_to(np.eye(2), (2 * m, 2, 2)),
                              np.full(2 * m, 0.1), m)
            stable = np.repeat(np.arange(m), 2)
            unstable = stable.copy()
            c = int(rng.integers(m))
            unstable[2 * c] = (c + 1) % m
            self.clusters.append((spec, _scenario(spec, 2.0), int(rng.integers(2 ** 31)),
                                  (tuple(stable), tuple(unstable))))

    def run(self):
        out = []
        for spec, scenario, seed in self.small:
            inst = {"spec": spec, "reports": None, "probed": [], "failed": 0, "ops": 1}
            try:
                reports = popdyn.enumerate_split_equilibria(scenario, dedupe=True)
            except popdyn.PopdynError as exc:
                inst.update(failed=1, error=str(exc))
                out.append(inst)
                continue
            inst["reports"] = len(reports)
            for rep in reports:
                if rep.margin is None or abs(rep.margin) <= checks.DECISIVE:
                    continue
                self._probe(inst, scenario, rep.assignment.gamma_map, self.TRIALS, seed,
                            lambda state: rep.margin)
            out.append(inst)
        for spec, scenario, seed, splits in self.clusters:
            inst = {"spec": spec, "reports": None, "probed": [], "failed": 0, "ops": 0}
            for gamma_map in splits:
                self._probe(inst, scenario, gamma_map, self.CLUSTER_TRIALS, seed,
                            lambda state: popdyn.classify_state(state, scenario).margin)
            out.append(inst)
        return {"instances": out}

    def _probe(self, inst, scenario, gamma_map, trials, seed, certify):
        """One probe operation: certify the split's margin, then perturb and
        resimulate it `trials` times."""
        inst["ops"] += 1
        assignment = popdyn.SplitAssignment(gamma_map)
        try:
            theta = popdyn.theta_for_assignment(assignment, scenario)
            state = popdyn.SystemState(assignment.to_alpha(scenario.m), theta, 0)
            margin = certify(state)
            fraction = popdyn.empirical_stability_probe(scenario, state, sigma=self.SIGMA,
                                                        trials=trials, seed=seed)
        except popdyn.PopdynError as exc:
            inst["failed"] += 1
            inst["error"] = str(exc)
            return
        inst["probed"].append((tuple(gamma_map), margin, fraction))

    def check(self, out, seed):
        instances = out["instances"]
        attempted = sum(inst["ops"] for inst in instances)
        failed = sum(inst["failed"] for inst in instances)
        problems = checks.check_certify(instances)
        for k in range(len(self.clusters)):
            inst = instances[len(self.small) + k]
            certified = [margin for _, margin, _ in inst["probed"]]
            if len(certified) == 2 and not (certified[0] > checks.DECISIVE
                                            and certified[1] < -checks.DECISIVE):
                problems.append(f"cluster instance {k}: splits certified with "
                                f"margins {certified}, expected stable then unstable")
        return attempted, failed, problems


WORKLOADS = {w.name: w for w in (Cascade, GradientLearners, Oracle, Certify)}
