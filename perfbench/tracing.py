"""Per-layer tracing installed from outside the package.

Each traced function is replaced, on every module of the package that binds
it, by a wrapper that counts calls and accumulates self time: the span's
duration minus the part covered by nested traced spans.  Spans are folded
into per-layer totals as they close, so memory stays flat however many
steps run.  A name the package no longer has is skipped and reports zero.
Not thread-safe: the benchmark pins ``POPDYN_THREADS=1``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer name, module, attribute ("Class.method" for methods)
SPANS = [
    ("scenario_io.load_scenario", "popdyn.scenario_io", "load_scenario"),
    ("model.risk_matrix", "popdyn.model", "Scenario.risk_matrix"),
    ("model.renormalize_rows", "popdyn.model", "renormalize_rows"),
    ("model.validate_state", "popdyn.model", "validate_state"),
    ("model.record", "popdyn.model", "subpop_risk_vector"),
    ("model.record", "popdyn.model", "learner_risk_vector"),
    ("model.SystemState", "popdyn.model", "SystemState.__init__"),
    ("allocation.update", "popdyn.engine", "_update_alpha"),
    ("learners.update", "popdyn.engine", "_update_theta"),
    ("learners.gradient_step", "popdyn.learners", "gradient_step"),
    ("learners.group_minimize", "popdyn.learners", "group_minimize"),
    ("engine.core_step", "popdyn.engine", "_core_step"),
    ("engine.simulate", "popdyn.engine", "simulate"),
    ("engine.detect_equilibrium", "popdyn.engine", "detect_equilibrium"),
    ("engine.perturb", "popdyn.engine", "perturb"),
    ("engine.probe_trial", "popdyn.engine", "_probe_trial"),
    ("engine.state_distance", "popdyn.engine", "state_distance_upto_permutation"),
    ("equilibria.enumerate", "popdyn.equilibria", "enumerate_split_equilibria"),
    ("equilibria.split_certificate", "popdyn.equilibria", "split_certificate"),
    ("equilibria.theta_for_assignment", "popdyn.equilibria", "theta_for_assignment"),
    ("equilibria.split_learner", "popdyn.equilibria", "split_learner"),
    ("cli.cmd_enumerate", "popdyn.cli", "cmd_enumerate"),
    ("cli.atomic_write", "popdyn.cli", "_atomic_write"),
    ("cli.run_phase", "popdyn.cli", "_run_phase"),
    ("cli.stationarity_check", "popdyn.cli", "_stationarity_violated"),
]

# reported per round, in this order; the table in README.md says which
# end-to-end metric each should move
METRICS = [
    ("setup.import_s", "s"), ("setup.inputs_s", "s"),
    ("scenario_io.load_scenario.self_s", "s"),
    ("model.risk_matrix.calls", "count"), ("model.risk_matrix.self_s", "s"),
    ("model.renormalize_rows.self_s", "s"), ("model.validate_state.self_s", "s"),
    ("model.record.self_s", "s"),
    ("model.SystemState.calls", "count"), ("model.SystemState.self_s", "s"),
    ("allocation.update.calls", "count"), ("allocation.update.self_s", "s"),
    ("learners.update.self_s", "s"),
    ("learners.gradient_step.calls", "count"), ("learners.gradient_step.self_s", "s"),
    ("learners.group_minimize.calls", "count"), ("learners.group_minimize.self_s", "s"),
    ("engine.steps", "count"), ("engine.core_step.self_s", "s"),
    ("engine.simulate.self_s", "s"),
    ("engine.detect_equilibrium.calls", "count"), ("engine.detect_equilibrium.self_s", "s"),
    ("engine.trajectory_states_max", "count"), ("engine.trajectory_mb_max", "MB"),
    ("engine.perturb.self_s", "s"),
    ("engine.probe_trial.calls", "count"), ("engine.probe_trial.self_s", "s"),
    ("engine.state_distance.calls", "count"), ("engine.state_distance.self_s", "s"),
    ("engine.permutations_compared", "count"),
    ("equilibria.enumerate.self_s", "s"), ("equilibria.assignments", "count"),
    ("equilibria.group_cache_hit_ratio", "ratio"),
    ("equilibria.split_certificate.calls", "count"),
    ("equilibria.split_certificate.self_s", "s"),
    ("equilibria.theta_for_assignment.self_s", "s"),
    ("equilibria.split_learner.calls", "count"), ("equilibria.split_learner.self_s", "s"),
    ("cli.cmd_enumerate.self_s", "s"), ("cli.atomic_write.self_s", "s"),
    ("cli.run_phase.self_s", "s"), ("cli.stationarity_check.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _trajectory_bytes(traj):
    arrays = [traj.total_risks, traj.subpop_risks, traj.learner_risks, traj.empty_flags]
    arrays += [a for s in traj.states for a in (s.alpha, s.theta)]
    return sum(a.nbytes for a in arrays)


class _CountingItertools:
    """Stands in for the engine's ``itertools`` and counts the permutations
    the permutation distance actually iterates."""

    def __init__(self, real, counts):
        self._real = real
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._real, name)

    def permutations(self, *args, **kwargs):
        for perm in self._real.permutations(*args, **kwargs):
            self._counts["engine.permutations_compared"] += 1
            yield perm


class Tracer:
    def __init__(self):
        self.layers = defaultdict(lambda: [0, 0.0])   # name -> [calls, self_s]
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []

    def _wrap(self, layer, fn):
        stats = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter
        hook = layer.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            token = before() if before is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stats[0] += 1
                stats[1] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(result, args, token)
            return result
        return span

    def _after_engine_simulate(self, traj, args, token):
        c = self.counts
        c["engine.trajectory_states_max"] = max(c["engine.trajectory_states_max"],
                                                len(traj.states))
        c["engine.trajectory_mb_max"] = max(c["engine.trajectory_mb_max"],
                                            _trajectory_bytes(traj) / 2 ** 20)

    def _before_equilibria_enumerate(self):
        return self.layers["learners.group_minimize"][0]

    def _after_equilibria_enumerate(self, reports, args, solves_before):
        c = self.counts
        c["equilibria.assignments"] += len(reports)
        # every assignment looks up the solution of each of its m groups
        c["equilibria.group_lookups"] += len(reports) * args[0].m
        c["equilibria.group_solves"] += (self.layers["learners.group_minimize"][0]
                                         - solves_before)

    def install(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "popdyn" or name.startswith("popdyn."))]
        for layer, module, attr in SPANS:
            owner = sys.modules.get(module)
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                self._replace(cls, meth, self._wrap(layer, vars(cls)[meth]))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(layer, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, name, wrapper)
        engine = sys.modules.get("popdyn.engine")
        if engine is not None and hasattr(engine, "itertools"):
            self._replace(engine, "itertools",
                          _CountingItertools(engine.itertools, self.counts))

    def _replace(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def metrics(self, rounds):
        """Per-round values of every traced layer and counter."""
        out = {}
        for layer, (calls, self_s) in self.layers.items():
            out[layer + ".calls"] = calls / rounds
            out[layer + ".self_s"] = self_s / rounds
        for name, value in self.counts.items():
            peak = name.endswith("_max")
            out[name] = value if peak else value / rounds
        out["engine.steps"] = out.get("engine.core_step.calls", 0)
        solves = out.get("equilibria.group_solves", 0)
        lookups = out.get("equilibria.group_lookups", 0)
        out["equilibria.group_cache_hit_ratio"] = 1 - solves / lookups if lookups else 0.0
        return out
