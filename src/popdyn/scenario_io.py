"""Scenario file parsing and serialization.

Scenario files are JSON with an explicit schema_version.  Every experiment and
golden run in the repository is reproducible from a checked-in file.  All
randomness derives from the single ``seed`` field, expanded into independent
per-purpose streams (parameter init, allocation init, perturbation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .allocation import AllocationRule
from .engine import EquilibriumDetector, UpdateSchedule
from .errors import NonFiniteError, ScenarioFormatError
from .learners import LearnerRule, StepSchedule
from .model import (
    Scenario,
    SystemState,
    quadratic_risk,
    require_finite,
    validate_state,
)

SCHEMA_VERSION = 1

# per-purpose RNG stream tags, combined with the scenario seed
STREAM_THETA_INIT = 1
STREAM_ALPHA_INIT = 2
STREAM_PERTURB = 3


@dataclass
class LoadedScenario:
    scenario: Scenario
    initial_state: SystemState
    detector: EquilibriumDetector
    seed: int
    max_steps: int


def _require(mapping, key, path):
    if not isinstance(mapping, dict):
        raise ScenarioFormatError(f"{path}: expected an object")
    if key not in mapping:
        raise ScenarioFormatError(f"{path}.{key}: missing required field")
    return mapping[key]


def _parse_risks(pop, n, path):
    entries = _require(pop, "risks", path)
    if not isinstance(entries, list) or len(entries) != n:
        raise ScenarioFormatError(
            f"{path}.risks: expected a list of {n} risk objects"
        )
    risks = []
    for i, entry in enumerate(entries):
        rpath = f"{path}.risks[{i}]"
        kind = entry.get("kind", "quadratic")
        if kind != "quadratic":
            raise ScenarioFormatError(
                f"{rpath}.kind: only 'quadratic' risks can be loaded from "
                f"files, got {kind!r} (custom risks require callbacks)"
            )
        center = _require(entry, "center", rpath)
        try:
            risks.append(quadratic_risk(center,
                                        curvature=entry.get("curvature"),
                                        offset=entry.get("offset", 0.0)))
        except NonFiniteError as exc:
            raise ScenarioFormatError(f"{rpath}.{exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ScenarioFormatError(f"{rpath}: {exc}") from exc
    return tuple(risks)


def _parse_subpop_rule(cfg):
    kind = _require(cfg, "kind", "subpop_rule")
    try:
        if kind == "mwud":
            return AllocationRule(kind="mwud",
                                  gamma=float(cfg.get("gamma", 1.0)),
                                  comparison=cfg.get("comparison", "absolute"))
        if kind == "best_response":
            return AllocationRule(kind="best_response",
                                  tie_tolerance=float(cfg.get("tie_tolerance", 0.0)),
                                  tie_policy=cfg.get("tie_policy", "split_evenly"))
    except ValueError as exc:
        raise ScenarioFormatError(f"subpop_rule: {exc}") from exc
    raise ScenarioFormatError(f"subpop_rule.kind: unknown kind {kind!r}")


def _parse_learner_rule(cfg):
    kind = _require(cfg, "kind", "learner_rule")
    try:
        if kind == "full_min":
            return LearnerRule(
                kind="full_min",
                method=cfg.get("method", "closed_form_quadratic"),
                tolerance=float(cfg.get("tolerance", 1e-10)),
                max_iterations=int(cfg.get("max_iterations", 100)),
            )
        if kind == "repeated_gd":
            return LearnerRule(
                kind="repeated_gd",
                schedule=StepSchedule(form=cfg.get("form", "harmonic"),
                                      base=float(cfg.get("base", 1.0))),
                inner_steps=int(cfg.get("inner_steps", 1)),
            )
    except ValueError as exc:
        raise ScenarioFormatError(f"learner_rule: {exc}") from exc
    raise ScenarioFormatError(f"learner_rule.kind: unknown kind {kind!r}")


def _parse_schedule(cfg):
    if cfg is None:
        return None
    kind = _require(cfg, "kind", "schedule")
    try:
        return UpdateSchedule(
            kind=kind,
            order=tuple(cfg["order"]) if "order" in cfg else None,
            subpops=tuple(cfg["subpops"]) if "subpops" in cfg else None,
            learners=tuple(cfg["learners"]) if "learners" in cfg else None,
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"schedule: {exc}") from exc


def _initial_theta(cfg, scenario, seed):
    if cfg is None:
        cfg = {"kind": "centers_subset"}
    kind = _require(cfg, "kind", "learners.init")
    m, d = scenario.m, scenario.d
    if kind == "explicit":
        theta = np.asarray(_require(cfg, "theta", "learners.init"), dtype=float)
        if theta.shape != (m, d):
            raise ScenarioFormatError(
                f"learners.init.theta: expected shape ({m},{d}), got {theta.shape}"
            )
        return theta
    if kind == "random_gaussian":
        sigma = float(cfg.get("sigma", 1.0))
        rng = np.random.default_rng([seed, STREAM_THETA_INIT])
        return sigma * rng.standard_normal((m, d))
    if kind == "centers_subset":
        indices = cfg.get("indices", list(range(m)))
        if len(indices) != m or any(not 0 <= i < scenario.n for i in indices):
            raise ScenarioFormatError(
                f"learners.init.indices: need {m} valid subpopulation indices"
            )
        return scenario.centers()[list(indices)].copy()
    raise ScenarioFormatError(f"learners.init.kind: unknown kind {kind!r}")


def _initial_alpha(cfg, scenario, seed):
    if cfg is None:
        cfg = {"kind": "uniform"}
    kind = _require(cfg, "kind", "initial_alpha")
    n, m = scenario.n, scenario.m
    if kind == "uniform":
        return np.full((n, m), 1.0 / m)
    if kind == "explicit":
        alpha = np.asarray(_require(cfg, "alpha", "initial_alpha"), dtype=float)
        return alpha
    if kind == "random_dirichlet":
        rng = np.random.default_rng([seed, STREAM_ALPHA_INIT])
        conc = float(cfg.get("concentration", 1.0))
        return rng.dirichlet(np.full(m, conc), size=n)
    raise ScenarioFormatError(f"initial_alpha.kind: unknown kind {kind!r}")


def parse_scenario(data: dict) -> LoadedScenario:
    """Build a Scenario plus initial state from a schema-versioned dict."""
    version = _require(data, "schema_version", "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    pop = _require(data, "population", "scenario")
    betas = np.asarray(_require(pop, "betas", "population"), dtype=float)
    if betas.ndim != 1 or betas.size == 0:
        raise ScenarioFormatError("population.betas: expected a nonempty vector")
    try:
        require_finite(betas, "population.betas")
    except NonFiniteError as exc:
        raise ScenarioFormatError(str(exc)) from exc
    if pop.get("normalize", False):
        betas = betas / betas.sum()
    elif abs(betas.sum() - 1.0) > 1e-12:
        raise ScenarioFormatError(
            f"population.betas: sum {betas.sum()!r} is not 1 and normalize "
            "is not set"
        )
    risks = _parse_risks(pop, betas.size, "population")

    learners_cfg = _require(data, "learners", "scenario")
    m = int(_require(learners_cfg, "m", "learners"))
    subpop_rule = _parse_subpop_rule(_require(data, "subpop_rule", "scenario"))
    learner_rule = _parse_learner_rule(_require(data, "learner_rule", "scenario"))
    schedule = _parse_schedule(data.get("schedule"))
    try:
        scenario = Scenario(beta=betas, risks=risks, m=m,
                            subpop_rule=subpop_rule, learner_rule=learner_rule,
                            schedule=schedule)
    except ValueError as exc:
        raise ScenarioFormatError(f"scenario: {exc}") from exc

    seed = int(data.get("seed", 0))
    theta = _initial_theta(learners_cfg.get("init"), scenario, seed)
    alpha = _initial_alpha(data.get("initial_alpha"), scenario, seed)
    state = SystemState(alpha=alpha, theta=theta, t=0)
    try:
        validate_state(state, scenario)
    except ValueError as exc:
        raise ScenarioFormatError(f"initial state: {exc}") from exc

    det_cfg = data.get("detector") or {}
    try:
        detector = EquilibriumDetector(
            state_tolerance=float(det_cfg.get("state_tolerance", 1e-9)),
            window=int(det_cfg.get("window", 10)),
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"detector: {exc}") from exc

    max_steps = int(data.get("max_steps", 1000))
    return LoadedScenario(scenario=scenario, initial_state=state,
                          detector=detector, seed=seed, max_steps=max_steps)


def load_scenario(path) -> LoadedScenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON ({exc})") from exc
    return parse_scenario(data)


def scenario_to_dict(loaded: LoadedScenario) -> dict:
    """Serialize back to the file schema with explicit arrays (round-trips)."""
    scenario = loaded.scenario
    risks = []
    for r in scenario.risks:
        risks.append({
            "kind": "quadratic",
            "center": [float(x) for x in r.center],
            "curvature": [[float(x) for x in row] for row in r.curvature],
            "offset": float(r.offset),
        })
    sub = scenario.subpop_rule
    if sub.kind == "mwud":
        sub_cfg = {"kind": "mwud", "gamma": sub.gamma,
                   "comparison": sub.comparison}
    else:
        sub_cfg = {"kind": "best_response", "tie_tolerance": sub.tie_tolerance,
                   "tie_policy": sub.tie_policy}
    lr = scenario.learner_rule
    if lr.kind == "full_min":
        lr_cfg = {"kind": "full_min", "method": lr.method,
                  "tolerance": lr.tolerance,
                  "max_iterations": lr.max_iterations}
    else:
        lr_cfg = {"kind": "repeated_gd", "base": lr.schedule.base,
                  "form": lr.schedule.form, "inner_steps": lr.inner_steps}
    data = {
        "schema_version": SCHEMA_VERSION,
        "seed": loaded.seed,
        "max_steps": loaded.max_steps,
        "population": {"betas": [float(b) for b in scenario.beta],
                       "risks": risks},
        "learners": {
            "m": scenario.m,
            "init": {"kind": "explicit",
                     "theta": [[float(x) for x in row]
                               for row in loaded.initial_state.theta]},
        },
        "initial_alpha": {"kind": "explicit",
                          "alpha": [[float(x) for x in row]
                                    for row in loaded.initial_state.alpha]},
        "subpop_rule": sub_cfg,
        "learner_rule": lr_cfg,
        "detector": {"state_tolerance": loaded.detector.state_tolerance,
                     "window": loaded.detector.window},
    }
    if scenario.schedule is not None:
        sched = {"kind": scenario.schedule.kind}
        for name in ("order", "subpops", "learners"):
            val = getattr(scenario.schedule, name)
            if val is not None:
                sched[name] = list(val)
        data["schedule"] = sched
    return data


def packaged_scenario(name: str):
    """Filesystem path of a scenario shipped with the package."""
    return resources.files("popdyn") / "scenarios" / f"{name}.json"


def load_state(path, scenario: Scenario) -> SystemState:
    """Read an (alpha, theta) pair from a JSON state file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON ({exc})") from exc
    alpha = np.asarray(_require(data, "alpha", "state"), dtype=float)
    theta = np.asarray(_require(data, "theta", "state"), dtype=float)
    state = SystemState(alpha=alpha, theta=theta, t=int(data.get("t", 0)))
    try:
        validate_state(state, scenario)
    except ValueError as exc:
        raise ScenarioFormatError(f"state: {exc}") from exc
    return state
