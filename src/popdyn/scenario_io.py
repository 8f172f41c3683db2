"""Scenario file parsing and serialization.

Scenario files are JSON with an explicit schema_version.  Every experiment and
golden run in the repository is reproducible from a checked-in file.  All
randomness derives from the single ``seed`` field, expanded into independent
per-purpose streams (parameter init, allocation init, perturbation).

Each rule, risk, schedule and detector object in a file is the keyword
arguments of one constructor (``mwud``, ``best_response``, ``full_min``,
``repeated_gd``, ``quadratic_risk``, ``UpdateSchedule``,
``EquilibriumDetector``), so those signatures are the only statement of the
field names and defaults.  One builder loads every such object and one
writer dumps it back.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, is_dataclass
from importlib import resources

import numpy as np

from .allocation import best_response, mwud
from .engine import EquilibriumDetector, UpdateSchedule
from .errors import ScenarioFormatError
from .learners import full_min, repeated_gd
from .model import (
    Scenario,
    SystemState,
    quadratic_risk,
    require_finite,
    require_number,
    validate_state,
)

SCHEMA_VERSION = 1

# per-purpose RNG stream tags, combined with the scenario seed
STREAM_THETA_INIT = 1
STREAM_ALPHA_INIT = 2
STREAM_PERTURB = 3


# The constructor that each "kind" of a rule or risk object names, by section.
_KINDS = {
    "subpop_rule": {"mwud": mwud, "best_response": best_response},
    "learner_rule": {"full_min": full_min, "repeated_gd": repeated_gd},
    "risk": {"quadratic": quadratic_risk},
}


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


def _field(check, value, path, *args, **kwargs):
    """check(value, path, ...) from model, its ValueError a ScenarioFormatError."""
    try:
        return check(value, path, *args, **kwargs)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def _build(make, fields, path):
    """make(**fields), with unknown or missing fields and values the
    constructor rejects raised as ScenarioFormatErrors naming path.field."""
    if not isinstance(fields, dict):
        raise ScenarioFormatError(f"{path}: expected an object")
    params = inspect.signature(make).parameters
    for name in fields:
        if name not in params:
            raise ScenarioFormatError(
                f"{path}.{name}: unknown field; expected one of {list(params)}"
            )
    for name, param in params.items():
        if param.default is param.empty and name not in fields:
            raise ScenarioFormatError(f"{path}.{name}: missing required field")
    try:
        return make(**fields)
    except ValueError as exc:  # constructors name the offending field first
        raise ScenarioFormatError(f"{path}.{exc}") from exc
    except TypeError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def _build_kind(cfg, section, path, default=None):
    """Build the object of a {"kind": ..., **fields} entry of a section."""
    if not isinstance(cfg, dict):
        raise ScenarioFormatError(f"{path}: expected an object")
    fields = dict(cfg)
    kind = fields.pop("kind", default)
    kinds = _KINDS[section]
    if not isinstance(kind, str) or kind not in kinds:
        raise ScenarioFormatError(
            f"{path}.kind: unknown kind {kind!r}; expected one of {list(kinds)}"
        )
    return _build(kinds[kind], fields, path)


def _fields(obj, make):
    """The keyword arguments of make that rebuild obj, as JSON values; None
    values are left out so that the constructor's default applies."""
    values = dict(vars(obj))
    for value in vars(obj).values():
        if is_dataclass(value):  # repeated_gd keeps base and form in a StepSchedule
            values.update(vars(value))
    out = {}
    for name in inspect.signature(make).parameters:
        value = values[name]
        if isinstance(value, (np.ndarray, tuple)):
            value = np.asarray(value).tolist()
        if value is not None:
            out[name] = value
    return out


def _dump_kind(obj, section):
    return {"kind": obj.kind, **_fields(obj, _KINDS[section][obj.kind])}


def _parse_risks(pop, n, path):
    entries = _require(pop, "risks", path)
    if not isinstance(entries, list) or len(entries) != n:
        raise ScenarioFormatError(
            f"{path}.risks: expected a list of {n} risk objects"
        )
    return tuple(_build_kind(entry, "risk", f"{path}.risks[{i}]",
                             default="quadratic")
                 for i, entry in enumerate(entries))


def _initial_theta(cfg, scenario, seed):
    if cfg is None:
        cfg = {"kind": "centers_subset"}
    kind = _require(cfg, "kind", "learners.init")
    m, d = scenario.m, scenario.d
    if kind == "explicit":
        theta = _field(require_finite, _require(cfg, "theta", "learners.init"),
                       "learners.init.theta")
        if theta.shape != (m, d):
            raise ScenarioFormatError(
                f"learners.init.theta: expected shape ({m},{d}), got {theta.shape}"
            )
        return theta
    if kind == "random_gaussian":
        sigma = _field(require_number, cfg.get("sigma", 1.0),
                       "learners.init.sigma", 0)
        rng = np.random.default_rng([seed, STREAM_THETA_INIT])
        return sigma * rng.standard_normal((m, d))
    if kind == "centers_subset":
        indices = cfg.get("indices", list(range(m)))
        if (not isinstance(indices, list) or len(indices) != m
                or any(type(i) is not int or not 0 <= i < scenario.n
                       for i in indices)):
            raise ScenarioFormatError(
                f"learners.init.indices: need {m} valid subpopulation indices"
            )
        return scenario.centers()[indices].copy()
    raise ScenarioFormatError(f"learners.init.kind: unknown kind {kind!r}")


def _initial_alpha(cfg, scenario, seed):
    if cfg is None:
        cfg = {"kind": "uniform"}
    kind = _require(cfg, "kind", "initial_alpha")
    n, m = scenario.n, scenario.m
    if kind == "uniform":
        return np.full((n, m), 1.0 / m)
    if kind == "explicit":
        return _field(require_finite, _require(cfg, "alpha", "initial_alpha"),
                      "initial_alpha.alpha")
    if kind == "random_dirichlet":
        rng = np.random.default_rng([seed, STREAM_ALPHA_INIT])
        conc = _field(require_number, cfg.get("concentration", 1.0),
                      "initial_alpha.concentration", 0, strict=True)
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
    betas = _field(require_finite, _require(pop, "betas", "population"),
                   "population.betas")
    if betas.ndim != 1 or betas.size == 0:
        raise ScenarioFormatError("population.betas: expected a nonempty vector")
    if pop.get("normalize", False):
        betas = betas / betas.sum()
    elif abs(betas.sum() - 1.0) > 1e-12:
        raise ScenarioFormatError(
            f"population.betas: sum {betas.sum()!r} is not 1 and normalize "
            "is not set"
        )
    risks = _parse_risks(pop, betas.size, "population")

    learners_cfg = _require(data, "learners", "scenario")
    m = _field(require_number, _require(learners_cfg, "m", "learners"),
               "learners.m", 1, integer=True)
    subpop_rule = _build_kind(_require(data, "subpop_rule", "scenario"),
                              "subpop_rule", "subpop_rule")
    learner_rule = _build_kind(_require(data, "learner_rule", "scenario"),
                               "learner_rule", "learner_rule")
    schedule = data.get("schedule")
    if schedule is not None:
        schedule = _build(UpdateSchedule, schedule, "schedule")
    try:
        scenario = Scenario(beta=betas, risks=risks, m=m,
                            subpop_rule=subpop_rule, learner_rule=learner_rule,
                            schedule=schedule)
    except ValueError as exc:
        raise ScenarioFormatError(f"scenario: {exc}") from exc

    seed = _field(require_number, data.get("seed", 0), "seed", 0, integer=True)
    theta = _initial_theta(learners_cfg.get("init"), scenario, seed)
    alpha = _initial_alpha(data.get("initial_alpha"), scenario, seed)
    state = SystemState(alpha=alpha, theta=theta, t=0)
    try:
        validate_state(state, scenario)
    except ValueError as exc:
        raise ScenarioFormatError(f"initial state: {exc}") from exc

    detector = _build(EquilibriumDetector, data.get("detector", {}), "detector")
    max_steps = _field(require_number, data.get("max_steps", 1000),
                       "max_steps", 1, integer=True)
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
    data = {
        "schema_version": SCHEMA_VERSION,
        "seed": loaded.seed,
        "max_steps": loaded.max_steps,
        "population": {"betas": scenario.beta.tolist(),
                       "risks": [_dump_kind(r, "risk")
                                 for r in scenario.risks]},
        "learners": {
            "m": scenario.m,
            "init": {"kind": "explicit",
                     "theta": loaded.initial_state.theta.tolist()},
        },
        "initial_alpha": {"kind": "explicit",
                          "alpha": loaded.initial_state.alpha.tolist()},
        "subpop_rule": _dump_kind(scenario.subpop_rule, "subpop_rule"),
        "learner_rule": _dump_kind(scenario.learner_rule, "learner_rule"),
        "detector": _fields(loaded.detector, EquilibriumDetector),
    }
    if scenario.schedule is not None:
        data["schedule"] = _fields(scenario.schedule, UpdateSchedule)
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
    alpha = _field(require_finite, _require(data, "alpha", "state"), "state.alpha")
    theta = _field(require_finite, _require(data, "theta", "state"), "state.theta")
    t = _field(require_number, data.get("t", 0), "state.t", 0, integer=True)
    state = SystemState(alpha=alpha, theta=theta, t=t)
    try:
        validate_state(state, scenario)
    except ValueError as exc:
        raise ScenarioFormatError(f"state: {exc}") from exc
    return state
