"""Scenario file parsing and serialization.

Scenario files are JSON with an explicit schema_version.  Every experiment and
golden run in the repository is reproducible from a checked-in file.  All
randomness derives from the single ``seed`` field, expanded into independent
per-purpose streams (parameter init, allocation init, perturbation).

Every object in a scenario or state file is the keyword arguments of one
function, a rule, risk, schedule or detector constructor or one of the
private functions below, so those signatures are the only statement of the
field names and defaults.  One builder loads every object and one writer
dumps it back.
"""

from __future__ import annotations

import inspect
import json
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .allocation import best_response, mwud
from .engine import EquilibriumDetector
from .errors import ScenarioFormatError
from .learners import full_min, repeated_gd
from .model import (
    Scenario,
    SystemState,
    UpdateSchedule,
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


# Initial-state generators: the scenario and seed lead, the file fields follow.
def _explicit_theta(scenario, seed, theta):
    theta = require_finite(theta, "theta")
    if theta.shape != (scenario.m, scenario.d):
        raise ValueError(f"theta: expected shape ({scenario.m},{scenario.d}), "
                         f"got {theta.shape}")
    return theta


def _random_gaussian_theta(scenario, seed, sigma=1.0):
    require_number(sigma, "sigma", 0)
    rng = np.random.default_rng([seed, STREAM_THETA_INIT])
    return sigma * rng.standard_normal((scenario.m, scenario.d))


def _centers_subset_theta(scenario, seed, indices=None):
    m, n = scenario.m, scenario.n
    indices = list(range(m)) if indices is None else indices
    if (not isinstance(indices, list) or len(indices) != m
            or any(type(i) is not int or not 0 <= i < n for i in indices)):
        raise ValueError(f"indices: need {m} valid subpopulation indices")
    return scenario.centers()[indices].copy()


def _uniform_alpha(scenario, seed):
    return np.full((scenario.n, scenario.m), 1.0 / scenario.m)


def _explicit_alpha(scenario, seed, alpha):
    return require_finite(alpha, "alpha")


def _random_dirichlet_alpha(scenario, seed, concentration=1.0):
    require_number(concentration, "concentration", 0, strict=True)
    rng = np.random.default_rng([seed, STREAM_ALPHA_INIT])
    return rng.dirichlet(np.full(scenario.m, concentration), size=scenario.n)


# The function that each "kind" of an object names, by section.
_KINDS = {
    "subpop_rule": {"mwud": mwud, "best_response": best_response},
    "learner_rule": {"full_min": full_min, "repeated_gd": repeated_gd},
    "risk": {"quadratic": quadratic_risk},
    "learners.init": {"explicit": _explicit_theta,
                      "random_gaussian": _random_gaussian_theta,
                      "centers_subset": _centers_subset_theta},
    "initial_alpha": {"uniform": _uniform_alpha,
                      "explicit": _explicit_alpha,
                      "random_dirichlet": _random_dirichlet_alpha},
}

# The file path of each Scenario field, which its errors name first.
_SCENARIO_PATHS = {"beta": "population.betas", "risks": "population.risks",
                   "m": "learners.m", "schedule": "schedule"}


@dataclass
class LoadedScenario:
    scenario: Scenario
    initial_state: SystemState
    detector: EquilibriumDetector
    seed: int
    max_steps: int


def _build(make, fields, path, bound=()):
    """make(*bound, **fields), with unknown or missing fields and values the
    function rejects raised as ScenarioFormatErrors naming path.field (the
    document itself has the empty path).  A nested object's
    ScenarioFormatError already names its own path and passes through."""
    prefix = f"{path}." if path else ""
    if not isinstance(fields, dict):
        raise ScenarioFormatError(f"{path or 'scenario'}: expected an object")
    params = list(inspect.signature(make).parameters.values())[len(bound):]
    names = [param.name for param in params]
    for name in fields:
        if name not in names:
            raise ScenarioFormatError(
                f"{prefix}{name}: unknown field; expected one of {names}")
    for param in params:
        if param.default is param.empty and param.name not in fields:
            raise ScenarioFormatError(
                f"{prefix}{param.name}: missing required field")
    try:
        return make(*bound, **fields)
    except ScenarioFormatError:
        raise
    except ValueError as exc:  # functions name the offending field first
        raise ScenarioFormatError(f"{prefix}{exc}") from exc
    except TypeError as exc:
        raise ScenarioFormatError(f"{path or 'scenario'}: {exc}") from exc


def _build_kind(cfg, section, path=None, default=None, bound=()):
    """Build the object of a {"kind": ..., **fields} entry of a section, at
    path (the section's name by default); bound are the leading arguments
    of the kind's function."""
    path = path or section
    if not isinstance(cfg, dict):
        raise ScenarioFormatError(f"{path}: expected an object")
    fields = dict(cfg)
    kind = fields.pop("kind", default)
    kinds = _KINDS[section]
    if not isinstance(kind, str) or kind not in kinds:
        raise ScenarioFormatError(
            f"{path}.kind: unknown kind {kind!r}; expected one of {list(kinds)}"
        )
    return _build(kinds[kind], fields, path, bound)


def _fields(obj, make):
    """The keyword arguments of make that rebuild obj, as JSON values; None
    values are left out so that the constructor's default applies."""
    out = {}
    for name in inspect.signature(make).parameters:
        value = getattr(obj, name)
        if isinstance(value, (np.ndarray, tuple)):
            value = np.asarray(value).tolist()
        if value is not None:
            out[name] = value
    return out


def _dump_kind(obj, section):
    return {"kind": obj.kind, **_fields(obj, _KINDS[section][obj.kind])}


def _validated(state, scenario, label):
    try:
        validate_state(state, scenario)
    except ValueError as exc:
        raise ScenarioFormatError(f"{label}: {exc}") from exc
    return state


def _population(betas, risks, normalize=False):
    betas = require_finite(betas, "betas")
    if betas.ndim != 1 or betas.size == 0:
        raise ValueError("betas: expected a nonempty vector")
    if not isinstance(normalize, bool):
        raise ValueError(f"normalize must be true or false, got {normalize!r}")
    if np.any(betas <= 0):   # before normalizing, so the file's value is named
        i = int(np.argmin(betas))
        raise ValueError(f"betas[{i}]={float(betas[i])!r} is not positive")
    if normalize:
        betas = betas / betas.sum()
    elif abs(betas.sum() - 1.0) > 1e-12:
        raise ValueError(
            f"betas: sum {betas.sum()!r} is not 1 and normalize is not set")
    if not isinstance(risks, list) or len(risks) != betas.size:
        raise ValueError(f"risks: expected a list of {betas.size} risk objects")
    return betas, tuple(_build_kind(entry, "risk", f"population.risks[{i}]",
                                    default="quadratic")
                        for i, entry in enumerate(risks))


def _learners(m, init=None):
    return require_number(m, "m", 1, integer=True), init


def _document(schema_version, population, learners, subpop_rule, learner_rule,
              seed=0, max_steps=1000, initial_alpha=None, schedule=None,
              detector={}):  # never mutated
    if schema_version != SCHEMA_VERSION:
        raise ValueError(f"schema_version: expected {SCHEMA_VERSION}, "
                         f"got {schema_version!r}")
    betas, risks = _build(_population, population, "population")
    m, init = _build(_learners, learners, "learners")
    subpop_rule = _build_kind(subpop_rule, "subpop_rule")
    learner_rule = _build_kind(learner_rule, "learner_rule")
    if schedule is not None:
        schedule = _build(UpdateSchedule, schedule, "schedule")
    try:
        scenario = Scenario(beta=betas, risks=risks, m=m,
                            subpop_rule=subpop_rule, learner_rule=learner_rule,
                            schedule=schedule)
    except ValueError as exc:
        raise ScenarioFormatError(re.sub(
            r"^\w+", lambda field: _SCENARIO_PATHS[field[0]], str(exc))) from exc

    seed = require_number(seed, "seed", 0, integer=True)
    bound = (scenario, seed)
    theta = _build_kind({"kind": "centers_subset"} if init is None else init,
                        "learners.init", bound=bound)
    alpha = _build_kind({"kind": "uniform"} if initial_alpha is None
                        else initial_alpha, "initial_alpha", bound=bound)
    state = _validated(SystemState(alpha=alpha, theta=theta, t=0), scenario,
                       "initial state")
    detector = _build(EquilibriumDetector, detector, "detector")
    max_steps = require_number(max_steps, "max_steps", 1, integer=True)
    return LoadedScenario(scenario, state, detector, seed, max_steps)


def parse_scenario(data: dict) -> LoadedScenario:
    """Build a Scenario plus initial state from a schema-versioned dict."""
    return _build(_document, data, "")


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON ({exc})") from exc


def load_scenario(path, **fields) -> LoadedScenario:
    """The scenario file at path, with fields in place of its top-level
    fields of the same names (seed=5 replaces its seed) before anything is
    built, so a random initial state is drawn from the seed given here."""
    data = _read_json(path)   # parse_scenario rejects one that is no object
    return parse_scenario({**data, **fields} if isinstance(data, dict) else data)


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


def _state(alpha, theta, t=0):
    return SystemState(alpha=require_finite(alpha, "alpha"),
                       theta=require_finite(theta, "theta"),
                       t=require_number(t, "t", 0, integer=True))


def load_state(path, scenario: Scenario) -> SystemState:
    """Read an (alpha, theta) pair from a JSON state file."""
    return _validated(_build(_state, _read_json(path), "state"), scenario,
                      "state")
