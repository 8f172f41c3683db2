import copy
import json
import pathlib
import re

import numpy as np
import pytest

from popdyn import ScenarioFormatError
from popdyn.scenario_io import (
    SCHEMA_VERSION,
    load_scenario,
    load_state,
    packaged_scenario,
    parse_scenario,
    scenario_to_dict,
)

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "src/popdyn/scenarios"


def base_dict():
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": 3,
        "max_steps": 100,
        "population": {
            "betas": [0.25, 0.75],
            "risks": [
                {"kind": "quadratic", "center": [0.0]},
                {"kind": "quadratic", "center": [2.0], "offset": 0.5},
            ],
        },
        "learners": {"m": 2, "init": {"kind": "explicit",
                                      "theta": [[0.1], [1.9]]}},
        "initial_alpha": {"kind": "uniform"},
        "subpop_rule": {"kind": "mwud", "gamma": 1.5},
        "learner_rule": {"kind": "full_min"},
    }


class TestParsing:
    def test_packaged_scenarios_load(self):
        paths = sorted(SCENARIOS.glob("*.json"))
        assert len(paths) >= 5
        for path in paths:
            loaded = load_scenario(path)
            assert loaded.scenario.n >= loaded.scenario.m
            written = scenario_to_dict(loaded)
            again = scenario_to_dict(parse_scenario(copy.deepcopy(written)))
            assert again == written, path.name

    def test_round_trip_identical_scenario(self):
        loaded = parse_scenario(base_dict())
        redone = parse_scenario(scenario_to_dict(loaded))
        a, b = loaded.scenario, redone.scenario
        assert np.array_equal(a.beta, b.beta)
        assert a.m == b.m
        assert a.subpop_rule == b.subpop_rule
        assert a.learner_rule == b.learner_rule
        assert a.schedule == b.schedule
        for ra, rb in zip(a.risks, b.risks):
            assert np.array_equal(ra.center, rb.center)
            assert np.array_equal(ra.curvature, rb.curvature)
            assert ra.offset == rb.offset
        assert np.array_equal(loaded.initial_state.alpha,
                              redone.initial_state.alpha)
        assert np.array_equal(loaded.initial_state.theta,
                              redone.initial_state.theta)
        assert loaded.detector == redone.detector
        assert (loaded.seed, loaded.max_steps) == (redone.seed, redone.max_steps)

    def test_normalize_flag(self):
        data = base_dict()
        data["population"]["betas"] = [1.0, 3.0]
        with pytest.raises(ScenarioFormatError, match="betas"):
            parse_scenario(data)
        data["population"]["normalize"] = True
        loaded = parse_scenario(data)
        assert np.allclose(loaded.scenario.beta, [0.25, 0.75])

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_betas_name_the_entry(self, bad, normalize):
        # Python's json parses NaN and Infinity; normalize would divide by them
        data = base_dict()
        data["population"]["betas"] = [bad, 0.75]
        data["population"]["normalize"] = normalize
        with pytest.raises(ScenarioFormatError,
                           match=r"population\.betas\[0\]"):
            parse_scenario(data)

    @pytest.mark.parametrize("betas, message", [
        ([1, -1, 0], "population.betas[1]=-1.0 is not positive"),
        ([0, 0, 0], "population.betas[0]=0.0 is not positive"),
        ([2, -1, 1], "population.betas[1]=-1.0 is not positive"),
    ], ids=["zero-sum", "all-zero", "negative"])
    def test_normalize_names_the_files_own_beta(self, betas, message):
        # checked before dividing: no RuntimeWarning, no normalized value
        data = base_dict()
        data["population"]["betas"] = betas
        data["population"]["normalize"] = True
        with pytest.raises(ScenarioFormatError) as exc:
            parse_scenario(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, value, path", [
        ("center", [float("inf")], r"population\.risks\[1\]\.center\[0\]"),
        ("center", [float("nan")], r"population\.risks\[1\]\.center\[0\]"),
        ("offset", float("nan"), r"population\.risks\[1\]\.offset"),
        ("offset", float("inf"), r"population\.risks\[1\]\.offset"),
        ("curvature", [[float("nan")]],
         r"population\.risks\[1\]\.curvature\[0,0\]"),
    ], ids=["inf-center", "nan-center", "nan-offset", "inf-offset",
            "nan-curvature"])
    def test_nonfinite_risk_fields_name_the_path(self, field, value, path):
        data = base_dict()
        data["population"]["risks"][1][field] = value
        with pytest.raises(ScenarioFormatError, match=path):
            parse_scenario(data)

    def test_nonfinite_fields_from_json_text(self, tmp_path):
        data = base_dict()
        data["population"]["risks"][0]["center"] = [float("inf")]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))   # writes the bare token Infinity
        with pytest.raises(ScenarioFormatError,
                           match=r"population\.risks\[0\]\.center\[0\]"):
            load_scenario(path)

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,')
        with pytest.raises(ScenarioFormatError,
                           match=f"^{re.escape(str(path))}: invalid JSON"):
            load_scenario(path)

    def test_schema_version_checked(self):
        data = base_dict()
        data["schema_version"] = 99
        with pytest.raises(ScenarioFormatError, match="schema_version"):
            parse_scenario(data)

    def test_missing_field_diagnostic_names_path(self):
        data = base_dict()
        del data["population"]["risks"]
        with pytest.raises(ScenarioFormatError, match="population.risks"):
            parse_scenario(data)

    def test_bad_alpha_rows_name_offending_row(self):
        data = base_dict()
        data["initial_alpha"] = {"kind": "explicit",
                                 "alpha": [[0.5, 0.5], [0.7, 0.6]]}
        with pytest.raises(ScenarioFormatError, match="row 1"):
            parse_scenario(data)

    def test_custom_risk_kind_rejected(self):
        data = base_dict()
        data["population"]["risks"][0]["kind"] = "custom"
        with pytest.raises(ScenarioFormatError, match="custom"):
            parse_scenario(data)

    def test_random_inits_are_seed_deterministic(self):
        data = base_dict()
        data["learners"]["init"] = {"kind": "random_gaussian", "sigma": 0.5}
        data["initial_alpha"] = {"kind": "random_dirichlet"}
        a = parse_scenario(copy.deepcopy(data)).initial_state
        b = parse_scenario(copy.deepcopy(data)).initial_state
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.alpha, b.alpha)
        data["seed"] = 4
        c = parse_scenario(data).initial_state
        assert not np.array_equal(a.theta, c.theta)

    def test_given_fields_replace_the_files_before_the_draw(self, tmp_path):
        # seed=5 draws the random initial state as the file saved with seed 5
        data = base_dict()
        data["learners"]["init"] = {"kind": "random_gaussian"}
        data["initial_alpha"] = {"kind": "random_dirichlet"}
        paths = {}
        for seed in (0, 5):
            paths[seed] = tmp_path / f"seed{seed}.json"
            paths[seed].write_text(json.dumps({**data, "seed": seed}))
        given, saved = load_scenario(paths[0], seed=5), load_scenario(paths[5])
        assert (given.seed, given.max_steps) == (5, 100)
        for field in ("alpha", "theta"):
            got = getattr(given.initial_state, field)
            want = getattr(saved.initial_state, field)
            assert got.tobytes() == want.tobytes()
        assert load_scenario(paths[0], max_steps=7).max_steps == 7
        with pytest.raises(ScenarioFormatError, match="^seed must be"):
            load_scenario(paths[0], seed=-1)
        with pytest.raises(ScenarioFormatError, match="^sed: unknown field"):
            load_scenario(paths[0], sed=5)

    def test_a_document_that_is_no_object_is_a_format_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        for fields in ({}, {"seed": 5}):
            with pytest.raises(ScenarioFormatError,
                               match="^scenario: expected an object"):
                load_scenario(path, **fields)

    def test_centers_subset_init(self):
        data = base_dict()
        data["learners"]["init"] = {"kind": "centers_subset", "indices": [1, 0]}
        loaded = parse_scenario(data)
        assert np.allclose(loaded.initial_state.theta, [[2.0], [0.0]])

    def test_rule_validation_propagates(self):
        data = base_dict()
        data["subpop_rule"] = {"kind": "mwud", "gamma": -1.0}
        with pytest.raises(ScenarioFormatError, match="gamma"):
            parse_scenario(data)

    @pytest.mark.parametrize("value", ["no", "yes", 1, 0, None])
    def test_normalize_must_be_a_boolean(self, value):
        data = base_dict()
        data["population"]["normalize"] = value
        with pytest.raises(ScenarioFormatError,
                           match=r"^population\.normalize"):
            parse_scenario(data)

    def test_out_of_range_schedule_index_names_the_field(self):
        data = base_dict()
        data["schedule"] = {"kind": "round_robin_subpops", "order": [1, 5]}
        with pytest.raises(ScenarioFormatError, match=r"schedule\.order\[1\]"):
            parse_scenario(data)

    @pytest.mark.parametrize("risk, schedule, message", [
        ({"offset": [1, 2]}, None,
         "population.risks[1].offset must be a number >= 0, got [1, 2]"),
        ({"offset": "1"}, None,
         "population.risks[1].offset must be a number >= 0, got '1'"),
        ({}, {"kind": "custom_order", "subpops": 3},
         "schedule.subpops must be a list of integers, got 3"),
        ({}, {"kind": "custom_order", "learners": "01"},
         "schedule.learners must be a list of integers, got '01'"),
        ({}, {"kind": "round_robin_subpops", "order": {"0": 1}},
         "schedule.order must be a list of integers, got {'0': 1}"),
    ], ids=["offset-list", "offset-string", "subpops-int", "learners-string",
            "order-object"])
    def test_wrongly_shaped_fields_name_the_field(self, risk, schedule,
                                                   message):
        data = base_dict()
        data["population"]["risks"][1].update(risk)
        data["schedule"] = schedule
        with pytest.raises(ScenarioFormatError) as exc:
            parse_scenario(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize("path, section, value", [
        ("learners.m: need 1 <= m <= n", "learners", {"m": 3}),
        ("schedule.order[1] must be < 2", "schedule",
         {"kind": "round_robin_subpops", "order": [1, 5]}),
        ("population.betas[0]=0.0 is not positive", "population",
         {"betas": [0.0, 1.0]}),
        ("population.betas[1]=-0.5 is not positive", "population",
         {"betas": [1.5, -0.5]}),
        ("population.betas: expected a nonempty vector", "population",
         {"betas": []}),
        ("population.risks: expected a list of 3 risk objects", "population",
         {"betas": [0.25, 0.25, 0.5]}),
    ])
    def test_scenario_errors_start_with_the_file_path(self, path, section,
                                                      value):
        data = base_dict()
        data[section] = {**data.get(section, {}), **value}
        with pytest.raises(ScenarioFormatError) as exc:
            parse_scenario(data)
        assert str(exc.value).startswith(path)

    @pytest.mark.parametrize("parent, key", [("learners", "init"),
                                             (None, "initial_alpha"),
                                             (None, "schedule")])
    def test_null_means_absent(self, parent, key):
        null, absent = base_dict(), base_dict()
        (null[parent] if parent else null)[key] = None
        (absent[parent] if parent else absent).pop(key, None)
        a, b = parse_scenario(null), parse_scenario(absent)
        assert np.array_equal(a.initial_state.theta, b.initial_state.theta)
        assert np.array_equal(a.initial_state.alpha, b.initial_state.alpha)
        assert a.scenario.schedule is b.scenario.schedule is None

    def test_null_detector_is_rejected(self):
        data = base_dict()
        data["detector"] = None
        with pytest.raises(ScenarioFormatError,
                           match=r"^detector: expected an object"):
            parse_scenario(data)

    def test_schedule_round_trips(self):
        data = base_dict()
        data["schedule"] = {"kind": "round_robin_subpops", "order": [1, 0]}
        loaded = parse_scenario(data)
        redone = parse_scenario(scenario_to_dict(loaded))
        assert redone.scenario.schedule == loaded.scenario.schedule
        assert redone.scenario.schedule.order == (1, 0)


class TestStateFiles:
    def test_load_state(self, tmp_path):
        loaded = parse_scenario(base_dict())
        path = tmp_path / "state.json"
        path.write_text(json.dumps({
            "alpha": [[1.0, 0.0], [0.0, 1.0]],
            "theta": [[0.0], [2.0]],
            "t": 7,
        }))
        state = load_state(path, loaded.scenario)
        assert state.alpha[0, 0] == 1.0
        assert state.t == 7

    def test_state_shape_mismatch(self, tmp_path):
        loaded = parse_scenario(base_dict())
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"alpha": [[1.0, 0.0]],
                                    "theta": [[0.0], [2.0]]}))
        with pytest.raises(ScenarioFormatError):
            load_state(path, loaded.scenario)

    @pytest.mark.parametrize("fields, message", [
        ({"tt": 1}, "state.tt: unknown field"),
        ({"t": -1}, "state.t must be an integer >= 0"),
        ({"theta": [[0.0], [float("nan")]]}, "state.theta[1,0]=nan"),
    ])
    def test_state_fields_name_their_path(self, tmp_path, fields, message):
        loaded = parse_scenario(base_dict())
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"alpha": [[1.0, 0.0], [0.0, 1.0]],
                                    "theta": [[0.0], [2.0]], **fields}))
        with pytest.raises(ScenarioFormatError) as exc:
            load_state(path, loaded.scenario)
        assert str(exc.value).startswith(message)


class TestConstructorFields:
    """Every object in a file is the keyword arguments of one function:
    unknown fields and rejected values name their path."""

    @staticmethod
    def _with(section, cfg):
        """base_dict() with the object at section (a path such as
        "population.risks[1]"; "" is the document) replaced by cfg."""
        data = base_dict()
        if not section:
            return {**data, **cfg}
        *parents, key = [int(k) if k.isdigit() else k
                         for k in re.findall(r"\w+", section)]
        target = data
        for name in parents:
            target = target[name]
        target[key] = cfg
        return data

    @pytest.mark.parametrize("section, cfg, typo", [
        ("subpop_rule", {"kind": "mwud"}, "gama"),
        ("subpop_rule", {"kind": "best_response"}, "gama"),
        ("learner_rule", {"kind": "full_min"}, "gama"),
        ("learner_rule", {"kind": "repeated_gd"}, "gama"),
        ("schedule", {"kind": "round_robin_subpops"}, "gama"),
        ("schedule", {"kind": "custom_order"}, "order"),
        ("schedule", {"kind": "all_sequential"}, "order"),
        ("schedule", {"kind": "round_robin_subpops"}, "subpops"),
        ("schedule", {"kind": "round_robin_learners"}, "learners"),
        ("detector", {}, "gama"),
        ("population.risks[1]", {"kind": "quadratic", "center": [2.0]}, "gama"),
        ("", {}, "max_step"),
        ("", {}, "detecter"),
        ("", {}, "schedul"),
        ("population", base_dict()["population"], "normalise"),
        ("learners", {"m": 2}, "M"),
        ("learners.init", {"kind": "random_gaussian"}, "sigam"),
        ("learners.init", {"kind": "centers_subset"}, "sigma"),
        ("learners.init", {"kind": "explicit", "theta": [[0.0], [1.0]]},
         "indices"),
        ("initial_alpha", {"kind": "random_dirichlet"}, "concentraton"),
        ("initial_alpha", {"kind": "uniform"}, "alpha"),
        ("initial_alpha", {"kind": "explicit",
                           "alpha": [[1.0, 0.0], [0.0, 1.0]]}, "concentration"),
        ("learner_rule", {"kind": "full_min"}, "method"),
    ])
    def test_unknown_field_names_its_path(self, section, cfg, typo):
        data = self._with(section, {**cfg, typo: 5.0})
        with pytest.raises(ScenarioFormatError) as exc:
            parse_scenario(data)
        path = f"{section}.{typo}" if section else typo
        assert str(exc.value).startswith(f"{path}: unknown field")

    @pytest.mark.parametrize("section, cfg, field", [
        ("learner_rule", {"kind": "repeated_gd", "inner_steps": 1.5},
         "inner_steps"),
        ("learner_rule", {"kind": "full_min", "max_iterations": 2.5},
         "max_iterations"),
        ("detector", {"window": 10.5}, "window"),
        ("subpop_rule", {"kind": "mwud", "gamma": None}, "gamma"),
        ("subpop_rule", {"kind": "mwud", "gamma": "1.5"}, "gamma"),
        ("subpop_rule", {"kind": "best_response", "tie_policy": 3},
         "tie_policy"),
        ("learner_rule", {"kind": "repeated_gd", "base": None}, "base"),
        ("schedule", {"kind": "round_robin_subpops", "order": [1.0, 0]},
         "order[0]"),
        ("population.risks[1]", {"center": "x"}, "center"),
        ("population.risks[1]", {"center": []}, "center"),
        ("population.risks[1]", {"center": [[0.0]]}, "center"),
        ("learners.init", {"kind": "explicit", "theta": [[0.0]]}, "theta"),
        ("learners.init", {"kind": "centers_subset", "indices": [0, 5]},
         "indices"),
    ])
    def test_rejected_value_names_its_path(self, section, cfg, field):
        with pytest.raises(ScenarioFormatError) as exc:
            parse_scenario(self._with(section, cfg))
        assert str(exc.value).startswith(f"{section}.{field}")

    @pytest.mark.parametrize("path, value", [
        (path, value)
        for path in ("seed", "max_steps", "learners.m", "learners.init.sigma",
                     "initial_alpha.concentration")
        for value in (None, "x", "1", True)
    ] + [(path, 1.5) for path in ("seed", "max_steps", "learners.m")]
      + [(path, "mwud") for path in ("subpop_rule", "learner_rule")])
    def test_top_level_scalars_name_the_field(self, path, value):
        data = base_dict()
        data["learners"]["init"] = {"kind": "random_gaussian"}
        data["initial_alpha"] = {"kind": "random_dirichlet"}
        *parents, key = path.split(".")
        target = data
        for name in parents:
            target = target[name]
        target[key] = value
        with pytest.raises(ScenarioFormatError) as exc:
            parse_scenario(data)
        assert str(exc.value).startswith(path)

    @pytest.mark.parametrize("section, cfg", [
        ("subpop_rule", {"kind": "mwud", "gamma": 0.7,
                         "comparison": "relative"}),
        ("subpop_rule", {"kind": "best_response", "tie_tolerance": 0.25,
                         "tie_policy": "keep_previous"}),
        ("learner_rule", {"kind": "full_min", "tolerance": 1e-9,
                          "max_iterations": 50}),
        ("learner_rule", {"kind": "repeated_gd", "base": 0.5,
                          "form": "constant", "inner_steps": 3}),
        ("schedule", {"kind": "custom_order", "subpops": [1],
                      "learners": [0, 1]}),
        ("detector", {"state_tolerance": 1e-7, "window": 4}),
    ])
    def test_written_object_is_the_constructor_arguments(self, section, cfg):
        data = base_dict()
        data[section] = cfg
        assert scenario_to_dict(parse_scenario(data))[section] == cfg
