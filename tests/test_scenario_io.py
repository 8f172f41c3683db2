import copy
import json

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
        for name in ("three_centers", "competition12", "two_group_gap", "minority"):
            loaded = load_scenario(packaged_scenario(name))
            assert loaded.scenario.n >= loaded.scenario.m

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
        }))
        state = load_state(path, loaded.scenario)
        assert state.alpha[0, 0] == 1.0

    def test_state_shape_mismatch(self, tmp_path):
        loaded = parse_scenario(base_dict())
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"alpha": [[1.0, 0.0]],
                                    "theta": [[0.0], [2.0]]}))
        with pytest.raises(ScenarioFormatError):
            load_state(path, loaded.scenario)


class TestConstructorFields:
    """Rule, schedule, detector and risk objects are constructor keyword
    arguments: unknown fields and rejected values name their path."""

    @staticmethod
    def _with(section, cfg):
        data = base_dict()
        if section == "population.risks[1]":
            data["population"]["risks"][1] = cfg
        else:
            data[section] = cfg
        return data

    @pytest.mark.parametrize("section, cfg", [
        ("subpop_rule", {"kind": "mwud"}),
        ("subpop_rule", {"kind": "best_response"}),
        ("learner_rule", {"kind": "full_min"}),
        ("learner_rule", {"kind": "repeated_gd"}),
        ("schedule", {"kind": "round_robin_subpops"}),
        ("detector", {}),
        ("population.risks[1]", {"kind": "quadratic", "center": [2.0]}),
    ])
    def test_unknown_field_names_its_path(self, section, cfg):
        data = self._with(section, {**cfg, "gama": 5.0})
        with pytest.raises(ScenarioFormatError) as exc:
            parse_scenario(data)
        assert str(exc.value).startswith(f"{section}.gama: unknown field")

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
    ] + [(path, 1.5) for path in ("seed", "max_steps", "learners.m")])
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
        ("learner_rule", {"kind": "full_min", "method": "newton",
                          "tolerance": 1e-9, "max_iterations": 50}),
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
