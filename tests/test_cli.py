import csv
import json
from unittest import mock

import numpy as np
import pytest

from popdyn import EquilibriumDetector, Scenario, SystemState, cli, engine
from popdyn.cli import main
from popdyn.engine import perturb, simulate
from popdyn.equilibria import (
    EquilibriumReport,
    SplitAssignment,
    classify_state,
    enumerate_split_equilibria,
    theta_for_assignment,
)
from popdyn.scenario_io import load_scenario, packaged_scenario

THREE_CENTERS = str(packaged_scenario("three_centers"))
TWO_GROUP = str(packaged_scenario("two_group_gap"))


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_perturbed_run_converges(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["simulate", THREE_CENTERS, "--out", str(out), "--sigma", "1e-3",
                   "--seed", "1"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["classification"] == "split_market"
        assert summary["stability"] == "asymptotically_stable"
        rows = read_csv(out / "trajectory.csv")
        totals = np.array([float(r["total_risk"]) for r in rows])
        assert np.all(np.diff(totals) <= 1e-8)
        learner = np.array([[float(r[f"learner_risk_{j}"]) for j in (1, 2)]
                            for r in rows])
        sub = np.array([[float(r[f"subpop_risk_{i}"]) for i in (1, 2, 3)]
                        for r in rows])
        assert (np.diff(learner, axis=0) > 1e-12).any() or \
               (np.diff(sub, axis=0) > 1e-12).any()
        assert (out / "events.log").exists()

    def test_exact_balanced_start_converges_immediately(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", THREE_CENTERS, "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged_at"] == 0
        assert summary["classification"] == "balanced_candidate"

    def test_header_is_a_function_of_shape(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", THREE_CENTERS, "--out", str(out)])
        with open(out / "trajectory.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == (
            ["t", "total_risk", "subpop_risk_1", "subpop_risk_2",
             "subpop_risk_3", "learner_risk_1", "learner_risk_2",
             "alpha_1_1", "alpha_1_2", "alpha_2_1", "alpha_2_2",
             "alpha_3_1", "alpha_3_2", "theta_1_1", "theta_2_1"])

    def test_malformed_scenario_names_offending_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = json.loads(packaged_scenario("three_centers").read_text())
        data["initial_alpha"] = {"kind": "explicit",
                                 "alpha": [[0.5, 0.5], [0.5, 0.5], [0.9, 0.5]]}
        bad.write_text(json.dumps(data))
        rc = main(["simulate", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "row 2" in err
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_null_rule_field_names_its_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = json.loads(packaged_scenario("three_centers").read_text())
        data["subpop_rule"]["gamma"] = None
        bad.write_text(json.dumps(data))
        rc = main(["simulate", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: subpop_rule.gamma")

    def test_out_of_range_schedule_index_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = json.loads(packaged_scenario("three_centers").read_text())
        data["schedule"] = {"kind": "round_robin_subpops", "order": [5]}
        bad.write_text(json.dumps(data))
        rc = main(["simulate", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "schedule.order[0]" in capsys.readouterr().err
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_non_convergence_exit_code(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", THREE_CENTERS, "--out", str(out), "--sigma", "1e-3",
                   "--seed", "1", "--max-steps", "5"])
        assert rc == 2

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", THREE_CENTERS, "--out", str(out)])
        rows = read_csv(out / "trajectory.csv")
        val = rows[0]["total_risk"]
        assert float(val) == pytest.approx(5 / 3, abs=1e-15)
        assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_monotonicity_violation_exit_three(self, tmp_path, capsys):
        # oversized constant gradient steps are not risk reducing
        bad = tmp_path / "bad.json"
        data = json.loads(packaged_scenario("three_centers").read_text())
        data["learner_rule"] = {"kind": "repeated_gd", "base": 5.0,
                                "form": "constant"}
        data["learners"]["init"] = {"kind": "explicit",
                                    "theta": [[-3.0], [4.0]]}
        bad.write_text(json.dumps(data))
        out = tmp_path / "o"
        rc = main(["simulate", str(bad), "--out", str(out)])
        assert rc == 3
        assert "total risk increased" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
        assert (out / "events.log").exists()

    def test_learner_risk_increase_exit_three(self, tmp_path, capsys):
        # the step lowers the total risk but raises learner 1's mixture risk
        bad = tmp_path / "gd.json"
        bad.write_text(json.dumps({
            "schema_version": 1,
            "population": {"betas": [0.5, 0.5], "risks": [
                {"kind": "quadratic", "center": [0.0]},
                {"kind": "quadratic", "center": [1.0], "curvature": [[3.0]]}]},
            "learners": {"m": 2, "init": {"kind": "explicit",
                                          "theta": [[5.0], [1.1]]}},
            "initial_alpha": {"kind": "explicit", "alpha": [[1, 0], [0, 1]]},
            "subpop_rule": {"kind": "mwud"},
            "learner_rule": {"kind": "repeated_gd", "base": 0.35,
                             "form": "constant"}}))
        out = tmp_path / "o"
        rc = main(["simulate", str(bad), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: learner update: mixture risk of learner 1 "
                              "increased at step 0")
        assert "learner 1" in (out / "events.log").read_text()
        assert not (out / "trajectory.csv").exists()

    def test_welfare_gap_gated_by_budget(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", THREE_CENTERS, "--out", str(out), "--sigma", "1e-3",
                   "--seed", "1", "--budget", "2"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["welfare_gap"] is None

    def test_zero_max_steps_is_an_error(self, tmp_path, capsys):
        rc = main(["simulate", THREE_CENTERS, "--max-steps", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "max_steps must be >= 1" in capsys.readouterr().err

    def test_empty_learner_cells_written_as_nan(self, tmp_path):
        scen = tmp_path / "empty.json"
        data = json.loads(packaged_scenario("three_centers").read_text())
        data["initial_alpha"] = {"kind": "explicit",
                                 "alpha": [[1.0, 0.0]] * 3}
        scen.write_text(json.dumps(data))
        out = tmp_path / "run"
        rc = main(["simulate", str(scen), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "trajectory.csv")
        assert rows[0]["learner_risk_2"] == "nan"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["empty_learner_flagged"] is True
        assert summary["frozen_learner_steps"] > 0


class TestClassify:
    def _write_state(self, tmp_path, alpha, theta):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"alpha": alpha, "theta": theta}))
        return str(path)

    def test_stable_partition_exit_zero(self, tmp_path, capsys):
        loaded = load_scenario(THREE_CENTERS)
        assignment = SplitAssignment((0, 1, 1))
        theta = theta_for_assignment(assignment, loaded.scenario)
        state = self._write_state(tmp_path,
                                  assignment.to_alpha(2).tolist(),
                                  theta.tolist())
        rc = main(["classify", THREE_CENTERS, "--state", state])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stability"] == "asymptotically_stable"
        assert report["margin"] > 0

    def test_balanced_point_exit_four_with_reason(self, tmp_path, capsys):
        state = self._write_state(tmp_path, [[0.5, 0.5]] * 3,
                                  [[1.0], [1.0]])
        rc = main(["classify", THREE_CENTERS, "--state", state])
        assert rc == 4
        report = json.loads(capsys.readouterr().out)
        assert report["details"]["failed"] == ["optimality"]

    def test_non_equilibrium_exit_five(self, tmp_path):
        from reference import full_minimize
        loaded = load_scenario(THREE_CENTERS)
        rng = np.random.default_rng(8)
        alpha = rng.dirichlet(np.ones(2), size=3)
        theta = np.vstack([
            full_minimize(alpha[:, j], loaded.scenario.beta,
                          loaded.scenario.risks) for j in range(2)
        ])
        state = self._write_state(tmp_path, alpha.tolist(), theta.tolist())
        rc = main(["classify", THREE_CENTERS, "--state", state])
        assert rc == 5

    def test_gate_failure_exit_one_with_gradients(self, tmp_path, capsys):
        state = self._write_state(tmp_path, [[1.0, 0.0], [0.0, 1.0],
                                             [0.0, 1.0]],
                                  [[0.4], [1.5]])
        rc = main(["classify", THREE_CENTERS, "--state", state])
        assert rc == 1
        assert "gradient norms" in capsys.readouterr().err


class TestEnumerate:
    def test_catalog_sorted_with_optimum_first(self, tmp_path, capsys):
        out = tmp_path / "eq.csv"
        rc = main(["enumerate", TWO_GROUP, "--dedupe", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 3
        risks = [float(r["total_risk"]) for r in rows]
        assert risks == sorted(risks)
        assert risks[0] == pytest.approx(0.2, abs=1e-12)
        assert float(rows[0]["welfare_gap"]) == 0.0

    @staticmethod
    def _scenario_file(path, m):
        rng = np.random.default_rng(52)
        n, d = 5, 2
        data = {
            "schema_version": 1,
            "population": {
                "betas": list(rng.dirichlet(np.ones(n))),
                "normalize": True,
                "risks": [{"center": list(rng.uniform(-2, 2, d)),
                           "offset": float(rng.uniform(0, 1))}
                          for _ in range(n)],
            },
            "learners": {"m": m, "init": {"kind": "random_gaussian"}},
            "subpop_rule": {"kind": "mwud"},
            "learner_rule": {"kind": "full_min"},
        }
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("dedupe", [True, False])
    @pytest.mark.parametrize("m", [1, 3])
    def test_csv_round_trips_the_reports(self, tmp_path, m, dedupe):
        scenario_path = self._scenario_file(tmp_path / "scenario.json", m)
        out = tmp_path / "eq.csv"
        assert main(["enumerate", scenario_path, "--out", str(out)]
                    + ["--dedupe"] * dedupe) == 0
        reports = enumerate_split_equilibria(
            load_scenario(scenario_path).scenario, dedupe=dedupe)
        rows = read_csv(out)
        assert len(rows) == len(reports)
        for row, report in zip(rows, reports):
            assert row["assignment"] == "-".join(
                str(j) for j in report.assignment.gamma_map)
            assert float(row["total_risk"]) == report.total_risk
            assert float(row["welfare_gap"]) == report.welfare_gap
            if m == 1:
                assert report.margin is None and row["margin"] == ""
            else:
                assert float(row["margin"]) == report.margin
            assert row["stability"] == report.stability
            assert row["classification"] == report.classification

    def test_oracle_builds_no_object_per_assignment(self, tmp_path,
                                                    monkeypatch):
        # `enumerate` and the classifier's welfare gap read the catalog
        # arrays; only enumerate_split_equilibria wraps rows in reports
        built = []
        for cls in (EquilibriumReport, SplitAssignment):
            post_init = cls.__post_init__

            def counted(self, post_init=post_init):
                built.append(type(self).__name__)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        scenario_path = self._scenario_file(tmp_path / "scenario.json", 3)
        assert main(["enumerate", scenario_path, "--dedupe",
                     "--out", str(tmp_path / "eq.csv")]) == 0
        assert len(read_csv(tmp_path / "eq.csv")) == 25   # S(5, 3)
        assert built == []
        scenario = load_scenario(scenario_path).scenario
        assignment = SplitAssignment((0, 1, 2, 2, 2))
        state = SystemState(assignment.to_alpha(3),
                            theta_for_assignment(assignment, scenario))
        built.clear()
        report = classify_state(state, scenario, oracle_budget=25)
        assert report.welfare_gap is not None
        assert built == ["SplitAssignment", "EquilibriumReport"]

    def test_budget_exceeded_exit_six(self, tmp_path, capsys):
        rc = main(["enumerate", TWO_GROUP, "--budget", "3",
                   "--out", str(tmp_path / "eq.csv")])
        assert rc == 6
        assert "8" in capsys.readouterr().err  # 2^3 assignments required


class TestCompetition:
    def test_small_cascade(self, tmp_path):
        out = tmp_path / "comp"
        rc = main(["competition", THREE_CENTERS, "--target-m", "3", "--sigma", "1e-3",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "competition.csv")
        assert int(rows[-1]["m"]) == 3
        totals = [float(r["total_risk"]) for r in rows]
        assert all(b <= a + 1e-8 for a, b in zip(totals, totals[1:]))
        # fully segmented: only the offsets remain
        assert totals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_zero_max_steps_is_an_error(self, tmp_path, capsys):
        rc = main(["competition", THREE_CENTERS, "--target-m", "3",
                   "--max-steps", "0", "--out", str(tmp_path / "c")])
        assert rc == 1
        assert "max_steps must be >= 1" in capsys.readouterr().err

    def test_invalid_target_exit_one(self, tmp_path):
        rc = main(["competition", THREE_CENTERS, "--target-m", "2",
                   "--out", str(tmp_path / "c")])
        assert rc == 1

    def test_cascade_is_translation_invariant(self, competition12_path,
                                              tmp_path):
        # the risk kernels expand about the mean center, so moving every
        # center far from the origin leaves the cascade as it was; step
        # counts may differ by a step where a phase ends on its detector
        data = json.loads(competition12_path.read_text())
        runs = []
        for shift in ((0.0, 0.0), (1e6, -1e6)):
            for risk in data["population"]["risks"]:
                risk["center"] = [c + s for c, s in zip(risk["center"], shift)]
            path = tmp_path / f"moved{shift[0]:g}.json"
            path.write_text(json.dumps(data))
            out = tmp_path / f"out{shift[0]:g}"
            assert main(["competition", str(path), "--target-m", "12",
                         "--out", str(out)]) == 0
            runs.append(read_csv(out / "competition.csv"))
        still, moved = runs
        assert [(r["phase"], r["m"], r["split_learner"]) for r in still] == [
            (r["phase"], r["m"], r["split_learner"]) for r in moved]
        for a, b in zip(still, moved):
            for key in ["total_risk", "worst_subpop_risk"] + [
                    k for k in a if k.startswith("subpop_risk_")]:
                assert float(b[key]) == pytest.approx(float(a[key]), abs=1e-8)

    def test_unconverged_phase_exit_two(self, competition12_path, tmp_path,
                                        capsys):
        out = tmp_path / "c"
        rc = main(["competition", str(competition12_path), "--target-m", "12",
                   "--max-steps", "1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: phase 0 (m=2) did not converge within 1 steps\n")
        assert not (out / "competition.csv").exists()

    def test_risk_increase_exit_three(self, competition12_path, tmp_path,
                                      capsys):
        # main's handler: the phase runner does not catch the gate's error
        bad = tmp_path / "bad.json"
        data = json.loads(competition12_path.read_text())
        data["learner_rule"] = {"kind": "repeated_gd", "base": 5.0,
                                "form": "constant"}
        bad.write_text(json.dumps(data))
        out = tmp_path / "c"
        rc = main(["competition", str(bad), "--target-m", "12",
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "error: total risk increased at step 0")
        assert not (out / "competition.csv").exists()


def on_saddle(scenario, state):
    """Some positive share strictly prefers another learner (by 1e-8)."""
    R = scenario.risk_matrix(state.theta)
    mix = (state.alpha * R).sum(axis=1)
    return bool(((R < mix[:, None] - 1e-8) & (state.alpha > 0.0)).any())


def restart_reference(scenario, state, detector, max_steps):
    """A competition phase as successive simulate calls: each detector firing
    on a saddle restarts simulate from the final state.  Returns the final
    state, the steps, the convergence flag and the saddle firings seen."""
    used = saddles = 0
    while True:
        traj = simulate(scenario, state, max_steps - used, detector)
        used += len(traj.states) - 1
        state = traj.final_state
        fired = traj.converged_at is not None
        saddle = fired and on_saddle(scenario, state)
        saddles += saddle
        if fired and not saddle:
            return state, used, True, saddles
        if not fired or used >= max_steps:
            return state, used, False, saddles


@pytest.fixture(scope="module")
def competition12_phases(tmp_path_factory, competition12_path):
    """The (scenario, state, detector, max_steps) that start each phase of
    the competition12 cascade to m=12."""
    phases = []
    real = cli._run_phase

    def record(*args):
        phases.append(args)
        return real(*args)

    with mock.patch.object(cli, "_run_phase", record):
        rc = main(["competition", str(competition12_path), "--target-m", "12",
                   "--out", str(tmp_path_factory.mktemp("c12"))])
    assert rc == 0
    return phases


class TestPhaseRunner:
    def assert_same_phase(self, scenario, state, detector, max_steps):
        """Returns the saddle firings, steps and convergence flag."""
        ref_state, ref_steps, ref_converged, saddles = restart_reference(
            scenario, state, detector, max_steps)
        got_state, R, steps, converged = cli._run_phase(scenario, state,
                                                        detector, max_steps)
        assert np.array_equal(got_state.alpha, ref_state.alpha)
        assert np.array_equal(got_state.theta, ref_state.theta)
        assert got_state.t == ref_state.t
        assert (steps, converged) == (ref_steps, ref_converged)
        assert np.array_equal(R, scenario.risk_matrix(got_state.theta))
        return saddles, steps, converged

    def test_every_competition12_phase_matches_restarts(
            self, competition12_phases):
        saddles = [self.assert_same_phase(*args)[0]
                   for args in competition12_phases]
        assert len(competition12_phases) == 11
        # the restart path was taken, so the fresh-window rule was exercised
        assert sum(saddles) >= 1

    @pytest.mark.parametrize("tolerance", [1e-4, 1e-6])
    def test_loose_detectors_fire_on_many_saddles(self, competition12_phases,
                                                  tolerance):
        # a loose tolerance fires while the state still creeps, so phases
        # restart several times inside one quiet stretch
        detector = EquilibriumDetector(state_tolerance=tolerance)
        saddles = [self.assert_same_phase(scenario, state, detector, budget)[0]
                   for scenario, state, _, budget in competition12_phases]
        assert sum(saddles) >= 5

    def test_budget_ending_at_and_after_a_saddle_firing(
            self, competition12_phases):
        cases = 0
        for scenario, state, detector, max_steps in competition12_phases:
            traj = simulate(scenario, state, max_steps, detector)
            if (traj.converged_at is None
                    or not on_saddle(scenario, traj.final_state)):
                continue
            first = len(traj.states) - 1   # the first firing is on a saddle
            for budget in (first, first + 1):
                assert self.assert_same_phase(scenario, state, detector,
                                              budget) == (1, budget, False)
            cases += 1
        assert cases >= 1

    def test_from_perturbed_competition12_starts(self, competition12_phases):
        scenario, state, detector, max_steps = competition12_phases[0]
        for seed in range(3):
            start = perturb(state, 1e-2, seed, "both")
            self.assert_same_phase(scenario, start, detector, max_steps)

    def test_competition_makes_no_simulate_call(self, tmp_path, monkeypatch,
                                                competition12_path):
        calls = {"risk_matrix": 0}

        def fail(*args, **kwargs):
            raise AssertionError("simulate called")

        real = Scenario.risk_matrix

        def counted(self, theta):
            calls["risk_matrix"] += 1
            return real(self, theta)

        monkeypatch.setattr(engine, "simulate", fail)
        monkeypatch.setattr(cli, "simulate", fail)
        monkeypatch.setattr(Scenario, "risk_matrix", counted)
        rc = main(["competition", str(competition12_path), "--target-m", "12",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "competition.csv")
        steps = int(rows[-1]["cumulative_steps"])
        assert calls["risk_matrix"] <= steps + len(rows)


class TestGoldens:
    def test_all_goldens_match(self, tmp_path, capsys):
        rc = main(["goldens", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "goldens.csv")
        kinds = {r["golden"] for r in rows}
        assert kinds == {"minority", "partition_agreement", "gap_curve"}
        assert all(r["ok"] != "0" for r in rows)


class TestProbe:
    def test_probe_assignment(self, capsys):
        rc = main(["probe", THREE_CENTERS, "--assignment", "0,1,1", "--sigma", "1e-4",
                   "--trials", "5", "--seed", "3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fraction_returned"] == 1.0

    def test_probe_reports_each_trial(self, capsys):
        rc = main(["probe", THREE_CENTERS, "--assignment", "0,1,1", "--sigma", "1e-4",
                   "--trials", "3", "--seed", "3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["trials"] == 3
        records = out["trial_records"]
        assert len(records) == 3
        assert all(r["returned"] and r["escaped_at"] is None and r["steps"] >= 1
                   and 0.0 <= r["distance"] <= 1e-4 for r in records)

    @pytest.mark.parametrize("assignment", ["0,1,2", "0,1", "0,1,1,1", "0,-1,1",
                                            "0,1,x", "0,1,1.0", ""])
    def test_probe_rejects_a_bad_assignment(self, assignment, capsys):
        # three_centers has n=3 subpopulations and m=2 learners
        rc = main(["probe", THREE_CENTERS, "--assignment", assignment])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --assignment must be 3 comma-separated learner indices in "
            f"[0, 2), got {assignment!r}\n")

    def test_probe_requires_target_state(self, capsys):
        rc = main(["probe", THREE_CENTERS])
        assert rc == 1


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "popdyn" in out and "schema" in out


class TestErrorHandling:
    def test_bad_seed_exits_one(self, tmp_path, capsys):
        rc = main(["simulate", THREE_CENTERS, "--out", str(tmp_path / "o"),
                   "--sigma", "1e-3", "--seed", "-1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", [
        ["simulate"], ["competition", "--target-m", "3"],
        ["probe", "--assignment", "0,1,1"]])
    def test_bad_sigma_exits_one(self, command, value, three_centers,
                                 tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main([command[0], THREE_CENTERS, *command[1:], "--sigma", value])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --sigma must be a finite number >= 0, got {value!r}\n")
        assert not list(tmp_path.iterdir())
        with pytest.raises(ValueError, match="sigma must be a number >= 0"):
            perturb(three_centers.initial_state, float(value), seed=0)

    def test_missing_scenario_file(self, capsys):
        rc = main(["simulate", "/nonexistent/scenario.json", "--out", "/tmp/x"])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err
