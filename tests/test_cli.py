import csv
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popdyn import (
    EquilibriumDetector,
    Scenario,
    SystemState,
    cli,
    engine,
    goldens,
)
from popdyn.cli import main
from popdyn.engine import perturb, simulate, step
from popdyn.equilibria import (
    EquilibriumReport,
    SplitAssignment,
    classify_state,
    enumerate_split_equilibria,
    theta_for_assignment,
)
from popdyn.scenario_io import STREAM_PERTURB, load_scenario, packaged_scenario

from reference import csv_text, detect_equilibrium

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

    def test_seed_draws_the_initial_state(self, tmp_path):
        # --seed 5 on a random-init file saved with seed 0 runs as the same
        # file saved with seed 5, and the log names the seed that drew it
        with open(THREE_CENTERS) as fh:
            data = {**json.load(fh),
                    "learners": {"m": 2, "init": {"kind": "random_gaussian"}},
                    "initial_alpha": {"kind": "random_dirichlet"}}
        runs = {}
        for seed, args in ((0, ["--seed", "5"]), (5, [])):
            scen = tmp_path / f"seed{seed}.json"
            scen.write_text(json.dumps({**data, "seed": seed}))
            runs[seed] = tmp_path / f"run{seed}"
            assert main(["simulate", str(scen), "--out", str(runs[seed]),
                         "--max-steps", "3", *args]) == 2
        assert ((runs[0] / "trajectory.csv").read_bytes()
                == (runs[5] / "trajectory.csv").read_bytes())
        log = (runs[0] / "events.log").read_text().splitlines()
        assert log[0].endswith("seed=5)")

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
        assert "--max-steps must be an integer >= 1" in capsys.readouterr().err

    def test_unoptimized_final_state_has_no_classification(self, tmp_path):
        # one gradient step leaves the learners off their mixture optima, so
        # classify_state raises NotOptimalError and the summary says null
        scen = tmp_path / "gd.json"
        data = json.loads(packaged_scenario("three_centers").read_text())
        data["learner_rule"] = {"kind": "repeated_gd", "base": 0.4}
        scen.write_text(json.dumps(data))
        out = tmp_path / "run"
        rc = main(["simulate", str(scen), "--out", str(out), "--sigma", "1e-3",
                   "--max-steps", "1"])
        assert rc == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 1
        assert summary["classification"] is None
        assert summary["stability"] is None

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
    def _scenario_file(path, m, n=5):
        rng = np.random.default_rng(52)
        d = 2
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

    # m=11 at n=12 (66 assignments) has two-digit labels
    @pytest.mark.parametrize("m, dedupe", [(1, True), (1, False), (3, True),
                                           (3, False), (11, True)])
    def test_csv_round_trips_the_reports(self, tmp_path, m, dedupe):
        scenario_path = self._scenario_file(tmp_path / "scenario.json", m,
                                            12 if m > 10 else 5)
        out = tmp_path / "eq.csv"
        assert main(["enumerate", scenario_path, "--out", str(out)]
                    + ["--dedupe"] * dedupe) == 0
        reports = enumerate_split_equilibria(
            load_scenario(scenario_path).scenario, dedupe=dedupe)
        rows = read_csv(out)
        assert len(rows) == len(reports)
        assert m < 11 or {len(j) for r in rows
                          for j in r["assignment"].split("-")} == {1, 2}
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
        assert out.read_bytes() == csv_text(
            list(rows[0]),
            [["-".join(map(str, r.assignment.gamma_map)), r.total_risk,
              r.classification, r.stability, r.margin, r.welfare_gap]
             for r in reports]).encode()

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

    def test_budget_error_leaves_an_old_catalog_untouched(self, tmp_path):
        out = tmp_path / "eq.csv"
        out.write_bytes(b"old catalog\n")
        assert main(["enumerate", TWO_GROUP, "--budget", "3",
                     "--out", str(out)]) == 6
        assert out.read_bytes() == b"old catalog\n"
        assert not list(tmp_path.glob("*.tmp"))


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
        assert "--max-steps must be an integer >= 1" in capsys.readouterr().err

    def test_a_bad_step_budget_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "c"
        rc = main(["competition", THREE_CENTERS, "--target-m", "3",
                   "--max-steps", "0", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --max-steps must be an integer >= 1, got '0'\n")
        assert not out.exists()

    def test_invalid_target_exit_one(self, tmp_path, capsys):
        # three_centers has n=3 subpopulations and m=2 learners
        rc = main(["competition", THREE_CENTERS, "--target-m", "2",
                   "--out", str(tmp_path / "c")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: need initial m=2 < target-m <= n=3\n")
        assert not (tmp_path / "c").exists()

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

    def test_exit_two_keeps_the_phases_that_converged(
            self, competition12_path, tmp_path, capsys):
        # phase 0 converges within 40 steps and phase 1 does not: the file
        # holds phase 0's row as the run under the default budget writes it
        args = ["competition", str(competition12_path), "--target-m", "6"]
        assert main(args + ["--out", str(tmp_path / "full")]) == 0
        capsys.readouterr()
        assert main(args + ["--max-steps", "40",
                            "--out", str(tmp_path / "cut")]) == 2
        assert capsys.readouterr().err == (
            "error: phase 1 (m=3) did not converge within 40 steps\n")
        cut = (tmp_path / "cut" / "competition.csv").read_bytes()
        full = (tmp_path / "full" / "competition.csv").read_bytes()
        assert cut.count(b"\n") == 2
        assert full.startswith(cut)

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


def competition_phases(path, target_m):
    """The cascade that the competition command runs on the scenario at
    path, to target_m learners at its default --sigma and the scenario's
    seed, from _cascade's records: per phase, its start (scenario, state,
    detector, max_steps) and its end (state, steps, converged)."""
    loaded = load_scenario(path)
    return [((p.scenario, p.start, loaded.detector, loaded.max_steps),
             (p.end, p.steps, p.stop == "detector"))
            for p in engine._cascade(loaded.scenario, loaded.initial_state,
                                     target_m, loaded.detector,
                                     loaded.max_steps, 1e-3,
                                     [loaded.seed, STREAM_PERTURB])]


@pytest.fixture(scope="module")
def competition12_phases(competition12_path):
    return competition_phases(str(competition12_path), 12)


class TestOneWatchedLoop:
    def test_runs_phases_and_probe_trials_all_stop_in_it(
            self, competition12_path, tmp_path):
        # step, simulate, every competition phase and every probe trial step
        # by engine._watched_steps: with it broken, each of them fails
        def forbidden(*args, **kwargs):
            raise AssertionError("_watched_steps reached")

        loaded = load_scenario(THREE_CENTERS)
        with mock.patch.object(engine, "_watched_steps", forbidden):
            with pytest.raises(AssertionError, match="reached"):
                step(loaded.initial_state, loaded.scenario)
            with pytest.raises(AssertionError, match="reached"):
                simulate(loaded.scenario, loaded.initial_state, 10)
            with pytest.raises(AssertionError, match="reached"):
                main(["competition", str(competition12_path), "--target-m",
                      "3", "--out", str(tmp_path)])
            with pytest.raises(AssertionError, match="reached"):
                engine._probe_batch(loaded.scenario, loaded.initial_state,
                                    1e-3, 2, 1)


class TestCascade:
    def test_records_are_the_rows_the_command_writes(
            self, competition12_phases, competition12_path, tmp_path):
        assert main(["competition", str(competition12_path), "--target-m",
                     "12", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "competition.csv")
        assert [(int(r["m"]), int(r["steps"])) for r in rows] == [
            (scenario.m, steps)
            for (scenario, *_), (_, steps, _) in competition12_phases]

    @pytest.mark.parametrize("max_steps, phases", [(1, 1), (400, 10)])
    def test_a_phase_ending_on_its_budget_is_the_last(self, competition12_path,
                                                      max_steps, phases):
        # competition12's phases take 24 to 302 steps up to m=10 and 504 at
        # m=11: a budget of 1 ends the first phase, one of 400 the tenth
        loaded = load_scenario(str(competition12_path))
        records = list(engine._cascade(loaded.scenario, loaded.initial_state,
                                       12, loaded.detector, max_steps, 1e-3,
                                       [loaded.seed, STREAM_PERTURB]))
        assert len(records) == phases
        assert [p.stop for p in records] == ["detector"] * (
            len(records) - 1) + ["budget"]
        assert records[-1].steps == max_steps
        assert [p.split is None for p in records] == [
            p.hypothesis is None for p in records] == [False] * (
            len(records) - 1) + [True]

    def test_each_phase_starts_from_the_split_before_it(
            self, competition12_path):
        loaded = load_scenario(str(competition12_path))
        records = list(engine._cascade(loaded.scenario, loaded.initial_state,
                                       4, loaded.detector, loaded.max_steps,
                                       1e-3, [loaded.seed, STREAM_PERTURB]))
        assert [p.scenario.m for p in records] == [2, 3, 4]
        assert [p.stop for p in records] == ["detector"] * 3
        assert [p.split is None for p in records] == [
            p.hypothesis is None for p in records] == [False, False, True]
        assert all(isinstance(p.hypothesis, bool) for p in records[:-1])
        # each phase starts where the split of the one before it leaves off
        for before, after in zip(records, records[1:]):
            assert after.scenario.m == before.scenario.m + 1
            assert after.start.t == 0
            assert np.array_equal(after.start.alpha[:, -1],
                                  before.end.alpha[:, before.split] / 2)


class TestPhaseRunner:
    def assert_same_phase(self, scenario, state, detector, max_steps):
        """simulate from the start against the rescan of its states; returns
        simulate's end (state, steps, converged) and the rescan's restarts."""
        traj = simulate(scenario, state, max_steps, detector)
        index, restarts = detect_equilibrium(traj, detector, scenario)
        assert traj.converged_at == index
        steps = len(traj.states) - 1
        assert steps == (max_steps if index is None
                         else index + detector.window)
        return (traj.final_state, steps, index is not None), restarts

    def test_every_competition12_phase_matches_restarts(
            self, competition12_phases):
        restarts = []
        for start, (state, steps, converged) in competition12_phases:
            (ref, ref_steps, ref_converged), saddles = self.assert_same_phase(
                *start)
            assert np.array_equal(state.alpha, ref.alpha)
            assert np.array_equal(state.theta, ref.theta)
            assert state.t == ref.t
            assert (steps, converged) == (ref_steps, ref_converged)
            restarts += saddles
        assert len(competition12_phases) == 11
        # the restart path was taken, so the fresh-window rule was exercised
        assert len(restarts) >= 1

    @pytest.mark.parametrize("tolerance", [1e-4, 1e-6])
    def test_loose_detectors_fire_on_many_saddles(self, competition12_phases,
                                                  tolerance):
        # a loose tolerance fires while the state still creeps, so phases
        # restart several times inside one quiet stretch
        detector = EquilibriumDetector(state_tolerance=tolerance)
        restarts = sum(len(self.assert_same_phase(
            scenario, state, detector, budget)[1])
            for (scenario, state, _, budget), _ in competition12_phases)
        assert restarts >= 5

    def test_budget_ending_at_and_after_a_saddle_firing(
            self, competition12_phases):
        cases = 0
        for (scenario, state, detector, max_steps), _ in competition12_phases:
            _, restarts = self.assert_same_phase(scenario, state, detector,
                                                 max_steps)
            if not restarts:
                continue
            first = restarts[0]
            for budget in (first, first + 1):
                (_, steps, converged), saddles = self.assert_same_phase(
                    scenario, state, detector, budget)
                assert (saddles, steps, converged) == ([first], budget, False)
            cases += 1
        assert cases >= 1

    def test_simulate_competition50_stops_where_phase_0_does(self):
        # the quiet window of steps 35-45 ends on an unstable split (margin
        # -0.421); simulate steps on, as the competition phase does
        path = str(packaged_scenario("competition50"))
        loaded = load_scenario(path)
        traj = simulate(loaded.scenario, loaded.initial_state,
                        loaded.max_steps, loaded.detector)
        assert (traj.converged_at, len(traj.states) - 1) == (3160, 3170)
        report = classify_state(traj.final_state, loaded.scenario)
        assert report.stability == "asymptotically_stable"
        _, (state, steps, converged) = competition_phases(path, 3)[0]
        assert (steps, converged) == (3170, True)
        assert np.array_equal(state.alpha, traj.final_state.alpha)
        assert np.array_equal(state.theta, traj.final_state.theta)

    def test_from_perturbed_competition12_starts(self, competition12_phases):
        (scenario, state, detector, max_steps), _ = competition12_phases[0]
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
        # one row per consecutive beta pair of the 20-point gap curve
        assert sum(r["quantity"] == "gap_increasing" for r in rows) == 19
        assert "all goldens match" in capsys.readouterr().out

    def test_wrong_closed_form_is_a_mismatch(self, tmp_path, capsys,
                                             monkeypatch):
        real = goldens.minority_closed_forms

        def off(beta, phi=10.0):
            values = real(beta, phi)
            values["total_risk"] += 1e-6
            return values

        monkeypatch.setattr(goldens, "minority_closed_forms", off)
        rc = main(["goldens", "--out", str(tmp_path)])
        assert rc == 7
        rows = read_csv(tmp_path / "goldens.csv")
        failed = [r for r in rows if r["ok"] == "0"]
        assert len(failed) == 19
        assert all(r["golden"] == "minority" and r["quantity"] == "total_risk"
                   for r in failed)
        err = capsys.readouterr().err
        assert err.count("MISMATCH:") == 19
        assert "MISMATCH: golden=minority p1=0.050000000000000003" in err


FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -5e-324, 1e-310, 2.2250738585072014e-308, 1.7e308,
                     -1.7e308]),
    st.floats())
# per column kind: the writer's slot and the values drawn; a mixed column
# holds cells rendered by _fmt, as competition and goldens write them
COLUMNS = {
    "float": ("%.17g", FLOATS),
    "int": ("%d", st.integers()),
    "mixed": ("%s", st.one_of(st.none(), st.booleans(), st.integers(),
                              FLOATS)),
}


class TestCsvWriter:
    # at least two columns: csv.writer quotes a row's one empty cell, and
    # every CLI table has more than one column
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           kinds=st.lists(st.sampled_from(sorted(COLUMNS)), min_size=2,
                          max_size=6))
    def test_bytes_match_the_csv_module(self, tmp_path_factory, data, kinds):
        # a few drawn rows repeated up to count, where count is 0, 1, 2 or
        # a chunk's rows, one fewer, one more or twice and one more
        chunk = cli.CSV_CHUNK_CELLS // len(kinds)
        count = data.draw(st.sampled_from([0, 1, 2, chunk - 1, chunk,
                                           chunk + 1, 2 * chunk + 1]))
        pool = data.draw(st.lists(
            st.tuples(*(COLUMNS[k][1] for k in kinds)), min_size=1,
            max_size=5))
        rows = [pool[i % len(pool)] for i in range(count)]
        cells = np.array([[cli._fmt(x) if k == "mixed" else x
                           for x, k in zip(row, kinds)] for row in rows],
                         dtype=object)
        header = [f"c{j}" for j in range(len(kinds))]
        line = ",".join(COLUMNS[k][0] for k in kinds) + "\n"
        path = tmp_path_factory.mktemp("csv") / "table.csv"
        cli._write_csv(str(path), header, line, count, lambda s: cells[s])
        assert path.read_bytes() == csv_text(header, rows).encode()

    def test_no_cell_needs_quoting(self, tmp_path):
        # the writer never quotes, so no cell may hold a comma, a quote or a
        # newline: every file must split on "," and "\n" as csv reads it
        assert main(["simulate", THREE_CENTERS, "--sigma", "1e-3",
                     "--out", str(tmp_path / "simulate")]) == 0
        assert main(["competition", THREE_CENTERS, "--target-m", "3",
                     "--out", str(tmp_path / "competition")]) == 0
        assert main(["goldens", "--out", str(tmp_path / "goldens")]) == 0
        assert main(["enumerate", TWO_GROUP,
                     "--out", str(tmp_path / "enumerate.csv")]) == 0
        paths = sorted(tmp_path.rglob("*.csv"))
        assert len(paths) == 4
        for path in paths:
            text = path.read_text()
            assert text.endswith("\n") and '"' not in text and "\r" not in text
            lines = [line.split(",") for line in text[:-1].split("\n")]
            assert {len(cells) for cells in lines} == {len(lines[0])}
            assert list(csv.reader(io.StringIO(text))) == lines

    def test_failing_chunks_leave_the_target_untouched(self, tmp_path):
        target = tmp_path / "table.csv"
        target.write_bytes(b"old,table\n")

        def chunks():
            yield "new,table\n"
            raise RuntimeError("second chunk failed")

        with pytest.raises(RuntimeError, match="second chunk failed"):
            cli._atomic_write(str(target), chunks())
        assert target.read_bytes() == b"old,table\n"
        assert not list(tmp_path.glob("*.tmp"))


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

    def test_probe_state_file_matches_assignment(self, tmp_path, capsys):
        loaded = load_scenario(THREE_CENTERS)
        assignment = SplitAssignment((0, 1, 1))
        state = tmp_path / "state.json"
        state.write_text(json.dumps({
            "alpha": assignment.to_alpha(2).tolist(),
            "theta": theta_for_assignment(assignment, loaded.scenario).tolist()}))
        args = ["--sigma", "1e-4", "--trials", "3", "--seed", "3"]
        assert main(["probe", THREE_CENTERS, "--state", str(state), *args]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(["probe", THREE_CENTERS, "--assignment", "0,1,1", *args]) == 0
        assert from_file == json.loads(capsys.readouterr().out)
        assert from_file["fraction_returned"] == 1.0

    def test_probe_requires_target_state(self, capsys):
        assert main(["probe", THREE_CENTERS]) == 1
        assert capsys.readouterr() == (
            "", "error: one of the arguments --state --assignment is required\n")


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

    @pytest.mark.parametrize("value", ["-1", "1.5", "x"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--sigma", "1e-3"], ["competition", "--target-m", "3"],
        ["probe", "--assignment", "0,1,1"]])
    def test_bad_seed_names_the_option(self, command, value, tmp_path,
                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main([command[0], THREE_CENTERS, *command[1:], "--seed", value])
        assert rc == 1
        assert capsys.readouterr() == (
            "", f"error: --seed must be an integer >= 0, got {value!r}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, option, value, low", [
        (["simulate", THREE_CENTERS], "--budget", "-1", 0),
        (["classify", THREE_CENTERS, "--state", "missing.json"], "--budget",
         "-1", 0),
        (["enumerate", THREE_CENTERS], "--budget", "-1", 0),
        (["enumerate", THREE_CENTERS], "--budget", "1.5", 0),
        (["simulate", THREE_CENTERS], "--max-steps", "0", 1),
        (["competition", THREE_CENTERS, "--target-m", "3"], "--max-steps",
         "0", 1),
        (["probe", THREE_CENTERS, "--assignment", "0,1,1"], "--trials", "abc",
         1),
        (["probe", THREE_CENTERS, "--assignment", "0,1,1"], "--trials", "0", 1),
        (["competition", THREE_CENTERS], "--target-m", "x", 1),
        (["competition", THREE_CENTERS], "--target-m", "1.5", 1),
    ])
    def test_a_bad_count_names_its_option(self, argv, option, value, low,
                                          tmp_path, monkeypatch, capsys):
        # every numeric option is checked as it is parsed, before any command
        # reads a file or writes one
        monkeypatch.chdir(tmp_path)
        assert main([*argv, option, value]) == 1
        assert capsys.readouterr() == ("", f"error: {option} must be an "
                                           f"integer >= {low}, got {value!r}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["probe", THREE_CENTERS, "--trials", "abc"],
         "--trials must be an integer >= 1, got 'abc'"),
        (["competition", THREE_CENTERS],
         "the following arguments are required: --target-m"),
        (["simulate"], "the following arguments are required: scenario"),
        (["simulate", THREE_CENTERS, "--bogus"],
         "unrecognized arguments: --bogus"),
        # --state names no file: the clash is reported before any is read
        (["probe", THREE_CENTERS, "--state", "missing.json", "--assignment",
          "0,1,1"], "argument --assignment: not allowed with argument --state"),
    ])
    def test_usage_errors_exit_one(self, argv, message, tmp_path, monkeypatch,
                                   capsys):
        # exit 2 is EXIT_NO_CONVERGENCE: a usage error must not look like one
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["probe", "--help"],
                                      ["--version"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_missing_scenario_file(self, capsys):
        rc = main(["simulate", "/nonexistent/scenario.json", "--out", "/tmp/x"])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err
