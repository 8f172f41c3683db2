import csv
import json

import numpy as np
import pytest

from popdyn.cli import main
from popdyn.equilibria import (
    SplitAssignment,
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
        from popdyn import full_minimize
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

    @pytest.mark.parametrize("m", [1, 3])
    def test_csv_round_trips_the_reports(self, tmp_path, m):
        scenario_path = self._scenario_file(tmp_path / "scenario.json", m)
        out = tmp_path / "eq.csv"
        assert main(["enumerate", scenario_path, "--dedupe",
                     "--out", str(out)]) == 0
        reports = enumerate_split_equilibria(
            load_scenario(scenario_path).scenario, dedupe=True)
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

    def test_missing_scenario_file(self, capsys):
        rc = main(["simulate", "/nonexistent/scenario.json", "--out", "/tmp/x"])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err
