import itertools
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from popdyn import (
    DimensionError,
    EquilibriumDetector,
    MonotonicityError,
    NonFiniteError,
    Scenario,
    SplitAssignment,
    SystemState,
    UpdateSchedule,
    best_response,
    custom_risk,
    empirical_stability_probe,
    full_min,
    mwud,
    perturb,
    quadratic_risk,
    repeated_gd,
    simulate,
    state_distance_upto_permutation,
    step,
    step_size,
    theta_for_assignment,
    total_risk,
)
from popdyn import engine, model
from popdyn.engine import _probe_batch, _update_alpha, _update_theta
from popdyn.goldens import partition_pair_scenario, partition_pair_state
from popdyn.model import EMPTY_MASS_TOL, MONOTONE_TOL
from popdyn.scenario_io import load_scenario, packaged_scenario

from conftest import as_custom, random_scenario, random_state
from reference import (
    best_response_step,
    detect_equilibrium,
    full_minimize,
    gradient_step,
    learner_avg_risk,
    mwud_step,
    stationary,
    subpop_avg_risk,
)


def _stepped(sc, alpha, theta, steps, t=0, labels=None):
    """The StepRecords of the watched loop from alpha, theta at time t, the
    start's and those of steps steps, under a detector whose window exceeds
    the run, so that every trial steps to the budget."""
    loop = engine._watched_steps(sc, alpha, theta, t,
                                 EquilibriumDetector(window=steps + 1), steps,
                                 labels)
    return (s for _, s, _ in loop)


class TestStep:
    def test_balanced_start_is_exact_fixed_point(self, three_centers):
        s0 = three_centers.initial_state
        s1 = step(s0, three_centers.scenario)
        assert np.array_equal(s1.alpha, s0.alpha)
        assert np.array_equal(s1.theta, s0.theta)
        assert s1.t == s0.t + 1

    def test_strict_decrease_away_from_equilibrium(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            sc = random_scenario(rng, 4, 2, 2)
            state = random_state(rng, sc)
            before = total_risk(state, sc)
            after = total_risk(step(state, sc), sc)
            assert after < before

    def test_contract_checks_pass(self, three_centers):
        # every step's gate checks each subpopulation and learner as well
        st = perturb(three_centers.initial_state, 1e-3, seed=5, target="theta_only")
        for _ in range(20):
            st = step(st, three_centers.scenario)

    def test_monotonicity_violation_aborts(self):
        # a constant oversized gradient step is not risk reducing
        sc = Scenario(
            beta=np.array([1.0]),
            risks=(quadratic_risk([0.0]),),
            m=1,
            subpop_rule=mwud(),
            learner_rule=repeated_gd(base=1.5, form="constant"),
        )
        state = SystemState(alpha=np.ones((1, 1)), theta=np.array([[1.0]]))
        with pytest.raises(MonotonicityError):
            step(state, sc)

    def test_nan_total_risk_trips_the_gate(self):
        nan_risk = custom_risk(1, value=lambda th: np.full(th.shape[:-1], np.nan),
                               gradient=lambda th: np.zeros(th.shape),
                               hessian=lambda th: np.ones(th.shape + (1,)))
        sc = Scenario(beta=np.array([1.0]), risks=(nan_risk,), m=1,
                      subpop_rule=mwud(), learner_rule=repeated_gd())
        state = SystemState(alpha=np.ones((1, 1)), theta=np.zeros((1, 1)))
        with pytest.raises(MonotonicityError):
            step(state, sc)


def _two_centers(subpop_rule, learner_rule, curvature=1.0):
    """Centers 0 and 1 in 1-D, equal proportions, the second with the given
    curvature."""
    return Scenario(beta=np.array([0.5, 0.5]),
                    risks=(quadratic_risk([0.0]),
                           quadratic_risk([1.0], [[curvature]])),
                    m=2, subpop_rule=subpop_rule, learner_rule=learner_rule)


class TestPerAgentGate:
    """Every step checks each subpopulation's and each learner's risk, not
    only the total."""

    def test_learner_half_names_the_learner(self):
        # the step lowers the total (12.515 -> 1.143) but overshoots learner
        # 1's optimum: its mixture risk rises from 0.03 to 0.0363
        sc = _two_centers(mwud(), repeated_gd(base=0.35, form="constant"), 3.0)
        state = SystemState(alpha=np.eye(2), theta=np.array([[5.0], [1.1]]))
        after = SystemState(alpha=np.eye(2), theta=np.array([[1.5], [0.89]]))
        assert total_risk(after, sc) < total_risk(state, sc)
        with pytest.raises(MonotonicityError, match="learner 1") as exc:
            step(state, sc)
        err = exc.value
        assert (err.half, err.index, err.t, err.trial) == ("learner", 1, 0, None)
        assert err.before == pytest.approx(0.03)
        assert err.after == pytest.approx(0.0363)
        assert str(err).startswith("learner update: mixture risk of learner 1 "
                                   "increased at step 0: ")
        with pytest.raises(MonotonicityError, match="learner 1"):
            simulate(sc, state, 10)

    def test_allocation_half_names_the_subpopulation(self):
        # a planted allocation update moves subpopulation 0 (risk 0) half onto
        # the learner at 5; full-min then lowers the total from 8 to 1/6
        sc = _two_centers(mwud(), full_min())
        alpha = np.eye(2)[None].repeat(2, axis=0)
        theta = np.array([[[0.0], [5.0]]]).repeat(2, axis=0)
        planted = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.5, 0.5],
                                                               [0.0, 1.0]])
        with mock.patch.object(engine, "_update_alpha",
                               lambda *args: np.stack(planted)):
            steps = _stepped(sc, alpha, theta, 1, 3, labels=np.array([4, 7]))
            next(steps)   # the start
            with pytest.raises(MonotonicityError) as exc:
                next(steps)
        err = exc.value
        assert (err.half, err.index, err.t, err.trial) == ("allocation", 0, 3, 7)
        assert (err.before, err.after) == (0.0, 12.5)
        assert str(err).startswith("allocation update: average risk of "
                                   "subpopulation 0 increased at step 3 of "
                                   "trial 7: 0.0 -> 12.5")

    def test_learner_slack_is_per_unit_mass(self):
        # learner 1 (mass 1e-3) is moved 3e-4 off its optimum: its mixture
        # risk rises by 9e-8 > 1e-8, the total only by 9e-11
        sc = _two_centers(mwud(), full_min())
        alpha = np.array([[1.0, 0.0], [0.998, 0.002]])
        theta = np.array([[0.0], [1.0]])
        planted = np.array([[0.0], [1.0003]])
        with mock.patch.object(engine, "_update_theta", lambda a, th, sc, t: (
                planted[None], np.zeros(1, int), sc.beta @ a)):
            with pytest.raises(MonotonicityError, match="learner 1") as exc:
                step(SystemState(alpha=alpha, theta=theta), sc)
        assert exc.value.after == pytest.approx(9e-8)

    def test_total_half_keeps_precedence(self):
        # an oversized step raises the total and the learner's risk alike
        sc = Scenario(beta=np.array([1.0]), risks=(quadratic_risk([0.0]),), m=1,
                      subpop_rule=mwud(),
                      learner_rule=repeated_gd(base=1.5, form="constant"))
        with pytest.raises(MonotonicityError, match="^total risk") as exc:
            step(SystemState(alpha=np.ones((1, 1)), theta=np.ones((1, 1))), sc)
        assert (exc.value.half, exc.value.index) == ("total", None)

    def test_best_response_ties_keep_the_row_risk(self):
        # subpopulation 0 sits at its optimum (R = 0); learner 1 is within
        # the tie tolerance (R = 0.25) but worse, so it is not tied
        sc = _two_centers(best_response(tie_tolerance=0.3), full_min())
        state = SystemState(alpha=np.eye(2), theta=np.array([[0.0], [0.5]]))
        traj = simulate(sc, state, 50)
        assert all(np.array_equal(s.alpha, np.eye(2)) for s in traj.states)
        assert np.array_equal(traj.final_state.theta, [[0.0], [1.0]])
        assert traj.total_risks[-1] == 0.0
        assert traj.converged_at == 1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from(["mwud", "best_response"]),
           st.sampled_from(["full_min", "repeated_gd"]))
    def test_gate_matches_the_scalar_references(self, seed, subpop, learner):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, n + 1))
        sc = random_scenario(rng, n, m, int(rng.integers(1, 3)))
        if subpop == "mwud":
            rule = mwud(float(rng.uniform(0.1, 5.0)),
                        str(rng.choice(["absolute", "relative"])))
        else:
            rule = best_response(float(rng.choice([0.0, 0.3, 3.0])),
                                 str(rng.choice(["split_evenly",
                                                 "keep_previous"])))
        # steps up to 2 overshoot many mixtures, so both outcomes occur
        learner_rule = (full_min() if learner == "full_min" else repeated_gd(
            float(rng.uniform(0.05, 2.0)), str(rng.choice(["harmonic", "constant"])),
            int(rng.integers(1, 4))))
        sc = replace(sc, subpop_rule=rule, learner_rule=learner_rule)
        alpha = rng.dirichlet(np.ones(m), size=n)
        alpha[rng.random(alpha.shape) < 0.3] = 0.0   # some learners empty
        alpha[np.arange(n), rng.integers(0, m, n)] += 0.1
        alpha = alpha / alpha.sum(axis=1, keepdims=True)
        theta = rng.uniform(-2.0, 2.0, (m, sc.d))
        t = int(rng.integers(0, 5))
        R = sc.risk_matrix(theta)
        alpha2 = _update_alpha(alpha, R, sc, t)
        theta2 = _update_theta(alpha2, theta, sc, t)[0]
        live = [j for j in range(m) if sc.beta @ alpha2[:, j] >= EMPTY_MASS_TOL]
        rises = ([subpop_avg_risk(alpha2[i], theta, sc.risks[i])
                  - subpop_avg_risk(alpha[i], theta, sc.risks[i])
                  for i in range(n)]
                 + [learner_avg_risk(alpha2[:, j], sc.beta, sc.risks, theta2[j])
                    - learner_avg_risk(alpha2[:, j], sc.beta, sc.risks, theta[j])
                    for j in live])
        # away from the tolerance boundary
        assume(not any(MONOTONE_TOL / 4 <= r <= 2 * MONOTONE_TOL for r in rises))
        bad_rows = [i for i in range(n) if not (
            subpop_avg_risk(alpha2[i], theta, sc.risks[i])
            <= subpop_avg_risk(alpha[i], theta, sc.risks[i]) + MONOTONE_TOL)]
        bad_learners = [j for j in live if not (
            learner_avg_risk(alpha2[:, j], sc.beta, sc.risks, theta2[j])
            <= learner_avg_risk(alpha2[:, j], sc.beta, sc.risks, theta[j])
            + MONOTONE_TOL)]
        rows = (alpha * R).sum(-1)[None]
        prev = engine.StepRecord(alpha[None], theta[None], R[None], None, rows,
                                 rows @ sc.beta, None, None)
        try:
            engine._core_step(prev, t, sc)
            err = None
        except MonotonicityError as exc:
            err = exc
        assert (err is not None) == bool(bad_rows or bad_learners)
        if err is not None and err.half != "total":
            assert err.index == (bad_rows or bad_learners)[0]
            assert err.half == ("allocation" if bad_rows else "learner")


class TestSimulate:
    def test_max_steps_boundary(self, three_centers):
        with pytest.raises(ValueError):
            simulate(three_centers.scenario, three_centers.initial_state, 0)
        traj = simulate(three_centers.scenario, three_centers.initial_state, 1)
        assert len(traj.states) == 2

    @pytest.mark.parametrize("max_steps", [0, 2.5, True, None])
    def test_step_budget_is_a_positive_integer(self, three_centers, max_steps):
        with pytest.raises(ValueError, match=r"^max_steps must be an integer "
                                             r">= 1, got "):
            simulate(three_centers.scenario, three_centers.initial_state,
                     max_steps)

    def test_nonfinite_theta_rejected(self, three_centers):
        theta = three_centers.initial_state.theta.copy()
        theta[0, 0] = np.nan
        state = SystemState(alpha=three_centers.initial_state.alpha, theta=theta)
        with pytest.raises(NonFiniteError, match=r"theta\[0,0\]"):
            simulate(three_centers.scenario, state, 20)

    def test_stationary_start_fires_at_window(self, three_centers):
        det = EquilibriumDetector(window=10)
        traj = simulate(three_centers.scenario, three_centers.initial_state, 500, det)
        assert len(traj.states) - 1 == det.window
        assert traj.converged_at == 0

    def test_perturbed_three_centers_reaches_split_market(self, three_centers):
        for seed in (1, 2, 3):
            st = perturb(three_centers.initial_state, 1e-3, seed, target="theta_only")
            traj = simulate(three_centers.scenario, st, 500, three_centers.detector)
            assert traj.converged_at is not None
            final = traj.final_state.alpha
            assert np.abs(final - np.round(final)).max() <= 1e-6
            for state in traj.states:  # simplex invariant at every step
                assert np.abs(state.alpha.sum(axis=1) - 1.0).max() <= 1e-10
                assert state.alpha.min() >= 0.0

    def test_best_response_dynamics_converge(self):
        from popdyn import Scenario, best_response
        rng = np.random.default_rng(37)
        base = random_scenario(rng, 4, 2, 2, gamma_range=(1.0, 2.0))
        sc = Scenario(beta=base.beta, risks=base.risks, m=2,
                      subpop_rule=best_response(),
                      learner_rule=base.learner_rule)
        traj = simulate(sc, random_state(rng, sc), 100)
        assert np.all(np.diff(traj.total_risks) <= 1e-8)
        assert traj.converged_at is not None
        final = traj.final_state.alpha
        assert np.abs(final - np.round(final)).max() <= 1e-12

    @pytest.mark.parametrize("tie_tolerance, tie_policy, converged_at", [
        (0.05, "split_evenly", 8), (0.05, "keep_previous", 5),
        (0.5, "split_evenly", 10), (0.5, "keep_previous", 5)])
    def test_best_response_ties_stop_at_a_stationary_state(
            self, tie_tolerance, tie_policy, converged_at):
        # here the tie cap leaves no kept share strictly better than its
        # row's mixture, so the first quiet window ends the run
        loaded = load_scenario(packaged_scenario("competition50"))
        sc = replace(loaded.scenario,
                     subpop_rule=best_response(tie_tolerance, tie_policy))
        traj = simulate(sc, loaded.initial_state, loaded.max_steps,
                        loaded.detector)
        assert traj.converged_at == converged_at
        assert detect_equilibrium(traj, loaded.detector, sc) == (converged_at,
                                                                 [])

    def test_total_risk_monotone_and_components_not(self, three_centers):
        st = perturb(three_centers.initial_state, 1e-3, seed=2, target="theta_only")
        traj = simulate(three_centers.scenario, st, 500, three_centers.detector)
        assert np.all(np.diff(traj.total_risks) <= 1e-8)
        assert (np.diff(traj.subpop_risks, axis=0) > 1e-12).any()
        assert (np.diff(traj.learner_risks, axis=0) > 1e-12).any()

    def test_determinism(self, three_centers):
        st = perturb(three_centers.initial_state, 1e-3, seed=4, target="theta_only")
        t1 = simulate(three_centers.scenario, st, 200, three_centers.detector)
        t2 = simulate(three_centers.scenario, st, 200, three_centers.detector)
        assert np.array_equal(t1.total_risks, t2.total_risks)
        assert np.array_equal(t1.final_state.alpha, t2.final_state.alpha)
        assert np.array_equal(t1.final_state.theta, t2.final_state.theta)

    def test_learner_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        sc = random_scenario(rng, 4, 3, 2, gamma_range=(0.5, 2.0))
        state = random_state(rng, sc)
        perm = [2, 0, 1]
        permuted = SystemState(alpha=state.alpha[:, perm],
                               theta=state.theta[perm, :], t=0)
        t1 = simulate(sc, state, 50, EquilibriumDetector())
        t2 = simulate(sc, permuted, 50, EquilibriumDetector())
        for s1, s2 in zip(t1.states, t2.states):
            assert np.allclose(s1.alpha[:, perm], s2.alpha, atol=1e-14)
            assert np.allclose(s1.theta[perm, :], s2.theta, atol=1e-14)

    def test_empty_learner_frozen_and_flagged(self):
        # all mass starts on learner 0; learner 1 is empty and keeps theta
        sc = Scenario(
            beta=np.array([0.5, 0.5]),
            risks=(quadratic_risk([0.0]), quadratic_risk([1.0])),
            m=2, subpop_rule=mwud(), learner_rule=full_min(),
        )
        frozen_theta = 42.0
        state = SystemState(alpha=np.array([[1.0, 0.0], [1.0, 0.0]]),
                            theta=np.array([[0.3], [frozen_theta]]))
        traj = simulate(sc, state, 5)
        assert traj.final_state.theta[1, 0] == frozen_theta
        assert traj.empty_flags[:, 1].all()
        assert np.isnan(traj.learner_risks[:, 1]).all()
        assert traj.frozen_learner_steps == 5


class TestSchedules:
    def test_round_robin_subpops_updates_one_row(self):
        rng = np.random.default_rng(32)
        sc = random_scenario(rng, 3, 2, 1)
        sc = Scenario(beta=sc.beta, risks=sc.risks, m=2,
                      subpop_rule=sc.subpop_rule, learner_rule=sc.learner_rule,
                      schedule=UpdateSchedule(kind="round_robin_subpops"))
        state = random_state(rng, sc)
        nxt = step(state, sc)
        changed = [i for i in range(3)
                   if not np.array_equal(state.alpha[i], nxt.alpha[i])]
        assert changed == [0]

    def test_round_robin_learners_updates_one_column(self):
        rng = np.random.default_rng(33)
        sc = random_scenario(rng, 3, 2, 1)
        sc = Scenario(beta=sc.beta, risks=sc.risks, m=2,
                      subpop_rule=sc.subpop_rule, learner_rule=sc.learner_rule,
                      schedule=UpdateSchedule(kind="round_robin_learners",
                                              order=(1, 0)))
        state = random_state(rng, sc)
        nxt = step(state, sc)
        assert not np.array_equal(state.theta[1], nxt.theta[1])
        assert np.array_equal(state.theta[0], nxt.theta[0])

    def test_custom_order_subsets(self):
        rng = np.random.default_rng(34)
        sc = random_scenario(rng, 4, 2, 1)
        sc = Scenario(beta=sc.beta, risks=sc.risks, m=2,
                      subpop_rule=sc.subpop_rule, learner_rule=sc.learner_rule,
                      schedule=UpdateSchedule(kind="custom_order",
                                              subpops=(1, 3), learners=()))
        state = random_state(rng, sc)
        nxt = step(state, sc)
        assert np.array_equal(state.theta, nxt.theta)
        assert np.array_equal(state.alpha[0], nxt.alpha[0])
        assert np.array_equal(state.alpha[2], nxt.alpha[2])
        assert not np.array_equal(state.alpha[1], nxt.alpha[1])

    def test_subset_updates_stay_monotone(self):
        rng = np.random.default_rng(35)
        for kind in ("round_robin_subpops", "round_robin_learners"):
            sc = random_scenario(rng, 4, 2, 2)
            sc = Scenario(beta=sc.beta, risks=sc.risks, m=2,
                          subpop_rule=sc.subpop_rule,
                          learner_rule=sc.learner_rule,
                          schedule=UpdateSchedule(kind=kind))
            traj = simulate(sc, random_state(rng, sc), 100)
            assert np.all(np.diff(traj.total_risks) <= 1e-8)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            UpdateSchedule(kind="custom_order", subpops=(0, 0))

    @pytest.mark.parametrize("schedule, path", [
        (UpdateSchedule(kind="round_robin_subpops", order=(2, 3)),
         r"schedule\.order\[1\] must be < 3"),
        (UpdateSchedule(kind="round_robin_learners", order=(2,)),
         r"schedule\.order\[0\] must be < 2"),
        (UpdateSchedule(kind="custom_order", subpops=(0, 5)),
         r"schedule\.subpops\[1\] must be < 3"),
        (UpdateSchedule(kind="custom_order", learners=(2,)),
         r"schedule\.learners\[0\] must be < 2"),
    ])
    def test_out_of_range_indices_rejected_at_construction(self, schedule,
                                                           path):
        sc = random_scenario(np.random.default_rng(36), 3, 2, 1)
        with pytest.raises(ValueError, match=path):
            replace(sc, schedule=schedule)

    def test_in_range_indices_accepted(self):
        sc = random_scenario(np.random.default_rng(37), 3, 2, 1)
        for schedule in (UpdateSchedule(kind="round_robin_subpops",
                                        order=(2, 1, 0)),
                         UpdateSchedule(kind="round_robin_learners",
                                        order=(1, 0)),
                         UpdateSchedule(kind="custom_order", subpops=(2,),
                                        learners=(1,))):
            assert replace(sc, schedule=schedule).schedule == schedule


class TestDetectEquilibrium:
    def test_stationary_trajectory_index_zero(self, three_centers):
        traj = simulate(three_centers.scenario, three_centers.initial_state, 30)
        assert detect_equilibrium(traj, EquilibriumDetector(),
                                  three_centers.scenario) == (0, [])

    def test_moving_trajectory_absent(self):
        # harmonic gradient steps far from optimum keep moving for 50 steps
        sc = Scenario(
            beta=np.array([1.0]),
            risks=(quadratic_risk([0.0]),),
            m=1, subpop_rule=mwud(),
            learner_rule=repeated_gd(base=0.2, form="harmonic"),
        )
        state = SystemState(alpha=np.ones((1, 1)), theta=np.array([[100.0]]))
        traj = simulate(sc, state, 50)
        assert detect_equilibrium(traj, EquilibriumDetector(), sc) == (None, [])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12))
    def test_simulate_agrees_with_rescan(self, seed, window):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        sc = random_scenario(rng, n, int(rng.integers(1, n + 1)),
                             int(rng.integers(1, 3)))
        det = EquilibriumDetector(state_tolerance=10.0 ** rng.uniform(-10, -3),
                                  window=window)
        traj = simulate(sc, random_state(rng, sc), int(rng.integers(1, 200)),
                        det)
        assert traj.converged_at == detect_equilibrium(traj, det, sc)[0]

    def test_tail_convergence_indexed_at_window_start(self, three_centers):
        st = perturb(three_centers.initial_state, 1e-3, seed=1, target="theta_only")
        traj = simulate(three_centers.scenario, st, 500, three_centers.detector)
        idx = traj.converged_at
        assert idx is not None and idx > 0
        assert detect_equilibrium(traj, three_centers.detector,
                                  three_centers.scenario)[0] == idx


class TestPerturb:
    def test_sigma_zero_identity(self, three_centers):
        out = perturb(three_centers.initial_state, 0.0, seed=1)
        assert out is three_centers.initial_state

    def test_deterministic(self, three_centers):
        a = perturb(three_centers.initial_state, 1e-3, seed=9)
        b = perturb(three_centers.initial_state, 1e-3, seed=9)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.theta, b.theta)

    def test_targets(self, three_centers):
        s0 = three_centers.initial_state
        t_only = perturb(s0, 1e-3, seed=3, target="theta_only")
        assert np.array_equal(t_only.alpha, s0.alpha)
        assert not np.array_equal(t_only.theta, s0.theta)
        a_only = perturb(s0, 1e-3, seed=3, target="alpha_only")
        assert np.array_equal(a_only.theta, s0.theta)
        assert not np.array_equal(a_only.alpha, s0.alpha)

    @pytest.mark.parametrize("sigma", [0.0, 1e-3])
    def test_unknown_target_rejected(self, three_centers, sigma):
        with pytest.raises(ValueError, match="target must be one of"):
            perturb(three_centers.initial_state, sigma, seed=3, target="theta")

    def test_alpha_rows_stay_on_simplex_and_interior(self):
        # vertex rows must pick up strictly positive mass everywhere, or the
        # multiplicative dynamics could never witness instability
        state = SystemState(alpha=np.array([[1.0, 0.0], [0.0, 1.0]]),
                            theta=np.zeros((2, 1)))
        out = perturb(state, 1e-4, seed=11, target="alpha_only")
        assert np.allclose(out.alpha.sum(axis=1), 1.0)
        assert np.all(out.alpha > 0.0)

    def test_balanced_point_escapes_after_perturbation(self, three_centers):
        s0 = three_centers.initial_state
        risk0 = total_risk(s0, three_centers.scenario)
        st = perturb(s0, 1e-3, seed=17, target="theta_only")
        traj = simulate(three_centers.scenario, st, 500, three_centers.detector)
        assert traj.total_risks[-1] < risk0 - 0.1


class TestStabilityProbe:
    def test_stable_partition_returns(self):
        sc = partition_pair_scenario([0.0], [1.0], [2.0], 1 / 3, 1 / 3)
        st = partition_pair_state(sc)
        assert empirical_stability_probe(sc, st, 1e-4, 10, seed=1) == 1.0

    def test_balanced_point_never_returns(self, three_centers):
        frac = empirical_stability_probe(three_centers.scenario,
                                         three_centers.initial_state, 1e-3, 10,
                                         seed=2)
        assert frac == 0.0

    @pytest.mark.parametrize("return_tol", [float("nan"), -1.0, float("inf"),
                                            None])
    def test_return_tolerance_is_a_finite_number(self, three_centers,
                                                  return_tol):
        with pytest.raises(ValueError) as exc:
            empirical_stability_probe(three_centers.scenario,
                                      three_centers.initial_state, 1e-3, 2, 0,
                                      return_tol=return_tol)
        assert str(exc.value) == (
            f"return_tol must be a number >= 0, got {return_tol!r}")

    def test_unperturbed_trivially_returns(self, three_centers):
        frac = empirical_stability_probe(three_centers.scenario,
                                         three_centers.initial_state, 0.0, 1, seed=3)
        assert frac == 1.0

    def test_trials_must_be_positive(self, three_centers):
        with pytest.raises(ValueError):
            empirical_stability_probe(three_centers.scenario, three_centers.initial_state,
                                      1e-3, 0, seed=1)

    def test_records_describe_each_trial(self, three_centers):
        records = _probe_batch(three_centers.scenario, three_centers.initial_state,
                               1e-3, 4, 2, "both", 6000, 1e-4)
        assert [set(r) for r in records] == [{"returned", "steps", "escaped_at",
                                              "distance", "stop_reason"}] * 4
        # the balanced point is left for a split market of lower total risk
        assert all(not r["returned"] and r["escaped_at"] is not None
                   and r["escaped_at"] <= r["steps"] and r["distance"] > 1e-4
                   and r["stop_reason"] == "departed" for r in records)
        sc = partition_pair_scenario([0.0], [1.0], [2.0], 1 / 3, 1 / 3)
        records = _probe_batch(sc, partition_pair_state(sc), 1e-4, 4, 1, "both",
                               6000, 1e-4)
        assert all(r["returned"] and r["escaped_at"] is None
                   and r["distance"] <= 1e-4 and r["stop_reason"] == "detector"
                   for r in records)

    def test_batch_steps_as_often_as_its_longest_trial(self):
        # a per-trial loop would step sum(steps) times, the batch max(steps)
        sc = partition_pair_scenario([0.0], [1.0], [2.0], 1 / 3, 1 / 3)
        calls = []
        real = engine._core_step

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        with mock.patch.object(engine, "_core_step", counting):
            records = _probe_batch(sc, partition_pair_state(sc), 1e-4, 6, 1,
                                   "both", 6000, 1e-4)
        steps = [r["steps"] for r in records]
        assert len(set(steps)) > 1
        assert len(calls) == max(steps)

    def test_gate_names_the_batch_trial(self):
        # a constant oversized gradient step raises the risk of every trial
        # that is off the center; only the trial labelled 7 is
        sc = Scenario(beta=np.array([1.0]), risks=(quadratic_risk([0.0]),), m=1,
                      subpop_rule=mwud(),
                      learner_rule=repeated_gd(base=1.5, form="constant"))
        alpha = np.ones((2, 1, 1))
        theta = np.array([[[0.0]], [[1.0]]])
        steps = _stepped(sc, alpha, theta, 1, labels=np.array([4, 7]))
        next(steps)   # the start
        with pytest.raises(MonotonicityError, match="step 0 of trial 7") as exc:
            next(steps)
        assert exc.value.trial == 7
        with pytest.raises(MonotonicityError) as exc:
            step(SystemState(alpha=alpha[1], theta=theta[1]), sc)
        assert exc.value.trial is None and "trial" not in str(exc.value)
        with pytest.raises(MonotonicityError) as exc:
            empirical_stability_probe(sc, SystemState(alpha[1], theta[1]), 1e-3, 3,
                                      seed=1, target="theta_only")
        assert exc.value.trial == 0


def _serial_trial(scenario, eq_state, sigma, seed, target, max_steps, return_tol):
    """One probe trial replayed over the public step with the stop rule
    written out: a quiet count under the default detector that fires only
    at a stationary state and otherwise restarts, the step budget, and the
    departure test.  The per-trial reference the batched probe is pinned
    to: returns the trial's record and the total risk after each step."""
    detector = EquilibriumDetector()
    eq_risk = total_risk(eq_state, scenario)
    escape_tol = 1e-9 * max(1.0, abs(eq_risk))
    state = perturb(SystemState(eq_state.alpha, eq_state.theta, t=0), sigma, seed,
                    target)
    escaped_at, totals, quiet, reason = None, [], 0, None
    for k in range(1, max_steps + 1):
        nxt = step(state, scenario)
        delta = max(np.abs(nxt.alpha - state.alpha).max(),
                    np.abs(nxt.theta - state.theta).max())
        state = nxt
        totals.append(total_risk(state, scenario))
        quiet = quiet + 1 if delta <= detector.state_tolerance else 0
        if quiet == detector.window:
            quiet = 0
            if stationary(state, scenario):
                reason = "detector"
        if reason is None and k == max_steps:
            reason = "budget"
        if escaped_at is None and totals[-1] < eq_risk - escape_tol:
            escaped_at = k
        if escaped_at is not None or reason is not None:
            distance = state_distance_upto_permutation(state, eq_state)
            if reason is None and distance > return_tol:
                reason = "departed"
        if reason is not None:
            return {"returned": distance <= return_tol, "steps": k,
                    "escaped_at": escaped_at, "distance": distance,
                    "stop_reason": reason}, totals


def _custom_quadratic(center, offset):
    # a quadratic risk behind callbacks, so it takes the custom-risk paths
    return custom_risk(len(center),
                       value=lambda th: ((th - center) ** 2).sum(-1) + offset,
                       gradient=lambda th: 2.0 * (th - center),
                       hessian=lambda th: np.broadcast_to(
                           2.0 * np.eye(len(center)), th.shape + th.shape[-1:]))


def _custom_mirror(scenario):
    """The scenario on _custom_quadratic risks, with learner rules fit for
    them: damped Newton cannot reach a gradient norm whose step changes the
    objective by less than its rounding, and random_scenario tuned its step
    to the curvatures it drew, where these risks have identity curvature,
    so 0.45 / 1."""
    return replace(scenario, risks=tuple(_custom_quadratic(r.center, r.offset)
                                         for r in scenario.risks),
                   learner_rule=full_min(tolerance=1e-6)
                   if scenario.learner_rule.kind == "full_min"
                   else repeated_gd(base=0.45))


class TestBatchedProbeAgainstSerial:
    RULES = [mwud(2.0), mwud(1.0, "relative"), best_response(),
             best_response(0.05, "keep_previous")]
    SCHEDULES = [None, UpdateSchedule(kind="round_robin_subpops"),
                 UpdateSchedule(kind="round_robin_learners"),
                 UpdateSchedule(kind="custom_order", subpops=(0, 1), learners=(0,))]

    def _check(self, sc, eq_state, sigma, trials, seed, target, max_steps):
        per_trial = {}
        real = engine._core_step

        def spy(prev, t, scenario, labels=None):
            out = real(prev, t, scenario, labels)
            # each trial's total summed as total_risk sums one state's
            for k, Q in zip(labels, out[3]):
                per_trial.setdefault(int(k), []).append(Q.sum(-1) @ scenario.beta)
            return out

        with mock.patch.object(engine, "_core_step", spy):
            records = _probe_batch(sc, eq_state, sigma, trials, seed, target,
                                   max_steps, 1e-4)
        for k, record in enumerate(records):
            expected, totals = _serial_trial(sc, eq_state, sigma, [seed, k], target,
                                             max_steps, 1e-4)
            assert record == expected
            # a finished trial takes no further step
            assert len(per_trial[k]) == record["steps"]
            assert per_trial[k] == totals

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 3), st.integers(0, 3),
           st.sampled_from(["full_min", "repeated_gd", "custom_full_min",
                            "custom_repeated_gd"]),
           st.sampled_from(["both", "theta_only", "alpha_only"]),
           st.sampled_from([1e-4, 1e-2]), st.integers(1, 5), st.integers(1, 150))
    # its drawn curvatures are flat (largest eigenvalue 0.31): a step tuned
    # to them (1.44) overshoots the custom risks' identity curvature
    @example(seed=76386, rule=0, schedule=0, learner="custom_repeated_gd",
             target="both", sigma=0.01, trials=1, max_steps=1)
    def test_every_trial_matches_the_serial_replay(self, seed, rule, schedule,
                                                   learner, target, sigma, trials,
                                                   max_steps):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, min(3, n) + 1))
        sc = random_scenario(rng, n, m, int(rng.integers(1, 3)),
                             learner=learner.split("custom_")[-1])
        if learner.startswith("custom"):
            sc = _custom_mirror(sc)
        sc = replace(sc, subpop_rule=self.RULES[rule],
                     schedule=self.SCHEDULES[schedule])
        gamma_map = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
        assignment = SplitAssignment(tuple(int(g) for g in rng.permutation(gamma_map)))
        eq_state = SystemState(assignment.to_alpha(m),
                               theta_for_assignment(assignment, sc))
        self._check(sc, eq_state, sigma, trials, seed, target, max_steps)

    def test_learner_empty_in_some_trials_only(self):
        # two nearby subpopulations on learner 0, with learner 1 an empty copy
        # of it: after a parameter perturbation larger than the centers' gap,
        # best response hands both to whichever copy moved closer, so each
        # learner is empty in some trials and not in others
        sc = Scenario(beta=np.array([0.5, 0.5]),
                      risks=(quadratic_risk([0.0]), quadratic_risk([1e-3])), m=2,
                      subpop_rule=best_response(), learner_rule=full_min())
        eq_state = SystemState(np.array([[1.0, 0.0], [1.0, 0.0]]),
                               np.array([[5e-4], [5e-4]]))
        empty = []
        real = engine._core_step

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            empty.append(sc.beta @ out[0] < EMPTY_MASS_TOL)   # (trials, m)
            return out

        with mock.patch.object(engine, "_core_step", spy):
            self._check(sc, eq_state, 1e-2, 6, 11, "theta_only", 60)
        first = empty[0]   # emptiness after the first step, per trial
        assert all(first[:, j].any() and not first[:, j].all() for j in (0, 1))


def _schedule(kind, subpops=None, learners=None):
    """The schedule of kind, given the subsets that only custom_order reads."""
    if kind != "custom_order":
        return UpdateSchedule(kind=kind)
    return UpdateSchedule(kind=kind, subpops=subpops, learners=learners)


class TestBatchIndependence:
    """A trial steps as it would alone: in a batch of K trials, each one's
    alpha, theta, products Q and the gate's sums of Q (rows and total) equal
    those of its own K=1 run, bit for bit, whatever the schedule holds and
    whichever learners are empty."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(model.SCHEDULE_KINDS),
           st.sampled_from(["full_min", "repeated_gd"]), st.booleans(),
           st.integers(3, 4))
    def test_every_trial_matches_its_solo_run(self, seed, schedule_kind,
                                              learner, custom, K):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, min(3, n) + 1))
        sc = random_scenario(rng, n, m, int(rng.integers(1, 3)), learner=learner)
        if custom:
            sc = _custom_mirror(sc)
        subpops, learners = (tuple(int(i) for i in np.flatnonzero(
            rng.random(size) < 0.5)) for size in (n, m))
        sc = replace(sc, subpop_rule=TestBatchedProbeAgainstSerial.RULES[
                         int(rng.integers(4))],
                     schedule=_schedule(schedule_kind, subpops, learners))
        alpha = rng.dirichlet(np.ones(m), size=(K, n))
        alpha[0, :, int(rng.integers(m))] = 0.0   # exactly empty in trial 0
        alpha /= alpha.sum(axis=-1, keepdims=True)
        theta = rng.uniform(-2.0, 2.0, (K, m, sc.d))

        def run(alpha, theta):
            return [(a, th, Q, rows, total) for a, th, _, Q, rows, total, *_
                    in _stepped(sc, alpha, theta, 40)]

        batch = run(alpha, theta)
        for k in range(K):
            for got, alone in zip(batch, run(alpha[k:k + 1], theta[k:k + 1])):
                for x, y in zip(got, alone):
                    assert np.array_equal(x[k], y[0])


class TestWatchedBatchIndependence:
    """Each trial of a _watched_steps batch stops as its solo run (simulate)
    does: at the same step, for the same reason, in the same state bit for
    bit and through the same totals, whichever trials left before it."""

    @staticmethod
    def _batch(seed, rule, schedule_kind, learner):
        """A random instance and K = 5 starts that end differently: a split
        at its group optima, which the detector takes at the window's last
        step; the same split with 1e-60 on every other learner, whose first
        window may end on a saddle; three random starts."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        m = int(rng.integers(2, min(3, n) + 1))
        sc = random_scenario(rng, n, m, int(rng.integers(1, 3)),
                             learner=learner.split("custom_")[-1])
        if learner.startswith("custom"):
            sc = _custom_mirror(sc)
        subpops, learners = (tuple(int(i) for i in np.flatnonzero(
            rng.random(size) < 0.5)) for size in (n, m))
        sc = replace(sc, subpop_rule=TestBatchedProbeAgainstSerial.RULES[rule],
                     schedule=_schedule(schedule_kind, subpops, learners))
        gamma_map = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
        split = SplitAssignment(tuple(int(g) for g in rng.permutation(gamma_map)))
        alpha = [split.to_alpha(m), split.to_alpha(m) + 1e-60]
        theta = [theta_for_assignment(split, sc)] * 2
        alpha += [rng.dirichlet(np.ones(m), size=n) for _ in range(3)]
        theta += [rng.uniform(-2.0, 2.0, (m, sc.d)) for _ in range(3)]
        alpha = np.array(alpha)
        return sc, alpha / alpha.sum(-1, keepdims=True), np.array(theta)

    @staticmethod
    def _check(sc, alpha, theta, detector, max_steps):
        """Asserts the batch against the solo runs; returns per trial its
        stop step, its reason and its solo run's saddle restarts."""
        ends, totals = [None] * len(alpha), [[] for _ in alpha]
        loop = engine._watched_steps(sc, alpha, theta, 0,
                                     detector, max_steps, np.arange(len(alpha)))
        for t, (live, s, stop) in enumerate(loop):   # the start's t is 0
            for i, k in enumerate(live):
                totals[k].append(s.total[i])
                if stop[i] is not None:
                    ends[k] = (t, stop[i], s.alpha[i], s.theta[i])
        seen = []
        for k, (t, reason, a, th) in enumerate(ends):
            traj = simulate(sc, SystemState(alpha[k], theta[k]), max_steps,
                            detector)
            assert t == len(traj.states) - 1
            assert reason == ("budget" if traj.converged_at is None
                              else "detector")
            assert np.array_equal(a, traj.final_state.alpha)
            assert np.array_equal(th, traj.final_state.theta)
            assert totals[k] == traj.total_risks.tolist()
            seen.append((t, reason, detect_equilibrium(traj, detector, sc)[1]))
        return seen

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 3),
           st.sampled_from(model.SCHEDULE_KINDS),
           st.sampled_from(["full_min", "repeated_gd", "custom_full_min",
                            "custom_repeated_gd"]),
           st.sampled_from([EquilibriumDetector(), EquilibriumDetector(1e-6, 3)]),
           st.integers(1, 300))
    def test_every_trial_stops_as_it_would_alone(self, seed, rule, schedule_kind,
                                                  learner, detector, max_steps):
        sc, alpha, theta = self._batch(seed, rule, schedule_kind, learner)
        self._check(sc, alpha, theta, detector, max_steps)

    def test_one_batch_ends_every_way(self):
        # the detector at steps 10, 20 and 58, the last after three saddle
        # restarts; two trials at the budget, one after restarts of its own
        sc, alpha, theta = self._batch(50, 0, "all_sequential", "full_min")
        seen = self._check(sc, alpha, theta, EquilibriumDetector(), 60)
        assert [(t, reason, len(restarts)) for t, reason, restarts in seen] == [
            (10, "detector", 0), (58, "detector", 3), (60, "budget", 0),
            (60, "budget", 4), (20, "detector", 0)]

    def test_a_trip_after_a_drop_out_names_the_original_trial(self):
        # an oversized constant gradient step doubles theta's distance to
        # the center: trial 4 sits on the center and the detector takes it
        # on its 10th step; trial 7, 1e-12 off, goes on alone and trips on
        # its 27th, the step from t = 26
        sc = Scenario(beta=np.array([1.0]), risks=(quadratic_risk([0.0]),), m=1,
                      subpop_rule=mwud(),
                      learner_rule=repeated_gd(base=1.5, form="constant"))
        theta = np.array([[[0.0]], [[1e-12]]])
        stops = []
        with pytest.raises(MonotonicityError) as exc:
            for live, _, stop in engine._watched_steps(
                    sc, np.ones((2, 1, 1)), theta, 0,
                    EquilibriumDetector(), 100, np.array([4, 7])):
                stops.append((list(live), list(stop)))
        assert stops[0] == ([0, 1], [None, None])   # the start
        assert stops[10] == ([0, 1], ["detector", None])
        assert stops[11:] == [([1], [None])] * 16
        assert (exc.value.trial, exc.value.t) == (7, 26)


class TestFreezeThreshold:
    """A learner updates at mass >= EMPTY_MASS_TOL (1e-12) and freezes
    below, for quadratic risks and for their custom mirrors."""

    @staticmethod
    def _setup(kind, custom=False):
        # Newton's tolerance bounds the mass-weighted gradient, 4e-12 |theta|
        # for a mass of 2e-12, so a custom learner that small needs a finer one
        rule = (full_min(tolerance=1e-14) if kind == "full_min"
                else repeated_gd(base=0.2))
        risks = tuple(quadratic_risk([c]) for c in (0.0, 1.0, 2.0))
        sc = Scenario(beta=np.full(3, 1 / 3),
                      risks=tuple(map(as_custom, risks)) if custom else risks,
                      m=3, subpop_rule=mwud(), learner_rule=rule)
        # learner 1 carries mass 2e-12 and learner 2 mass 5e-13
        alpha = np.array([[1.0 - 7.5e-12, 6e-12, 1.5e-12], [1.0, 0.0, 0.0],
                          [1.0, 0.0, 0.0]])
        theta = np.array([[0.5], [5.0], [7.0]])
        return sc, alpha, theta

    @pytest.mark.parametrize("custom", [False, True])
    @pytest.mark.parametrize("kind", ["full_min", "repeated_gd"])
    def test_updates_at_2e12_and_freezes_at_5e13(self, kind, custom):
        sc, alpha, theta = self._setup(kind, custom)
        theta2, frozen, _ = _update_theta(alpha, theta, sc, 0)
        assert frozen == 1
        if kind == "full_min":
            expected = full_minimize(alpha[:, 1], sc.beta, sc.risks)
        else:
            expected = gradient_step(theta[1], alpha[:, 1], sc.beta, sc.risks,
                                     step_size(0, sc.learner_rule))
        assert theta2[1, 0] != theta[1, 0]
        assert np.abs(theta2[1] - expected).max() <= 1e-12
        assert theta2[2, 0] == theta[2, 0]

    @pytest.mark.parametrize("custom", [False, True])
    @pytest.mark.parametrize("kind", ["full_min", "repeated_gd"])
    def test_batch_freezes_per_trial(self, kind, custom):
        # learner 2 is empty in trial 0 only, learner 1 in trial 1 only
        sc, alpha, theta = self._setup(kind, custom)
        alpha = np.stack([alpha, alpha[:, [0, 2, 1]]])
        theta = np.stack([theta, theta])
        theta2, frozen, _ = _update_theta(alpha, theta, sc, 0)
        assert frozen.tolist() == [1, 1]
        assert theta2[0, 2, 0] == theta[0, 2, 0] and theta2[1, 1, 0] == theta[1, 1, 0]
        assert theta2[0, 1, 0] != theta[0, 1, 0] and theta2[1, 2, 0] != theta[1, 2, 0]
        for k in range(2):
            assert np.array_equal(theta2[k], _update_theta(alpha[k], theta[k], sc, 0)[0])

    @pytest.mark.parametrize("custom", [False, True])
    def test_frozen_and_empty_agree_in_the_same_step(self, custom):
        # rows 1 and 2 update but stay on learner 0, so learners 1 and 2 keep
        # masses 2e-12 and 5e-13 through the step
        sc, alpha, theta = self._setup("full_min", custom)
        sc = replace(sc, schedule=UpdateSchedule(
            kind="custom_order", subpops=(1, 2), learners=(0, 1, 2)))
        traj = simulate(sc, SystemState(alpha=alpha, theta=theta), 1,
                        EquilibriumDetector(window=2))
        assert np.array_equal(traj.final_state.alpha, alpha)
        assert traj.frozen_learner_steps == 1
        assert traj.empty_flags.tolist() == [[False, False, True]] * 2
        assert np.isnan(traj.learner_risks).tolist() == [[False, False, True]] * 2
        assert traj.final_state.theta[2, 0] == theta[2, 0]
        assert traj.final_state.theta[1, 0] != theta[1, 0]


SHIPPED = ("competition12", "competition50", "minority", "three_centers",
           "two_group_gap")


class TestKeptState:
    """The engine keeps the state its gate checked, and every recorded risk
    is a sum of the gate's own products Q = alpha' * R'."""

    RULES = {"mwud": mwud(2.0), "mwud_relative": mwud(1.0, "relative"),
             "best_response": best_response(),
             "keep_previous": best_response(0.05, "keep_previous")}
    SCHEDULES = {
        "all_sequential": None,
        "round_robin_subpops": UpdateSchedule(kind="round_robin_subpops"),
        "round_robin_learners": UpdateSchedule(kind="round_robin_learners"),
        "custom_order": UpdateSchedule(kind="custom_order", subpops=(0, 1),
                                       learners=(0,)),
    }

    @staticmethod
    def _simulate(scenario, state, max_steps, detector):
        """simulate's trajectory, plus (alpha', Q) of every gated step."""
        gated, real = [], engine._core_step

        def spy(prev, t, scenario, labels=None):
            out = real(prev, t, scenario, labels)
            gated.append((out[0], out[3]))
            return out

        with mock.patch.object(engine, "_core_step", spy):
            traj = simulate(scenario, state, max_steps, detector)
        return traj, gated

    def _check(self, scenario, traj, gated):
        beta = scenario.beta
        assert len(gated) == len(traj.states) - 1
        for k, total in enumerate(traj.total_risks):
            assert total == traj.subpop_risks[k] @ beta
        for k, (alpha, Q) in enumerate(gated, 1):
            masses = beta @ alpha[0]
            empty = masses < EMPTY_MASS_TOL
            assert np.array_equal(traj.states[k].alpha, alpha[0])
            assert traj.total_risks[k] == (Q.sum(-1) @ beta)[0]
            assert np.array_equal(traj.subpop_risks[k], Q[0].sum(-1))
            assert np.array_equal(traj.empty_flags[k], empty)
            assert np.array_equal(traj.learner_risks[k][~empty],
                                  (beta @ Q[0])[~empty] / masses[~empty])
            assert np.isnan(traj.learner_risks[k][empty]).all()

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_records_are_the_gates_sums(self, name):
        loaded = load_scenario(packaged_scenario(name))
        traj, gated = self._simulate(loaded.scenario, loaded.initial_state,
                                     loaded.max_steps, loaded.detector)
        self._check(loaded.scenario, traj, gated)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(sorted(RULES)),
           st.sampled_from(sorted(SCHEDULES)),
           st.sampled_from(["full_min", "repeated_gd"]))
    def test_records_are_the_gates_sums(self, seed, rule, schedule, learner):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        sc = replace(random_scenario(rng, n, int(rng.integers(1, min(3, n) + 1)),
                                     int(rng.integers(1, 3)), learner=learner,
                                     offset_range=(0.1, 1.0)),
                     subpop_rule=self.RULES[rule],
                     schedule=self.SCHEDULES[schedule])
        traj, gated = self._simulate(sc, random_state(rng, sc), 40,
                                     EquilibriumDetector(window=41))
        self._check(sc, traj, gated)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(sorted(RULES)),
           st.sampled_from(sorted(SCHEDULES)))
    def test_steps_yield_the_gates_products(self, seed, rule, schedule):
        rng = np.random.default_rng(seed)
        sc = replace(random_scenario(rng, 4, 2, 2, offset_range=(0.1, 1.0)),
                     subpop_rule=self.RULES[rule],
                     schedule=self.SCHEDULES[schedule])
        alpha = np.stack([random_state(rng, sc).alpha for _ in range(3)])
        theta = rng.uniform(-2.0, 2.0, (3, sc.m, sc.d))
        for alpha, _, R, Q, *_ in _stepped(sc, alpha, theta, 30):
            assert np.array_equal(Q, alpha * R)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(sorted(RULES)),
           st.sampled_from(sorted(SCHEDULES)),
           st.sampled_from(["full_min", "repeated_gd"]), st.sampled_from([1, 3]))
    def test_carried_sums_are_the_yielded_states(self, seed, rule, schedule,
                                                 learner, K):
        # the gate reuses a step's sums as the next step's sums before it:
        # they must be those of the state the step yields, bit for bit
        rng = np.random.default_rng(seed)
        sc = replace(random_scenario(rng, 4, 2, int(rng.integers(1, 3)),
                                     learner=learner, offset_range=(0.1, 1.0)),
                     subpop_rule=self.RULES[rule],
                     schedule=self.SCHEDULES[schedule])
        alpha = np.stack([random_state(rng, sc).alpha for _ in range(K)])
        theta = rng.uniform(-2.0, 2.0, (K, sc.m, sc.d))
        for alpha, _, R, _, rows, total, masses, *_ in _stepped(sc, alpha,
                                                                theta, 30):
            assert np.array_equal((alpha * R).sum(-1), rows)
            # each trial's total is its own row's sum, as it would be alone
            assert np.array_equal([row @ sc.beta for row in rows], total)
            assert np.array_equal(sc.beta @ alpha, masses)

    @pytest.mark.parametrize("schedule", ["all_sequential", "round_robin_subpops",
                                          "round_robin_learners"])
    @pytest.mark.parametrize("rule", ["mwud", "mwud_relative", "keep_previous"])
    def test_rows_stay_normalized_without_a_second_pass(self, rule, schedule):
        rng = np.random.default_rng(7)
        sc = replace(random_scenario(rng, 5, 3, 2, learner="repeated_gd",
                                     offset_range=(0.1, 1.0)),
                     subpop_rule=self.RULES[rule],
                     schedule=self.SCHEDULES[schedule])
        alpha = np.stack([random_state(rng, sc).alpha for _ in range(4)])
        theta = rng.uniform(-2.0, 2.0, (4, sc.m, sc.d))
        kept = np.array([alpha for alpha, *_ in _stepped(sc, alpha, theta,
                                                          20_000)])
        assert kept.min() >= 0.0
        assert np.abs(kept.sum(-1) - 1.0).max() <= 1e-15


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestCarriedRisk:
    """A step whose learner update leaves every bit of Theta unchanged
    carries R into its record instead of recomputing it.  Every record still
    holds R = R(theta) and Q = alpha * R bit for bit, and no later step
    writes into a record that a caller keeps."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(sorted(TestKeptState.RULES)),
           st.sampled_from(["full_min", "repeated_gd"]),
           st.sampled_from(["diagonal", "full", "custom"]),
           st.sampled_from(model.SCHEDULE_KINDS), st.integers(1, 4))
    def test_records_hold_the_risks_at_their_theta(self, seed, rule, learner,
                                                   risks, schedule_kind, K):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, min(3, n) + 1))
        d = 2 if risks == "full" else int(rng.integers(1, 3))
        sc = random_scenario(rng, n, m, d, learner=learner,
                             identity_curvature=risks != "full")
        if risks == "custom":
            sc = replace(sc, risks=tuple(map(as_custom, sc.risks)))
        subpops, learners = (tuple(int(i) for i in np.flatnonzero(
            rng.random(size) < 0.5)) for size in (n, m))
        sc = replace(sc, subpop_rule=TestKeptState.RULES[rule],
                     schedule=_schedule(schedule_kind, subpops, learners))
        alpha = rng.dirichlet(np.ones(m), size=(K, n))
        theta = rng.uniform(-2.0, 2.0, (K, m, d))
        records, copies = [], []
        # a short window lets trials leave the batch at different steps
        for _, s, _ in engine._watched_steps(
                sc, alpha, theta, 0,
                EquilibriumDetector(1e-6, 3), 60):
            records.append(s)
            copies.append([np.copy(x) for x in s])
        for s, kept in zip(records, copies):
            assert _same_bits(s.R, sc.risk_matrix(s.theta))
            assert _same_bits(s.Q, s.alpha * s.R)
            assert all(_same_bits(x, y) for x, y in zip(s, kept))

    def test_a_still_theta_carries_the_previous_risks(self, three_centers):
        # three_centers at an optimal split, theta nudged off it: full_min
        # moves theta onto the split's minimizers on step 1, and the split's
        # one-hot rows then hold it there bit for bit
        sc = three_centers.scenario
        split = SplitAssignment((0, 0, 1))
        start = perturb(SystemState(split.to_alpha(2),
                                    theta_for_assignment(split, sc)),
                        0.1, 5, "theta_only")
        loop = engine._watched_steps(sc, start.alpha[None], start.theta[None], 0,
                                     EquilibriumDetector(), 100)
        _, first, _ = next(loop)   # the start
        theta, R, moved = first.theta, first.R, []
        assert _same_bits(R, sc.risk_matrix(theta))
        for _, s, _ in loop:
            moved.append(s.theta.tobytes() != theta.tobytes())
            assert (s.R is R) != moved[-1]
            assert _same_bits(s.R, sc.risk_matrix(s.theta))
            theta, R = s.theta, s.R
        assert moved == [True] + [False] * 10


class TestWatchedLoopStart:
    """The watched loop evaluates its start's risk matrices, yields them as
    its first record and checks its step budget itself: no caller can hand
    the gate another baseline or an unchecked budget, or evaluate the start
    a second time."""

    def test_a_fixed_point_records_its_own_risks(self, three_centers):
        # the split (0, 1, 1) at its group optima is a bitwise fixed point:
        # theta never moves, so every record carries the loop's first R
        sc = three_centers.scenario
        split = SplitAssignment((0, 1, 1))
        start = SystemState(split.to_alpha(2), theta_for_assignment(split, sc))
        records = [s for _, s, _ in engine._watched_steps(
            sc, start.alpha[None], start.theta[None], 0, EquilibriumDetector(),
            100)]
        # the start, then the window's steps
        assert len(records) == EquilibriumDetector().window + 1
        assert all(s.R is records[0].R for s in records)
        for s in records:
            assert _same_bits(s.theta, start.theta[None])
            assert _same_bits(s.R, sc.risk_matrix(s.theta))
            assert s.total.tolist() == [total_risk(start, sc)]

    def test_a_move_of_a_zero_evaluates_fresh_risks(self):
        # centers -1 and 1 of equal mass: full_min takes the one learner from
        # -0.0 to +0.0, which == calls equal, on step 1, then holds it there.
        # The start's R is the loop's own, so the step's fresh R is told from
        # a carried one by the risk matrices evaluated
        sc = Scenario(beta=np.array([0.5, 0.5]),
                      risks=(quadratic_risk([-1.0]), quadratic_risk([1.0])), m=1,
                      subpop_rule=mwud(), learner_rule=full_min())
        made, real = [], Scenario.risk_matrix

        def spy(scenario, theta):
            made.append(real(scenario, theta))
            return made[-1]

        with mock.patch.object(Scenario, "risk_matrix", spy):
            start, first, second = (s for _, s, _ in engine._watched_steps(
                sc, np.ones((1, 2, 1)), np.array([[[-0.0]]]), 0,
                EquilibriumDetector(), 2))
        assert not np.signbit(first.theta).any()
        assert len(made) == 2 and start.R is made[0]
        assert first.R is made[1] and second.R is first.R

    @pytest.mark.parametrize("K", [1, 3])
    def test_the_first_record_is_the_start(self, K):
        # a random start, which the first step moves
        rng = np.random.default_rng(35)
        sc = random_scenario(rng, 4, 2, 2, offset_range=(0.1, 1.0))
        alpha = np.stack([random_state(rng, sc).alpha for _ in range(K)])
        theta = rng.uniform(-2.0, 2.0, (K, sc.m, sc.d))
        live, s, stop = next(engine._watched_steps(
            sc, alpha, theta, 0, EquilibriumDetector(), 5, np.arange(K)))
        assert live == list(range(K)) and stop == [None] * K
        assert s.alpha is alpha and s.theta is theta
        assert _same_bits(s.R, sc.risk_matrix(theta))
        assert _same_bits(s.Q, alpha * s.R)
        assert _same_bits(s.rows, s.Q.sum(-1))
        assert s.total.tolist() == [row @ sc.beta for row in s.rows]
        assert _same_bits(s.masses, sc.beta @ alpha)
        assert s.frozen.tolist() == [0] * K

    def test_simulate_evaluates_the_start_once(self, three_centers):
        # from a bitwise fixed point every step carries the start's R, so
        # the whole run evaluates risk matrices once
        sc = three_centers.scenario
        split = SplitAssignment((0, 1, 1))
        start = SystemState(split.to_alpha(2), theta_for_assignment(split, sc))
        calls, real = [], Scenario.risk_matrix

        def spy(scenario, theta):
            calls.append(1)
            return real(scenario, theta)

        with mock.patch.object(Scenario, "risk_matrix", spy):
            traj = simulate(sc, start, 100)
        assert traj.converged_at == 0 and traj.states[0] is start
        assert len(calls) == 1

    @pytest.mark.parametrize("max_steps", [0, -1, 1.5, True])
    @pytest.mark.parametrize("run", ["simulate", "probe"])
    def test_every_run_rejects_a_bad_budget(self, three_centers, run,
                                            max_steps):
        # the balanced start is a fixed point, so a run whose budget went
        # unchecked would still end, on the detector
        sc, start = three_centers.scenario, three_centers.initial_state
        with pytest.raises(ValueError) as exc:
            if run == "simulate":
                simulate(sc, start, max_steps)
            else:
                empirical_stability_probe(sc, start, 0.0, 2, 0,
                                          max_steps=max_steps)
        assert str(exc.value) == (
            f"max_steps must be an integer >= 1, got {max_steps!r}")


class TestFastPathEquivalence:
    """The engine's vectorized paths must match the per-row / per-column
    operations exactly."""

    def test_vectorized_mwud_matches_row_updates(self):
        from popdyn.engine import _mwud_rows
        rng = np.random.default_rng(60)
        for comparison in ("absolute", "relative"):
            for _ in range(50):
                n, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
                alpha = rng.dirichlet(np.ones(m), size=n)
                # exact zeros allowed, but each row keeps its largest share
                drop = rng.random((n, m)) < 0.2
                drop[np.arange(n), alpha.argmax(axis=1)] = False
                alpha[drop] = 0.0
                alpha = alpha / alpha.sum(axis=1, keepdims=True)
                R = rng.uniform(0.1, 5.0, (n, m))
                gamma = float(rng.uniform(0.1, 5.0))
                batched = _mwud_rows(alpha, R, gamma, comparison)
                for i in range(n):
                    mix = float((alpha[i] * R[i]).sum())
                    row = mwud_step(alpha[i], R[i], gamma, comparison,
                                    prev_mix_risk=mix)
                    assert np.array_equal(batched[i], row)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["mwud", "best_response"]),
           st.sampled_from(["all_sequential", "round_robin_subpops",
                            "custom_order"]))
    def test_row_update_matches_row_rules(self, seed, kind, schedule_kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        alpha = rng.dirichlet(np.ones(m), size=n)
        # exact zeros, but each row keeps its largest share
        drop = rng.random((n, m)) < 0.3
        drop[np.arange(n), alpha.argmax(axis=1)] = False
        alpha[drop] = 0.0
        alpha = alpha / alpha.sum(axis=1, keepdims=True)
        # coarse integer risks make ties common
        R = rng.integers(1, 4, (n, m)).astype(float)
        if kind == "mwud":
            rule = mwud(float(rng.uniform(0.1, 5.0)),
                        str(rng.choice(["absolute", "relative"])))
        else:
            rule = best_response(float(rng.choice([0.0, 0.5, 1.0])),
                                 str(rng.choice(["split_evenly",
                                                 "keep_previous"])))
        subpops = tuple(int(i) for i in np.flatnonzero(rng.random(n) < 0.5))
        schedule = _schedule(schedule_kind, subpops=subpops)
        sc = replace(random_scenario(rng, n, m, 1), subpop_rule=rule,
                     schedule=schedule)
        t = int(rng.integers(0, 10))
        rows = {"all_sequential": range(n), "round_robin_subpops": [t % n],
                "custom_order": subpops}[schedule_kind]
        expected = alpha.copy()
        for i in rows:
            if kind == "mwud":
                expected[i] = mwud_step(alpha[i], R[i], rule.gamma,
                                        rule.comparison,
                                        float((alpha[i] * R[i]).sum()))
            else:
                expected[i] = best_response_step(alpha[i], R[i],
                                                 rule.tie_tolerance,
                                                 rule.tie_policy)
        assert np.array_equal(_update_alpha(alpha, R, sc, t), expected)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["full_min", "repeated_gd"]),
           st.integers(1, 4), st.sampled_from([1, 3]),
           st.sampled_from(model.SCHEDULE_KINDS), st.booleans())
    def test_learner_kernel_matches_scalar_rules(self, seed, kind, inner_steps,
                                                 K, schedule_kind, empty):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, n + 1))
        sc = random_scenario(rng, n, m, int(rng.integers(1, 4)), learner=kind)
        rule = sc.learner_rule
        if kind == "repeated_gd":
            rule = repeated_gd(base=rule.base, inner_steps=inner_steps)
        learners = tuple(int(j) for j in np.flatnonzero(rng.random(m) < 0.5))
        sc = replace(sc, learner_rule=rule,
                     schedule=_schedule(schedule_kind, learners=learners))
        alpha = rng.dirichlet(np.ones(m), size=(K, n))
        if empty:   # one learner of one trial is empty and must be held
            alpha[int(rng.integers(K)), :, int(rng.integers(m))] = 0.0
            alpha = alpha / alpha.sum(axis=-1, keepdims=True)
        theta = rng.uniform(-2.0, 2.0, (K, m, sc.d))
        t = int(rng.integers(0, 10))
        scheduled = {"all_sequential": range(m), "round_robin_subpops": range(m),
                     "round_robin_learners": [t % m],
                     "custom_order": learners}[schedule_kind]
        empties = [[j for j in scheduled if not alpha[k, :, j].any()]
                   for k in range(K)]
        theta2, frozen, _ = _update_theta(alpha, theta, sc, t)
        for k in range(K):
            one, one_frozen, _ = _update_theta(alpha[k], theta[k], sc, t)
            assert frozen[k] == one_frozen == len(empties[k])
            assert np.array_equal(theta2[k], one)
            for j in range(m):
                if j not in scheduled or j in empties[k]:
                    assert np.array_equal(theta2[k, j], theta[k, j])
                    continue
                if kind == "full_min":
                    expected = full_minimize(alpha[k, :, j], sc.beta, sc.risks)
                else:
                    expected = theta[k, j]
                    for _ in range(inner_steps):
                        expected = gradient_step(expected, alpha[k, :, j],
                                                 sc.beta, sc.risks,
                                                 step_size(t, rule))
                assert np.abs(theta2[k, j] - expected).max() <= 1e-12

    @pytest.mark.parametrize("schedule_kind", model.SCHEDULE_KINDS)
    @pytest.mark.parametrize("subpop", ["mwud", "best_response"])
    @pytest.mark.parametrize("learner", ["full_min", "repeated_gd"])
    def test_core_step_shares_no_memory_with_its_inputs(self, schedule_kind,
                                                        subpop, learner):
        # writable K=3 batches, as the probe steps them; the schedule updates
        # some learner, so theta' is a new array (else it is theta itself)
        rng = np.random.default_rng(63)
        sc = random_scenario(rng, 5, 3, 2, learner=learner)
        sc = replace(sc, subpop_rule=mwud() if subpop == "mwud" else best_response(),
                     schedule=_schedule(schedule_kind, (0, 2), (1, 2)))
        alpha = np.stack([random_state(rng, sc).alpha for _ in range(3)])
        theta = rng.uniform(-2.0, 2.0, (3, sc.m, sc.d))
        R = sc.risk_matrix(theta)
        Q = alpha * R
        rows = Q.sum(-1)
        prev = engine.StepRecord(alpha, theta, R, Q, rows, rows @ sc.beta,
                                 sc.beta @ alpha, np.zeros(3, int))
        kept = [x.copy() for x in prev]
        out = engine._core_step(prev, 1, sc)
        for x, x0 in zip(prev, kept):
            assert np.array_equal(x, x0)
        # alpha', theta', R', Q, rows', total' and the masses
        for y in out[:7]:
            assert not any(np.shares_memory(x, y) for x in prev)

    def test_batched_minimization_matches_full_minimize(self):
        from popdyn.engine import _update_theta
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            sc = random_scenario(rng, n, int(rng.integers(2, min(3, n) + 1)),
                                 int(rng.integers(1, 4)))
            state = random_state(rng, sc)
            theta2, frozen, _ = _update_theta(state.alpha, state.theta, sc, 0)
            assert frozen == 0
            for j in range(sc.m):
                expected = full_minimize(state.alpha[:, j], sc.beta, sc.risks)
                assert np.abs(theta2[j] - expected).max() <= 1e-12


class TestRuleVariants:
    def test_relative_comparison_end_to_end(self):
        rng = np.random.default_rng(62)
        from popdyn import Scenario, mwud
        base = random_scenario(rng, 4, 2, 1, offset_range=(0.1, 1.0))
        sc = Scenario(beta=base.beta, risks=base.risks, m=2,
                      subpop_rule=mwud(gamma=1.5, comparison="relative"),
                      learner_rule=base.learner_rule)
        traj = simulate(sc, random_state(rng, sc), 300)
        assert np.all(np.diff(traj.total_risks) <= 1e-8)
        assert traj.converged_at is not None

    def test_multiple_inner_gradient_steps(self):
        rng = np.random.default_rng(63)
        from popdyn import Scenario, repeated_gd
        base = random_scenario(rng, 3, 2, 2, learner="repeated_gd")
        rule = repeated_gd(base=base.learner_rule.base,
                           inner_steps=3)
        sc = Scenario(beta=base.beta, risks=base.risks, m=2,
                      subpop_rule=base.subpop_rule, learner_rule=rule)
        # the default gate checks each subpopulation and learner every step
        traj = simulate(sc, random_state(rng, sc), 100)
        assert np.all(np.diff(traj.total_risks) <= 1e-8)
        assert any(not np.array_equal(a.theta, b.theta)
                   for a, b in zip(traj.states, traj.states[1:]))

    def test_custom_risks_through_engine_and_classifier(self):
        from popdyn import Scenario, classify_state, custom_risk, full_min, mwud

        def make(center):
            return custom_risk(
                1,
                value=lambda th, c=center: ((th[..., 0] - c) ** 4
                                            + (th[..., 0] - c) ** 2),
                gradient=lambda th, c=center: (4 * (th - c) ** 3
                                               + 2 * (th - c)),
                hessian=lambda th, c=center: (12 * (th - c) ** 2
                                              + 2)[..., None],
            )

        sc = Scenario(beta=np.array([0.4, 0.6]),
                      risks=(make(0.0), make(3.0)), m=2,
                      subpop_rule=mwud(gamma=1.0),
                      learner_rule=full_min(tolerance=1e-11))
        start = SystemState(alpha=np.array([[0.6, 0.4], [0.4, 0.6]]),
                            theta=np.array([[0.5], [2.5]]))
        traj = simulate(sc, start, 200)
        assert np.all(np.diff(traj.total_risks) <= 1e-8)
        assert traj.converged_at is not None
        report = classify_state(traj.final_state, sc)
        assert report.classification == "split_market"
        assert report.stability == "asymptotically_stable"
        # each learner settles on its own subpopulation's optimum
        assert np.abs(np.sort(traj.final_state.theta[:, 0])
                      - np.array([0.0, 3.0])).max() <= 1e-6


class TestPermutationDistance:
    def test_permuted_copy_at_zero_distance(self):
        rng = np.random.default_rng(36)
        alpha = rng.dirichlet(np.ones(3), size=4)
        theta = rng.uniform(-1, 1, (3, 2))
        a = SystemState(alpha=alpha, theta=theta)
        perm = [2, 0, 1]
        b = SystemState(alpha=alpha[:, perm], theta=theta[perm, :])
        assert state_distance_upto_permutation(a, b) == 0.0

    def test_relabeled_copy_with_equal_thetas_at_zero_distance(self):
        # above m=8 only the allocation columns can tell learners apart
        rng = np.random.default_rng(64)
        alpha = rng.dirichlet(np.ones(9), size=12)
        theta = np.zeros((9, 2))
        perm = rng.permutation(9)
        a = SystemState(alpha=alpha, theta=theta)
        b = SystemState(alpha=alpha[:, perm], theta=theta[perm, :])
        assert state_distance_upto_permutation(a, b) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.booleans())
    def test_matches_brute_force_minimum(self, seed, m, coarse):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 3))

        def draw():
            alpha = rng.dirichlet(np.ones(m), size=n)
            theta = rng.uniform(-1, 1, (m, d))
            if coarse:  # a coarse grid makes tied column distances common
                theta = np.round(theta, 1)
            return SystemState(alpha=alpha, theta=theta)

        a, b = draw(), draw()
        brute = min(max(float(np.abs(a.alpha[:, p] - b.alpha).max()),
                        float(np.abs(a.theta[p, :] - b.theta).max()))
                    for p in map(list, itertools.permutations(range(m))))
        assert state_distance_upto_permutation(a, b) == brute

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(7, 20), st.booleans())
    def test_matches_assignment_solver_beyond_brute_force(self, seed, m, near):
        # scipy's assignment solver decides every level independently: the
        # smallest level whose cheapest 0/1 assignment uses no pair above it
        from scipy.optimize import linear_sum_assignment
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        a = SystemState(alpha=rng.dirichlet(np.ones(m), size=n),
                        theta=np.round(rng.uniform(-1, 1, (m, 2)), 1))
        if near:  # a relabeled copy moved slightly
            perm = rng.permutation(m)
            b = SystemState(
                alpha=a.alpha[:, perm] + rng.uniform(0, 1e-3, (n, m)),
                theta=a.theta[perm] + np.round(rng.uniform(-1e-3, 1e-3, (m, 2)), 4))
        else:
            b = SystemState(alpha=rng.dirichlet(np.ones(m), size=n),
                            theta=np.round(rng.uniform(-1, 1, (m, 2)), 1))
        cost = np.maximum(
            np.abs(a.alpha[:, :, None] - b.alpha[:, None, :]).max(axis=0),
            np.abs(a.theta[:, None, :] - b.theta[None, :, :]).max(axis=2))
        expected = min(level for level in np.unique(cost)
                       if not (cost > level)[linear_sum_assignment(cost > level)].any())
        assert state_distance_upto_permutation(a, b) == expected

    def test_settled_at_the_bound_by_one_matching(self):
        # the largest row or column minimum is a lower bound; a relabeled copy
        # moved slightly reaches it, so one matching decides
        rng = np.random.default_rng(37)
        a = SystemState(alpha=rng.dirichlet(np.ones(6), size=4),
                        theta=rng.uniform(-1, 1, (6, 2)))
        perm = rng.permutation(6)
        b = SystemState(alpha=a.alpha[:, perm],
                        theta=a.theta[perm] + rng.uniform(0, 1e-3, (6, 2)))
        with mock.patch.object(engine, "_perfect_matching",
                               wraps=engine._perfect_matching) as spy:
            distance = state_distance_upto_permutation(a, b)
        assert spy.call_count == 1
        assert distance == np.abs(a.theta[perm] - b.theta).max()

    def test_bound_not_reached_when_two_rows_share_a_cheapest_column(self):
        # learners 0 and 1 of a are both 1 from learner 0 of b, and learner 2
        # of a is 2 from b's learners 1 and 2: every minimum is at most 2, yet
        # a relabeling must send learner 0 or 1 of a at least 9 away
        alpha = np.full((2, 3), 1 / 3)
        a = SystemState(alpha=alpha, theta=[[1.0, 0.0], [-1.0, 0.0], [10.0, 2.0]])
        b = SystemState(alpha=alpha, theta=[[0.0, 0.0], [10.0, 0.0], [10.0, 4.0]])
        brute = min(float(np.abs(a.theta[list(p)] - b.theta).max())
                    for p in itertools.permutations(range(3)))
        with mock.patch.object(engine, "_perfect_matching",
                               wraps=engine._perfect_matching) as spy:
            assert state_distance_upto_permutation(a, b) == brute == 9.0
        assert spy.call_count > 1

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("field", ["alpha", "theta"])
    def test_nan_entry_gives_nan(self, side, field):
        # a NaN leaves one learner with no finite distance: no relabeling
        # avoids it
        rng = np.random.default_rng(38)
        states = {k: {"alpha": rng.dirichlet(np.ones(3), size=2),
                      "theta": rng.uniform(-1, 1, (3, 1))} for k in "ab"}
        states[side][field][1, 1 if field == "alpha" else 0] = np.nan
        a, b = (SystemState(**states[k]) for k in "ab")
        assert np.isnan(state_distance_upto_permutation(a, b))

    def test_different_learner_counts_rejected(self):
        three = SystemState(alpha=np.full((2, 3), 1 / 3), theta=np.zeros((3, 1)))
        two = SystemState(alpha=np.full((2, 2), 0.5), theta=np.zeros((2, 1)))
        for a, b in ((three, two), (two, three)):
            with pytest.raises(DimensionError, match=re.escape(
                    f"alpha {a.alpha.shape} against {b.alpha.shape}, "
                    f"theta {a.theta.shape} against {b.theta.shape}")):
                state_distance_upto_permutation(a, b)

    def test_distinct_states_positive_distance(self):
        a = SystemState(alpha=np.array([[1.0, 0.0]]), theta=np.array([[0.0], [1.0]]))
        b = SystemState(alpha=np.array([[0.6, 0.4]]), theta=np.array([[0.0], [1.0]]))
        assert state_distance_upto_permutation(a, b) == pytest.approx(0.4)


@pytest.mark.parametrize("argument, value", [
    ("t", -1), ("t", -3), ("t", 1.5),
    ("m", 1.5), ("m", 2.0),
    ("max_steps", 2.5), ("max_steps", 2.0), ("max_steps", True),
    ("trials", 2.5), ("trials", 2.0), ("trials", True),
    ("probe max_steps", 2.5), ("probe max_steps", 2.0),
    ("probe max_steps", True),
])
def test_integer_arguments_are_checked_at_the_boundary(argument, value):
    # harmonic repeated GD divides by t + 1, so t = -1 would divide by zero
    sc = Scenario(beta=np.full(3, 1 / 3),
                  risks=tuple(quadratic_risk([c]) for c in (0.0, 1.0, 2.0)),
                  m=2, subpop_rule=mwud(), learner_rule=repeated_gd(base=0.4))
    state = SystemState(alpha=np.full((3, 2), 0.5), theta=np.array([[0.5], [1.5]]))
    assignment = SplitAssignment((0, 1, 1))
    eq_state = SystemState(assignment.to_alpha(2),
                           theta_for_assignment(assignment, sc))
    call = {
        "t": lambda v: simulate(sc, replace(state, t=v), 5),
        "m": lambda v: replace(sc, m=v),
        "max_steps": lambda v: simulate(sc, state, v),
        "trials": lambda v: empirical_stability_probe(sc, eq_state, 1e-3, v, 0),
        "probe max_steps": lambda v: empirical_stability_probe(
            sc, eq_state, 1e-3, 2, 0, max_steps=v),
    }[argument]
    name = argument.split()[-1]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        call(value)
