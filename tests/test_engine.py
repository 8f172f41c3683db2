import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popdyn import (
    EquilibriumDetector,
    MonotonicityError,
    NonFiniteError,
    Scenario,
    SystemState,
    UpdateSchedule,
    best_response,
    best_response_step,
    custom_risk,
    detect_equilibrium,
    empirical_stability_probe,
    full_min,
    full_minimize,
    gradient_step,
    mwud,
    mwud_step,
    perturb,
    quadratic_risk,
    repeated_gd,
    simulate,
    state_distance_upto_permutation,
    step,
    step_size,
    total_risk,
)
from popdyn.engine import _update_alpha, _update_theta
from popdyn.goldens import partition_pair_scenario, partition_pair_state

from conftest import random_scenario, random_state


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
        st = perturb(three_centers.initial_state, 1e-3, seed=5, target="theta_only")
        for _ in range(20):
            st = step(st, three_centers.scenario, check_contracts=True)

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
        nan_risk = custom_risk(1, value=lambda th: float("nan"),
                               gradient=lambda th: np.zeros(1),
                               hessian=lambda th: np.eye(1))
        sc = Scenario(beta=np.array([1.0]), risks=(nan_risk,), m=1,
                      subpop_rule=mwud(), learner_rule=repeated_gd())
        state = SystemState(alpha=np.ones((1, 1)), theta=np.zeros((1, 1)))
        with pytest.raises(MonotonicityError):
            step(state, sc)


class TestSimulate:
    def test_max_steps_boundary(self, three_centers):
        with pytest.raises(ValueError):
            simulate(three_centers.scenario, three_centers.initial_state, 0)
        traj = simulate(three_centers.scenario, three_centers.initial_state, 1)
        assert len(traj.states) == 2

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


class TestDetectEquilibrium:
    def test_stationary_trajectory_index_zero(self, three_centers):
        traj = simulate(three_centers.scenario, three_centers.initial_state, 30)
        assert detect_equilibrium(traj, EquilibriumDetector()) == 0

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
        assert detect_equilibrium(traj, EquilibriumDetector()) is None

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
        assert traj.converged_at == detect_equilibrium(traj, det)

    def test_tail_convergence_indexed_at_window_start(self, three_centers):
        st = perturb(three_centers.initial_state, 1e-3, seed=1, target="theta_only")
        traj = simulate(three_centers.scenario, st, 500, three_centers.detector)
        idx = traj.converged_at
        assert idx is not None and idx > 0
        assert detect_equilibrium(traj, three_centers.detector) == idx


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

    def test_unperturbed_trivially_returns(self, three_centers):
        frac = empirical_stability_probe(three_centers.scenario,
                                         three_centers.initial_state, 0.0, 1, seed=3)
        assert frac == 1.0

    def test_trials_must_be_positive(self, three_centers):
        with pytest.raises(ValueError):
            empirical_stability_probe(three_centers.scenario, three_centers.initial_state,
                                      1e-3, 0, seed=1)


class TestFastPathEquivalence:
    """The engine's vectorized paths must match the per-row / per-column
    operations exactly."""

    def test_vectorized_mwud_matches_row_updates(self):
        from popdyn.engine import _mwud_rows
        from popdyn import mwud_step
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
        schedule = UpdateSchedule(kind=schedule_kind, subpops=subpops)
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["full_min", "repeated_gd"]),
           st.integers(1, 4))
    def test_learner_kernel_matches_scalar_rules(self, seed, kind, inner_steps):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, n + 1))
        sc = random_scenario(rng, n, m, int(rng.integers(1, 4)), learner=kind)
        rule = sc.learner_rule
        if kind == "repeated_gd":
            rule = repeated_gd(base=rule.schedule.base, inner_steps=inner_steps)
        sc = replace(sc, learner_rule=rule)
        state = random_state(rng, sc)
        alpha = state.alpha.copy()
        alpha[:, 0] = 0.0  # learner 0 is empty and must stay frozen
        alpha = alpha / alpha.sum(axis=1, keepdims=True)
        t = int(rng.integers(0, 10))
        theta2, frozen = _update_theta(alpha, state.theta, sc, t)
        assert frozen == 1
        assert np.array_equal(theta2[0], state.theta[0])
        for j in range(1, m):
            if kind == "full_min":
                expected = full_minimize(alpha[:, j], sc.beta, sc.risks)
            else:
                expected = state.theta[j]
                for _ in range(inner_steps):
                    expected = gradient_step(expected, alpha[:, j], sc.beta,
                                             sc.risks,
                                             step_size(t, rule.schedule))
            assert np.abs(theta2[j] - expected).max() <= 1e-12

    def test_batched_minimization_matches_full_minimize(self):
        from popdyn.engine import _update_theta
        from popdyn import full_minimize
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            sc = random_scenario(rng, n, int(rng.integers(2, min(3, n) + 1)),
                                 int(rng.integers(1, 4)))
            state = random_state(rng, sc)
            theta2, frozen = _update_theta(state.alpha, state.theta, sc, 0)
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
        rule = repeated_gd(base=base.learner_rule.schedule.base,
                           inner_steps=3)
        sc = Scenario(beta=base.beta, risks=base.risks, m=2,
                      subpop_rule=base.subpop_rule, learner_rule=rule)
        traj = simulate(sc, random_state(rng, sc), 100,
                        check_contracts=True)
        assert np.all(np.diff(traj.total_risks) <= 1e-8)
        assert traj.contract_checks > 0

    def test_custom_risks_through_engine_and_classifier(self):
        from popdyn import Scenario, classify_state, custom_risk, full_min, mwud

        def make(center):
            return custom_risk(
                1,
                value=lambda th, c=center: float((th[0] - c) ** 4
                                                 + (th[0] - c) ** 2),
                gradient=lambda th, c=center: np.array(
                    [4 * (th[0] - c) ** 3 + 2 * (th[0] - c)]),
                hessian=lambda th, c=center: np.array(
                    [[12 * (th[0] - c) ** 2 + 2]]),
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

    def test_distinct_states_positive_distance(self):
        a = SystemState(alpha=np.array([[1.0, 0.0]]), theta=np.array([[0.0], [1.0]]))
        b = SystemState(alpha=np.array([[0.6, 0.4]]), theta=np.array([[0.0], [1.0]]))
        assert state_distance_upto_permutation(a, b) == pytest.approx(0.4)
