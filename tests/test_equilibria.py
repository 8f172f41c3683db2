import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popdyn
from popdyn import (
    BudgetError,
    EmptyLearnerError,
    NotOptimalError,
    Scenario,
    SplitAssignment,
    SplitError,
    SystemState,
    classify_state,
    custom_risk,
    enumerate_split_equilibria,
    example_c1_stability_predicate,
    full_min,
    mwud,
    potential_gradient,
    potential_value,
    quadratic_risk,
    risk_gradient,
    risk_value,
    simulate,
    split_learner,
    theta_for_assignment,
    total_risk,
)
from popdyn import equilibria
from popdyn.equilibria import (
    DEFAULT_BUDGET,
    STRICT_MARGIN,
    _split_catalog,
    _split_margins,
    _split_ranking,
    _stirling2,
    _subpop_gradient_norms,
    _welfare_optimum,
)
from popdyn.goldens import (
    partition_pair_scenario,
    partition_pair_state,
    two_group_gap_scenario,
)
from popdyn.model import EMPTY_MASS_TOL

from conftest import as_custom, random_scenario, random_state
from reference import convex_hulls_disjoint, full_minimize, split_margins


def _line_scenario(centers, beta=None, m=2, offsets=None):
    n = len(centers)
    beta = np.full(n, 1.0 / n) if beta is None else np.asarray(beta)
    offsets = offsets or [0.0] * n
    risks = tuple(quadratic_risk([c], offset=o)
                  for c, o in zip(centers, offsets))
    return Scenario(beta=beta, risks=risks, m=m, subpop_rule=mwud(),
                    learner_rule=full_min())


class TestPotentialValue:
    def test_three_center_split(self):
        sc = _line_scenario([0.0, 1.0, 2.0])
        alpha = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert potential_value(alpha, sc) == pytest.approx(1 / 6, abs=1e-12)

    def test_single_loaded_learner(self):
        sc = _line_scenario([0.0, 1.0], beta=[0.5, 0.5])
        alpha = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert potential_value(alpha, sc) == pytest.approx(0.25, abs=1e-12)

    def test_duplicated_columns_merge(self):
        rng = np.random.default_rng(40)
        centers = rng.uniform(-2, 2, 4)
        beta = rng.dirichlet(np.ones(4))
        two = _line_scenario(centers, beta=beta, m=2)
        one = _line_scenario(centers, beta=beta, m=1)
        # constant column shares: both learners observe the same mixture,
        # so F matches the merged single-learner value
        for c in (0.2, 0.5, 0.9):
            split = np.tile([c, 1.0 - c], (4, 1))
            assert potential_value(split, two) == pytest.approx(
                potential_value(np.ones((4, 1)), one), abs=1e-12)

    def test_rejects_bad_allocation(self):
        sc = _line_scenario([0.0, 1.0])
        with pytest.raises(Exception):
            potential_value(np.array([[0.5, 0.6], [0.5, 0.5]]), sc)


class TestPotentialGradient:
    def test_loaded_learner_entries(self):
        sc = _line_scenario([0.0, 1.0], beta=[0.5, 0.5])
        eps = 1e-9
        alpha = np.array([[1 - eps, eps], [1 - eps, eps]])
        G = potential_gradient(alpha, sc)
        assert np.allclose(G[:, 0], [1 / 8, 1 / 8], atol=1e-8)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        sc = random_scenario(rng, 4, 2, 2)
        alpha = rng.dirichlet(np.full(2, 5.0), size=4)
        G = potential_gradient(alpha, sc)
        h = 1e-6
        for _ in range(100):
            direction = rng.standard_normal((4, 2))
            direction -= direction.mean(axis=1, keepdims=True)  # simplex tangent
            direction /= np.abs(direction).max()
            fd = (potential_value(alpha + h * direction, sc)
                  - potential_value(alpha - h * direction, sc)) / (2 * h)
            analytic = float((G * direction).sum())
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))

    def test_empty_learner_rejected(self):
        sc = _line_scenario([0.0, 1.0])
        alpha = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(EmptyLearnerError):
            potential_gradient(alpha, sc)


class TestConcavity:
    def test_segment_probe(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            sc = random_scenario(rng, int(rng.integers(2, 5)),
                                 int(rng.integers(1, 3)),
                                 int(rng.integers(1, 3)))
            a = rng.dirichlet(np.ones(sc.m), size=sc.n)
            b = rng.dirichlet(np.ones(sc.m), size=sc.n)
            fa, fb = potential_value(a, sc), potential_value(b, sc)
            for lam in (0.1, 0.25, 0.5, 0.75, 0.9):
                mixed = potential_value(lam * a + (1 - lam) * b, sc)
                assert mixed >= lam * fa + (1 - lam) * fb - 1e-8


class TestClassifyState:
    def test_three_centers_partition_certified_stable(self):
        sc = _line_scenario([0.0, 1.0, 2.0], offsets=[1.0, 1.0, 1.0])
        assignment = SplitAssignment((0, 1, 1))
        state = SystemState(alpha=assignment.to_alpha(2),
                            theta=theta_for_assignment(assignment, sc))
        report = classify_state(state, sc)
        assert report.classification == "split_market"
        assert report.stability == "asymptotically_stable"
        assert report.margin == pytest.approx(0.75)
        assert report.total_risk == pytest.approx(1 + 1 / 6)

    def test_three_centers_balanced_point_unstable(self, three_centers):
        report = classify_state(three_centers.initial_state, three_centers.scenario)
        assert report.classification == "balanced_candidate"
        assert report.stability == "unstable"
        assert report.details["failed"] == ["optimality"]

    def test_identical_parameters_tie_is_unstable(self):
        # both subpopulations share a center, so the two singleton learners
        # hold identical parameters and no strict preference exists
        sc = _line_scenario([0.7, 0.7], beta=[0.5, 0.5])
        state = SystemState(alpha=np.eye(2), theta=np.array([[0.7], [0.7]]))
        report = classify_state(state, sc)
        assert report.classification == "split_market"
        assert report.stability == "unstable"
        assert report.margin == pytest.approx(0.0)

    def test_margin_inside_strict_margin_is_unstable(self):
        # each subpopulation would lose only 5e-10 by switching: a strict
        # preference, but not one beyond STRICT_MARGIN
        sc = _line_scenario([0.0, np.sqrt(5e-10)], beta=[0.5, 0.5])
        assignment = SplitAssignment((0, 1))
        state = SystemState(alpha=assignment.to_alpha(2),
                            theta=theta_for_assignment(assignment, sc))
        report = classify_state(state, sc)
        [row] = enumerate_split_equilibria(sc)
        assert row.assignment == assignment
        for r in (report, row):
            assert 0 < r.margin <= STRICT_MARGIN
            assert r.margin == pytest.approx(5e-10, rel=1e-6)
            assert r.stability == "unstable"

    def test_non_equilibrium_interior_state(self):
        rng = np.random.default_rng(44)
        sc = random_scenario(rng, 3, 2, 1)
        alpha = rng.dirichlet(np.ones(2), size=3)
        theta, _ = np.linalg.qr(rng.standard_normal((2, 2)))  # placeholder
        theta = np.vstack([
            full_minimize(alpha[:, j], sc.beta, sc.risks) for j in range(2)
        ])
        report = classify_state(SystemState(alpha=alpha, theta=theta), sc)
        assert report.classification == "non_equilibrium"

    def test_gate_rejects_suboptimal_parameters(self):
        sc = _line_scenario([0.0, 1.0, 2.0])
        assignment = SplitAssignment((0, 1, 1))
        state = SystemState(alpha=assignment.to_alpha(2),
                            theta=np.array([[0.3], [1.5]]))
        with pytest.raises(NotOptimalError):
            classify_state(state, sc)

    def test_binary_with_empty_learner_is_not_an_equilibrium(self):
        sc = _line_scenario([0.0, 1.0], beta=[0.5, 0.5])
        alpha = np.array([[1.0, 0.0], [1.0, 0.0]])
        theta = np.array([[0.5], [0.5]])
        report = classify_state(SystemState(alpha=alpha, theta=theta), sc)
        assert report.classification == "non_equilibrium"

    def test_uncovered_learner_blocks_stability(self):
        # residual shares above the empty-mass floor but below zero_tol: the
        # learner serves nobody, so the split market cannot be stable
        sc = _line_scenario([0.0, 1.0], beta=[0.5, 0.5])
        eps = 1e-9
        alpha = np.array([[1.0 - eps, eps], [1.0 - eps, eps]])
        theta = np.vstack([
            full_minimize(alpha[:, j], sc.beta, sc.risks) for j in range(2)
        ])
        report = classify_state(SystemState(alpha=alpha, theta=theta), sc)
        assert report.classification == "split_market"
        assert report.stability == "unstable"
        assert report.details["uncovered_learners"] == [1]

    def test_uncovered_learner_blocks_stability_at_a_positive_margin(self):
        # learner 2 holds 1e-9 shares of subpopulations 0 and 1 (above the
        # empty-mass floor) yet serves nobody, while every no-switching
        # inequality holds by about 24.94: only the uncovered learner makes
        # this split unstable
        sc = _line_scenario([0.0, 10.0, 10.5], m=3)
        eps = 1e-9
        alpha = np.array([[1.0 - eps, 0.0, eps], [0.0, 1.0 - eps, eps],
                          [0.0, 1.0, 0.0]])
        theta = np.vstack([
            full_minimize(alpha[:, j], sc.beta, sc.risks) for j in range(3)
        ])
        np.testing.assert_allclose(theta.ravel(), [0.0, 10.25, 5.0], atol=1e-6)
        report = classify_state(SystemState(alpha=alpha, theta=theta), sc)
        assert report.classification == "split_market"
        assert report.stability == "unstable"
        assert report.margin == pytest.approx(24.9375, abs=1e-6)
        assert report.details["uncovered_learners"] == [2]

    def test_single_learner_market_is_stable(self):
        sc = _line_scenario([0.0, 4.0], beta=[0.3, 0.7], m=1)
        state = SystemState(alpha=np.ones((2, 1)), theta=np.array([[2.8]]))
        report = classify_state(state, sc)
        assert report.classification == "split_market"
        assert report.stability == "asymptotically_stable"
        assert report.margin is None

    def test_welfare_gap_attached_when_budget_allows(self):
        sc = two_group_gap_scenario(0.4)
        state = partition_pair_state(sc)
        # the gate counts the S(3, 2) = 3 assignments dedupe visits, not 2^3
        for budget in (1000, 3):
            report = classify_state(state, sc, oracle_budget=budget)
            assert report.welfare_gap == pytest.approx(
                report.total_risk - 0.2, abs=1e-12)
        assert classify_state(state, sc, oracle_budget=2).welfare_gap is None


class TestBalancedEngineering:
    def _coincident_scenario(self, center=0.4):
        return _line_scenario([center, center], beta=[0.5, 0.5])

    def test_engineered_balanced_point_possibly_stable(self):
        sc = self._coincident_scenario()
        alpha = np.array([[0.3, 0.7], [0.55, 0.45]])
        theta = np.array([[0.4], [0.4]])
        report = classify_state(SystemState(alpha=alpha, theta=theta), sc)
        assert report.classification == "balanced_candidate"
        assert report.stability == "possibly_stable_not_asymptotic"

    def test_center_noise_destroys_balanced_verdicts(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            centers = 0.4 + 1e-3 * rng.standard_normal(2)
            sc = _line_scenario(centers, beta=[0.5, 0.5])
            for alpha in (np.full((2, 2), 0.5),
                          np.array([[0.3, 0.7], [0.55, 0.45]])):
                theta = np.vstack([
                    full_minimize(alpha[:, j], sc.beta, sc.risks)
                    for j in range(2)
                ])
                report = classify_state(SystemState(alpha=alpha, theta=theta),
                                        sc)
                assert not (report.classification == "balanced_candidate"
                            and report.stability
                            == "possibly_stable_not_asymptotic")


class TestC1Predicate:
    def test_hand_checked_line_instance(self):
        # ||phi2-phi3|| = 1 < (2/3) * min(1/(1/3), 2/(1/3)) = 2
        assert example_c1_stability_predicate([0.0], [1.0], [2.0], 1 / 3, 1 / 3)

    def test_coincident_group_centers_always_stable(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            phi = rng.uniform(-2, 2, 2)
            other = phi + rng.uniform(0.5, 2.0, 2)
            assert example_c1_stability_predicate(other, phi, phi, 0.2, 0.3)

    def test_mass_concentration_flips_with_classifier_agreement(self):
        # the lone center sits just beyond subpopulation 2, so concentrating
        # mass on subpopulation 3 drags the shared parameter away until
        # subpopulation 2 prefers to defect
        phi1, phi2, phi3 = [-0.5], [0.0], [1.0]
        flips = []
        for beta3 in np.linspace(0.05, 0.65, 30):
            beta2 = 0.3
            if beta2 + beta3 >= 0.99:
                continue
            pred = example_c1_stability_predicate(phi1, phi2, phi3, beta2,
                                                  beta3)
            sc = partition_pair_scenario(phi1, phi2, phi3, beta2, beta3)
            report = classify_state(partition_pair_state(sc), sc)
            certified = report.stability == "asymptotically_stable"
            if report.margin is not None and abs(report.margin) > 1e-6:
                assert pred == certified
            flips.append(pred)
        assert True in flips and False in flips

    def test_requires_positive_betas(self):
        with pytest.raises(ValueError):
            example_c1_stability_predicate([0.0], [1.0], [2.0], 0.0, 0.5)


class TestConvexHulls:
    def test_separated_intervals(self):
        assert convex_hulls_disjoint(SplitAssignment((0, 1, 1)),
                                     [[0.0], [1.0], [2.0]])

    def test_containment_intersects(self):
        assert not convex_hulls_disjoint(SplitAssignment((0, 1, 0)),
                                         [[0.0], [1.0], [2.0]])

    def test_2d_disjoint_triangles(self):
        centers = [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]]
        assert convex_hulls_disjoint(SplitAssignment((0, 0, 0, 1, 1, 1)),
                                     centers)

    def test_certified_stable_markets_have_disjoint_hulls(self):
        rng = np.random.default_rng(47)
        found = 0
        for _ in range(60):
            sc = random_scenario(rng, int(rng.integers(3, 6)), 2, 2,
                                 identity_curvature=True)
            for report in enumerate_split_equilibria(sc, dedupe=True):
                if report.stability != "asymptotically_stable":
                    continue
                found += 1
                assert convex_hulls_disjoint(report.assignment, sc.centers())
        assert found > 20


class TestEnumerate:
    def test_three_center_catalog(self):
        sc = _line_scenario([0.0, 1.0, 2.0])
        reports = enumerate_split_equilibria(sc, dedupe=True)
        risks = sorted(round(r.total_risk, 12) for r in reports)
        assert risks == pytest.approx([1 / 6, 1 / 6, 2 / 3])
        best = {tuple(r.assignment.gamma_map) for r in reports
                if abs(r.total_risk - 1 / 6) < 1e-12}
        assert best == {(0, 0, 1), (0, 1, 1)}

    def test_raw_vs_deduped_counts(self):
        sc = _line_scenario([0.0, 1.0, 2.0])
        assert len(enumerate_split_equilibria(sc, dedupe=False)) == 6
        assert len(enumerate_split_equilibria(sc, dedupe=True)) == 3

    def test_gap_family_optimum(self):
        sc = two_group_gap_scenario(0.4, 0.01)
        reports = enumerate_split_equilibria(sc, dedupe=True)
        assert reports[0].total_risk == pytest.approx(0.2, abs=1e-12)

    def test_full_segmentation_optimum(self):
        rng = np.random.default_rng(48)
        offsets = rng.uniform(0, 1, 3)
        beta = rng.dirichlet(np.ones(3))
        sc = _line_scenario([0.0, 2.0, 5.0], beta=beta, m=3,
                            offsets=list(offsets))
        reports = enumerate_split_equilibria(sc, dedupe=True)
        assert reports[0].total_risk == pytest.approx(float(beta @ offsets),
                                                      abs=1e-12)
        groups = reports[0].assignment.groups(3)
        assert all(len(g) == 1 for g in groups)

    def test_surjection_counts_match_combinatorial_oracle(self):
        def stirling2(n, m):
            if m in (0, n):
                return 1 if m == n or n == 0 else 0
            if m > n or m == 0:
                return 0
            return m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)

        rng = np.random.default_rng(49)
        sc = random_scenario(rng, 6, 3, 1)
        deduped = enumerate_split_equilibria(sc, dedupe=True)
        raw = enumerate_split_equilibria(sc, dedupe=False)
        assert len(deduped) == stirling2(6, 3) == 90
        assert len(raw) == 6 * stirling2(6, 3) == 540  # 3! * S(6,3)

    def test_budget_error_reports_required_count(self):
        rng = np.random.default_rng(50)
        sc = random_scenario(rng, 6, 3, 1)
        # dedupe visits the S(6, 3) = 90 canonical assignments, not 3^6
        with pytest.raises(BudgetError) as exc:
            enumerate_split_equilibria(sc, budget=89)
        assert exc.value.required == 90
        assert len(enumerate_split_equilibria(sc, budget=100)) == 90
        with pytest.raises(BudgetError) as exc:
            enumerate_split_equilibria(sc, dedupe=False, budget=100)
        assert exc.value.required == 3 ** 6

    def test_sorted_with_gaps(self):
        rng = np.random.default_rng(51)
        sc = random_scenario(rng, 5, 2, 2)
        reports = enumerate_split_equilibria(sc, dedupe=True)
        risks = [r.total_risk for r in reports]
        assert risks == sorted(risks)
        assert all(r.welfare_gap >= 0 for r in reports)
        assert reports[0].welfare_gap == 0.0


def _reference_catalog(scenario, dedupe):
    """The oracle one assignment at a time: every surjective map from
    itertools.product (first-occurrence labelled ones only with dedupe),
    each solved, evaluated and certified on its own."""
    n, m = scenario.n, scenario.m
    catalog = {}
    for gamma_map in itertools.product(range(m), repeat=n):
        if len(set(gamma_map)) != m:
            continue
        if dedupe and list(dict.fromkeys(gamma_map)) != list(range(m)):
            continue
        theta = theta_for_assignment(SplitAssignment(gamma_map), scenario)
        R = scenario.risk_matrix(theta)
        own = R[np.arange(n), list(gamma_map)]
        slacks = [R[i, j] - own[i] for i in range(n) for j in range(m)
                  if j != gamma_map[i]]
        margin = min(slacks) if slacks else None
        catalog[gamma_map] = (float(scenario.beta @ own), own, margin)
    return catalog


def _assert_matches_reference(scenario, dedupe):
    reports = enumerate_split_equilibria(scenario, dedupe=dedupe)
    catalog = _reference_catalog(scenario, dedupe)
    maps = [r.assignment.gamma_map for r in reports]
    assert len(maps) == len(catalog) and set(maps) == set(catalog)
    for r in reports:
        total, own, margin = catalog[r.assignment.gamma_map]
        assert r.total_risk == pytest.approx(total, abs=1e-12)
        np.testing.assert_allclose(r.per_subpop_risks, own, rtol=0, atol=1e-12)
        assert (r.margin is None) == (scenario.m == 1) == (margin is None)
        if margin is not None:
            assert r.margin == pytest.approx(margin, abs=1e-12)
        stable = margin is None or margin > STRICT_MARGIN
        assert r.stability == ("asymptotically_stable" if stable else "unstable")
    totals = [r.total_risk for r in reports]
    assert totals == sorted(totals)
    assert reports[0].welfare_gap == 0.0
    assert all(type(r.welfare_gap) is float
               and r.welfare_gap == t - totals[0] >= 0
               for r, t in zip(reports, totals))
    # the sort is stable, so exactly tied totals keep lexicographic order
    for a, b in zip(reports, reports[1:]):
        if a.total_risk == b.total_risk:
            assert a.assignment.gamma_map < b.assignment.gamma_map


class TestEnumerateAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.data(),
           st.sampled_from([1, 2]), st.booleans())
    def test_quadratic_catalog(self, seed, n, data, d, dedupe):
        m = data.draw(st.integers(1, n))
        scenario = random_scenario(np.random.default_rng(seed), n, m, d)
        _assert_matches_reference(scenario, dedupe)

    @pytest.mark.parametrize("dedupe", [True, False])
    def test_custom_risks_on_the_newton_path(self, dedupe):
        rng = np.random.default_rng(53)
        risks = []
        for center in rng.uniform(-2, 2, (4, 2)):
            # a strongly convex non-quadratic: |theta - c|^2 + softplus(sum)
            def value(th, c=center):
                return ((th - c) ** 2).sum(-1) + np.logaddexp(0, th.sum(-1))

            def gradient(th, c=center):
                return 2 * (th - c) + 1 / (1 + np.exp(-th.sum(-1, keepdims=True)))

            def hessian(th, c=center):
                s = 1 / (1 + np.exp(-th.sum(-1)))[..., None, None]
                return 2 * np.eye(2) + s * (1 - s) * np.ones((2, 2))

            risks.append(custom_risk(2, value, gradient, hessian))
        scenario = Scenario(beta=rng.dirichlet(np.ones(4)), risks=tuple(risks),
                            m=2, subpop_rule=mwud(), learner_rule=full_min())
        _assert_matches_reference(scenario, dedupe)

    def test_catalog_larger_than_a_report_chunk(self):
        sc = random_scenario(np.random.default_rng(54), 10, 3, 1)
        reports = enumerate_split_equilibria(sc, dedupe=True)
        maps = {r.assignment.gamma_map for r in reports}
        assert len(reports) == len(maps) == 9330   # S(10, 3)
        totals = [r.total_risk for r in reports]
        assert totals == sorted(totals)

    def test_exact_ties_in_lexicographic_order(self):
        sc = _line_scenario([0.0, 1.0, 2.0])
        maps = [r.assignment.gamma_map
                for r in enumerate_split_equilibria(sc, dedupe=False)]
        assert maps[:4] == [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
        maps = [r.assignment.gamma_map
                for r in enumerate_split_equilibria(sc, dedupe=True)]
        assert maps == [(0, 0, 1), (0, 1, 1), (0, 1, 0)]


class TestCatalogKeys:
    """The catalog keys each (assignment, learner) group by its member
    bitmask, in 64-bit words past n=64.  It numbers the keys through a table
    of all 2**n when that is not much larger than the keys, and sorts them
    otherwise; both number the same groups the same way."""

    @pytest.mark.parametrize("n, m", [(12, 11), (64, 63), (65, 64), (70, 69)])
    def test_sorted_keys_match_per_assignment_evaluation(self, n, m):
        sc = random_scenario(np.random.default_rng(n), n, m, 1)
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            rows, totals, *_ = _split_catalog(sc, True, DEFAULT_BUDGET)
        assert lexsort.call_count == 1   # 2**n far exceeds the S * m keys
        assert len(rows) == math.comb(n, 2)   # S(n, n - 1)
        expected = np.array([
            sc.beta @ sc.risk_matrix(theta_for_assignment(
                SplitAssignment(row), sc))[np.arange(n), row] for row in rows])
        assert np.abs(totals - expected).max() <= 1e-12
        assert expected[totals.argmin()] <= expected.min() + 1e-12

    @pytest.mark.parametrize("n, m, k", [(8, 2, 10), (10, 4, 30), (12, 11, 66)])
    def test_table_and_sort_give_one_partition(self, n, m, k):
        # k assignments alone are sorted; tiled until the keys reach 2**n,
        # the same assignments go through the table
        sc = random_scenario(np.random.default_rng(n), n, m, 1)
        rows = equilibria._assignments(n, m, True)[:k]
        out = {}
        for copies in (1, -(-2 ** n // (k * m))):
            with mock.patch.object(equilibria, "_assignments",
                                   lambda *_: np.tile(rows, (copies, 1))), \
                    mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
                out[lexsort.called] = _split_catalog(sc, True, DEFAULT_BUDGET)
            assert lexsort.called == (copies == 1)
        (_, sorted_totals, sorted_ids, sorted_R, sorted_member), (
            _, totals, ids, R, member) = out[True], out[False]
        assert np.array_equal(ids[:k], sorted_ids)
        assert np.array_equal(R, sorted_R)
        assert np.array_equal(member, sorted_member)
        assert np.array_equal(totals[:k], sorted_totals)


class TestOptimumAndCertificates:
    """classify_state reads the welfare optimum from the catalog's unsorted
    totals and certifies a split with the margin kernel enumerate uses: both
    agree with the sorted catalog bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.data(),
           st.sampled_from([1, 2]), st.booleans(), st.booleans())
    def test_classify_matches_the_catalog(self, seed, n, data, d, ties,
                                          custom):
        m = data.draw(st.integers(1, n))
        sc = random_scenario(np.random.default_rng(seed), n, m, d)
        if ties:   # two distinct risks at equal weights: exactly tied totals
            sc = replace(sc, beta=np.full(n, 1.0 / n),
                         risks=tuple(sc.risks[i % 2] for i in range(n)))
        if custom:
            sc = replace(sc, risks=tuple(as_custom(r) for r in sc.risks))
        rows = {}
        for dedupe in (False, True):
            reports = enumerate_split_equilibria(sc, dedupe=dedupe)
            totals = _split_catalog(sc, dedupe, DEFAULT_BUDGET)[1]
            assert float(totals.min()) == reports[0].total_risk
            rows.update((r.assignment.gamma_map, r) for r in reports)
        optimum = reports[0].total_risk   # classify_state dedupes
        for gamma_map, row in rows.items():
            assignment = SplitAssignment(gamma_map)
            state = SystemState(alpha=assignment.to_alpha(m),
                                theta=theta_for_assignment(assignment, sc))
            report = classify_state(state, sc, oracle_budget=DEFAULT_BUDGET)
            assert report.welfare_gap == report.total_risk - optimum
            assert report.margin == row.margin
            assert report.stability == row.stability
            if m == 1:
                assert report.margin is None
                assert report.stability == "asymptotically_stable"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 4),
           st.booleans())
    def test_subpop_gradient_norms_match_risk_gradient(self, seed, d, k,
                                                       custom):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        sc = random_scenario(rng, n, 1, d, identity_curvature=False)
        if custom:
            sc = replace(sc, risks=tuple(as_custom(r) for r in sc.risks))
        theta = rng.uniform(-3.0, 3.0, (k, d))
        expected = np.array([[np.linalg.norm(risk_gradient(r, th))
                              for th in theta] for r in sc.risks])
        out = _subpop_gradient_norms(sc, theta)
        assert out.shape == (n, k)
        assert np.abs(out - expected).max() <= 1e-12 * max(1.0, expected.max())


def _bits(x):
    """x's bit patterns, with every NaN as np.nan's."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


def _oracle_scenario(seed, n, m, d, custom, ties):
    sc = random_scenario(np.random.default_rng(seed), n, m, d)
    if ties:   # two distinct risks at equal weights: exactly tied totals
        sc = replace(sc, beta=np.full(n, 1.0 / n),
                     risks=tuple(sc.risks[i % 2] for i in range(n)))
    if custom:
        sc = replace(sc, risks=tuple(as_custom(r) for r in sc.risks))
    return sc


class TestStreamedOracle:
    """The margins are read chunk by chunk from per-group tables, and the
    welfare optimum walks prefix blocks against suffix tables over a table
    of every group: both agree with the whole-array forms bit for bit and
    hold no array that grows as S(n, m) * n."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 7), st.data(),
           st.sampled_from([1, 2]), st.booleans(), st.booleans(),
           st.sampled_from([1, 5, equilibria.CHUNK_CELLS]))
    def test_chunked_margins_match_the_reference(self, seed, n, data, d,
                                                 custom, nan, chunk):
        m = data.draw(st.integers(1, min(n, 4)))
        dedupe = data.draw(st.booleans())
        sc = _oracle_scenario(seed, n, m, d, custom, False)
        rows, _, gid, R, member = _split_catalog(sc, dedupe, DEFAULT_BUDGET)
        if nan:   # one group's risk for one subpopulation
            R = R.copy()
            R[data.draw(st.integers(0, len(R) - 1)),
              data.draw(st.integers(0, n - 1))] = np.nan
        want_own, want = split_margins([R[gid[:, j]] for j in range(m)], rows)
        own = np.empty(rows.shape)
        with mock.patch.object(equilibria, "CHUNK_CELLS", chunk):
            margins = _split_margins(R, member, gid, rows, own)
        assert np.array_equal(_bits(margins), _bits(want))
        assert np.array_equal(_bits(own), _bits(want_own))
        if m == 1:
            assert np.isposinf(margins[~np.isnan(margins)]).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.data(),
           st.booleans(), st.booleans())
    def test_reports_keep_their_own_risk_rows(self, seed, n, data, custom,
                                              dedupe):
        m = data.draw(st.integers(1, min(n, 4)))
        sc = _oracle_scenario(seed, n, m, 2, custom, False)
        rows, totals, gid, R, _ = _split_catalog(sc, dedupe, DEFAULT_BUDGET)
        order = np.argsort(totals, kind="stable")
        own, margins = split_margins(
            [R[gid[order, j]] for j in range(m)], rows[order])
        reports = enumerate_split_equilibria(sc, dedupe=dedupe)
        assert np.array_equal(_bits([r.per_subpop_risks for r in reports]),
                              _bits(own))
        assert [r.margin for r in reports] == (
            margins.tolist() if m > 1 else [None] * len(reports))
        assert _split_ranking(sc, dedupe, DEFAULT_BUDGET)[3] is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8), st.data(),
           st.sampled_from([1, 2, 3]), st.booleans(), st.booleans(),
           st.sampled_from([1, 7, equilibria.CHUNK_CELLS]))
    def test_optimum_is_the_first_report(self, seed, n, data, d, custom,
                                         ties, chunk):
        m = data.draw(st.integers(1, min(n, 5)))
        sc = _oracle_scenario(seed, n, m, d, custom and n <= 6, ties)
        # the catalog is read only where 2**n outgrows its S(n, m) * m keys
        catalog = 2 ** n > 2 * m * _stirling2(n, m)
        with mock.patch.object(equilibria, "CHUNK_CELLS", chunk), \
                mock.patch.object(equilibria, "_split_catalog",
                                  wraps=_split_catalog) as spy:
            optimum = _welfare_optimum(sc, DEFAULT_BUDGET)
        assert spy.called == catalog
        first = enumerate_split_equilibria(sc, dedupe=True)[0].total_risk
        assert _bits(optimum) == _bits(first)

    def test_optimum_budget_rule(self):
        sc = random_scenario(np.random.default_rng(7), 8, 3, 1)
        count = _stirling2(8, 3)
        assert _welfare_optimum(sc, count) == float(
            _split_catalog(sc, True, count)[1].min())
        with pytest.raises(BudgetError):
            _welfare_optimum(sc, count - 1)

    def test_optimum_keeps_a_nan_total(self):
        # a NaN group value makes the catalog's least total NaN, and so the
        # streamed minimum, after blocks of finite totals
        sc = random_scenario(np.random.default_rng(8), 8, 3, 1)
        real = equilibria.minimize_mixtures

        def spoiled(scenario, W):   # subpopulation 0 alone has a NaN optimum
            theta = real(scenario, W)
            theta[(W[0] > 0) & ~(W[1:] > 0).any(axis=0)] = np.nan
            return theta

        with mock.patch.object(equilibria, "minimize_mixtures", spoiled):
            assert np.isnan(_split_catalog(sc, True, DEFAULT_BUDGET)[1].min())
            assert np.isnan(_welfare_optimum(sc, DEFAULT_BUDGET))

    @staticmethod
    def _peak(fn, *args):
        import tracemalloc
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_optimum_holds_less_than_one_float_per_assignment(self):
        n, m = 13, 4
        sc = random_scenario(np.random.default_rng(13), n, m, 1)
        # the catalog's totals alone were S(n, m) float64s
        assert self._peak(_welfare_optimum, sc, DEFAULT_BUDGET) < (
            8 * _stirling2(n, m))

    def test_ranking_holds_less_than_one_float_table(self):
        n, m = 12, 4
        sc = random_scenario(np.random.default_rng(12), n, m, 1)
        assert self._peak(_split_ranking, sc, True, DEFAULT_BUDGET) < (
            8 * _stirling2(n, m) * n)


class TestWelfareGap:
    def test_positive_for_locked_in_equilibrium(self):
        sc = two_group_gap_scenario(0.4, 0.01)
        state = partition_pair_state(sc)
        report = classify_state(state, sc, oracle_budget=DEFAULT_BUDGET)
        assert report.welfare_gap == pytest.approx(0.32801333333333343,
                                                   abs=1e-12)

    def test_simulated_fixed_points_dominated(self):
        from popdyn import EquilibriumDetector, simulate
        rng = np.random.default_rng(52)
        for _ in range(10):
            sc = random_scenario(rng, 4, 2, 1, gamma_range=(1.0, 3.0))
            traj = simulate(sc, random_state(rng, sc), 400,
                            EquilibriumDetector())
            if traj.converged_at is None:
                continue
            report = classify_state(traj.final_state, sc,
                                    oracle_budget=DEFAULT_BUDGET)
            assert report.welfare_gap >= -1e-8


class TestSplitLearner:
    def _converged_split(self):
        sc = _line_scenario([0.0, 1.0, 2.0], offsets=[1.0, 1.0, 1.0])
        assignment = SplitAssignment((0, 1, 1))
        state = SystemState(alpha=assignment.to_alpha(2),
                            theta=theta_for_assignment(assignment, sc))
        return sc, state

    def test_total_risk_unchanged(self):
        sc, state = self._converged_split()
        new_state, new_sc = split_learner(state, sc, 1)
        assert total_risk(new_state, new_sc) == pytest.approx(
            total_risk(state, sc), abs=1e-12)
        assert new_sc.m == 3
        assert np.array_equal(new_state.theta[1], new_state.theta[2])

    def test_duplicated_nonoptimal_group_is_unstable(self):
        sc, state = self._converged_split()
        new_state, new_sc = split_learner(state, sc, 1)
        report = classify_state(new_state, new_sc)
        assert report.classification == "balanced_candidate"
        assert report.stability == "unstable"

    def test_duplicated_singleton_group_stays_balanced(self):
        sc, state = self._converged_split()
        new_state, new_sc = split_learner(state, sc, 0)
        report = classify_state(new_state, new_sc)
        assert report.classification == "balanced_candidate"
        assert report.stability == "possibly_stable_not_asymptotic"

    def test_cannot_split_when_m_equals_n(self):
        rng = np.random.default_rng(53)
        sc = random_scenario(rng, 2, 2, 1)
        state = random_state(rng, sc)
        with pytest.raises(SplitError):
            split_learner(state, sc, 0)

    @pytest.mark.parametrize("j, message", [
        (1.5, "j must be an integer >= 0, got 1.5"),
        (True, "j must be an integer >= 0, got True"),
        (-1, "j must be an integer >= 0, got -1"),
        (2, "j must be < m=2, got 2"),
    ])
    def test_learner_index_is_checked(self, j, message):
        sc, state = self._converged_split()
        with pytest.raises(ValueError) as exc:
            split_learner(state, sc, j)
        assert str(exc.value) == message

    def test_numpy_integer_index_is_accepted(self):
        sc, state = self._converged_split()
        a, _ = split_learner(state, sc, np.int64(1))
        b, _ = split_learner(state, sc, 1)
        assert np.array_equal(a.alpha, b.alpha)


def _scalar_minimizers(alpha, scenario):
    """Per-learner full_minimize, empty learners left at 0 and flagged."""
    theta = np.zeros((scenario.m, scenario.d))
    empty = np.zeros(scenario.m, dtype=bool)
    for j in range(scenario.m):
        empty[j] = scenario.beta @ alpha[:, j] < EMPTY_MASS_TOL
        if not empty[j]:
            theta[j] = full_minimize(alpha[:, j], scenario.beta, scenario.risks)
    return theta, empty


class TestAgainstScalarReference:
    """Potential, gradient and split minimizers against per-learner
    full_minimize and risk_value."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.booleans())
    def test_potential_and_gradient(self, seed, d, with_empty):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        sc = random_scenario(rng, n, int(rng.integers(1, n + 1)), d)
        alpha = rng.dirichlet(np.ones(sc.m), size=n)
        if with_empty and sc.m > 1:
            alpha[:, 0] = 0.0
            alpha /= alpha.sum(axis=1, keepdims=True)
        theta, empty = _scalar_minimizers(alpha, sc)
        R = np.array([[risk_value(r, th) for th in theta] for r in sc.risks])
        expected = sum(sc.beta[i] * alpha[i, j] * R[i, j]
                       for i in range(n) for j in range(sc.m) if not empty[j])
        assert abs(potential_value(alpha, sc) - expected) <= 1e-12
        if empty.any():
            with pytest.raises(EmptyLearnerError):
                potential_gradient(alpha, sc)
        else:
            G = potential_gradient(alpha, sc)
            assert np.abs(G - sc.beta[:, None] * R).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.data())
    def test_theta_for_assignment(self, seed, d, data):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        m = data.draw(st.integers(1, n))
        sc = random_scenario(rng, n, m, d)
        gamma_map = tuple(data.draw(st.lists(st.integers(0, m - 1),
                                             min_size=n, max_size=n)))
        assignment = SplitAssignment(gamma_map)
        theta, empty = _scalar_minimizers(assignment.to_alpha(m), sc)
        out = theta_for_assignment(assignment, sc)
        assert np.abs(out - theta).max() <= 1e-12
        assert np.all(out[empty] == 0.0)


class TestThetaForAssignment:
    @pytest.mark.parametrize("gamma_map", [(0, 1, 2), (0, 1), (0, 1, 1, 1)])
    def test_rejects_a_map_that_does_not_fit(self, three_centers, gamma_map):
        with pytest.raises(ValueError) as exc:
            theta_for_assignment(SplitAssignment(gamma_map),
                                 three_centers.scenario)
        assert str(exc.value) == (f"gamma map {gamma_map} must have 3 "
                                  "learner indices in [0, 2)")

    def test_rejects_a_negative_index(self):
        with pytest.raises(ValueError, match="learner indices must be nonnegative"):
            SplitAssignment((-1, 0))

    @pytest.mark.parametrize("method", ["to_alpha", "groups"])
    def test_rejects_an_index_beyond_m(self, method):
        with pytest.raises(ValueError) as exc:
            getattr(SplitAssignment((0, 1, 2)), method)(2)
        assert str(exc.value) == ("gamma map (0, 1, 2) has a learner index "
                                  ">= m=2")


class TestEquilibriumReportFields:
    def test_verdicts_are_plain_strings(self):
        sc = _line_scenario([0.0, 1.0, 2.0])
        reports = enumerate_split_equilibria(sc)
        best = reports[0].assignment
        state = SystemState(alpha=best.to_alpha(2),
                            theta=theta_for_assignment(best, sc))
        reports.append(classify_state(state, sc))
        assert {type(r.stability) for r in reports} == {str}
        assert reports[-1].stability == "asymptotically_stable"

    @pytest.mark.parametrize("fields, message", [
        ({"classification": "stable"}, "unknown classification 'stable'"),
        ({"stability": "stable"}, "unknown stability 'stable'"),
        ({"classification": "balanced_candidate",
          "stability": "asymptotically_stable"},
         "only split markets can be asymptotically stable"),
        ({"welfare_gap": -1e-6}, "welfare gap -1e-06 below -1e-08"),
    ], ids=["classification", "stability", "stable-non-split", "negative-gap"])
    def test_rejects_inconsistent_fields(self, fields, message):
        report = {"classification": "split_market", "stability": "unstable",
                  "total_risk": 1.0, "per_subpop_risks": np.ones(2), **fields}
        with pytest.raises(ValueError) as exc:
            equilibria.EquilibriumReport(**report)
        assert str(exc.value) == message


class TestOneKernel:
    def test_quadratic_paths_make_no_per_group_solve(self, monkeypatch):
        # every quadratic minimization runs through the batched normal
        # equations, so the damped Newton must never be reached
        import popdyn.learners

        def forbidden(*args, **kwargs):
            raise AssertionError("damped Newton called on a quadratic path")

        monkeypatch.setattr(popdyn.learners, "group_minimize", forbidden)
        monkeypatch.setattr(popdyn.learners, "_newton", forbidden)
        rng = np.random.default_rng(63)
        sc = random_scenario(rng, 6, 3, 2)
        reports = enumerate_split_equilibria(sc, dedupe=True)
        assert len(reports) == 90   # S(6, 3)
        theta = theta_for_assignment(reports[0].assignment, sc)
        assert theta.shape == (3, 2)
        state = random_state(rng, sc)
        assert np.isfinite(potential_value(state.alpha, sc))
        traj = simulate(sc, state, max_steps=20)
        assert len(traj.states) > 1
