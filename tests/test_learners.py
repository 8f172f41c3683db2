from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popdyn import (
    ConvergenceError,
    EmptyLearnerError,
    LearnerRule,
    Scenario,
    SystemState,
    custom_risk,
    full_min,
    group_minimize,
    mwud,
    quadratic_risk,
    repeated_gd,
    simulate,
    step_size,
)
from popdyn.learners import minimize_mixtures, mixture_gradients

from conftest import as_custom, random_scenario
from reference import (
    full_minimize,
    gradient_step,
    learner_avg_risk,
    learner_gradient,
    newton_minimize,
)


class TestStepSize:
    def test_harmonic_at_origin(self):
        assert step_size(0, repeated_gd(form="harmonic", base=1.0)) == 1.0

    def test_harmonic_tenth_step(self):
        assert step_size(9, repeated_gd(form="harmonic", base=1.0)) == pytest.approx(0.1)

    def test_constant(self):
        rule = repeated_gd(form="constant", base=0.3)
        assert step_size(0, rule) == step_size(1000, rule) == 0.3

    def test_harmonic_partial_sums_diverge(self):
        # sum of 1/(t+1) up to 1e6 exceeds 10 (infinite-travel condition)
        t = np.arange(1_000_000)
        assert (1.0 / (t + 1)).sum() > 10.0

    def test_base_must_be_positive(self):
        with pytest.raises(ValueError):
            repeated_gd(base=0.0)


class TestGradientStep:
    def test_fixed_at_weighted_minimizer(self):
        risks = (quadratic_risk([0.0]), quadratic_risk([1.0]))
        beta = np.array([0.5, 0.5])
        col = np.array([1.0, 1.0])
        theta = np.array([0.5])
        out = gradient_step(theta, col, beta, risks, 0.1)
        assert np.allclose(out, theta)

    def test_hand_computed_step(self):
        risks = (quadratic_risk([0.0]),)
        out = gradient_step(np.array([1.0]), np.array([1.0]), np.array([1.0]),
                            risks, 0.25)
        assert out[0] == pytest.approx(0.5)

    def test_descent_lemma_on_random_instances(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            risks = []
            max_eig = 0.0
            for _ in range(n):
                Q = rng.standard_normal((d, d))
                A = Q @ Q.T + 0.2 * np.eye(d)
                max_eig = max(max_eig, np.linalg.eigvalsh(A).max())
                risks.append(quadratic_risk(rng.uniform(-1, 1, d), A))
            beta = rng.dirichlet(np.ones(n)) if n > 1 else np.array([1.0])
            col = rng.uniform(0.1, 1.0, n)
            theta = rng.uniform(-2, 2, d)
            # descent holds for steps below 1/(2 max_eig) = 1/lambda_max(Hessian)
            gamma = 0.9 / (2 * max_eig)
            out = gradient_step(theta, col, beta, tuple(risks), gamma)
            assert (learner_avg_risk(col, beta, tuple(risks), out)
                    <= learner_avg_risk(col, beta, tuple(risks), theta) + 1e-10)

    def test_empty_learner_raises(self):
        risks = (quadratic_risk([0.0]),)
        with pytest.raises(EmptyLearnerError):
            gradient_step(np.array([1.0]), np.array([0.0]), np.array([1.0]),
                          risks, 0.1)


class TestFullMinimize:
    def test_symmetric_mean(self):
        risks = tuple(quadratic_risk([float(c)]) for c in (0, 1, 2))
        beta = np.full(3, 1 / 3)
        out = full_minimize(np.ones(3), beta, risks)
        assert out[0] == pytest.approx(1.0)

    def test_minority_closed_form(self):
        for beta in (0.1, 0.3, 0.45):
            phi = 7.0
            risks = (quadratic_risk([0.0]), quadratic_risk([phi]))
            out = full_minimize(np.ones(2), np.array([beta, 1 - beta]), risks)
            assert out[0] == pytest.approx((1 - beta) * phi, abs=1e-12)

    def test_pair_group_weighted_mean(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            b2, b3 = rng.uniform(0.05, 0.45, 2)
            p2, p3 = rng.uniform(-3, 3, 2)
            risks = (quadratic_risk([p2]), quadratic_risk([p3]))
            out = full_minimize(np.ones(2), np.array([b2, b3]) / (b2 + b3),
                                risks)
            expected = (b2 * p2 + b3 * p3) / (b2 + b3)
            assert out[0] == pytest.approx(expected, abs=1e-12)

    def test_newton_agrees_with_closed_form(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            risks = []
            for _ in range(n):
                Q = rng.standard_normal((d, d))
                risks.append(quadratic_risk(rng.uniform(-1, 1, d),
                                            Q @ Q.T + 0.3 * np.eye(d)))
            beta = rng.dirichlet(np.ones(n)) if n > 1 else np.array([1.0])
            col = rng.uniform(0.1, 1.0, n)
            closed = full_minimize(col, beta, tuple(risks))
            newton = full_minimize(col, beta, tuple(risks), method="newton")
            assert np.abs(closed - newton).max() <= 1e-8

    def test_first_order_optimality(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            risks = tuple(quadratic_risk(rng.uniform(-1, 1, d)) for _ in range(n))
            beta = rng.dirichlet(np.ones(n)) if n > 1 else np.array([1.0])
            col = rng.uniform(0.1, 1.0, n)
            out = full_minimize(col, beta, risks)
            g = learner_gradient(out, col, beta, risks)
            assert np.linalg.norm(g) <= 1e-9

    def test_identity_curvature_output_in_hull(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            n, d = int(rng.integers(2, 5)), 2
            centers = rng.uniform(-2, 2, (n, d))
            risks = tuple(quadratic_risk(c) for c in centers)
            beta = rng.dirichlet(np.ones(n))
            col = rng.uniform(0.05, 1.0, n)
            out = full_minimize(col, beta, risks)
            w = col * beta
            w = w / w.sum()
            assert np.abs(out - w @ centers).max() <= 1e-12

    def test_custom_risk_newton(self):
        quartic = custom_risk(
            1,
            value=lambda th: th[..., 0] ** 4 + th[..., 0] ** 2,
            gradient=lambda th: 4 * th ** 3 + 2 * th,
            hessian=lambda th: (12 * th ** 2 + 2)[..., None],
        )
        out = full_minimize(np.array([1.0]), np.array([1.0]), (quartic,),
                            method="newton", start=np.array([5.0]))
        assert abs(out[0]) <= 1e-9
        assert abs(group_minimize([1.0], (quartic,), start=[5.0])[0]) <= 1e-9

    def test_newton_iteration_budget(self):
        quartic = custom_risk(
            1,
            value=lambda th: th[..., 0] ** 4 + th[..., 0] ** 2,
            gradient=lambda th: 4 * th ** 3 + 2 * th,
            hessian=lambda th: (12 * th ** 2 + 2)[..., None],
        )
        with pytest.raises(ConvergenceError):
            full_minimize(np.array([1.0]), np.array([1.0]), (quartic,),
                          method="newton", max_iterations=1,
                          start=np.array([50.0]))
        with pytest.raises(ConvergenceError, match="did not reach gradient norm"):
            group_minimize([1.0], (quartic,), max_iterations=1, start=[50.0])

    def test_newton_start_within_rounding_of_optimum(self):
        # the full Newton step lowers the objective by less than its rounding:
        # the start is optimal to working precision, not a convergence failure
        def quad(a, c, o):
            return custom_risk(1, lambda th: a * (th[..., 0] - c) ** 2 + o,
                               lambda th: 2 * a * (th - c),
                               lambda th: np.full(th.shape + (1,), 2 * a))

        rng = np.random.default_rng(0)
        for _ in range(300):
            a, c, o = (rng.uniform(0.5, 2.0, 3), rng.uniform(-2, 2, 3),
                       rng.uniform(0, 1, 3))
            w = np.array([4e-9, 0.53, 9e-6]) * rng.uniform(0.9, 1.1, 3)
            h = (w * a).sum()
            g0 = rng.uniform(5e-10, 5e-9) * rng.choice([-1, 1])
            start = np.array([(w * a * c).sum() / h + g0 / (2 * h)])
            risks = [quad(*p) for p in zip(a, c, o)]
            out = group_minimize(w, risks, tolerance=1e-10, start=start)
            value = lambda th: sum(wi * r.value_fn(th) for wi, r in zip(w, risks))
            assert value(out) <= value(start)

    def test_empty_learner_raises(self):
        risks = (quadratic_risk([0.0]),)
        with pytest.raises(EmptyLearnerError):
            full_minimize(np.array([0.0]), np.array([1.0]), risks)

    def test_gradient_descent_converges_to_full_min(self):
        # harmonic schedule with base c: error contracts like T^(-2 lambda c);
        # identity curvature (lambda = 1) and c = 0.45 give T^(-0.9)
        rng = np.random.default_rng(25)
        risks = tuple(quadratic_risk(rng.uniform(-1, 1, 1)) for _ in range(3))
        beta = np.array([0.2, 0.5, 0.3])
        col = np.array([0.7, 0.2, 0.9])
        target = full_minimize(col, beta, risks)
        theta = target + 0.4
        for t in range(10_000):
            theta = gradient_step(theta, col, beta, risks, 0.45 / (t + 1))
        assert np.abs(theta - target).max() <= 1e-4


class TestVerifyLearnerRiskReducing:
    def test_full_minimize_output(self):
        rng = np.random.default_rng(26)
        risks = tuple(quadratic_risk(rng.uniform(-1, 1, 2)) for _ in range(3))
        beta = np.array([0.3, 0.3, 0.4])
        col = np.array([0.5, 0.1, 0.9])
        start = rng.uniform(-3, 3, 2)
        out = full_minimize(col, beta, risks)
        assert (learner_avg_risk(col, beta, risks, out)
                <= learner_avg_risk(col, beta, risks, start) + 1e-10)

    def test_ascent_step_fails(self):
        risks = (quadratic_risk([0.0]),)
        beta = np.array([1.0])
        col = np.array([1.0])
        theta = np.array([1.0])
        worse = np.array([2.0])
        assert not (learner_avg_risk(col, beta, risks, worse)
                    <= learner_avg_risk(col, beta, risks, theta) + 1e-10)
        assert learner_avg_risk(col, beta, risks, worse) > learner_avg_risk(
            col, beta, risks, theta)


class TestRuleValidation:
    def test_inner_steps_positive(self):
        with pytest.raises(ValueError):
            LearnerRule(kind="repeated_gd", inner_steps=0)

    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            LearnerRule(kind="full_min", tolerance=0.0)

    @pytest.mark.parametrize("field", ["inner_steps", "max_iterations"])
    @pytest.mark.parametrize("value", [2.5, "3", None, True])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            LearnerRule(kind="full_min", **{field: value})


def _softplus_risks(centers):
    """Strongly convex non-quadratic risks |theta - c|^2 + softplus(sum)."""
    risks = []
    for center in centers:
        d = len(center)

        def value(th, c=center):
            return ((th - c) ** 2).sum(-1) + np.logaddexp(0, th.sum(-1))

        def gradient(th, c=center):
            return 2 * (th - c) + 1 / (1 + np.exp(-th.sum(-1, keepdims=True)))

        def hessian(th, d=d):
            s = 1 / (1 + np.exp(-th.sum(-1)))[..., None, None]
            return 2 * np.eye(d) + s * (1 - s) * np.ones((d, d))

        risks.append(custom_risk(d, value, gradient, hessian))
    return tuple(risks)


def _mixture_weights(rng, n, k):
    """(n, k) nonnegative weights, some exactly zero, every column massive."""
    W = rng.uniform(0.0, 1.0, (n, k)) * (rng.random((n, k)) < 0.7)
    W[rng.integers(0, n, k), np.arange(k)] += 0.5
    return W


class TestMinimizeMixtures:
    """The batched kernel agrees with the closed-form reference and with
    group_minimize column by column."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(0, 5))
    def test_closed_form_matches_full_minimize(self, seed, d, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        sc = random_scenario(rng, n, 1, d)
        W = _mixture_weights(rng, n, k)
        out = minimize_mixtures(sc, W)
        assert out.shape == (k, d)
        for j in range(k):
            expected = full_minimize(W[:, j], np.ones(n), sc.risks)
            assert np.abs(out[j] - expected).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(0, 4))
    def test_newton_from_start_matches_group_minimize(self, seed, d, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        sc = random_scenario(rng, n, 1, d)
        sc = replace(sc, risks=tuple(as_custom(r) for r in sc.risks))
        W = _mixture_weights(rng, n, k)
        start = rng.uniform(-3.0, 3.0, (k, d))
        out = minimize_mixtures(sc, W, start=start)
        assert out.shape == (k, d)
        for j in range(k):
            expected = group_minimize(W[:, j], sc.risks, start=start[j])
            assert np.abs(out[j] - expected).max() <= 1e-12
            expected = newton_minimize(W[:, j], sc.risks, start=start[j])
            assert np.abs(out[j] - expected).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 5),
           st.booleans(), st.booleans())
    def test_held_columns_keep_their_start(self, seed, d, k, custom, started):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        sc = random_scenario(rng, n, 1, d)
        if custom:
            sc = replace(sc, risks=tuple(as_custom(r) for r in sc.risks))
        W = _mixture_weights(rng, n, k)
        hold = rng.random(k) < 0.5
        W[:, hold & (rng.random(k) < 0.5)] = 0.0   # held columns may be empty
        start = rng.uniform(-3.0, 3.0, (k, d)) if started else None
        out = minimize_mixtures(sc, W, start=start, hold=hold)
        assert out.shape == (k, d)
        for j in range(k):
            if hold[j]:
                assert np.array_equal(out[j], start[j] if started else np.zeros(d))
            else:
                expected = full_minimize(W[:, j], np.ones(n), sc.risks)
                assert np.abs(out[j] - expected).max() <= 1e-12

    @pytest.mark.parametrize("custom", [False, True])
    def test_held_empty_column_does_not_raise(self, custom):
        sc = Scenario(beta=np.array([0.5, 0.5]),
                      risks=(quadratic_risk([0.0]), quadratic_risk([2.0])), m=2,
                      subpop_rule=mwud(), learner_rule=full_min())
        if custom:
            sc = replace(sc, risks=tuple(as_custom(r) for r in sc.risks))
        W = np.array([[0.5, 0.0], [0.5, 0.0]])
        out = minimize_mixtures(sc, W, hold=np.array([False, True]))
        assert out.tolist() == [[1.0], [0.0]]
        # unheld, the empty column is the same error for either kind of risk
        with pytest.raises(EmptyLearnerError,
                           match=r"^mixture column W\[:, 1\] has no positive weight$"):
            minimize_mixtures(sc, W)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_custom_risks_match_group_minimize(self, k):
        rng = np.random.default_rng(27)
        risks = _softplus_risks(rng.uniform(-2, 2, (4, 2)))
        sc = Scenario(beta=rng.dirichlet(np.ones(4)), risks=risks, m=1,
                      subpop_rule=mwud(), learner_rule=full_min())
        W = _mixture_weights(rng, 4, k)
        # a loose tolerance stops Newton at a point that depends on the start
        start = rng.uniform(-3.0, 3.0, (k, 2))
        out = minimize_mixtures(sc, W, tolerance=1e-3, start=start)
        assert out.shape == (k, 2)
        for j in range(k):
            expected = group_minimize(W[:, j], risks, tolerance=1e-3,
                                      start=start[j])
            assert np.abs(out[j] - expected).max() <= 1e-12
            expected = newton_minimize(W[:, j], risks, tolerance=1e-3,
                                       start=start[j])
            assert np.abs(out[j] - expected).max() <= 1e-12


def _diagonal_scenario(rng, n, d):
    # curvature diagonals spanning 1e-8 to 1e8
    risks = tuple(quadratic_risk(rng.uniform(-3.0, 3.0, d),
                                 np.diag(10.0 ** rng.uniform(-8.0, 8.0, d)))
                  for _ in range(n))
    return Scenario(beta=np.full(n, 1.0 / n), risks=risks, m=1,
                    subpop_rule=mwud(), learner_rule=full_min())


class TestDiagonalSolve:
    """With every curvature diagonal, minimize_mixtures divides b by the
    diagonal of H instead of calling LAPACK, and returns LAPACK's solution
    bit for bit, but for the sign of a zero."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 5),
           st.sampled_from([(), (1,), (3,), (2, 2)]), st.booleans(),
           st.booleans())
    def test_division_is_lapacks_solve(self, seed, d, k, lead, held, started):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        sc = _diagonal_scenario(rng, n, d)
        W = np.stack([_mixture_weights(rng, n, k)
                      for _ in np.ndindex(*lead)]).reshape(*lead, n, k)
        hold = rng.random((*lead, k)) < 0.5 if held else None
        if held:   # a held column may be empty
            W = np.where(hold[..., None, :] & (rng.random(hold.shape) < 0.5)
                         [..., None, :], 0.0, W)
        start = rng.uniform(-3.0, 3.0, (*lead, k, d)) if started else None
        if started:
            start[rng.random(start.shape) < 0.2] = -0.0
        H, b = sc.normal_equations(W)
        if held:
            H = np.where(hold[..., None, None], np.eye(d), H)
            b = np.where(hold[..., None], 0.0 if start is None else start, b)
        expected = np.linalg.solve(H, b[..., None])[..., 0]
        with mock.patch("numpy.linalg.solve",
                        side_effect=AssertionError("LAPACK was called")):
            out = minimize_mixtures(sc, W, start=start, hold=hold)
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)
        if not (np.signbit(b) & (b == 0.0)).any():
            assert np.array_equal(out.view(np.int64), expected.view(np.int64))
        if held:   # exactly start, -0.0 included, or +0.0 without one
            kept = (start[hold] if started else np.zeros((hold.sum(), d)))
            assert np.array_equal(out[hold].view(np.int64), kept.view(np.int64))

    def test_unheld_empty_column_is_the_same_error(self):
        sc = _diagonal_scenario(np.random.default_rng(5), 3, 2)
        W = np.full((2, 3, 2), 0.5)
        W[1, :, 0] = 0.0
        with pytest.raises(EmptyLearnerError,
                           match=r"^mixture column W\[1, :, 0\] has no positive "
                                 r"weight$"):
            minimize_mixtures(sc, W)
        hold = np.array([[False, False], [False, True]])
        with pytest.raises(EmptyLearnerError,
                           match=r"^mixture column W\[1, :, 0\] has no positive "
                                 r"weight$"):
            minimize_mixtures(sc, W, hold=hold)

    @pytest.mark.parametrize("curvature, solves", [
        ([[1.0, 0.0], [0.0, 3.0]], False), ([[2.0, 0.5], [0.5, 1.0]], True)])
    def test_only_full_curvatures_call_lapack(self, curvature, solves):
        # a broken diagonal flag would cost the division path silently
        rng = np.random.default_rng(8)
        sc = Scenario(beta=np.full(6, 1 / 6),
                      risks=tuple(quadratic_risk(c, curvature)
                                  for c in rng.uniform(-2.0, 2.0, (6, 2))),
                      m=2, subpop_rule=mwud(), learner_rule=full_min())
        state = SystemState(rng.dirichlet(np.ones(2), size=6),
                            rng.uniform(-2.0, 2.0, (2, 2)))
        calls, real = [], np.linalg.solve

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        with mock.patch("numpy.linalg.solve", counting):
            simulate(sc, state, 20)
        assert (len(calls) > 0) == solves


class TestMixtureGradients:
    """The batched gradient kernel is mass times the scalar reference
    learner_gradient, column by column."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(0, 5),
           st.sampled_from(["quadratic", "custom", "mixed"]))
    def test_matches_learner_gradient_times_mass(self, seed, d, k, kinds):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        sc = random_scenario(rng, n, 1, d)
        if kinds != "quadratic":
            custom = (np.ones(n, bool) if kinds == "custom"
                      else rng.random(n) < 0.5)
            sc = replace(sc, risks=tuple(as_custom(r) if c else r
                                         for r, c in zip(sc.risks, custom)))
        W = _mixture_weights(rng, n, k)   # exact zeros included
        theta = rng.uniform(-3.0, 3.0, (k, d))
        out = mixture_gradients(sc, W, theta)
        assert out.shape == (k, d)
        for j in range(k):
            expected = (learner_gradient(theta[j], W[:, j], np.ones(n), sc.risks)
                        * W[:, j].sum())
            assert np.abs(out[j] - expected).max() <= 1e-12 * max(
                1.0, np.abs(expected).max())


class TestLeadingAxes:
    """Both kernels take weights (..., n, k) and parameters (..., k, d): a
    batch equals its slices, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(0, 4),
           st.sampled_from([(), (1,), (3,), (2, 2)]), st.booleans())
    def test_batch_matches_its_slices(self, seed, d, k, lead, custom):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        sc = random_scenario(rng, n, 1, d)
        if custom:
            sc = replace(sc, risks=tuple(as_custom(r) for r in sc.risks))
        W = np.stack([_mixture_weights(rng, n, k)
                      for _ in np.ndindex(*lead)]).reshape(*lead, n, k)
        theta = rng.uniform(-3.0, 3.0, (*lead, k, d))
        mins = minimize_mixtures(sc, W, start=theta)
        grads = mixture_gradients(sc, W, theta)
        assert mins.shape == grads.shape == theta.shape
        for i in np.ndindex(*lead):
            assert np.array_equal(mins[i], minimize_mixtures(sc, W[i],
                                                             start=theta[i]))
            assert np.array_equal(grads[i], mixture_gradients(sc, W[i], theta[i]))


class TestGroupMinimizeLineSearch:
    def test_ascent_direction_is_a_convergence_error(self):
        # a wrong-sign hessian makes the Newton direction point uphill
        risk = custom_risk(1, lambda th: th[..., 0] ** 2, lambda th: 2 * th,
                           lambda th: np.full(th.shape + (1,), -2.0))
        with pytest.raises(ConvergenceError, match="not a descent direction"):
            group_minimize([1.0], (risk,), start=[1.0])

    def test_overshooting_newton_step_is_halved(self):
        # pseudo-Huber sqrt(1 + theta^2): from theta = 2 the full Newton step
        # -theta (1 + theta^2) lands at -8, uphill, and is halved twice
        risk = custom_risk(1, lambda th: np.sqrt(1 + th[..., 0] ** 2),
                           lambda th: th / np.sqrt(1 + th ** 2),
                           lambda th: ((1 + th ** 2) ** -1.5)[..., None])
        out = group_minimize([1.0], (risk,), start=[2.0])
        assert abs(out[0]) <= 1e-7

    def test_uphill_steps_exhaust_the_halving(self):
        # a gradient of the wrong sign makes the model promise a decrease
        # that no step along it delivers
        risk = custom_risk(1, lambda th: th[..., 0] ** 2, lambda th: -2 * th,
                           lambda th: np.full(th.shape + (1,), 2.0))
        with pytest.raises(ConvergenceError, match="failed to decrease"):
            group_minimize([1.0], (risk,), start=[1.0])

    def test_each_column_halves_on_its_own(self):
        # pseudo-Huber columns from starts that need 0, 1, 2 and more
        # halvings: each column follows its own scalar Newton
        risk = custom_risk(1, lambda th: np.sqrt(1 + th[..., 0] ** 2),
                           lambda th: th / np.sqrt(1 + th ** 2),
                           lambda th: ((1 + th ** 2) ** -1.5)[..., None])
        sc = Scenario(beta=np.array([1.0]), risks=(risk,), m=1,
                      subpop_rule=mwud(), learner_rule=full_min())
        start = np.array([[0.5], [-1.5], [2.0], [-6.0], [30.0]])
        W = np.array([[1.0, 0.5, 2.0, 1.0, 0.25]])
        out = minimize_mixtures(sc, W, start=start)
        for j in range(len(start)):
            expected = newton_minimize(W[:, j], (risk,), start=start[j])
            assert np.abs(out[j] - expected).max() <= 1e-12
            assert abs(out[j, 0]) <= 1e-7

    def test_zero_weight_adds_exactly_zero(self):
        # a risk that is NaN everywhere, and a column that gives it no weight
        nan = custom_risk(1, lambda th: np.full(th.shape[:-1], np.nan),
                          lambda th: np.full(th.shape, np.inf),
                          lambda th: np.full(th.shape + (1,), np.nan))
        sc = Scenario(beta=np.array([0.5, 0.5]),
                      risks=(as_custom(quadratic_risk([1.0])), nan), m=1,
                      subpop_rule=mwud(), learner_rule=full_min())
        W = np.array([[0.5], [0.0]])
        theta = np.array([[3.0]])
        assert mixture_gradients(sc, W, theta).tolist() == [[2.0]]
        assert minimize_mixtures(sc, W, start=theta).tolist() == [[1.0]]

    def test_last_iteration_may_reach_the_minimizer(self):
        # one Newton step solves a quadratic exactly; the check after the
        # loop accepts the point the last iteration reached
        risk = as_custom(quadratic_risk([1.0, 2.0]))
        out = group_minimize([1.0], (risk,), max_iterations=1)
        assert np.array_equal(out, [1.0, 2.0])
