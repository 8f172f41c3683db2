import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popdyn import (
    DimensionError,
    EmptyLearnerError,
    NonFiniteError,
    Scenario,
    SimplexError,
    SystemState,
    custom_risk,
    full_min,
    mwud,
    quadratic_risk,
    risk_gradient,
    risk_hessian,
    risk_value,
    total_risk,
    validate_allocation,
)
from popdyn.model import validate_state

from conftest import as_custom, random_scenario, random_state
from reference import learner_avg_risk, subpop_avg_risk


def finite_diff_gradient(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for k in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestRiskValue:
    def test_minimum_of_quadratic(self):
        r = quadratic_risk(np.zeros(3))
        assert risk_value(r, np.zeros(3)) == 0.0

    def test_unit_displacement(self):
        r = quadratic_risk([1.0])
        assert risk_value(r, [0.0]) == 1.0

    def test_offcentered_family_center(self):
        # the third risk of the two-learner gap family evaluates to zero at
        # its own center for any feasible (beta, eps)
        beta, eps = 0.4, 0.01
        phi = (1 - beta) / (1 - 2 * beta) - eps
        r = quadratic_risk([phi])
        assert risk_value(r, [phi]) == 0.0

    def test_dimension_mismatch(self):
        r = quadratic_risk([0.0, 1.0])
        with pytest.raises(DimensionError):
            risk_value(r, [0.0])

    def test_general_curvature_and_offset(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        r = quadratic_risk([1.0, -1.0], A, offset=0.25)
        theta = np.array([2.0, 0.0])
        diff = theta - np.array([1.0, -1.0])
        assert risk_value(r, theta) == pytest.approx(diff @ A @ diff + 0.25)


class TestRiskGradient:
    def test_zero_at_minimizer(self):
        r = quadratic_risk(np.zeros(2))
        assert np.all(risk_gradient(r, np.zeros(2)) == 0.0)

    def test_hand_value(self):
        r = quadratic_risk([0.0])
        assert risk_gradient(r, [3.0])[0] == pytest.approx(6.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            Q = rng.standard_normal((d, d))
            r = quadratic_risk(rng.uniform(-1, 1, d), Q @ Q.T + np.eye(d),
                               offset=0.5)
            theta = rng.uniform(-2, 2, d)
            g = risk_gradient(r, theta)
            fd = finite_diff_gradient(lambda x: risk_value(r, x), theta)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


class TestRiskHessian:
    def test_identity_curvature(self):
        r = quadratic_risk(np.zeros(2))
        assert np.allclose(risk_hessian(r, np.zeros(2)), 2 * np.eye(2))

    def test_diagonal_curvature(self):
        r = quadratic_risk([0.0, 0.0], np.diag([1.0, 4.0]))
        assert np.allclose(risk_hessian(r, [1.0, 1.0]), np.diag([2.0, 8.0]))

    def test_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            Q = rng.standard_normal((d, d))
            r = quadratic_risk(rng.uniform(-1, 1, d), Q @ Q.T + np.eye(d))
            theta = rng.uniform(-2, 2, d)
            H = risk_hessian(r, theta)
            h = 1e-5
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                col = (risk_gradient(r, theta + e)
                       - risk_gradient(r, theta - e)) / (2 * h)
                assert np.abs(col - H[:, k]).max() <= 1e-5 * max(1.0, np.abs(H).max())


class TestCustomRisk:
    QUARTIC = dict(value=lambda th: th[..., 0] ** 4 + th[..., 0] ** 2,
                   gradient=lambda th: 4 * th ** 3 + 2 * th,
                   hessian=lambda th: (12 * th ** 2 + 2)[..., None])

    def test_callbacks_are_used(self):
        r = custom_risk(1, **self.QUARTIC)
        assert risk_value(r, [1.0]) == 2.0
        assert risk_gradient(r, [1.0])[0] == 6.0
        assert risk_hessian(r, [1.0])[0, 0] == 14.0

    @pytest.mark.parametrize("field, value", [
        ("dim", 2.5), ("dim", 0), ("dim", -1), ("dim", True), ("dim", "3"),
        ("dim", None), ("value", None), ("gradient", 1.0), ("hessian", "h")])
    def test_rejects_a_bad_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            custom_risk(**{"dim": 1, **self.QUARTIC, field: value})

    def test_unbatched_callback_is_a_dimension_error(self):
        # scalar-style callbacks serve one point, but would broadcast over
        # a batch of them silently
        r = custom_risk(2, lambda th: (th ** 2).sum(), lambda th: 2 * th,
                        lambda th: 2 * np.eye(2))
        assert risk_value(r, [1.0, 2.0]) == 5.0
        assert risk_hessian(r, [1.0, 2.0]).tolist() == [[2.0, 0.0], [0.0, 2.0]]
        with pytest.raises(DimensionError, match=r"^custom risk value: expected "
                           r"shape \(3,\) at theta of shape \(3, 2\), got \(\)$"):
            risk_value(r, np.ones((3, 2)))
        with pytest.raises(DimensionError, match="^custom risk hessian"):
            risk_hessian(r, np.ones((2, 2)))
        sc = Scenario(beta=np.array([0.5, 0.5]), risks=(r, r), m=2,
                      subpop_rule=mwud(), learner_rule=full_min())
        with pytest.raises(DimensionError, match="^custom risk value"):
            sc.risk_matrix(np.ones((2, 2)))
        with pytest.raises(DimensionError, match="^theta: expected shape"):
            risk_value(r, [1.0])

    def test_risk_matrix_calls_each_value_callback_once(self):
        calls = []

        def make(c):
            def value(th):
                calls.append((c, th.shape))
                return ((th - c) ** 2).sum(-1)
            return custom_risk(2, value, lambda th: 2 * (th - c),
                               lambda th: np.broadcast_to(2 * np.eye(2),
                                                          th.shape + (2,)))

        sc = Scenario(beta=np.full(4, 0.25), risks=tuple(map(make, range(4))),
                      m=3, subpop_rule=mwud(), learner_rule=full_min())
        theta = np.random.default_rng(0).uniform(-2.0, 2.0, (16, 3, 2))
        R = sc.risk_matrix(theta)
        assert calls == [(c, (16, 3, 2)) for c in range(4)]
        assert R.shape == (16, 4, 3)
        for t, j in np.ndindex(16, 3):
            assert R[t, :, j].tolist() == [((theta[t, j] - c) ** 2).sum()
                                           for c in range(4)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5),
           st.sampled_from([(1,), (4,), (2, 3)]), st.booleans())
    def test_batch_matches_its_points(self, seed, d, lead, custom):
        # a batch of points evaluates each point as it would alone, bit for bit
        rng = np.random.default_rng(seed)
        Q = rng.standard_normal((d, d))
        r = quadratic_risk(rng.uniform(-2, 2, d), Q @ Q.T + 0.3 * np.eye(d),
                           offset=rng.uniform(0, 1))
        if custom:
            r = as_custom(r)
        theta = rng.uniform(-3.0, 3.0, (*lead, d))
        values, grads = risk_value(r, theta), risk_gradient(r, theta)
        hessians = risk_hessian(r, theta)
        assert values.shape == lead and grads.shape == theta.shape
        assert hessians.shape == (*lead, d, d)
        for i in np.ndindex(*lead):
            assert values[i] == risk_value(r, theta[i])
            assert isinstance(risk_value(r, theta[i]), float)
            assert np.array_equal(grads[i], risk_gradient(r, theta[i]))
            assert np.array_equal(hessians[i], risk_hessian(r, theta[i]))


class TestSubpopAvgRisk:
    def test_all_mass_on_optimal_learner(self):
        r = quadratic_risk([0.5])
        theta = np.array([[0.5], [17.0]])
        assert subpop_avg_risk([1.0, 0.0], theta, r) == 0.0

    def test_even_mix(self):
        r = quadratic_risk([0.0])
        theta = np.array([[0.0], [2.0]])
        assert subpop_avg_risk([0.5, 0.5], theta, r) == pytest.approx(2.0)

    def test_identical_learners_collapse(self):
        r = quadratic_risk([0.3], offset=0.7)
        theta = np.array([[1.2], [1.2], [1.2]])
        mix = subpop_avg_risk(np.full(3, 1 / 3), theta, r)
        assert mix == pytest.approx(risk_value(r, [1.2]))

    def test_rejects_off_simplex_row(self):
        r = quadratic_risk([0.0])
        with pytest.raises(SimplexError):
            subpop_avg_risk([0.7, 0.7], np.array([[0.0], [1.0]]), r)

    def test_linear_in_allocation(self):
        rng = np.random.default_rng(3)
        r = quadratic_risk(rng.uniform(-1, 1, 2), offset=0.2)
        theta = rng.uniform(-2, 2, (4, 2))
        for _ in range(50):
            a = rng.dirichlet(np.ones(4))
            b = rng.dirichlet(np.ones(4))
            lam = rng.random()
            mixed = subpop_avg_risk(lam * a + (1 - lam) * b, theta, r)
            parts = (lam * subpop_avg_risk(a, theta, r)
                     + (1 - lam) * subpop_avg_risk(b, theta, r))
            assert mixed == pytest.approx(parts, abs=1e-12)


class TestLearnerAvgRisk:
    def test_single_subpopulation(self):
        r = quadratic_risk([1.0], offset=0.5)
        val = learner_avg_risk([1.0], [1.0], (r,), np.array([3.0]))
        assert val == pytest.approx(risk_value(r, [3.0]))

    def test_even_mixture(self):
        risks = (quadratic_risk([0.0]), quadratic_risk([1.0]))
        val = learner_avg_risk([1.0, 1.0], [0.5, 0.5], risks, np.array([0.0]))
        assert val == pytest.approx(0.5)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        risks = tuple(quadratic_risk(rng.uniform(-1, 1, 1)) for _ in range(3))
        beta = np.array([0.2, 0.3, 0.5])
        col = np.array([0.4, 0.1, 0.5])
        theta = np.array([0.7])
        base = learner_avg_risk(col, beta, risks, theta)
        for c in (0.1, 3.0, 42.0):
            assert learner_avg_risk(c * col, beta, risks, theta) == pytest.approx(base)

    def test_zero_mass_raises(self):
        risks = (quadratic_risk([0.0]), quadratic_risk([1.0]))
        with pytest.raises(EmptyLearnerError):
            learner_avg_risk([0.0, 0.0], [0.5, 0.5], risks, np.array([0.0]))


class TestTotalRisk:
    def _scenario(self, beta, centers, offsets=None, m=1):
        offsets = offsets or [0.0] * len(centers)
        risks = tuple(quadratic_risk([c], offset=o)
                      for c, o in zip(centers, offsets))
        return Scenario(beta=np.asarray(beta), risks=risks, m=m,
                        subpop_rule=mwud(), learner_rule=full_min())

    def test_perfect_split_is_zero(self):
        sc = self._scenario([0.25, 0.75], [0.0, 2.0], m=2)
        state = SystemState(alpha=np.eye(2), theta=np.array([[0.0], [2.0]]))
        assert total_risk(state, sc) == 0.0

    def test_single_learner_closed_form(self):
        beta, phi = 0.3, 4.0
        sc = self._scenario([beta, 1 - beta], [0.0, phi])
        state = SystemState(alpha=np.ones((2, 1)),
                            theta=np.array([[(1 - beta) * phi]]))
        assert total_risk(state, sc) == pytest.approx(beta * (1 - beta) * phi ** 2,
                                                      abs=1e-12)

    def test_gap_family_optimum_value(self):
        beta, eps = 0.4, 0.01
        phi = (1 - beta) / (1 - 2 * beta) - eps
        sc = self._scenario([beta, beta, 1 - 2 * beta], [0.0, 1.0, phi], m=2)
        alpha = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        state = SystemState(alpha=alpha, theta=np.array([[0.5], [phi]]))
        assert total_risk(state, sc) == pytest.approx(beta / 2, abs=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, min(3, n) + 1))
            d = int(rng.integers(1, 4))
            sc = random_scenario(rng, n, m, d)
            state = random_state(rng, sc)
            R = sc.risk_matrix(state.theta)
            tot = total_risk(state, sc)
            via_subpop = float(sc.beta @ (state.alpha * R).sum(axis=1))
            w = state.alpha * sc.beta[:, None]
            masses = w.sum(axis=0)
            via_learner = float(sum(
                masses[j] * (w[:, j] @ R[:, j]) / masses[j]
                for j in range(m) if masses[j] > 0
            ))
            assert abs(tot - via_subpop) <= 1e-10
            assert abs(tot - via_learner) <= 1e-10


class TestQuadraticSanity:
    def test_value_minus_offset_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            Q = rng.standard_normal((d, d))
            r = quadratic_risk(rng.uniform(-1, 1, d), Q @ Q.T + 0.5 * np.eye(d),
                               offset=rng.uniform(0, 2))
            for _ in range(20):
                theta = rng.uniform(-3, 3, d)
                gap = risk_value(r, theta) - r.offset
                assert gap >= 0.0
                if not np.allclose(theta, r.center):
                    assert gap > 0.0

    @pytest.mark.parametrize("kwargs, field", [
        ({"center": [0.0, np.inf]}, r"center\[1\]"),
        ({"center": [np.nan]}, r"center\[0\]"),
        ({"center": [0.0], "offset": np.nan}, "offset"),
        ({"center": [0.0], "offset": np.inf}, "offset"),
        ({"center": [0.0, 0.0], "curvature": [[1.0, 0.0], [np.nan, 1.0]]},
         r"curvature\[1,0\]"),
    ], ids=["inf-center", "nan-center", "nan-offset", "inf-offset",
            "nan-curvature"])
    def test_rejects_nonfinite_parameters(self, kwargs, field):
        # NaN passes `offset < 0` and used to fail curvature as "not symmetric"
        with pytest.raises(NonFiniteError, match=field):
            quadratic_risk(**kwargs)

    def test_curvature_must_match_the_center(self):
        with pytest.raises(DimensionError) as exc:
            quadratic_risk([0.0, 1.0], np.eye(3))
        assert str(exc.value) == "curvature: expected shape (2,2), got (3, 3)"

    def test_curvature_must_be_spd(self):
        with pytest.raises(ValueError):
            quadratic_risk([0.0, 0.0], np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            quadratic_risk([0.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]))


    @pytest.mark.parametrize("curvature, accepted", [
        ([[1.0, 0.5], [0.5, 1.0]], True),
        ([[1.0, 0.5 + 5e-11], [0.5, 1.0]], True),
        ([[1.0, 0.5 + 4e-6], [0.5, 1.0]], False),
        ([[1e6, 5e5 + 1.0], [5e5, 1e6]], False),
    ], ids=["symmetric", "within-1e-10", "rtol-only", "large-entries"])
    def test_curvature_symmetry_is_absolute(self, curvature, accepted):
        # asymmetry is judged by absolute size alone; an accepted curvature
        # is stored symmetrized, so that 2 A (theta - phi) is the gradient of
        # the value that the same A gives
        curvature = np.array(curvature)
        if not accepted:
            with pytest.raises(ValueError, match="symmetric"):
                quadratic_risk([0.0, 0.0], curvature)
            return
        r = quadratic_risk([0.0, 0.0], curvature)
        assert np.array_equal(r.curvature, r.curvature.T)
        assert np.array_equal(r.curvature, (curvature + curvature.T) / 2)


def _translated_scenario(rng, n, m, d, shift):
    """Random quadratic instance whose centers sit around `shift`."""
    risks = []
    for _ in range(n):
        Q = rng.standard_normal((d, d))
        A = (Q @ Q.T / d + 0.1 * np.eye(d)) * 10 ** rng.uniform(-2, 2)
        risks.append(quadratic_risk(shift + rng.uniform(-3, 3, d), A,
                                    offset=float(rng.uniform(0, 3))))
    return Scenario(beta=np.full(n, 1 / n), risks=tuple(risks), m=m,
                    subpop_rule=mwud(), learner_rule=full_min())


class TestQuadraticKernels:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3),
           st.sampled_from(["m", "K,m", "G"]), st.floats(0, 6))
    def test_risk_matrix_matches_risk_value(self, seed, d, lead, log_shift):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        shift = rng.choice([-1.0, 1.0], d) * 10 ** log_shift
        sc = _translated_scenario(rng, n, m, d, shift)
        shape = {"m": (m,), "K,m": (int(rng.integers(1, 5)), m),
                 "G": (int(rng.integers(1, 40)),)}[lead]
        theta = shift + rng.uniform(-6, 6, (*shape, d))
        R = sc.risk_matrix(theta)
        assert R.shape == (*shape[:-1], n, shape[-1])
        # the expansion about the mean center o loses digits in proportion
        # to the squared distances of theta_j and phi_i from o, not to R_ij
        o = np.mean([r.center for r in sc.risks], axis=0)
        eps = np.finfo(float).eps
        for idx in np.ndindex(*shape):
            th = theta[idx]
            for i, r in enumerate(sc.risks):
                bound = 16 * eps * (
                    np.linalg.norm(r.curvature, 2)
                    * (np.sum((th - o) ** 2) + np.sum((r.center - o) ** 2))
                    + r.offset + 1.0)
                got = R[(*idx[:-1], i, idx[-1])]
                assert abs(got - risk_value(r, th)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.floats(0, 6),
           st.integers(1, 6))
    def test_normal_equations_match_explicit_sums(self, seed, d, log_shift, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        sc = _translated_scenario(rng, n, 1, d, 10 ** log_shift)
        W = rng.uniform(0, 1, (n, k)) * (rng.random((n, k)) < 0.7)
        H, b = sc.normal_equations(W)
        assert H.shape == (k, d, d) and b.shape == (k, d)
        for j in range(k):
            terms_H = [W[i, j] * r.curvature for i, r in enumerate(sc.risks)]
            terms_b = [W[i, j] * (r.curvature @ r.center)
                       for i, r in enumerate(sc.risks)]
            # relative to the sum of magnitudes, the scale of a sum's rounding
            assert np.all(np.abs(H[j] - sum(terms_H))
                          <= 1e-12 * sum(map(np.abs, terms_H)))
            assert np.all(np.abs(b[j] - sum(terms_b))
                          <= 1e-12 * sum(map(np.abs, terms_b)))


class TestScenarioValidation:
    def test_beta_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Scenario(beta=np.array([0.5, 0.6]),
                     risks=(quadratic_risk([0.0]), quadratic_risk([1.0])),
                     m=1, subpop_rule=mwud(), learner_rule=full_min())

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            Scenario(beta=np.array([1.0, 0.0]),
                     risks=(quadratic_risk([0.0]), quadratic_risk([1.0])),
                     m=1, subpop_rule=mwud(), learner_rule=full_min())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_beta_must_be_finite(self, bad):
        # NaN passes both `beta <= 0` and the sum check
        with pytest.raises(NonFiniteError, match=r"beta\[0\]"):
            Scenario(beta=np.array([bad, 0.5]),
                     risks=(quadratic_risk([0.0]), quadratic_risk([1.0])),
                     m=1, subpop_rule=mwud(), learner_rule=full_min())

    @pytest.mark.parametrize("beta, centers, message", [
        ([[0.5, 0.5]], ([0.0], [1.0]), "beta must be a vector"),
        ([0.5, 0.5], ([0.0],), "risks: 1 risk functions for 2 proportions"),
        ([0.5, 0.5], ([0.0], [1.0, 1.0]), "risks disagree on dimension: {1, 2}"),
    ], ids=["2d-beta", "one-risk", "mixed-dimensions"])
    def test_shapes_must_agree(self, beta, centers, message):
        with pytest.raises(DimensionError) as exc:
            Scenario(beta=np.array(beta),
                     risks=tuple(map(quadratic_risk, centers)),
                     m=1, subpop_rule=mwud(), learner_rule=full_min())
        assert str(exc.value) == message

    def test_state_theta_shapes(self):
        with pytest.raises(DimensionError, match=r"theta must have shape \(m, d\)"):
            SystemState(alpha=np.ones((2, 1)), theta=np.zeros(1))
        sc = Scenario(beta=np.array([0.5, 0.5]),
                      risks=(quadratic_risk([0.0]), quadratic_risk([1.0])),
                      m=1, subpop_rule=mwud(), learner_rule=full_min())
        with pytest.raises(DimensionError) as exc:
            validate_state(SystemState(alpha=np.ones((2, 1)),
                                       theta=np.zeros((1, 2))), sc)
        assert str(exc.value) == "theta: expected shape (1,1), got (1, 2)"

    def test_m_at_most_n(self):
        with pytest.raises(ValueError):
            Scenario(beta=np.array([0.5, 0.5]),
                     risks=(quadratic_risk([0.0]), quadratic_risk([1.0])),
                     m=3, subpop_rule=mwud(), learner_rule=full_min())

    def test_allocation_validator(self):
        validate_allocation(np.array([[0.25, 0.75]]), 1, 2)
        with pytest.raises(SimplexError):
            validate_allocation(np.array([[0.25, 0.80]]), 1, 2)
        with pytest.raises(SimplexError):
            validate_allocation(np.array([[-0.25, 1.25]]), 1, 2)
        with pytest.raises(DimensionError):
            validate_allocation(np.array([[0.5, 0.5]]), 2, 2)

    def test_allocation_validator_rejects_nonfinite_entries(self):
        # every comparison with NaN is False, so a NaN row passes range checks
        with pytest.raises(SimplexError, match=r"alpha\[1,0\]"):
            validate_allocation(np.array([[0.5, 0.5], [np.nan, np.nan]]), 2, 2)


def test_public_api_is_pinned():
    # removing a name breaks callers and adding one is a commitment: both
    # must show up here
    import popdyn
    assert sorted(popdyn.__all__) == [
        "AllocationRule", "BudgetError", "ConvergenceError", "DimensionError",
        "EmptyLearnerError", "EquilibriumDetector", "EquilibriumReport",
        "LearnerRule", "LoadedScenario", "MonotonicityError", "NonFiniteError",
        "NotOptimalError", "PopdynError", "RiskFunction", "SCHEMA_VERSION",
        "Scenario", "ScenarioFormatError", "SimplexError", "SplitAssignment",
        "SplitError", "SystemState", "Trajectory",
        "UpdateSchedule", "best_response", "classify_state",
        "custom_risk", "empirical_stability_probe",
        "enumerate_split_equilibria",
        "example_c1_stability_predicate", "full_min",
        "group_minimize", "load_scenario",
        "load_state", "mwud", "parse_scenario", "perturb",
        "potential_gradient", "potential_value", "quadratic_risk",
        "repeated_gd", "risk_gradient", "risk_hessian", "risk_value",
        "scenario_to_dict", "simulate", "split_learner",
        "state_distance_upto_permutation", "step", "step_size",
        "theta_for_assignment", "total_risk", "validate_allocation",
        "validate_state",
    ]
