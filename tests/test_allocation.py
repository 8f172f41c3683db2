import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from popdyn import AllocationRule, best_response, mwud, quadratic_risk
from popdyn.engine import _update_alpha
from popdyn.model import MONOTONE_TOL
from reference import best_response_step, mwud_step, subpop_avg_risk


def _engine_row(rule, alpha_row, risk_vector):
    # engine._update_alpha on one row; it reads only the rule and schedule of
    # its scenario, and a real one-row Scenario cannot have m > 1 learners
    sc = SimpleNamespace(subpop_rule=rule, schedule=None, n=1)
    return _update_alpha(np.array([alpha_row], dtype=float),
                         np.array([risk_vector], dtype=float), sc, 0)[0]


def engine_mwud_step(alpha_row, risk_vector, gamma, comparison="absolute",
                     prev_mix_risk=None):
    # the engine computes the relative denominator from the row itself
    return _engine_row(mwud(gamma, comparison), alpha_row, risk_vector)


def engine_best_response_step(alpha_row, risk_vector, tie_tolerance=0.0,
                              tie_policy="split_evenly"):
    return _engine_row(best_response(tie_tolerance, tie_policy), alpha_row,
                       risk_vector)


# the reference row rule and the engine's row kernel on the same cases
BOTH_MWUD = pytest.mark.parametrize(
    "mwud_step", [reference.mwud_step, engine_mwud_step],
    ids=["reference", "engine"])
BOTH_BEST_RESPONSE = pytest.mark.parametrize(
    "best_response_step",
    [reference.best_response_step, engine_best_response_step],
    ids=["reference", "engine"])


class TestMwudStep:
    def test_symmetric_risks_fix_the_row(self):
        for gamma in (0.1, 1.0, 7.0):
            out = mwud_step([0.5, 0.5], [1.0, 1.0], gamma)
            assert np.allclose(out, [0.5, 0.5])

    @BOTH_MWUD
    def test_hand_computed_reweighting(self, mwud_step):
        # weights (0.5 * e^0, 0.5 * e^{-ln 2}) = (0.5, 0.25), renormalized
        out = mwud_step([0.5, 0.5], [0.0, math.log(2.0)], gamma=1.0)
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-15)

    @BOTH_MWUD
    def test_zero_mass_is_absorbing(self, mwud_step):
        out = mwud_step([0.0, 1.0], [0.0, 100.0], gamma=1.0)
        assert out[0] == 0.0 and out[1] == 1.0

    @BOTH_MWUD
    def test_relative_comparison(self, mwud_step):
        row = np.array([0.5, 0.5])
        risks = np.array([1.0, 3.0])
        mix = float(row @ risks)  # 2.0
        out = mwud_step(row, risks, gamma=1.0, comparison="relative",
                        prev_mix_risk=mix)
        w = row * np.exp(-(risks / mix - risks.min() / mix))
        assert np.allclose(out, w / w.sum())

    def test_relative_requires_positive_denominator(self):
        with pytest.raises(ValueError):
            mwud_step([0.5, 0.5], [1.0, 2.0], 1.0, comparison="relative")
        with pytest.raises(ValueError):
            mwud_step([0.5, 0.5], [1.0, 2.0], 1.0, comparison="relative",
                      prev_mix_risk=0.0)

    @BOTH_MWUD
    def test_huge_risk_spread_does_not_underflow(self, mwud_step):
        # shift trick: the minimum-cost supported entry survives any spread
        out = mwud_step([0.5, 0.5], [0.0, 1e6], gamma=5.0)
        assert out[0] == 1.0 and out[1] == 0.0
        out = mwud_step([1e-300, 1 - 1e-300], [1e6, 2e6], gamma=5.0)
        assert out.sum() == pytest.approx(1.0)

    def test_nonfinite_risks_rejected(self):
        with pytest.raises(ValueError):
            mwud_step([0.5, 0.5], [np.nan, 1.0], 1.0)

    def test_fixed_point_iff_supported_costs_equal(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            m = int(rng.integers(2, 5))
            row = rng.dirichlet(np.ones(m))
            # equal risks on the support: exact fixed point
            risks = np.full(m, float(rng.uniform(0.1, 5)))
            out = mwud_step(row, risks, gamma=float(rng.uniform(0.1, 5)))
            assert np.abs(out - row).max() <= 1e-12
            # perturb one supported risk: the row must move
            risks2 = risks.copy()
            risks2[int(rng.integers(0, m))] += 1e-6
            out2 = mwud_step(row, risks2, gamma=1.0)
            assert np.abs(out2 - row).max() > 1e-12

    def test_minimum_risk_share_strictly_grows(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(2, 5))
            row = rng.dirichlet(np.ones(m))
            risks = rng.uniform(0, 3, m)
            best = int(np.argmin(risks))
            if risks[best] >= np.partition(risks, 1)[1] - 1e-9:
                continue
            out = mwud_step(row, risks, gamma=float(rng.uniform(0.1, 5)))
            if 0.0 < row[best] < 1.0:
                assert out[best] > row[best]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = 4
            row = rng.dirichlet(np.ones(m))
            risks = rng.uniform(0, 3, m)
            perm = rng.permutation(m)
            out = mwud_step(row, risks, 1.3)
            out_p = mwud_step(row[perm], risks[perm], 1.3)
            assert np.allclose(out[perm], out_p, atol=1e-16)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1),
           st.floats(0.05, 8.0))
    def test_simplex_preserved(self, m, seed, gamma):
        rng = np.random.default_rng(seed)
        row = rng.dirichlet(np.ones(m))
        risks = rng.uniform(0, 10, m)
        out = mwud_step(row, risks, gamma)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-10


class TestBestResponseStep:
    @BOTH_BEST_RESPONSE
    def test_unique_argmin(self, best_response_step):
        out = best_response_step([0.2, 0.5, 0.3], [0.2, 0.1, 0.3])
        assert np.array_equal(out, [0.0, 1.0, 0.0])

    @BOTH_BEST_RESPONSE
    def test_symmetric_tie_splits_evenly(self, best_response_step):
        out = best_response_step([0.9, 0.1], [0.1, 0.1],
                                 tie_policy="split_evenly")
        assert np.array_equal(out, [0.5, 0.5])

    @BOTH_BEST_RESPONSE
    def test_keep_previous_restricts_and_renormalizes(self, best_response_step):
        out = best_response_step([0.3, 0.7], [0.1, 0.1 + 1e-12],
                                 tie_tolerance=1e-9,
                                 tie_policy="keep_previous")
        assert np.allclose(out, [0.3, 0.7])

    @BOTH_BEST_RESPONSE
    def test_keep_previous_with_tied_subset(self, best_response_step):
        out = best_response_step([0.2, 0.3, 0.5], [0.1, 0.1, 9.0],
                                 tie_tolerance=1e-6,
                                 tie_policy="keep_previous")
        assert np.allclose(out, [0.4, 0.6, 0.0])

    @BOTH_BEST_RESPONSE
    def test_keep_previous_falls_back_when_unsupported(self, best_response_step):
        out = best_response_step([0.0, 0.0, 1.0], [0.1, 0.1, 9.0],
                                 tie_tolerance=1e-6,
                                 tie_policy="keep_previous")
        assert np.allclose(out, [0.5, 0.5, 0.0])

    @BOTH_BEST_RESPONSE
    def test_ties_exclude_learners_worse_than_the_row(self, best_response_step):
        # the row sits at R = 0; R = 0.25 is within the tolerance but worse
        out = best_response_step([1.0, 0.0], [0.0, 0.25], tie_tolerance=0.3)
        assert np.array_equal(out, [1.0, 0.0])
        # from an average of 0.25 both learners tie
        out = best_response_step([0.0, 1.0], [0.0, 0.25], tie_tolerance=0.3)
        assert np.array_equal(out, [0.5, 0.5])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 3).map(float), st.floats(0, 10)),
                    min_size=1, max_size=6),
           st.floats(0, 5), st.sampled_from(["split_evenly", "keep_previous"]),
           st.integers(0, 2 ** 31 - 1))
    def test_never_raises_the_row_risk(self, risks, tie_tolerance, tie_policy,
                                       seed):
        rng = np.random.default_rng(seed)
        risks = np.array(risks)
        row = rng.dirichlet(np.ones(len(risks)))
        row[rng.random(len(risks)) < 0.3] = 0.0
        row[rng.integers(len(risks))] += 0.1
        row = row / row.sum()
        out = best_response_step(row, risks, tie_tolerance, tie_policy)
        assert float(out @ risks) <= float(row @ risks) + MONOTONE_TOL

    def test_simplex_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            out = best_response_step(rng.dirichlet(np.ones(m)),
                                     rng.uniform(0, 5, m),
                                     tie_tolerance=float(rng.choice([0.0, 0.5])))
            assert np.all(out >= 0)
            assert abs(out.sum() - 1.0) <= 1e-10


class TestVerifyRiskReducing:
    def test_mwud_always_reduces(self):
        rng = np.random.default_rng(14)
        risk = quadratic_risk([0.0])
        for _ in range(1000):
            m = int(rng.integers(2, 5))
            row = rng.dirichlet(np.ones(m))
            theta = rng.uniform(-3, 3, (m, 1))
            gamma = float(rng.uniform(0.05, 5))
            risks = np.array([float((t - 0.0) ** 2) for t in theta[:, 0]])
            out = mwud_step(row, risks, gamma)
            assert (subpop_avg_risk(out, theta, risk)
                    <= subpop_avg_risk(row, theta, risk) + 1e-10)
            # strict decrease away from fixed points
            supported = risks[row > 0]
            if supported.max() - supported.min() > 1e-12:
                before = float(row @ risks)
                after = float(out @ risks)
                assert after < before

    def test_best_response_attains_minimum(self):
        rng = np.random.default_rng(15)
        risk = quadratic_risk([0.0])
        for _ in range(200):
            m = int(rng.integers(2, 5))
            row = rng.dirichlet(np.ones(m))
            theta = rng.uniform(-3, 3, (m, 1))
            risks = theta[:, 0] ** 2
            out = best_response_step(row, risks)
            assert (subpop_avg_risk(out, theta, risk)
                    <= subpop_avg_risk(row, theta, risk) + 1e-10)
            assert float(out @ risks) == pytest.approx(risks.min())

    def test_moving_mass_to_worse_learner_fails(self):
        risk = quadratic_risk([0.0])
        theta = np.array([[0.0], [1.0]])  # risks (0, 1)
        assert not (subpop_avg_risk([0.9, 0.1], theta, risk)
                    <= subpop_avg_risk([1.0, 0.0], theta, risk) + 1e-10)


class TestRuleValidation:
    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            AllocationRule(kind="mwud", gamma=0.0)

    def test_tie_tolerance_nonnegative(self):
        with pytest.raises(ValueError):
            AllocationRule(kind="best_response", tie_tolerance=-1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AllocationRule(kind="softmax")
