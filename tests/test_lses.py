"""Loss sensitive expected shortfall: the level sweep and its calibration."""
import math

import numpy as np
import pytest

from conftest import random_randvar
from meanrisk import (FiniteSpace, RandVar, RiskSpec, adjusted_es,
                      continuous_identity_check, dual_evaluate, es,
                      expected_loss, lses_profile, normal_alpha_star,
                      worst_case)
from meanrisk import lses as lm
from meanrisk.fixtures import standard_normal_variable

HALF = FiniteSpace(np.array([0.5, 0.5]))
X_PM1 = RandVar(HALF, np.array([-1.0, 1.0]))
PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


class TestEvaluate:
    def test_large_b_keeps_level_one(self):
        bd = lm.evaluate(X_PM1, 10.0)
        # the tail-gap integral tops out at E[-X] - VaR_1 = 0 + 1 = 1 <= 10
        assert bd.alpha_star == 1.0
        assert bd.value == pytest.approx(expected_loss(X_PM1))
        assert bd.I_values[-1] == pytest.approx(1.0)

    def test_constant_has_no_tail(self):
        C = RandVar(HALF, np.array([2.5, 2.5]))
        for b in (0.01, 1.0, 100.0):
            bd = lm.evaluate(C, b)
            assert bd.value == pytest.approx(-2.5)
            assert bd.alpha_star == 1.0

    def test_small_b_crosses_at_half(self):
        bd = lm.evaluate(X_PM1, 0.25)
        assert bd.alpha_star == pytest.approx(0.5)
        assert bd.value == pytest.approx(0.75)
        assert dual_evaluate(RiskSpec.lses_at(0.25), X_PM1) == \
            pytest.approx(bd.value, abs=1e-8)

    def test_value_constant_on_reported_interval(self):
        # equiprobable atoms (0, 1, 2) give a tail-gap plateau at b = 1/3
        X = RandVar(FiniteSpace(np.full(3, 1 / 3)), np.array([0.0, 1.0, 2.0]))
        bd = lm.evaluate(X, 1.0 / 3.0)
        lo, hi = bd.alpha_star_interval
        assert lo == pytest.approx(1.0 / 3.0)
        assert hi == pytest.approx(2.0 / 3.0)
        assert bd.alpha_star == pytest.approx(hi)
        for a in np.linspace(lo, hi, 7):
            g = es(X, a) - (1.0 / 3.0) * (1.0 / a - 1.0)
            assert g == pytest.approx(bd.value, abs=1e-10)

    def test_breakdown_consistency(self, rng):
        for _ in range(25):
            X = random_randvar(rng, 9)
            b = float(rng.uniform(0.02, 2.0))
            bd = lm.evaluate(X, b)
            assert bd.value == pytest.approx(
                bd.es_at_star - b * (1.0 / bd.alpha_star - 1.0), abs=1e-12)
            assert bd.alpha_star_interval[0] <= bd.alpha_star_interval[1]
            assert np.all(np.diff(bd.I_values) >= -1e-12)
            assert np.max(bd.G_values) == pytest.approx(bd.value, abs=1e-12)

    def test_agrees_with_adjusted_es_and_dual(self, rng):
        for b in (0.05, 0.5, 5.0):
            for _ in range(8):
                n = int(rng.integers(2, 51))
                X = random_randvar(rng, n, scale=1.5)
                bd = lm.evaluate(X, b)
                assert bd.value == pytest.approx(
                    adjusted_es(X, lses_profile(b)), abs=1e-10)
                assert bd.value == pytest.approx(
                    dual_evaluate(RiskSpec.lses_at(b), X), abs=1e-7)

    def test_b_monotone_and_limits(self, rng):
        X = random_randvar(rng, 12)
        values = [lm.evaluate(X, b).value for b in (0.01, 0.1, 1.0, 10.0)]
        assert all(values[i] >= values[i + 1] - 1e-12 for i in range(3))
        assert lm.evaluate(X, 1e6).value == pytest.approx(expected_loss(X))
        assert lm.evaluate(X, 1e-9).value == pytest.approx(worst_case(X),
                                                           abs=1e-6)

    def test_rejects_nonpositive_b(self):
        with pytest.raises(ValueError):
            lm.evaluate(X_PM1, 0.0)


class TestContinuousIdentity:
    def test_fine_normal_discretisation(self):
        Z = standard_normal_variable(10000)
        assert continuous_identity_check(Z, 0.3) < 1e-3

    def test_two_atoms_reported_not_asserted(self):
        residual = continuous_identity_check(X_PM1, 0.25)
        assert residual >= 0.0  # discrete law: identity out of scope, only reported

    def test_constant(self):
        C = RandVar(HALF, np.array([1.0, 1.0]))
        assert continuous_identity_check(C, 0.5) == pytest.approx(0.0)


class TestNormalCalibration:
    def test_anchor_point(self):
        assert normal_alpha_star(PHI0) == pytest.approx(0.5, abs=1e-10)
        assert normal_alpha_star(0.39894) == pytest.approx(0.5, abs=1e-3)

    def test_monotone_in_ratio(self):
        assert normal_alpha_star(0.1) < normal_alpha_star(0.3)

    def test_small_ratio_small_level(self):
        assert normal_alpha_star(1e-6) < 1e-3

    def test_large_ratio_saturates(self):
        assert normal_alpha_star(50.0) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normal_alpha_star(0.0)

    def test_quantile_inverts_cdf(self):
        for u in (1e-6, 0.025, 0.5, 0.975, 1 - 1e-6):
            q = lm.normal_quantile(u)
            assert 0.5 * math.erfc(-q / math.sqrt(2.0)) == \
                pytest.approx(u, abs=1e-10)

    def test_far_tail_roots_to_full_precision(self):
        # roots of pdf(q(a)) + a q(a) = b for the double b, from a
        # 400-digit mpmath bisection in x = -q (pinned: mpmath is not a
        # test dependency); the quantile route alone was off by 6.3e-13,
        # 1.6e-11 and 3.1e-10 relative
        roots = {1e-20: 9.236117446537940092713584e-20,
                 1e-100: 2.122370063174207505988845e-99,
                 1e-300: 3.700357755247691795416159e-299}
        for ratio, root in roots.items():
            assert abs(normal_alpha_star(ratio) - root) <= 1e-13 * root, ratio
