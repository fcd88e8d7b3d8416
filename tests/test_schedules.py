import math

import numpy as np
import pytest
from scipy.integrate import quad

from mirrorflow.errors import InvalidRegime, NonPositiveTime
from mirrorflow.schedules import (
    CONSTANT_ONE,
    PowerLaw,
    RateBundle,
    averaging_weight,
    check_admissible,
    coupled_bundle,
    optimal_amd_exponents,
    optimal_smd_exponent,
)


class TestPowerLaw:
    def test_constant(self):
        s = PowerLaw(1.0, 0.0)
        assert s.value(17.3) == 1.0
        assert s.derivative(17.3) == 0.0

    def test_monomial(self):
        s = PowerLaw(1.0, 2.0)
        assert s.value(3.0) == 9.0
        assert s.derivative(3.0) == 6.0

    def test_decaying(self):
        s = PowerLaw(0.8, -0.2)  # derivative of t^0.8
        assert s.value(10.0) == pytest.approx(0.5047658755841546, abs=1e-12)

    def test_nonpositive_time_rejected(self):
        s = PowerLaw(1.0, 1.0)
        with pytest.raises(NonPositiveTime):
            s.value(0.0)
        with pytest.raises(NonPositiveTime):
            s.derivative(-1.0)

    def test_integral_matches_quadrature(self):
        for coef, expo in [(2.0, 0.7), (1.0, -1.0), (0.3, -2.5)]:
            s = PowerLaw(coef, expo)
            expected, _ = quad(s.value, 1.0, 37.0)
            assert s.integral(1.0, 37.0) == pytest.approx(expected, rel=1e-9)

    def test_algebra(self):
        p = PowerLaw(2.0, 1.0) * PowerLaw(3.0, -0.5)
        assert (p.coef, p.exponent) == (6.0, 0.5)
        q = PowerLaw(2.0, 1.0) / PowerLaw(4.0, 2.0)
        assert (q.coef, q.exponent) == (0.5, -1.0)
        assert PowerLaw(3.0, 0.25).squared() == PowerLaw(9.0, 0.5)

    def test_positive_coef_required(self):
        with pytest.raises(ValueError):
            PowerLaw(0.0, 1.0)


class TestAveragingWeight:
    def test_inverse_time_rate(self):
        a = PowerLaw(1.0, -1.0)
        assert averaging_weight(a, 1.0, 5.0) == pytest.approx(5.0)

    def test_constant_zero_like(self):
        # constant a gives exponential weight; exponent 0 with tiny coef ~ 1
        a = PowerLaw(1e-12, 0.0)
        assert averaging_weight(a, 1.0, 100.0) == pytest.approx(1.0, rel=1e-9)

    def test_two_over_t(self):
        a = PowerLaw(2.0, -1.0)
        assert averaging_weight(a, 1.0, 3.0) == pytest.approx(9.0)

    def test_closed_form_matches_quadrature_on_long_span(self):
        a = PowerLaw(1.5, -1.0)
        val, _ = quad(a.value, 1.0, 100.0, limit=200)
        assert averaging_weight(a, 1.0, 100.0) == pytest.approx(math.exp(val), rel=1e-8)


class TestRateBundle:
    def test_derived_averaging_rate(self):
        b = coupled_bundle(alpha_r=2.0, alpha_s=0.0)
        # eta = 2t, r = t^2 -> a = 2/t
        assert b.a.coef == pytest.approx(2.0)
        assert b.a.exponent == -1.0
        for t in np.geomspace(1.0, 1e3, 1000):
            assert b.a.value(t) == pytest.approx(b.eta.value(t) / b.r.value(t), rel=1e-14)

    def test_equality_coupling_admissible(self):
        # eta = r' exactly passes on any horizon
        b = coupled_bundle(alpha_r=0.8, alpha_s=0.5)
        assert check_admissible(b, horizon=1e4).passed

    def test_learning_rate_shortfall_detected(self):
        b = RateBundle(eta=CONSTANT_ONE, r=PowerLaw(1.0, 2.0), s=CONSTANT_ONE)
        report = check_admissible(b, horizon=10.0)
        assert not report.passed
        names = [c.name for c in report.conditions if not c.passed]
        assert any("learning rate" in n for n in names)

    def test_decreasing_sensitivity_detected(self):
        b = RateBundle(eta=PowerLaw(1.0, 0.0), r=CONSTANT_ONE, s=PowerLaw(1.0, -0.3))
        report = check_admissible(b, horizon=10.0)
        assert not report.passed
        assert any("sensitivity" in c.name for c in report.conditions if not c.passed)

    def test_optimal_exponents_always_admissible(self):
        for alpha_sigma in (-1.0, -0.5, 0.0, 0.2, 0.4):
            for alpha_s in (0.0, 0.5, 1.0):
                alpha_r = optimal_amd_exponents(alpha_sigma, alpha_s)
                if alpha_r <= 0:
                    continue
                assert check_admissible(
                    coupled_bundle(alpha_r, alpha_s), horizon=1e3
                ).passed


class TestExponentRules:
    def test_accelerated_rule(self):
        assert optimal_amd_exponents(0.2, 0.5) == pytest.approx(0.8)
        assert optimal_amd_exponents(0.0, 0.5) == pytest.approx(1.0)
        assert optimal_amd_exponents(-0.5, 0.0) == pytest.approx(1.0)

    def test_accelerated_rule_invalid_regimes(self):
        with pytest.raises(InvalidRegime):
            optimal_amd_exponents(0.5, 1.0)
        with pytest.raises(InvalidRegime):
            optimal_amd_exponents(0.4, -1.0)  # derived alpha_r <= 0

    def test_plain_rule(self):
        choice = optimal_smd_exponent(0.0)
        assert choice.alpha_s == pytest.approx(0.5)
        assert choice.rate_exponent == pytest.approx(-0.5)
        # decay faster than t^(-1/2) cannot be exploited
        choice = optimal_smd_exponent(-1.0)
        assert choice.alpha_s == 0.0
        assert choice.rate_exponent == pytest.approx(-1.0)
        assert optimal_smd_exponent(0.2).alpha_s == pytest.approx(0.7)
        with pytest.raises(InvalidRegime):
            optimal_smd_exponent(0.6)
