"""The scalar reference route in tests/reference.py, against hand arithmetic and closed forms."""

import numpy as np
import pytest

from conftest import make_params
from reference import agent_utility, annual_savings, economic_utility, net_present_value


def annuity_sum(rate, horizon):
    """Closed-form oracle for sum_{t=0..horizon} (1 + rate)^-t."""
    if rate == 0:
        return horizon + 1.0
    return 1.0 + (1.0 - (1.0 + rate) ** -horizon) / rate


class TestAnnualSavings:
    def test_zero_generation_leaves_only_maintenance(self):
        assert annual_savings(0.0, 0.20, 10000.0, 0.02) == -200.0

    def test_direct_arithmetic(self):
        # 6000 * 0.20 = 1200; 0.02 * 10000 = 200
        assert annual_savings(6000.0, 0.20, 10000.0, 0.02) == pytest.approx(1000.0)

    def test_hand_arithmetic(self):
        # 6000 * 0.15 = 900; 0.02 * 5000 = 100
        assert annual_savings(6000.0, 0.15, 5000.0, 0.02) == pytest.approx(800.0)


class TestNetPresentValue:
    def test_zero_savings(self):
        assert net_present_value([0.0] * 10, 0.07) == 0.0

    def test_two_term_hand_summation(self):
        expected = 100.0 + 100.0 / 1.04
        assert net_present_value([100.0, 100.0], 0.04) == pytest.approx(expected, rel=1e-12)

    def test_constant_series_matches_annuity_oracle(self):
        npv = net_present_value([1000.0] * 21, 0.04)
        assert npv == pytest.approx(1000.0 * annuity_sum(0.04, 20), rel=1e-9)
        assert npv == pytest.approx(14590.33, abs=0.01)

    def test_zero_discount_equals_plain_sum(self):
        values = [10.0, -2.5, 7.25, 100.0, 0.125]
        assert net_present_value(values, 0.0) == sum(values)

    def test_monotone_in_discount_rate_for_nonnegative_savings(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            values = rng.uniform(0.0, 1000.0, size=rng.integers(1, 30)).tolist()
            r1, r2 = sorted(rng.uniform(-0.5, 0.5, size=2))
            assert net_present_value(values, r1) >= net_present_value(values, r2)

    def test_annuity_identity_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            horizon = int(rng.integers(0, 60))
            rate = float(rng.uniform(0.001, 0.3))
            level = float(rng.uniform(-500.0, 2000.0))
            npv = net_present_value([level] * (horizon + 1), rate)
            assert npv == pytest.approx(level * annuity_sum(rate, horizon), rel=1e-9, abs=1e-9)


class TestEconomicUtility:
    def test_npv_exactly_offsets_cost(self):
        assert economic_utility(10000.0, 10000.0, 0.0) == 0.0

    def test_direct_arithmetic(self):
        assert economic_utility(14590.33, 12000.0, 2400.0) == pytest.approx(4990.33)

    def test_worst_cost_best_subsidy_no_savings(self):
        assert economic_utility(0.0, 15000.0, 3500.0) == -11500.0

    def test_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            npv, iic, sub, d = rng.uniform(-1e5, 1e5, size=4)
            base = economic_utility(npv, iic, sub)
            assert economic_utility(npv + d, iic, sub) == pytest.approx(base + d, rel=1e-9, abs=1e-6)
            assert economic_utility(npv, iic + d, sub) == pytest.approx(base - d, rel=1e-9, abs=1e-6)
            assert economic_utility(npv, iic, sub + d) == pytest.approx(base + d, rel=1e-9, abs=1e-6)


class TestAgentUtility:
    def test_zero_horizon_zero_generation_subsidy_offsets_cost(self):
        params = make_params(horizon_years=0, annual_generation_kwh=0.0)
        utility = agent_utility(10000.0, params, energy_price=0.2, subsidy=10000.0)
        assert utility == pytest.approx(-0.02 * 10000.0, rel=1e-12)

    def test_chained_annuity_oracle(self):
        # R = 6000 * 0.20 - 0.02 * 10000 = 1000; NPV = 1000 * annuity(0.04, 20)
        params = make_params()
        utility = agent_utility(10000.0, params, energy_price=0.20, subsidy=2400.0)
        oracle = 1000.0 * annuity_sum(0.04, 20) - 10000.0 + 2400.0
        assert utility == pytest.approx(oracle, rel=1e-12)
        assert utility == pytest.approx(6990.33, abs=0.01)

    def test_cost_difference_is_algebraic(self):
        # utility is affine in pv_cost with slope -(1 + maintenance * annuity)
        params = make_params()
        u_cheap = agent_utility(5000.0, params, energy_price=0.20, subsidy=2400.0)
        u_dear = agent_utility(15000.0, params, energy_price=0.20, subsidy=2400.0)
        expected_diff = 10000.0 * (1.0 + 0.02 * annuity_sum(0.04, 20))
        assert u_cheap - u_dear == pytest.approx(expected_diff, rel=1e-12)

    def test_affine_slope_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            maintenance = float(rng.uniform(0.0, 0.2))
            rate = float(rng.uniform(0.0, 0.2))
            horizon = int(rng.integers(0, 40))
            params = make_params(
                maintenance_rate=maintenance, discount_rate=rate, horizon_years=horizon,
                pv_cost_min=1000.0, pv_cost_max=50000.0,
            )
            c1, c2 = sorted(rng.uniform(1000.0, 50000.0, size=2))
            if c2 - c1 < 1.0:
                continue
            u1 = agent_utility(c1, params, 0.2, 1500.0)
            u2 = agent_utility(c2, params, 0.2, 1500.0)
            slope = (u2 - u1) / (c2 - c1)
            assert slope == pytest.approx(-(1.0 + maintenance * annuity_sum(rate, horizon)),
                                          rel=1e-6, abs=1e-9)
