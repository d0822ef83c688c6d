"""Tests for early growth-rate and doubling-time estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    StepCurve,
    doubling_time,
    exponential_growth_rate,
)


def exponential_then_plateau(rate=0.2, cap=320.0, horizon=100.0) -> StepCurve:
    times = np.linspace(0.01, horizon, 600)
    values = np.minimum(np.exp(rate * times), cap)
    return StepCurve([(0.0, 1.0)] + list(zip(times.tolist(), values.tolist())))


class TestGrowthRate:
    def test_recovers_known_rate(self):
        curve = exponential_then_plateau(rate=0.2)
        fitted = exponential_growth_rate(curve)
        assert fitted == pytest.approx(0.2, rel=0.1)

    def test_doubling_time(self):
        curve = exponential_then_plateau(rate=np.log(2.0) / 5.0)  # doubling 5 h
        assert doubling_time(curve) == pytest.approx(5.0, rel=0.15)

    def test_faster_epidemic_higher_rate(self):
        slow = exponential_then_plateau(rate=0.05)
        fast = exponential_then_plateau(rate=0.5)
        assert exponential_growth_rate(fast) > exponential_growth_rate(slow)

    def test_flat_curve_returns_none(self):
        assert exponential_growth_rate(StepCurve.constant(0.0)) is None
        assert doubling_time(StepCurve.constant(5.0)) is None

    def test_too_few_points_returns_none(self):
        curve = StepCurve([(0.0, 1.0), (1.0, 320.0)])
        assert exponential_growth_rate(curve) is None

    def test_window_validation(self):
        curve = exponential_then_plateau()
        with pytest.raises(ValueError):
            exponential_growth_rate(curve, lower_fraction=0.5, upper_fraction=0.1)


class TestR0:
    def test_simulated_virus_ordering(self):
        """V3's growth rate dwarfs V1's in actual simulations."""
        from repro.core import NetworkParameters, baseline_scenario
        from repro.core.simulation import run_scenario

        network = NetworkParameters(population=300, mean_contact_list_size=24.0)
        rate1 = exponential_growth_rate(
            run_scenario(baseline_scenario(1, network=network), seed=8).curve()
        )
        rate3 = exponential_growth_rate(
            run_scenario(baseline_scenario(3, network=network), seed=8).curve()
        )
        assert rate1 is not None and rate3 is not None
        assert rate3 > 3 * rate1
