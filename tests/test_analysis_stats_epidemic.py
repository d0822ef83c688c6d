"""Tests for statistics helpers and epidemic-curve analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    StepCurve,
    growth_concentration,
    is_s_shaped,
    summarize,
    welch_t_test,
)
from repro.analysis.stats import mann_whitney_u, mean_difference_ci


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.count == 4
        assert summary.ci_lower < 2.5 < summary.ci_upper

    def test_single_observation_degenerates(self):
        summary = summarize([7.0])
        assert summary.mean == 7.0
        assert summary.ci_half_width == 0.0

    def test_ci_contains_true_mean_usually(self):
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(200):
            sample = rng.normal(10.0, 2.0, size=10)
            summary = summarize(sample.tolist(), confidence=0.95)
            if summary.ci_lower <= 10.0 <= summary.ci_upper:
                hits += 1
        assert hits >= 180  # ≈ 95% coverage

    def test_format(self):
        assert "n=3" in summarize([1.0, 2.0, 3.0]).format("phones")

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0], confidence=1.5)


class TestWelch:
    def test_distinguishes_different_means(self):
        rng = np.random.default_rng(1)
        a = rng.normal(10, 1, 30).tolist()
        b = rng.normal(14, 1, 30).tolist()
        _, p = welch_t_test(a, b)
        assert p < 0.001

    def test_same_distribution_not_significant(self):
        rng = np.random.default_rng(2)
        a = rng.normal(10, 1, 30).tolist()
        b = rng.normal(10, 1, 30).tolist()
        _, p = welch_t_test(a, b)
        assert p > 0.01

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])


class TestPinnedValues:
    """Exact outputs of the scipy-backed helpers, recorded before their
    ``scipy.stats`` import moved into the functions: deferring the import
    must not move a bit."""

    A = [3.0, 5.0, 4.0, 9.0, 7.0, 6.0]
    B = [1.0, 2.0, 2.0, 4.0, 3.0]

    def test_summarize(self):
        summary = summarize(self.A)
        assert (summary.count, summary.mean, summary.std) == (
            6,
            5.666666666666667,
            2.1602468994692865,
        )
        assert (summary.ci_lower, summary.ci_upper) == (
            3.3996265793888,
            7.933706753944534,
        )
        narrow = summarize(self.A, confidence=0.9)
        assert (narrow.ci_lower, narrow.ci_upper) == (
            3.889561041465195,
            7.4437722918681395,
        )

    def test_welch_t_test(self):
        assert welch_t_test(self.A, self.B) == (3.206657955918074, 0.012888424560541142)

    def test_mean_difference_ci(self):
        assert mean_difference_ci(self.A, self.B) == (
            3.266666666666667,
            0.9075548918117149,
            5.62577844152162,
        )
        assert mean_difference_ci(self.A, self.B, confidence=0.99) == (
            3.266666666666667,
            -0.17573955245815442,
            6.709072885791489,
        )

    def test_mann_whitney_u(self):
        assert mann_whitney_u(self.A, self.B) == (28.0, 0.021567561422375793)


def logistic_curve(final=320.0, rate=0.08, midpoint=80.0, end=432.0) -> StepCurve:
    times = np.linspace(0, end, 400)
    values = final / (1 + np.exp(-rate * (times - midpoint)))
    return StepCurve(list(zip(times.tolist(), values.tolist())))


class TestEpidemicMeasures:
    def test_s_shape_detection(self):
        assert is_s_shaped(logistic_curve())
        linear = StepCurve([(0.0, 0.0), (432.0, 320.0)])
        # A pure two-point step is technically monotone; growth happens
        # in one jump, middle third compares fine — use a decreasing check.
        decreasing = StepCurve([(0.0, 5.0), (1.0, 3.0)])
        assert not is_s_shaped(decreasing)
        assert not is_s_shaped(StepCurve.constant(0.0))

    def test_growth_concentration_orders_step_vs_smooth(self):
        smooth = logistic_curve(rate=0.02, midpoint=200.0)
        steps = StepCurve(
            [(0.0, 0.0)]
            + [(24.0 * (k + 1), 80.0 * (k + 1)) for k in range(4)]
            + [(432.0, 320.0)]
        )
        assert growth_concentration(steps) > growth_concentration(smooth)
