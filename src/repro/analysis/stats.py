"""Replication statistics.

Small, well-tested statistical helpers for summarising Monte Carlo
replications: sample summaries, Student-t confidence intervals, and
the two-sample tests the validation gates use.

``scipy.stats`` is imported inside the functions that call it, as in
:mod:`repro.analysis.timeseries`: importing it costs about a second, and
no simulation job calls these helpers, so a run path never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SampleSummary:
    """Summary of one scalar measured across replications."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_lower: float
    ci_upper: float
    confidence: float

    @property
    def ci_half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_upper - self.ci_lower) / 2.0

    def format(self, unit: str = "") -> str:
        """Render as ``mean ± hw unit (n=count)``."""
        suffix = f" {unit}" if unit else ""
        return f"{self.mean:.2f} ± {self.ci_half_width:.2f}{suffix} (n={self.count})"


def summarize(values: Sequence[float], confidence: float = 0.95) -> SampleSummary:
    """Summarise a sample with a Student-t confidence interval.

    With one observation the CI degenerates to the point estimate.
    """
    if len(values) == 0:
        raise ValueError("cannot summarise an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    array = np.asarray(values, dtype=float)
    mean = float(array.mean())
    if len(array) > 1:
        from scipy import stats as scipy_stats

        std = float(array.std(ddof=1))
        t_value = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=len(array) - 1))
        half_width = t_value * std / math.sqrt(len(array))
    else:
        std = 0.0
        half_width = 0.0
    return SampleSummary(
        count=len(array),
        mean=mean,
        std=std,
        minimum=float(array.min()),
        maximum=float(array.max()),
        ci_lower=mean - half_width,
        ci_upper=mean + half_width,
        confidence=confidence,
    )


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Welch's two-sample t-test; returns ``(statistic, p_value)``.

    Used by tests to confirm that a response mechanism's final infection
    level differs significantly from the baseline's.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("welch_t_test needs at least 2 observations per sample")
    from scipy import stats as scipy_stats

    result = scipy_stats.ttest_ind(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), equal_var=False
    )
    return float(result.statistic), float(result.pvalue)


def mean_difference_ci(
    a: Sequence[float],
    b: Sequence[float],
    confidence: float = 0.95,
) -> Tuple[float, float, float]:
    """Welch CI for ``mean(a) - mean(b)``: ``(difference, lower, upper)``.

    Uses the Welch–Satterthwaite degrees of freedom, so unequal variances
    and sample sizes are handled.  The differential validation gates accept
    two engines as equivalent when this interval sits inside the declared
    margin.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("mean_difference_ci needs at least 2 observations per sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    diff = float(xa.mean() - xb.mean())
    var_a = float(xa.var(ddof=1)) / len(xa)
    var_b = float(xb.var(ddof=1)) / len(xb)
    se = math.sqrt(var_a + var_b)
    if se == 0.0:
        return diff, diff, diff
    df = (var_a + var_b) ** 2 / (
        var_a**2 / (len(xa) - 1) + var_b**2 / (len(xb) - 1)
    )
    from scipy import stats as scipy_stats

    t_value = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=df))
    return diff, diff - t_value * se, diff + t_value * se


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Two-sided Mann–Whitney U test; returns ``(statistic, p_value)``.

    Rank-based, so — unlike Kolmogorov–Smirnov — it stays calibrated on the
    heavily tied small-integer samples that final infection counts produce.
    Degenerate identical-constant samples return ``p = 1.0`` (no evidence
    of a difference) instead of scipy's error.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("mann_whitney_u needs at least 2 observations per sample")
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if np.ptp(np.concatenate([xa, xb])) == 0.0:
        return float(len(xa) * len(xb) / 2.0), 1.0
    from scipy import stats as scipy_stats

    result = scipy_stats.mannwhitneyu(xa, xb, alternative="two-sided")
    return float(result.statistic), float(result.pvalue)


__all__ = [
    "SampleSummary",
    "summarize",
    "welch_t_test",
    "mean_difference_ci",
    "mann_whitney_u",
]
