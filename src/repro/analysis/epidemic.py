"""Epidemic-curve shape diagnostics.

The S-shape check and growth concentration (Virus 2's step-like curve)
behind the shape checks, and the early exponential growth rate and
doubling time.  Containment fractions and delays to a level are computed
by the shape checks in :mod:`repro.experiments.checks`; the analytic
plateau is :mod:`repro.analysis.meanfield`'s.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .timeseries import StepCurve


def is_s_shaped(
    curve: StepCurve,
    grid_points: int = 200,
    tolerance: float = 0.05,
) -> bool:
    """Check the classic epidemic shape: slow start, fast middle, plateau.

    The check runs over the curve's own *dynamic range* — from its start
    to the moment it reaches 99% of its final value — so a virus that
    saturates early in a long observation window (the paper plots Virus 1
    to 432 h although it plateaus around 200 h) is still recognised.  On
    that range, the middle third's growth must exceed both the first
    tenth's and the last tenth's, and the curve must be (weakly) monotone.
    """
    if curve.final_value <= 0:
        return False
    end = curve.time_to_reach(0.99 * curve.final_value)
    if end is None or end <= curve.start_time:
        end = curve.end_time
    if end <= curve.start_time:
        return False
    grid = np.linspace(curve.start_time, end, grid_points)
    values = curve.resample(grid)
    if np.any(np.diff(values) < -1e-9):
        return False
    total = values[-1] - values[0]
    if total <= 0:
        return False
    tenth = grid_points // 10
    early_growth = values[tenth] - values[0]
    late_growth = values[-1] - values[-tenth - 1]
    middle_growth = values[2 * grid_points // 3] - values[grid_points // 3]
    return (
        middle_growth >= early_growth - tolerance * total
        and middle_growth >= late_growth - tolerance * total
    )


def growth_concentration(curve: StepCurve, bins: int = 48) -> float:
    """Herfindahl concentration of growth across uniform time bins.

    0..1; higher means growth is concentrated in bursts.  Virus 2's
    step-like curve (all sending within the first hour of each 24-hour
    budget period) scores well above Virus 1's smooth curve.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    grid = np.linspace(curve.start_time, curve.end_time, bins + 1)
    values = curve.resample(grid)
    increments = np.diff(values)
    total = increments.sum()
    if total <= 0:
        return 0.0
    shares = increments / total
    return float(np.sum(shares**2))


def exponential_growth_rate(
    curve: StepCurve,
    lower_fraction: float = 0.05,
    upper_fraction: float = 0.5,
) -> Optional[float]:
    """Early exponential growth rate λ (per hour) of an epidemic curve.

    Fits ``log(I(t))`` linearly over the window where the curve is between
    ``lower_fraction`` and ``upper_fraction`` of its final value — the
    phase before saturation bends the curve.  Returns ``None`` when the
    window is degenerate (fewer than three change points inside it).
    """
    if not 0.0 < lower_fraction < upper_fraction <= 1.0:
        raise ValueError(
            f"need 0 < lower < upper <= 1, got {lower_fraction}, {upper_fraction}"
        )
    final = curve.final_value
    if final <= 0:
        return None
    t_low = curve.time_to_reach(max(1.0, lower_fraction * final))
    t_high = curve.time_to_reach(upper_fraction * final)
    if t_low is None or t_high is None or t_high <= t_low:
        return None
    times = curve.times
    values = curve.values
    mask = (times >= t_low) & (times <= t_high) & (values > 0)
    if mask.sum() < 3:
        return None
    t = times[mask]
    log_i = np.log(values[mask])
    slope = np.polyfit(t, log_i, 1)[0]
    return float(slope)


def doubling_time(curve: StepCurve) -> Optional[float]:
    """Early doubling time (hours) derived from the exponential fit."""
    rate = exponential_growth_rate(curve)
    if rate is None or rate <= 0:
        return None
    return float(np.log(2.0) / rate)


__all__ = [
    "is_s_shaped",
    "growth_concentration",
    "exponential_growth_rate",
    "doubling_time",
]
