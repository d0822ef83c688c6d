"""Reusable shape-check builders.

Each builder returns a :class:`~repro.experiments.spec.ShapeCheck` closure
that encodes one qualitative claim from the paper's evaluation (orderings,
containment factors, plateau levels, curve shapes) as a predicate over the
simulated replication sets.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..analysis.epidemic import growth_concentration, is_s_shaped
from ..core.simulation import ReplicationSet
from .spec import CheckResult, ShapeCheck


def _final(results: Dict[str, ReplicationSet], label: str) -> float:
    return results[label].final_summary().mean


def plateau_near(
    label: str,
    expected: float,
    rel_tolerance: float = 0.15,
    name: Optional[str] = None,
) -> ShapeCheck:
    """Final infection level of ``label`` within ±tolerance of ``expected``."""

    def check(results: Dict[str, ReplicationSet]) -> CheckResult:
        value = _final(results, label)
        low, high = expected * (1 - rel_tolerance), expected * (1 + rel_tolerance)
        return CheckResult(
            name=name or f"plateau({label})≈{expected:g}",
            passed=low <= value <= high,
            detail=f"final={value:.1f}, expected {expected:g} ±{rel_tolerance:.0%}",
        )

    return check


def final_ordering(labels: Sequence[str], name: Optional[str] = None) -> ShapeCheck:
    """Final levels weakly increase along ``labels`` (small slack allowed)."""
    label_list = list(labels)

    def check(results: Dict[str, ReplicationSet]) -> CheckResult:
        values = [_final(results, label) for label in label_list]
        # Allow 5%-of-max slack for Monte Carlo noise between neighbours.
        slack = 0.05 * max(values) if values else 0.0
        ok = all(values[i] <= values[i + 1] + slack for i in range(len(values) - 1))
        detail = ", ".join(f"{l}={v:.1f}" for l, v in zip(label_list, values))
        return CheckResult(
            name=name or f"ordering({' <= '.join(label_list)})",
            passed=ok,
            detail=detail,
        )

    return check


def containment_below(
    label: str,
    baseline_label: str,
    max_fraction: float,
    name: Optional[str] = None,
) -> ShapeCheck:
    """Final level of ``label`` at most ``max_fraction`` of the baseline's."""

    def check(results: Dict[str, ReplicationSet]) -> CheckResult:
        value = _final(results, label)
        base = _final(results, baseline_label)
        fraction = value / base if base else float("inf")
        return CheckResult(
            name=name or f"containment({label} <= {max_fraction:.0%} of {baseline_label})",
            passed=fraction <= max_fraction,
            detail=f"{value:.1f} / {base:.1f} = {fraction:.1%}",
        )

    return check


def containment_between(
    label: str,
    baseline_label: str,
    min_fraction: float,
    max_fraction: float,
    name: Optional[str] = None,
) -> ShapeCheck:
    """Final level of ``label`` between bounds relative to the baseline."""

    def check(results: Dict[str, ReplicationSet]) -> CheckResult:
        value = _final(results, label)
        base = _final(results, baseline_label)
        fraction = value / base if base else float("inf")
        return CheckResult(
            name=name
            or f"containment({label} in [{min_fraction:.0%}, {max_fraction:.0%}] of baseline)",
            passed=min_fraction <= fraction <= max_fraction,
            detail=f"{value:.1f} / {base:.1f} = {fraction:.1%}",
        )

    return check


def ineffective(
    label: str,
    baseline_label: str,
    min_fraction: float = 0.85,
    name: Optional[str] = None,
) -> ShapeCheck:
    """The mechanism leaves at least ``min_fraction`` of the baseline level."""

    def check(results: Dict[str, ReplicationSet]) -> CheckResult:
        value = _final(results, label)
        base = _final(results, baseline_label)
        fraction = value / base if base else 1.0
        return CheckResult(
            name=name or f"ineffective({label} vs {baseline_label})",
            passed=fraction >= min_fraction,
            detail=f"{value:.1f} / {base:.1f} = {fraction:.1%} (>= {min_fraction:.0%})",
        )

    return check


def slower_to_level(
    label: str,
    baseline_label: str,
    level: float,
    min_delay: float,
    name: Optional[str] = None,
) -> ShapeCheck:
    """``label`` reaches ``level`` at least ``min_delay`` hours after baseline.

    Never reaching the level at all also passes (complete containment).
    """

    def check(results: Dict[str, ReplicationSet]) -> CheckResult:
        base_time = results[baseline_label].mean_curve().time_to_reach(level)
        slow_time = results[label].mean_curve().time_to_reach(level)
        if base_time is None:
            return CheckResult(
                name=name or f"slower({label} to {level:g})",
                passed=False,
                detail=f"baseline never reached {level:g}",
            )
        if slow_time is None:
            return CheckResult(
                name=name or f"slower({label} to {level:g})",
                passed=True,
                detail=f"baseline at {base_time:.1f}h; {label} never reached {level:g}",
            )
        return CheckResult(
            name=name or f"slower({label} to {level:g})",
            passed=slow_time - base_time >= min_delay,
            detail=f"baseline {base_time:.1f}h vs {label} {slow_time:.1f}h "
            f"(delay {slow_time - base_time:.1f}h >= {min_delay:g}h)",
        )

    return check


def s_shaped(label: str, name: Optional[str] = None) -> ShapeCheck:
    """The mean curve has the classic epidemic S shape."""

    def check(results: Dict[str, ReplicationSet]) -> CheckResult:
        curve = results[label].mean_curve()
        return CheckResult(
            name=name or f"s_shaped({label})",
            passed=is_s_shaped(curve),
            detail=f"final={curve.final_value:.1f}",
        )

    return check


def steppier_than(
    label: str,
    other: str,
    bins: int = 48,
    name: Optional[str] = None,
) -> ShapeCheck:
    """Growth of ``label`` is burstier than ``other`` (Virus 2's steps)."""

    def check(results: Dict[str, ReplicationSet]) -> CheckResult:
        # Compare over each curve's own horizon with equal bin counts.
        conc_a = growth_concentration(results[label].mean_curve(), bins)
        conc_b = growth_concentration(results[other].mean_curve(), bins)
        return CheckResult(
            name=name or f"steppier({label} > {other})",
            passed=conc_a > conc_b,
            detail=f"concentration {label}={conc_a:.3f} vs {other}={conc_b:.3f}",
        )

    return check


def faster_saturation(
    fast_label: str,
    slow_label: str,
    level_fraction: float = 0.5,
    name: Optional[str] = None,
) -> ShapeCheck:
    """``fast_label`` reaches the fraction of its own final level sooner."""

    def check(results: Dict[str, ReplicationSet]) -> CheckResult:
        fast = results[fast_label].mean_curve()
        slow = results[slow_label].mean_curve()
        fast_time = fast.time_to_reach(level_fraction * fast.final_value)
        slow_time = slow.time_to_reach(level_fraction * slow.final_value)
        ok = fast_time is not None and slow_time is not None and fast_time < slow_time
        return CheckResult(
            name=name or f"faster({fast_label} < {slow_label})",
            passed=ok,
            detail=f"{fast_label} t{level_fraction:.0%}={fast_time and round(fast_time, 1)}h, "
            f"{slow_label} t{level_fraction:.0%}={slow_time and round(slow_time, 1)}h",
        )

    return check


__all__ = [
    "plateau_near",
    "final_ordering",
    "containment_below",
    "containment_between",
    "ineffective",
    "slower_to_level",
    "s_shaped",
    "steppier_than",
    "faster_saturation",
]
