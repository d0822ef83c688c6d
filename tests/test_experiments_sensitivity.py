"""Tests for strength sweeps and diminishing-returns analysis."""

from __future__ import annotations

import pytest

from repro.core import UserEducationConfig
from repro.design.library import (
    SWEEP_AXES,
    SweepAxis,
    design_strength_sweep,
    get_design,
)
from repro.design.model import Factor, Level
from repro.experiments import ReplicationScheduler
from repro.experiments.sensitivity import (
    format_sweep,
    knee_point,
    sweep_finals,
    sweep_knee,
)


class TestKneePoint:
    def test_clear_knee_found(self):
        xs = [0, 1, 2, 3, 4, 5]
        ys = [0, 80, 95, 98, 99, 100]  # saturating benefit
        index = knee_point(xs, ys)
        assert index in (1, 2)

    def test_linear_curve_has_no_knee(self):
        xs = [0, 1, 2, 3, 4]
        ys = [0, 25, 50, 75, 100]
        assert knee_point(xs, ys) is None

    def test_flat_curve_has_no_knee(self):
        assert knee_point([0, 1, 2], [5, 5, 5]) is None

    def test_too_few_points(self):
        assert knee_point([0, 1], [0, 1]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            knee_point([0, 1, 2], [0, 1])


TINY_AXIS = SweepAxis(
    virus=3,
    label="acceptance scale",
    larger_is_stronger=False,
    strengths=(0.1, 0.5, 1.0),
    response=lambda v: UserEducationConfig(acceptance_scale=v),
)


def tiny_sweep(axis: SweepAxis = TINY_AXIS):
    """Virus 3 education sweep on 150 phones over 6 hours."""
    return design_strength_sweep(
        "tiny_education",
        axis,
        Factor("population", (Level("", 150),)),
        Factor("duration", (Level("", 6.0),)),
    )


def run_tiny(replications: int, seed: int):
    with ReplicationScheduler() as scheduler:
        return scheduler.run_experiment(
            tiny_sweep().to_spec(), replications=replications, seed=seed
        )


class TestRunSweep:
    def test_sweep_runs_and_orders(self):
        result = run_tiny(replications=2, seed=1)
        baseline, finals = sweep_finals(result)
        assert len(finals) == 3
        # Stronger education (smaller scale) => fewer infections.
        assert finals[0] < finals[2]
        containment = [final / baseline for final in finals]
        assert all(0.0 <= c <= 1.3 for c in containment)
        benefit = [max(0.0, baseline - final) for final in finals]
        assert benefit[0] >= benefit[2]
        assert sweep_knee(TINY_AXIS, result) in TINY_AXIS.strengths + (None,)

    def test_format_contains_table_and_verdict(self):
        text = format_sweep(TINY_AXIS, run_tiny(replications=1, seed=1))
        assert "acceptance scale" in text
        assert "baseline" in text
        assert ("knee" in text) or ("flat" in text)

    def test_reproducible(self):
        a = sweep_finals(run_tiny(replications=1, seed=3))
        b = sweep_finals(run_tiny(replications=1, seed=3))
        assert a == b


class TestStandardSweeps:
    def test_all_mechanisms_covered(self):
        assert set(SWEEP_AXES) == {
            "scan_delay",
            "detection_accuracy",
            "education_scale",
            "patch_deployment",
            "monitoring_wait",
            "blacklist_threshold",
        }

    def test_specs_wellformed(self):
        for sweep_id, axis in SWEEP_AXES.items():
            spec = get_design(sweep_id).to_spec()
            assert spec.experiment_id == sweep_id
            assert len(axis.strengths) >= 3
            labels = [series.label for series in spec.series]
            assert labels == ["baseline"] + [
                f"{sweep_id}={v:g}" for v in axis.strengths
            ]
            assert spec.series[1].scenario.responses == (
                axis.response(axis.strengths[0]),
            )

    def test_sweep_requires_three_strengths(self):
        with pytest.raises(ValueError):
            tiny_sweep(TINY_AXIS._replace(strengths=(1.0, 2.0)))
