"""Tests for the experiment harness: specs, registry, checks, runner."""

from __future__ import annotations

import pytest

from repro.core import ScenarioConfig, VirusParameters, NetworkParameters, UserParameters
from repro.design.library import PAPER_PLATEAU, experiment_ids, get_experiment
from repro.experiments import (
    CheckResult,
    ExperimentSpec,
    SeriesSpec,
    export_csv,
    format_experiment_report,
    run_experiment,
)
from repro.experiments import checks


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        for fig in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
            assert fig in ids
        assert "blacklist-slow" in ids
        assert "scaling2000" in ids

    def test_specs_build_and_match_paper_series_counts(self):
        expected_series = {
            "fig1": 4,   # four baselines
            "fig2": 4,   # baseline + 3 scan delays
            "fig3": 6,   # baseline + 5 accuracies
            "fig4": 8,   # 4 viruses × (baseline, educated)
            "fig5": 7,   # baseline + 2 dev × 3 deploy
            "fig6": 4,   # baseline + 3 waits
            "fig7": 5,   # baseline + 4 thresholds
        }
        for experiment_id, count in expected_series.items():
            spec = get_experiment(experiment_id)
            assert len(spec.series) == count
            assert spec.shape_checks  # every figure has encoded claims

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_paper_plateau_constant(self):
        assert PAPER_PLATEAU == 320.0

    def test_fig5_labels_match_paper_legend_style(self):
        labels = [s.label for s in get_experiment("fig5").series]
        assert "hours-24-25" in labels
        assert "hours-24-48" in labels
        assert "hours-48-72" in labels


class TestSpecValidation:
    def make_series(self, label="s"):
        scenario = ScenarioConfig(
            name=label, virus=VirusParameters(name="v"), duration=1.0
        )
        return SeriesSpec(label, scenario)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                experiment_id="x",
                title="t",
                paper_ref="r",
                description="d",
                series=(self.make_series("a"), self.make_series("a")),
            )

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                experiment_id="x", title="t", paper_ref="r",
                description="d", series=(),
            )

    def test_horizon_is_longest_series(self):
        short = self.make_series("short")
        long_scenario = ScenarioConfig(
            name="long", virus=VirusParameters(name="v"), duration=9.0
        )
        spec = ExperimentSpec(
            experiment_id="x", title="t", paper_ref="r", description="d",
            series=(short, SeriesSpec("long", long_scenario)),
        )
        assert spec.horizon == 9.0

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            self.make_series("")


def tiny_experiment() -> ExperimentSpec:
    """A fast two-series experiment over a 100-phone network."""
    network = NetworkParameters(population=100, mean_contact_list_size=12.0)
    virus = VirusParameters(
        name="tiny", min_send_interval=0.05, extra_send_delay_mean=0.05
    )
    fast = ScenarioConfig(
        name="fast", virus=virus, network=network,
        user=UserParameters(read_delay_mean=0.1), duration=24.0,
    )
    from repro.core import UserEducationConfig

    educated = fast.with_responses(
        UserEducationConfig(acceptance_scale=0.5), suffix="edu"
    )
    return ExperimentSpec(
        experiment_id="tiny",
        title="Tiny",
        paper_ref="(test)",
        description="test experiment",
        series=(SeriesSpec("baseline", fast), SeriesSpec("educated", educated)),
        checkpoints=(12.0,),
        shape_checks=(
            checks.final_ordering(["educated", "baseline"]),
            checks.containment_below("educated", "baseline", 0.9),
        ),
    )


class TestRunner:
    def test_run_and_report(self, tmp_path):
        result = run_experiment(tiny_experiment(), replications=2, seed=1)
        assert result.replications == 2
        assert set(result.series_results) == {"baseline", "educated"}
        report = format_experiment_report(result)
        assert "Tiny" in report
        assert "shape checks:" in report
        assert "t=12h" in report
        curves = result.mean_curves()
        assert curves["baseline"].final_value >= curves["educated"].final_value

    def test_checks_run(self):
        result = run_experiment(tiny_experiment(), replications=2, seed=1)
        outcomes = result.run_checks()
        assert len(outcomes) == 2
        assert all(isinstance(c, CheckResult) for c in outcomes)

    def test_csv_export(self, tmp_path):
        result = run_experiment(tiny_experiment(), replications=1, seed=1)
        path = export_csv(result, tmp_path / "out" / "tiny.csv", grid_points=10)
        content = path.read_text().splitlines()
        assert content[0] == "hours,baseline,educated"
        assert len(content) == 11

    def test_reproducible(self):
        a = run_experiment(tiny_experiment(), replications=1, seed=5)
        b = run_experiment(tiny_experiment(), replications=1, seed=5)
        assert (
            a.series_results["baseline"].final_infected()
            == b.series_results["baseline"].final_infected()
        )


class TestCheckBuilders:
    def run_tiny(self):
        return run_experiment(tiny_experiment(), replications=2, seed=1).series_results

    def test_plateau_near(self):
        results = self.run_tiny()
        final = results["baseline"].final_summary().mean
        good = checks.plateau_near("baseline", final, rel_tolerance=0.01)
        bad = checks.plateau_near("baseline", final * 10)
        assert good(results).passed
        assert not bad(results).passed

    def test_ineffective_check(self):
        results = self.run_tiny()
        check = checks.ineffective("baseline", "baseline")
        assert check(results).passed

    def test_slower_to_level(self):
        results = self.run_tiny()
        level = results["educated"].final_summary().mean * 0.8
        check = checks.slower_to_level("educated", "baseline", level, min_delay=0.0)
        outcome = check(results)
        assert outcome.passed
        assert "baseline" in outcome.detail

    def test_formatting(self):
        passed = CheckResult("name", True, "detail")
        failed = CheckResult("name", False, "detail")
        assert passed.format().startswith("[PASS]")
        assert failed.format().startswith("[FAIL]")
