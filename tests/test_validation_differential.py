"""Cross-engine differential campaigns: scenario matching, gating, CLI."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis.meanfield import (
    expected_mean_field_plateau,
    mean_field_for_scenario,
)
from repro.core.san_model import (
    SANCompatibilityError,
    assert_san_compatible,
    san_incompatibilities,
)
from repro.core.scenarios import baseline_scenario
from repro.core.user import total_acceptance_probability
from repro.validation import cli as validation_cli
from repro.validation.differential import (
    ScenarioVerdict,
    Tolerances,
    run_campaign,
    run_differential_scenario,
)
from repro.validation.scenarios import (
    VALIDATION_SEED,
    baseline_differential_scenarios,
    bluetooth_differential_scenario,
    matched_scenario,
)


class TestMatchedScenarios:
    def test_all_four_viruses_are_san_compatible(self):
        scenarios = baseline_differential_scenarios()
        assert [s.virus_number for s in scenarios] == [1, 2, 3, 4]
        for scenario in scenarios:
            assert san_incompatibilities(scenario.config) == []
            assert_san_compatible(scenario.config)

    def test_matching_keeps_virus_pacing(self):
        for number in (1, 2, 3, 4):
            from repro.core.scenarios import virus_parameters

            original = virus_parameters(number)
            matched = matched_scenario(number).config.virus
            assert matched.min_send_interval == original.min_send_interval
            assert matched.extra_send_delay_mean == original.extra_send_delay_mean
            assert matched.message_limit is None
            assert matched.dormancy == 0.0
            assert matched.valid_number_fraction == 1.0

    def test_full_paper_scenario_is_rejected(self):
        config = baseline_scenario(1)  # real virus 1 carries a message budget
        problems = san_incompatibilities(config)
        assert problems
        with pytest.raises(SANCompatibilityError) as excinfo:
            assert_san_compatible(config)
        for problem in problems:
            assert problem in str(excinfo.value)

    def test_plateau_prediction_is_the_consent_fixed_point(self):
        scenario = matched_scenario(1, population=40)
        params = mean_field_for_scenario(scenario.config)
        plateau = expected_mean_field_plateau(params)
        eventual = total_acceptance_probability(
            scenario.config.user.acceptance_factor
        )
        assert plateau == pytest.approx(1.0 + 39.0 * eventual)


class TestDifferentialRun:
    def test_small_scenario_passes_all_gates(self):
        # One engine-agreement run in tier-1: virus 3 has the fastest pacing.
        verdict = run_differential_scenario(
            matched_scenario(3, population=30), replications=6
        )
        assert len(verdict.gates) == 10
        assert verdict.passed, "\n".join(g.format() for g in verdict.gates)
        assert len(verdict.core_finals) == 6
        assert len(verdict.san_finals) == 6
        assert len(verdict.xl_finals) == 6
        assert verdict.plateau_prediction > 1.0
        payload = verdict.to_dict()
        assert payload["passed"] is True
        assert {g["name"] for g in payload["gates"]} == {
            "core-vs-san mean",
            "core-vs-san welch",
            "core-vs-san rank",
            "core-vs-meanfield plateau",
            "san-vs-meanfield plateau",
            "core-vs-xl mean",
            "core-vs-xl welch",
            "core-vs-xl rank",
            "xl-vs-meanfield plateau",
            "core-vs-meanfield growth",
        }

    def test_deterministic_given_seed(self):
        scenario = matched_scenario(3, population=24)
        one = run_differential_scenario(scenario, seed=5, replications=3)
        two = run_differential_scenario(scenario, seed=5, replications=3)
        assert one.core_finals == two.core_finals
        assert one.san_finals == two.san_finals
        assert one.xl_finals == two.xl_finals

    def test_impossible_tolerances_fail(self):
        strict = Tolerances(
            mean_absolute_floor=0.0,
            mean_se_multiplier=1e-9,
            plateau_rel_tolerance=1e-9,
            growth_ratio_low=0.999,
            growth_ratio_high=1.001,
        )
        verdict = run_differential_scenario(
            matched_scenario(3, population=24),
            replications=3,
            tolerances=strict,
        )
        assert not verdict.passed

    def test_verdict_without_san_sample_serializes(self):
        # Bluetooth verdicts compare core and xl only: san_finals is empty.
        verdict = ScenarioVerdict(
            scenario=bluetooth_differential_scenario(),
            core_finals=[10.0, 12.0],
            san_finals=[],
            xl_finals=[11.0, 13.0],
            plateau_prediction=12.0,
            meanfield_half_time=None,
            core_half_time=None,
        )
        payload = json.loads(json.dumps(verdict.to_dict()))
        assert payload["san_finals"] == []
        assert payload["san_mean"] is None
        assert payload["core_mean"] == 11.0
        assert payload["xl_mean"] == 12.0

    def test_replication_floor(self):
        with pytest.raises(ValueError, match="2 replications"):
            run_differential_scenario(matched_scenario(3), replications=1)

    def test_campaign_report_mentions_tolerances(self):
        result = run_campaign(
            scenarios=[matched_scenario(3, population=24)], replications=3
        )
        report = result.format_report()
        assert "declared tolerances" in report
        assert "virus3-matched" in report
        assert result.seed == VALIDATION_SEED

    @pytest.mark.validation
    def test_full_baseline_campaign_passes(self):
        result = run_campaign()
        assert result.passed, result.format_report()
        assert len(result.verdicts) == 4


class TestCli:
    def test_run_subset_with_json_output(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        rc = validation_cli.main(
            [
                "run",
                "--virus",
                "3",
                "--replications",
                "4",
                "--population",
                "24",
                "--json",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "virus3-matched" in captured.out
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["passed"] is True
        assert [s["virus"] for s in payload["scenarios"]] == [3]

    def test_run_rejects_unknown_virus(self):
        with pytest.raises(SystemExit):
            validation_cli.main(["run", "--virus", "9"])


class TestFrontierDifferential:
    """Core-vs-xl frontier agreement, gated against the mean field."""

    def test_matched_frontier_scenario_is_well_mixed(self):
        from repro.core.parameters import BlacklistConfig, Targeting
        from repro.validation.scenarios import frontier_matched_scenario

        matched = frontier_matched_scenario(1, BlacklistConfig(threshold=3))
        config = matched.config
        assert config.virus.targeting is Targeting.RANDOM_DIALING
        assert config.virus.valid_number_fraction == 1.0
        assert config.network.susceptible_fraction == 1.0
        assert config.user.read_delay_mean == 0.0
        assert config.network.gateway_delay_mean == 0.0
        assert len(config.responses) == 1

    @pytest.mark.validation
    def test_frontier_gate_passes_at_paper_population(self):
        """Satellite gate: core and xl must agree on the critical latency
        of the matched virus-1 blacklist frontier at N=1000, and both
        brackets must admit the delayed-response mean-field estimate."""
        from repro.validation.differential import run_frontier_differential

        report = run_frontier_differential()
        assert report.passed, report.format_report()
        assert report.core.simulated.status == "converged"
        assert report.xl.simulated.status == "converged"
        payload = report.to_dict()
        assert payload["passed"] is True
        assert {g["name"] for g in payload["gates"]} == {
            "core-vs-xl critical latency",
            "xl critical in core confidence bracket",
            "core critical in xl confidence bracket",
            "mean-field critical in core confidence bracket",
            "mean-field critical in xl confidence bracket",
        }
