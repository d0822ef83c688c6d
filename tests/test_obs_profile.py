"""Tests for the hot-path profiler (one report type for both engines)."""

from __future__ import annotations

import pytest

from repro.core.parameters import NetworkParameters
from repro.core.scenarios import baseline_scenario
from repro.obs.manifest import build_manifest, validate_manifest
from repro.obs.profile import run_profile
from repro.xl.presets import xl_scenario

ROW_KEYS = {"name", "count", "total_seconds", "mean_micros", "share"}


def core_config(population: int = 150):
    return baseline_scenario(3, network=NetworkParameters(population=population))


def assert_breakdown_schema(rows):
    assert rows, "expected at least one breakdown row"
    assert all(set(row) == ROW_KEYS for row in rows)
    # Rows are sorted by total time, descending.
    totals = [row["total_seconds"] for row in rows]
    assert totals == sorted(totals, reverse=True)
    # Shares partition the measured time.
    assert sum(row["share"] for row in rows) == pytest.approx(1.0, abs=0.01)


@pytest.fixture(scope="module")
def report():
    # Small population + hard event cap keeps the profile well under a
    # second while still exercising every code path.
    return run_profile(core_config(), seed=1, max_events=4000)


class TestRunProfile:
    def test_basic_measurements(self, report):
        assert report.scenario_name == "virus3-baseline"
        assert report.engine == "core"
        assert report.population == 150
        assert 0 < report.events <= 4000
        assert report.run_seconds > 0
        assert report.wall_seconds >= report.run_seconds
        assert report.events_per_second > 0
        assert report.peak_rss_mib > 0
        kernel = report.manifest_sections()["kernel"]
        assert kernel["events_fired"] == report.events
        assert kernel["heap_peak"] > 0

    def test_breakdown_covers_event_labels(self, report):
        assert_breakdown_schema(report.breakdown)
        assert "send" in {row["name"] for row in report.breakdown}

    def test_format_renders_breakdown(self, report):
        text = report.format(top=2)
        assert "profile: virus3-baseline" in text
        assert "core engine, N=150" in text
        assert "ev/s under instrumentation" in text
        assert "event label" in text
        assert "peak_rss_mib" in text

    def test_manifest_sections_build_valid_record(self, report):
        record = build_manifest(
            "profile", "profile:unit", **report.manifest_sections()
        )
        assert validate_manifest(record) == []
        assert record["events_executed"] == report.events
        assert record["extra"]["engine"] == "core"
        assert record["extra"]["breakdown"] == report.breakdown
        assert record["extra"]["peak_rss_mib"] > 0

    def test_deterministic_event_sequence(self):
        a = run_profile(core_config(), seed=5, max_events=1500)
        b = run_profile(core_config(), seed=5, max_events=1500)
        assert a.events == b.events
        assert a.final_infected == b.final_infected
        assert [r["name"] for r in a.breakdown] and sorted(
            (r["name"], r["count"]) for r in a.breakdown
        ) == sorted((r["name"], r["count"]) for r in b.breakdown)


@pytest.fixture(scope="module")
def xl_report():
    # The paper-size preset (N=1000) keeps the xl profile fast while
    # every round phase still fires.
    return run_profile(xl_scenario(1, "paper", duration=96.0), seed=2)


class TestRunProfileXL:
    def test_basic_measurements(self, xl_report):
        assert xl_report.scenario_name == "virus1-baseline-paper"
        assert xl_report.engine == "xl"
        assert xl_report.population == 1000
        assert xl_report.events > 0
        assert xl_report.run_seconds > 0
        assert xl_report.wall_seconds >= xl_report.run_seconds
        assert xl_report.setup_seconds > 0
        assert xl_report.events_per_second > 0

    def test_phases_cover_the_round_loop(self, xl_report):
        assert_breakdown_schema(xl_report.breakdown)
        assert {row["name"] for row in xl_report.breakdown} == {
            "budget_boundaries",
            "reboots",
            "patches",
            "sends",
            "deliveries",
            "installs",
            "round_scheduling",
        }
        # Every phase runs once per round.
        assert len({row["count"] for row in xl_report.breakdown}) == 1

    def test_format_renders_breakdown(self, xl_report):
        text = xl_report.format()
        assert "xl engine, N=1000" in text
        assert "round phase" in text
        assert "sends" in text

    def test_manifest_sections_build_valid_record(self, xl_report):
        record = build_manifest(
            "profile", "profile:xl-unit", **xl_report.manifest_sections()
        )
        assert validate_manifest(record) == []
        assert record["extra"]["engine"] == "xl"
        assert record["extra"]["breakdown"] == xl_report.breakdown

    def test_peak_rss_reported(self, xl_report):
        # The one footprint figure the xl-1m memory target is read from.
        assert xl_report.peak_rss_mib > 0
        assert "peak_rss_mib" in xl_report.format()
        extra = xl_report.manifest_sections()["extra"]
        assert extra["peak_rss_mib"] > 0

    def test_instrumentation_preserves_results(self, xl_report):
        # The timed loop must be semantics-identical to the plain one.
        from repro.des.random import StreamFactory
        from repro.xl.engine import XLEngine

        config = xl_scenario(1, "paper", duration=96.0)
        engine = XLEngine(config, StreamFactory(2).replication(0))
        engine.seed_infection()
        engine.run()
        assert xl_report.events == int(engine.counters["events_fired"])
        rounds = {row["count"] for row in xl_report.breakdown}
        assert rounds == {int(engine.counters["xl_rounds"])}
        assert xl_report.final_infected == len(engine.infection_times)

    def test_max_events_rejected(self):
        with pytest.raises(ValueError, match="max_events"):
            run_profile(xl_scenario(1, "paper", duration=6.0), max_events=10)
