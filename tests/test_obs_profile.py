"""Tests for the hot-path profiler."""

from __future__ import annotations

import pytest

from repro.obs.manifest import build_manifest, validate_manifest
from repro.obs.profile import run_profile, run_profile_xl


@pytest.fixture(scope="module")
def report():
    # Small population + hard event cap keeps the profile well under a
    # second while still exercising every code path.
    return run_profile(virus=3, population=150, max_events=4000, seed=1)


class TestRunProfile:
    def test_basic_measurements(self, report):
        assert report.scenario_name == "virus3-baseline"
        assert 0 < report.events <= 4000
        assert report.run_seconds > 0
        assert report.wall_seconds >= report.run_seconds
        assert report.events_per_second > 0
        assert report.kernel["events_fired"] == report.events
        assert report.kernel["heap_peak"] > 0

    def test_hotspots_cover_event_labels(self, report):
        assert report.hotspots, "expected at least one hot-path row"
        labels = {row["label"] for row in report.hotspots}
        assert "send" in labels
        # Rows are sorted by total time, descending.
        totals = [row["total_seconds"] for row in report.hotspots]
        assert totals == sorted(totals, reverse=True)
        # Shares partition the measured callback time.
        assert sum(row["share"] for row in report.hotspots) == pytest.approx(
            1.0, abs=0.01
        )

    def test_format_renders_breakdown(self, report):
        text = report.format(top=2)
        assert "profile: virus3-baseline" in text
        assert "ev/s under instrumentation" in text
        assert "event label" in text

    def test_manifest_sections_build_valid_record(self, report):
        record = build_manifest(
            "profile", "profile:unit", **report.manifest_sections()
        )
        assert validate_manifest(record) == []
        assert record["events_executed"] == report.events
        assert record["extra"]["hotspots"] == report.hotspots

    def test_deterministic_event_sequence(self):
        a = run_profile(virus=3, population=150, max_events=1500, seed=5)
        b = run_profile(virus=3, population=150, max_events=1500, seed=5)
        assert a.events == b.events
        assert a.final_infected == b.final_infected
        assert [r["label"] for r in a.hotspots] and [
            (r["label"], r["count"]) for r in a.hotspots
        ] == [(r["label"], r["count"]) for r in b.hotspots]


@pytest.fixture(scope="module")
def xl_report():
    # The paper-size preset (N=1000) keeps the xl profile fast while
    # every round phase still fires.
    return run_profile_xl(virus=1, preset="paper", duration=96.0, seed=2)


class TestRunProfileXL:
    def test_basic_measurements(self, xl_report):
        assert xl_report.scenario_name == "virus1-baseline-paper"
        assert xl_report.preset == "paper"
        assert xl_report.events > 0
        assert xl_report.rounds > 0
        assert xl_report.run_seconds > 0
        assert xl_report.wall_seconds >= xl_report.run_seconds
        assert xl_report.build_seconds > 0
        assert xl_report.events_per_second > 0

    def test_phases_cover_the_round_loop(self, xl_report):
        names = {row["phase"] for row in xl_report.phases}
        assert names == {
            "budget_boundaries",
            "reboots",
            "patches",
            "sends",
            "deliveries",
            "installs",
            "round_scheduling",
        }
        assert sum(row["share"] for row in xl_report.phases) == pytest.approx(
            1.0, abs=0.01
        )
        totals = [row["total_seconds"] for row in xl_report.phases]
        assert totals == sorted(totals, reverse=True)

    def test_format_renders_breakdown(self, xl_report):
        text = xl_report.format()
        assert "xl engine, preset paper" in text
        assert "round phase" in text
        assert "sends" in text

    def test_manifest_sections_build_valid_record(self, xl_report):
        record = build_manifest(
            "profile", "profile:xl-unit", **xl_report.manifest_sections()
        )
        assert validate_manifest(record) == []
        assert record["extra"]["engine"] == "xl"
        assert record["extra"]["phases"] == xl_report.phases

    def test_peak_rss_reported(self, xl_report):
        # The one footprint figure the xl-1m memory target is read from.
        assert xl_report.peak_rss_mib > 0
        assert "peak_rss_mib" in xl_report.format()
        extra = xl_report.manifest_sections()["extra"]
        assert extra["peak_rss_mib"] > 0

    def test_instrumentation_preserves_results(self, xl_report):
        # The profiled loop must be semantics-identical to the plain one.
        from repro.des.random import StreamFactory
        from repro.xl.engine import XLEngine
        from repro.xl.presets import xl_scenario

        config = xl_scenario(1, "paper", duration=96.0)
        engine = XLEngine(config, StreamFactory(2).replication(0))
        engine.seed_infection()
        engine.run()
        assert xl_report.events == int(engine.counters["events_fired"])
        assert xl_report.rounds == int(engine.counters["xl_rounds"])
        assert xl_report.final_infected == len(engine.infection_times)
