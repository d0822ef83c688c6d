"""Tests for run-manifest building, validation, and the JSONL round trip."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.parameters import (
    NetworkParameters,
    ScenarioConfig,
    UserParameters,
    VirusParameters,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    append_manifest,
    build_manifest,
    host_info,
    read_manifests,
    scenario_hash,
    validate_manifest,
)


@pytest.fixture
def config() -> ScenarioConfig:
    return ScenarioConfig(
        name="manifest-test",
        virus=VirusParameters(name="v"),
        network=NetworkParameters(population=50, mean_contact_list_size=8.0),
        user=UserParameters(),
        duration=2.0,
    )


def full_record(config):
    return build_manifest(
        "run",
        "unit",
        wall_seconds=1.5,
        events_executed=3000,
        events_total=4500,
        seed=7,
        seeds=[7],
        replications=4,
        scenarios=[{"name": config.name, "hash": scenario_hash(config), "jobs": 4}],
        scheduler={"scheduled": 4, "executed": 3, "cache_hits": 1},
        cache={
            "hits": 1,
            "misses": 3,
            "writes": 3,
            "hit_ratio": 0.25,
            "dir": "/tmp/cache",
        },
        workers=[
            {
                "pid": 123,
                "jobs": 3,
                "events": 3000,
                "busy_seconds": 1.4,
                "events_per_second": 2142.9,
            }
        ],
        kernel={"events_fired": 3000, "events_cancelled": 5, "heap_peak": 40},
        metrics={"counters": {}, "gauges": {}, "timers": {}},
        extra={"note": "unit"},
    )


class TestBuild:
    def test_full_record_is_valid(self, config):
        assert validate_manifest(full_record(config)) == []

    def test_minimal_record_is_valid(self):
        record = build_manifest("profile", "tiny", wall_seconds=0.0)
        assert validate_manifest(record) == []
        assert record["events_per_second"] == 0.0

    def test_rate_derivation(self):
        record = build_manifest(
            "run", "x", wall_seconds=2.0, events_executed=1000
        )
        assert record["events_per_second"] == 500.0

    def test_host_info_recorded(self):
        record = build_manifest("run", "x", wall_seconds=0.1)
        assert record["host"]["python"] == host_info()["python"]
        assert "hostname" in record["host"]


class TestValidate:
    def test_missing_required_field(self, config):
        record = full_record(config)
        del record["wall_seconds"]
        assert any("wall_seconds" in p for p in validate_manifest(record))

    def test_bad_kind(self, config):
        record = full_record(config)
        record["kind"] = "nonsense"
        assert any("kind" in p for p in validate_manifest(record))

    def test_bad_schema_version(self, config):
        record = full_record(config)
        record["manifest_schema"] = MANIFEST_SCHEMA_VERSION + 1
        assert validate_manifest(record)

    def test_negative_wall_rejected(self, config):
        record = full_record(config)
        record["wall_seconds"] = -1.0
        assert any("negative" in p for p in validate_manifest(record))

    def test_cache_section_checked(self, config):
        record = full_record(config)
        record["cache"]["hit_ratio"] = 1.5
        assert any("hit_ratio" in p for p in validate_manifest(record))
        del record["cache"]["dir"]
        assert any("cache.dir" in p for p in validate_manifest(record))

    def test_worker_section_checked(self, config):
        record = full_record(config)
        del record["workers"][0]["events"]
        assert any("workers[0].events" in p for p in validate_manifest(record))

    def test_scenario_section_checked(self, config):
        record = full_record(config)
        del record["scenarios"][0]["hash"]
        assert any("config hash" in p for p in validate_manifest(record))

    def test_non_mapping_rejected(self):
        assert validate_manifest([1, 2, 3])

    @pytest.mark.parametrize(
        "field, value, flagged",
        [
            (
                "cache",
                {"hits": True, "misses": -3, "writes": False,
                 "hit_ratio": True, "dir": "/c"},
                ["cache.hits", "cache.misses", "cache.writes", "cache.hit_ratio"],
            ),
            (
                "workers",
                [{"pid": True, "jobs": -1, "events": False,
                  "busy_seconds": True, "events_per_second": 1.0}],
                ["workers[0].pid", "workers[0].jobs", "workers[0].events",
                 "workers[0].busy_seconds"],
            ),
            ("events_per_second", -5.0, ["events_per_second"]),
            ("resilience", {"retries": True, "quarantined": 0,
                            "pool_respawns": 0, "degraded_to_serial": False,
                            "events": []}, ["resilience.retries"]),
        ],
    )
    def test_bools_and_negatives_rejected(self, config, field, value, flagged):
        """``bool`` is not a count, and counters and rates are never negative."""
        record = full_record(config)
        record[field] = value
        problems = validate_manifest(record)
        for path in flagged:
            assert any(p.startswith(path + " ") for p in problems), (path, problems)
        assert len(problems) == len(flagged)


class TestScenarioHash:
    def test_stable(self, config):
        assert scenario_hash(config) == scenario_hash(config)

    def test_sensitive_to_config_changes(self, config):
        changed = dataclasses.replace(config, duration=3.0)
        assert scenario_hash(changed) != scenario_hash(config)


class TestJsonlRoundTrip:
    def test_append_and_read(self, tmp_path, config):
        path = tmp_path / "m" / "out.jsonl"
        append_manifest(path, full_record(config))
        append_manifest(path, build_manifest("run", "second", wall_seconds=0.1))
        records = read_manifests(path)
        assert [r["label"] for r in records] == ["unit", "second"]
        assert all(validate_manifest(r) == [] for r in records)

    def test_append_refuses_invalid(self, tmp_path, config):
        record = full_record(config)
        record["kind"] = "bogus"
        with pytest.raises(ValueError, match="kind"):
            append_manifest(tmp_path / "out.jsonl", record)
        assert not (tmp_path / "out.jsonl").exists()

    def test_read_rejects_junk_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            read_manifests(path)

    def test_blank_lines_skipped(self, tmp_path, config):
        path = tmp_path / "out.jsonl"
        append_manifest(path, full_record(config))
        with path.open("a") as handle:
            handle.write("\n")
        assert len(read_manifests(path)) == 1


class TestCheckCli:
    def test_valid_file_passes(self, tmp_path, config, capsys):
        path = tmp_path / "out.jsonl"
        append_manifest(path, full_record(config))
        assert obs_main(["check", str(path)]) == 0
        assert "1 schema-valid records" in capsys.readouterr().out

    def test_kind_filter(self, tmp_path, config, capsys):
        path = tmp_path / "out.jsonl"
        append_manifest(path, full_record(config))
        assert obs_main(["check", str(path), "--kind", "run"]) == 0
        assert obs_main(["check", str(path), "--kind", "profile"]) == 1

    def test_missing_file_fails(self, tmp_path, capsys):
        assert obs_main(["check", str(tmp_path / "nope.jsonl")]) == 1
        assert "missing" in capsys.readouterr().err

    def test_empty_file_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert obs_main(["check", str(path)]) == 1

    def test_invalid_record_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"manifest_schema": 1}) + "\n")
        assert obs_main(["check", str(path)]) == 1
        assert "missing required field" in capsys.readouterr().err
