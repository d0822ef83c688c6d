"""Tests for the scheduler/caching flags on the CLI commands."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_scheduler_flags_present(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--virus", "1", "--processes", "4", "--no-cache",
             "--cache-dir", "/tmp/x"]
        )
        assert args.processes == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/x"

    def test_figure_accepts_multiple_ids(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "fig1", "fig2", "--no-cache"])
        assert args.experiment_ids == ["fig1", "fig2"]

    def test_sweep_has_flags(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "scan_delay", "--processes", "2"])
        assert args.processes == 2
        assert args.no_cache is False


class TestRunCommand:
    BASE = [
        "run", "--virus", "3", "--population", "120", "--duration", "4",
        "--replications", "2", "--no-chart",
    ]

    def test_no_cache_runs_serially(self, capsys):
        assert main(self.BASE + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "scheduler: 2 jobs: 2 simulated, 0 from cache" in out

    def test_second_invocation_hits_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(self.BASE + ["--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "2 simulated, 0 from cache" in first
        assert main(self.BASE + ["--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "0 simulated, 2 from cache" in second
        # Identical results either way: the summary lines match exactly.
        pick = lambda text: [
            line for line in text.splitlines()
            if line.startswith(("final infected", "penetration"))
        ]
        assert pick(first) == pick(second)

    def test_parallel_matches_serial_output(self, tmp_path, capsys):
        assert main(self.BASE + ["--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(self.BASE + ["--no-cache", "--processes", "2"]) == 0
        parallel = capsys.readouterr().out
        pick = lambda text: [
            line for line in text.splitlines()
            if line.startswith(("final infected", "penetration"))
        ]
        assert pick(serial) == pick(parallel)

    def test_cache_dir_created(self, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(self.BASE + ["--cache-dir", str(cache_dir)]) == 0
        assert cache_dir.exists()
        assert list(cache_dir.glob("*/*.json"))


class TestMetricsFlag:
    BASE = [
        "run", "--virus", "3", "--population", "120", "--duration", "4",
        "--replications", "2", "--no-chart", "--no-cache",
    ]

    def test_metrics_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(self.BASE + ["--metrics", "out.jsonl"])
        assert args.metrics == "out.jsonl"
        assert build_parser().parse_args(self.BASE).metrics is None

    def test_run_writes_schema_valid_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests, validate_manifest

        path = tmp_path / "run.jsonl"
        assert main(self.BASE + ["--metrics", str(path)]) == 0
        assert "run manifest appended" in capsys.readouterr().out
        (record,) = read_manifests(path)
        assert validate_manifest(record) == []
        assert record["kind"] == "run"
        assert record["label"].startswith("run:")
        assert record["events_executed"] > 0
        assert record["events_per_second"] > 0
        assert record["workers"]

    @pytest.mark.parametrize("engine", ["core", "xl"])
    def test_manifest_counts_events_on_both_engines(self, engine, tmp_path):
        # Regression: an xl run once reported zero events, because the
        # count came from the DES kernel's own registry counter.
        from repro.core.parameters import NetworkParameters
        from repro.core.scenarios import baseline_scenario
        from repro.core.simulation import replicate_scenario
        from repro.obs.manifest import read_manifests

        path = tmp_path / "run.jsonl"
        argv = self.BASE + ["--engine", engine, "--metrics", str(path)]
        assert main(argv) == 0
        (record,) = read_manifests(path)
        config = baseline_scenario(
            3, network=NetworkParameters(population=120), duration=4.0
        ).with_engine(engine)
        results = replicate_scenario(config, replications=2, seed=0).results
        events = sum(r.counters["events_fired"] for r in results)
        assert events > 0
        assert record["events_executed"] == events
        assert record["kernel"]["events_fired"] == events
        assert sum(w["events"] for w in record["workers"]) == events
        assert record["events_per_second"] > 0

    @pytest.mark.parametrize("duration, widened", [("900", 1), ("24", 0)])
    def test_manifest_counts_dt_widened(self, duration, widened, tmp_path):
        # MAX_ROUNDS widens the xl round width only at long horizons; a
        # silent fallback like that must reach the run manifest.
        # Blacklisting every sender after one message keeps 900 h cheap.
        from repro.obs.manifest import read_manifests, validate_manifest

        path = tmp_path / "run.jsonl"
        argv = [
            "run", "--engine", "xl", "--virus", "3", "--duration", duration,
            "--population", "120", "--replications", "1",
            "--response", "blacklist", "--threshold", "1",
            "--no-chart", "--no-cache", "--metrics", str(path),
        ]
        assert main(argv) == 0
        (record,) = read_manifests(path)
        assert validate_manifest(record) == []
        assert record["dt_widened"] == widened

    def test_repeat_runs_append(self, tmp_path):
        from repro.obs.manifest import read_manifests

        path = tmp_path / "run.jsonl"
        assert main(self.BASE + ["--metrics", str(path)]) == 0
        assert main(self.BASE + ["--metrics", str(path)]) == 0
        assert len(read_manifests(path)) == 2


class TestProfileCommand:
    BASE = [
        "profile", "--virus", "3", "--population", "150",
        "--max-events", "2000", "--seed", "1",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.virus == 1
        assert args.metrics is None

    def test_profile_prints_breakdown(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "profile: virus3-baseline" in out
        assert "event label" in out
        assert "send" in out

    def test_profile_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests, validate_manifest

        path = tmp_path / "profile.jsonl"
        assert main(self.BASE + ["--metrics", str(path)]) == 0
        (record,) = read_manifests(path)
        assert validate_manifest(record) == []
        assert record["kind"] == "profile"
        rows = record["extra"]["breakdown"]
        assert "send" in {row["name"] for row in rows}
        totals = [row["total_seconds"] for row in rows]
        assert totals == sorted(totals, reverse=True)
        assert sum(row["share"] for row in rows) == pytest.approx(1.0, abs=0.01)


class TestProfileXLCommand:
    def test_parser_defaults(self, capsys):
        args = build_parser().parse_args(["profile"])
        assert args.engine == "core"
        assert args.preset is None
        # Without --preset or --population an xl profile runs xl-10k.
        assert main(["profile", "--engine", "xl", "--duration", "1"]) == 0
        assert "xl engine, N=10000" in capsys.readouterr().out

    def test_xl_profile_prints_phase_breakdown(self, capsys):
        assert main(
            ["profile", "--engine", "xl", "--preset", "paper",
             "--duration", "48", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "xl engine, N=1000" in out
        assert "round phase" in out

    def test_xl_profile_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests, validate_manifest

        path = tmp_path / "profile.jsonl"
        assert main(
            ["profile", "--engine", "xl", "--preset", "paper",
             "--duration", "48", "--metrics", str(path)]
        ) == 0
        (record,) = read_manifests(path)
        assert validate_manifest(record) == []
        assert record["extra"]["engine"] == "xl"
        rows = record["extra"]["breakdown"]
        assert {row["name"] for row in rows} >= {"sends", "round_scheduling"}
        totals = [row["total_seconds"] for row in rows]
        assert totals == sorted(totals, reverse=True)
        assert sum(row["share"] for row in rows) == pytest.approx(1.0, abs=0.01)


class TestAutoDegradeFlag:
    def test_flag_parses(self):
        args = build_parser().parse_args(
            ["figure", "3", "--no-auto-degrade"]
        )
        assert args.no_auto_degrade is True
        assert build_parser().parse_args(["figure", "3"]).no_auto_degrade is False
