"""CLI resilience flags: --retries/--task-timeout/--resume, partial-failure
exit codes, and interrupt handling."""

from __future__ import annotations

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.faults import FaultPlan, FaultSpec
from repro.resilience import RetryPolicy

BASE = [
    "run", "--virus", "3", "--population", "120", "--duration", "4",
    "--replications", "3", "--no-chart",
]


class TestParser:
    def test_resilience_flags_present(self):
        args = build_parser().parse_args(
            BASE + ["--retries", "2", "--task-timeout", "5.5", "--resume"]
        )
        assert args.retries == 2
        assert args.task_timeout == 5.5
        assert args.resume is True

    def test_defaults_are_fail_fast(self):
        args = build_parser().parse_args(BASE)
        assert args.retries == 0
        assert args.task_timeout is None
        assert args.resume is False


class TestMakeScheduler:
    def test_no_flags_means_no_policy(self, tmp_path):
        args = build_parser().parse_args(
            BASE + ["--cache-dir", str(tmp_path / "c")]
        )
        with cli._make_scheduler(args, label="t") as scheduler:
            assert scheduler.resilience is None
            assert scheduler.checkpoint is not None  # cache on -> checkpoint

    def test_retries_build_policy(self, tmp_path):
        args = build_parser().parse_args(
            BASE
            + ["--retries", "2", "--task-timeout", "7.0",
               "--cache-dir", str(tmp_path / "c")]
        )
        with cli._make_scheduler(args, label="t") as scheduler:
            assert scheduler.resilience == RetryPolicy(
                max_retries=2, task_timeout=7.0
            )

    def test_no_cache_disables_checkpoint(self):
        args = build_parser().parse_args(BASE + ["--no-cache"])
        with cli._make_scheduler(args, label="t") as scheduler:
            assert scheduler.checkpoint is None

    def test_resume_without_cache_is_usage_error(self, capsys):
        args = build_parser().parse_args(BASE + ["--no-cache", "--resume"])
        with pytest.raises(SystemExit) as excinfo:
            cli._make_scheduler(args, label="t")
        assert excinfo.value.code == 2
        assert "--resume requires" in capsys.readouterr().err


class TestPartialFailureExit:
    def _inject_poison(self, monkeypatch):
        """Make replication 0 of every campaign fail on all attempts."""
        real = cli._make_scheduler

        def poisoned(args, label=""):
            scheduler = real(args, label)
            scheduler.resilience = RetryPolicy(
                max_retries=1, backoff_base=0.0, backoff_cap=0.0
            )
            scheduler.fault_plan = FaultPlan(
                {0: FaultSpec(raise_attempts=tuple(range(10)))}
            )
            return scheduler

        monkeypatch.setattr(cli, "_make_scheduler", poisoned)

    def test_run_exits_3_with_stderr_summary(self, monkeypatch, capsys):
        self._inject_poison(monkeypatch)
        code = main(BASE + ["--no-cache"])
        assert code == 3
        captured = capsys.readouterr()
        assert "partial failure" in captured.err
        assert "virus3-baseline: 1 replication(s) failed after 2 attempt(s)" in (
            captured.err
        )
        # The surviving replications are still reported on stdout.
        assert "final infected" in captured.out

    def test_figure_partial_failure_outranks_failed_shape_checks(
        self, monkeypatch, capsys
    ):
        """The design-batch exit code: 1 for a failed shape check, but 3
        when replications were quarantined, whatever the checks say."""
        from repro.experiments import ExperimentResult

        monkeypatch.setattr(ExperimentResult, "all_checks_pass", lambda self: False)
        argv = ["figure", "fig3", "--replications", "2", "--no-chart", "--no-cache"]
        assert main(argv) == 1
        self._inject_poison(monkeypatch)
        assert main(argv) == 3
        assert "partial failure" in capsys.readouterr().err

    def test_success_still_exits_0(self, capsys):
        assert main(BASE + ["--no-cache", "--retries", "1"]) == 0
        assert capsys.readouterr().err == ""


class TestInterruptExit:
    def test_keyboard_interrupt_returns_130(self, monkeypatch, capsys, tmp_path):
        from repro.experiments import ReplicationScheduler

        def boom(self, jobs):
            raise KeyboardInterrupt

        monkeypatch.setattr(ReplicationScheduler, "run_jobs", boom)
        code = main(BASE + ["--cache-dir", str(tmp_path / "c")])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" in err


class TestResumeFlow:
    def test_resume_reports_reconciliation(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(BASE + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(BASE + ["--cache-dir", cache_dir, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume: 3 previously completed (3 served from cache" in out
        assert "0 simulated, 3 from cache" in out
