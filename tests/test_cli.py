"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for experiment_id in ("fig1", "fig7", "scaling2000"):
        assert experiment_id in output


def test_run_command_small(capsys):
    code = main(
        [
            "run",
            "--virus", "3",
            "--population", "150",
            "--duration", "6",
            "--replications", "1",
            "--no-chart",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "final infected" in output
    assert "penetration" in output


def test_run_with_response(capsys):
    code = main(
        [
            "run",
            "--virus", "3",
            "--response", "blacklist",
            "--threshold", "10",
            "--population", "150",
            "--duration", "6",
            "--replications", "1",
            "--no-chart",
        ]
    )
    assert code == 0
    assert "blacklist" in capsys.readouterr().out


def test_run_chart_rendering(capsys):
    code = main(
        [
            "run",
            "--virus", "3",
            "--population", "120",
            "--duration", "4",
            "--replications", "1",
        ]
    )
    assert code == 0
    assert "(hours)" in capsys.readouterr().out


def test_figure_unknown_id(capsys):
    assert main(["figure", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_topology_command(tmp_path, capsys):
    out = tmp_path / "contacts.txt"
    code = main(
        [
            "topology",
            "--nodes", "80",
            "--mean-degree", "8",
            "--model", "random",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "# contact-list v1 n=80"
    assert "mean list size" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--nodes", "-5"], "--nodes"),
        (["--nodes", "1"], "--nodes"),
        (["--mean-degree", "0"], "--mean-degree"),
        (["--model", "chunglu", "--exponent", "1.0"], "exponent must be > 2"),
        (["--model", "ring", "--mean-degree", "2000"], "must be < num_nodes"),
    ],
)
def test_topology_rejects_bad_input_with_usage(argv, message, tmp_path, capsys):
    """Bad counts and values a generator rejects exit 2 with usage and
    write no file."""
    out = tmp_path / "contacts.txt"
    with pytest.raises(SystemExit) as excinfo:
        main(["topology", "--out", str(out)] + argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage: repro-sim topology" in err
    assert message in err
    assert not out.exists()


def test_every_response_option_builds():
    parser = build_parser()
    for response in ("scan", "detection", "education", "immunization",
                     "monitoring", "blacklist"):
        args = parser.parse_args(
            ["run", "--virus", "1", "--response", response]
        )
        from repro.cli import _build_response

        assert _build_response(args) is not None


def test_parser_rejects_bad_virus():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--virus", "9"])


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--processes", "0"),
        ("--replications", "0"),
        ("--retries", "-1"),
        ("--task-timeout", "0"),
        ("--processes", "two"),
        ("--population", "0"),
        ("--population", "1"),
        ("--duration", "-1"),
        ("--duration", "0"),
    ],
)
def test_bad_counts_exit_2_with_usage(flag, value, capsys):
    """Bad counts fail at the argparse boundary, not with a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--virus", "3", flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and flag in err


@pytest.mark.parametrize(
    "command", [["frontier", "--virus", "1", "--response", "scan"], ["profile"]]
)
@pytest.mark.parametrize("flag, value", [("--population", "1"), ("--duration", "-1")])
def test_bad_scenario_values_exit_2_on_every_command(command, flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(command + [flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--virus", "1", "--response", "detection", "--accuracy", "2"],
         "accuracy must be in [0, 1]"),
        (["run", "--virus", "1", "--response", "education", "--scale", "-1"],
         "acceptance_scale must be in [0, 1]"),
        (["frontier", "--virus", "1", "--response", "detection",
          "--accuracy", "2"], "accuracy must be in [0, 1]"),
        (["profile", "--engine", "xl", "--mobility", "--speed-min", "10",
          "--speed-max", "1"], "speed_min <= speed_max"),
    ],
)
def test_rejected_scenario_values_exit_2_with_usage(argv, message, capsys):
    """A value ScenarioConfig rejects is a usage error, not a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: repro-sim {argv[0]}" in err
    assert message in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        # --bluetooth-rate reaches the core engine's proximity channel.
        (["--virus", "3", "--population", "150", "--max-events", "3000",
          "--bluetooth-rate", "2"],
         ["virus3-baseline-bt", "core engine, N=150", "events: 3000",
          "bt_encounter"]),
        # --population reaches the xl engine.
        (["--engine", "xl", "--virus", "3", "--population", "300",
          "--duration", "6"],
         ["xl engine, N=300", "round phase"]),
        # --preset reaches the core engine.
        (["--virus", "3", "--preset", "paper", "--max-events", "500"],
         ["core engine, N=1000", "events: 500"]),
    ],
)
def test_profile_honours_flags_on_both_engines(argv, expected, capsys):
    assert main(["profile"] + argv) == 0
    out = capsys.readouterr().out
    for text in expected:
        assert text in out


def test_profile_max_events_on_xl_exits_2_with_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["profile", "--engine", "xl", "--preset", "paper",
              "--max-events", "100"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage: repro-sim profile" in err
    assert "--max-events" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_profile_top_must_be_positive(value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["profile", "--top", value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage: repro-sim profile" in err
    assert "--top" in err


@pytest.mark.parametrize(
    "flag, value", [("--shards", "0"), ("--heartbeat-timeout", "0")]
)
def test_serve_bad_counts_exit_2_with_usage(flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--spool", str(tmp_path), flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


def test_frontier_command_small(tmp_path, capsys):
    """A coarse frontier bisection end to end, manifest validated."""
    manifest_path = tmp_path / "frontier.jsonl"
    code = main(
        [
            "frontier",
            "--virus", "3",
            "--response", "blacklist",
            "--population", "300",
            "--duration", "6",
            "--low", "0",
            "--high", "8",
            "--tolerance", "8",
            "--replications", "1",
            "--no-crosscheck",
            "--no-cache",
            "--metrics", str(manifest_path),
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "frontier[latency]" in output
    assert "containment: mean final" in output

    from repro.obs.manifest import read_manifests, validate_manifest

    records = read_manifests(manifest_path)
    assert len(records) == 1
    assert validate_manifest(records[0]) == []
    production = records[0]["frontier"]["production"]
    assert production["axis"] == "latency"
    assert production["probes"]
    assert "crosscheck" not in records[0]["frontier"]


def test_frontier_rollout_axis_rejects_zero_low(capsys):
    code = main(
        [
            "frontier",
            "--virus", "3",
            "--response", "blacklist",
            "--population", "300",
            "--duration", "6",
            "--axis", "rollout",
            "--low", "0",
            "--high", "8",
            "--replications", "1",
            "--no-crosscheck",
            "--no-cache",
        ]
    )
    assert code == 2
    assert "positive window" in capsys.readouterr().err


def test_frontier_parser_rejects_standing_mechanisms():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["frontier", "--virus", "1", "--response", "monitoring"]
        )
