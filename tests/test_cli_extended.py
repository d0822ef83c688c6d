"""Tests for the extended CLI commands (sweep, scenario, svg export)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.core import NetworkParameters, baseline_scenario, replicate_scenario
from repro.core.serialization import load_scenario, save_scenario, scenario_to_dict


def small_scenario_file(tmp_path):
    scenario = dataclasses.replace(
        baseline_scenario(3, duration=4.0),
        network=NetworkParameters(population=120, mean_contact_list_size=12.0),
    )
    return save_scenario(scenario, tmp_path / "scenario.json")


def test_scenario_command_runs_file(tmp_path, capsys):
    path = small_scenario_file(tmp_path)
    code = main(["scenario", str(path), "--replications", "1", "--no-chart"])
    assert code == 0
    output = capsys.readouterr().out
    assert "virus3-baseline" in output
    assert "final infected" in output


def test_scenario_command_missing_file(tmp_path, capsys):
    code = main(["scenario", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot load scenario" in capsys.readouterr().err


def test_scenario_command_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["scenario", str(path)]) == 2


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("duration", -3, "duration must be > 0"),
        ("duration", "long", "not supported"),
        ("engine", "bogus", "bogus"),
    ],
    ids=["negative-duration", "string-duration", "unknown-engine"],
)
def test_scenario_command_invalid_values_exit_2(key, value, message, tmp_path, capsys):
    """A well-formed file with a bad top-level value is a load error."""
    document = scenario_to_dict(load_scenario(small_scenario_file(tmp_path)))
    document[key] = value
    path = tmp_path / "bad-value.json"
    path.write_text(json.dumps(document))
    assert main(["scenario", str(path), "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot load scenario: ")
    assert message in err


def _final_infected(output: str) -> str:
    (line,) = [
        row for row in output.splitlines() if row.startswith("final infected: ")
    ]
    return line.removeprefix("final infected: ")


def test_scenario_command_serial_parallel_and_direct_agree(tmp_path, capsys):
    """The scheduler path gives the same summary at any process count,
    and the same as replicating the scenario directly."""
    path = small_scenario_file(tmp_path)
    argv = ["scenario", str(path), "--replications", "2", "--no-chart", "--no-cache"]
    assert main(argv + ["--processes", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--processes", "2", "--no-auto-degrade"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial
    direct = replicate_scenario(load_scenario(path), replications=2, seed=0)
    assert _final_infected(serial) == direct.final_summary().format()
    assert "scheduler: 2 jobs: 2 simulated, 0 from cache" in serial


def test_scenario_command_second_run_hits_cache(tmp_path, capsys):
    path = small_scenario_file(tmp_path)
    argv = ["scenario", str(path), "--replications", "2", "--no-chart",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "2 simulated, 0 from cache" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "0 simulated, 2 from cache" in second
    assert _final_infected(second) == _final_infected(first)


def test_scenario_command_writes_valid_manifest(tmp_path, capsys):
    from repro.obs.__main__ import main as obs_main

    path = small_scenario_file(tmp_path)
    manifest = tmp_path / "m.jsonl"
    code = main(["scenario", str(path), "--replications", "1", "--no-chart",
                 "--no-cache", "--metrics", str(manifest)])
    assert code == 0
    assert f"run manifest appended to {manifest}" in capsys.readouterr().out
    assert obs_main(["check", str(manifest), "--kind", "run"]) == 0


def test_sweep_command_unknown_id(capsys):
    assert main(["sweep", "warp_factor"]) == 2
    assert "unknown sweep" in capsys.readouterr().err


def test_figure_svg_export(tmp_path, capsys, monkeypatch):
    """`figure --svg` writes a chart file (tiny replication count)."""
    # fig3 is the fastest registered experiment at full scale.
    out = tmp_path / "fig3.svg"
    code = main(
        ["figure", "fig3", "--replications", "1", "--no-chart",
         "--svg", str(out)]
    )
    assert out.exists()
    text = out.read_text()
    assert text.startswith("<svg")
    assert "baseline" in text
    assert code in (0, 1)  # single-replication checks may be noisy
