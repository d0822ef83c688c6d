"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The end-to-end cases run every workload at its test size
(``PERFBENCH_SMALL=1``: same code paths, seconds per trial), once
untraced and once traced.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(workload, trace, cwd=ROOT):
    command = [
        sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace),
    ]
    env = dict(os.environ, PERFBENCH_SMALL="1")
    return subprocess.run(
        command, cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def results():
    """``(workload, trace) -> (detail line, result line)``, run once each."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            completed = run_benchmark(workload, trace)
            assert completed.returncode == 0, completed.stderr
            lines = completed.stdout.strip().splitlines()
            cache[workload, trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
        return cache[workload, trace]

    return get


def test_names_are_well_formed():
    document = declared()
    names = [w["name"] for w in document["workloads"]]
    metrics = document["end_to_end"] + document["per_layer"]
    names += [m["name"] for m in metrics]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)


def test_declaration_matches_the_code():
    document = declared()
    assert [(w["name"], w["why"]) for w in document["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert {
        m["name"]: (m["unit"], m["better"]) for m in document["end_to_end"]
    } == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in document["per_layer"]
    } == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(results, workload, trace):
    detail, result = results(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = declared()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert not isinstance(emitted["value"], bool)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in section)
        assert set(detail["host"]) == {
            "nproc", "mem_total_kib", "python", "numpy", "spool_fs"
        }


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced(results, workload):
    detail, _ = results(workload, 1)
    untraced = {trial["digest"] for trial in detail["trials"]}
    assert untraced == {detail["traced"]["digest"]}
    assert detail["traced"]["leftover_wrappers"] == []


def test_layers_see_their_workloads(results):
    service_detail, service = results("service-campaign", 1)
    service = service["metrics"]
    frontier = results("frontier-core", 1)[1]["metrics"]
    dial = results("xl-dial-100k", 1)[1]["metrics"]
    jobs = service_detail["trials"][0]["summary"]["results"]
    assert service["shard.tasks"]["value"] == jobs
    assert service["protocol.frames"]["value"] == 2 * jobs
    assert service["shard.respawns"]["value"] == 0
    assert service["fsync.calls"]["value"] > jobs
    assert frontier["frontier.probes"]["value"] > 0
    assert frontier["topology.builds"]["value"] == frontier["scheduler.executed"]["value"]
    assert frontier["pool.worker_busy_s"]["value"] > 0
    assert dial["xl.events"]["value"] > 0
    assert dial["topology.builds"]["value"] == 0


def test_tracer_restores_every_binding(tmp_path):
    import numpy as np

    from repro.topology import generators

    originals = {p.target: tracing._resolve(p.target)[2] for p in tracing.PROBES}
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        assert tracer.leftovers()
        generators.contact_network(50, 4, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    for probe in tracing.PROBES:
        assert tracing._resolve(probe.target)[2] is originals[probe.target]
    import repro.core.model
    import repro.xl.engine

    assert repro.xl.engine.csr_powerlaw is originals["repro.topology.csr:csr_powerlaw"]
    assert repro.core.model.contact_network is generators.contact_network
    records = tracing.read_records(tmp_path)
    assert [r[0] for r in records] == ["topology.contact_network"]
    assert tracing.layer_metrics(records)["topology.builds"] == 1


def test_peak_rss_is_each_workloads_own(monkeypatch):
    """A workload run after a bigger one reports its own peak, not the
    bigger one's; and the bigger one, with its daemon and shard, reports
    its whole tree."""
    monkeypatch.setenv("PERFBENCH_SMALL", "1")

    def peak(workload):
        runner = run.Runner(workload, 0, 0.0)
        try:
            trial = runner.trial()
        finally:
            runner.close()
        assert "crash" not in trial, trial.get("crash")
        return trial["peak_rss_mib"]

    dial_alone = peak("xl-dial-100k")
    service = peak("service-campaign")
    dial_after = peak("xl-dial-100k")
    assert dial_alone < service / 2
    assert abs(dial_after - dial_alone) < 0.25 * dial_alone


def test_set_up_only_trials_count_for_setup_alone():
    trials = [{"setup_s": 1.0, "wall_s": 9.0, "peak_rss_mib": 100.0},
              {"setup_s": 5.0, "wall_s": 5.0, "peak_rss_mib": 300.0},
              {"setup_s": 2.0}]
    assert run.end_to_end_metrics(trials) == {
        "setup_s": 2.0, "wall_s": 7.0, "peak_rss_mib": 200.0
    }


def _trial(digest="a", summary=None, **extra):
    trial = {"attempted": 10, "failed": 0, "errors": [], "digest": digest,
             "summary": summary or {"infected": 1}, "cold_attempted": 5}
    trial.update(extra)
    return trial


def test_judge_counts_every_miss(monkeypatch):
    monkeypatch.setattr(run, "_load_reference", lambda *_: None)
    assert run.judge("w", 0, [_trial(), _trial()])["failed"] == 0
    assert run.judge("w", 0, [_trial("a"), _trial("b")])["failed"] == 1
    crashed = run.judge("w", 0, [_trial(), {"crash": "boom"}])
    assert crashed["failed"] == 1 and "boom" in crashed["errors"][0]
    left = run.judge("w", 0, [_trial(leftover_wrappers=["os:fsync"])])
    assert left["failed"] == 1
    reference = {"digest": "a", "summary": {"infected": 1}}
    monkeypatch.setattr(run, "_load_reference", lambda *_: reference)
    assert run.judge("w", 0, [_trial()])["failed"] == 0
    wrong = run.judge("w", 0, [_trial(summary={"infected": 2})])
    assert wrong["failed"] == 5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("frontier-core", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
