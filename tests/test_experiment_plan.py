"""One experiment path: every run plans its jobs through one planner.

``plan_experiment`` is the only place a spec becomes scheduler jobs.
``ReplicationScheduler.run_experiment``, ``ReplicationScheduler.run_batch``
and the design layer's ``compile_design`` must therefore agree job for job, including
on designs whose ``engine`` and ``seed`` factors change each series'
engine and master seed.  ``repro.design`` builds on
``repro.experiments`` and never the other way round, so every design
module imports cleanly as the first ``repro`` import of a process.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.cache import result_key
from repro.core.serialization import result_to_dict
from repro.design import ExperimentDesign, Factor, compile_design, cross
from repro.design.library import get_experiment
from repro.experiments import ReplicationScheduler, plan_experiment

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "module", ["repro.design", "repro.design.library", "repro.design.compile"]
)
def test_design_modules_import_first_in_a_fresh_interpreter(module):
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


@pytest.fixture(scope="module")
def factored_design() -> ExperimentDesign:
    """Four series: core and xl, each under master seeds 3 and 4."""
    return ExperimentDesign(
        experiment_id="engine-seed",
        title="engine x seed",
        paper_ref="(test)",
        description="",
        design=cross(
            Factor.of("virus", (3,), fmt="virus{}"),
            Factor.of("population", (120,), fmt="n{}"),
            Factor.of("duration", (4.0,), fmt="{}h"),
            Factor.of("engine", ("core", "xl")),
            Factor.of("seed", (3, 4), fmt="seed{}"),
        ),
        label="{engine}-{seed}",
        default_replications=1,
    )


def _recording_run_jobs(monkeypatch):
    """Record the jobs of every ``run_jobs`` call, in call order."""
    calls = []
    original = ReplicationScheduler.run_jobs

    def run_jobs(self, jobs):
        calls.append([result_key(j.config, j.seed, j.replication) for j in jobs])
        return original(self, jobs)

    monkeypatch.setattr(ReplicationScheduler, "run_jobs", run_jobs)
    return calls


def _documents(result):
    return {
        label: [result_to_dict(r) for r in replication_set.results]
        for label, replication_set in result.series_results.items()
    }


def test_every_path_keeps_the_engine_and_seed_factors(factored_design, monkeypatch):
    plan = compile_design(factored_design, replications=1, seed=0)
    expected = [
        result_key(
            factored_design.to_spec().series[0].scenario.with_engine(engine),
            seed,
            0,
        )
        for engine in ("core", "xl")
        for seed in (3, 4)
    ]
    assert plan.job_keys() == expected
    assert [(j.config.engine, j.seed) for j in plan.jobs] == [
        ("core", 3), ("core", 4), ("xl", 3), ("xl", 4)
    ]

    calls = _recording_run_jobs(monkeypatch)
    with ReplicationScheduler() as scheduler:
        via_runner = scheduler.run_experiment(factored_design.to_spec(), replications=1)
    with ReplicationScheduler() as scheduler:
        (via_batch,) = scheduler.run_batch([factored_design.to_spec()], replications=1)
    assert calls == [expected, expected]

    monkeypatch.undo()
    with ReplicationScheduler() as scheduler:
        via_plan = plan.collect(scheduler.run_jobs(plan.jobs))
    assert _documents(via_runner) == _documents(via_batch) == _documents(via_plan)
    for label, replication_set in via_runner.series_results.items():
        engine, seed = label.split("-seed")
        assert replication_set.config.engine == engine
        assert [r.seed for r in replication_set.results] == [int(seed)]


class _Captured(Exception):
    pass


@pytest.mark.parametrize(
    "figure_id, sweep_id",
    [
        ("fig2", "scan_delay"),
        ("fig3", "detection_accuracy"),
        ("fig4", "education_scale"),
        ("fig5", "patch_deployment"),
        ("fig6", "monitoring_wait"),
        ("fig7", "blacklist_threshold"),
    ],
)
def test_a_sweep_shares_its_figure_baseline_in_one_batch(
    figure_id, sweep_id, monkeypatch
):
    """A sweep is a planned design: batched with its figure, the shared
    baseline replications are scheduled once, and the sweep's plan
    carries a manifest ``design`` record."""
    specs = [get_experiment(figure_id), get_experiment(sweep_id)]
    plans = [plan_experiment(spec, replications=2, seed=0) for spec in specs]
    figure_keys, sweep_keys = (set(plan.job_keys()) for plan in plans)
    shared = figure_keys & sweep_keys
    assert len(shared) == 2
    assert plans[1].manifest_section() is not None

    def run_jobs(self, jobs):
        raise _Captured([result_key(j.config, j.seed, j.replication) for j in jobs])

    monkeypatch.setattr(ReplicationScheduler, "run_jobs", run_jobs)
    with ReplicationScheduler() as scheduler:
        with pytest.raises(_Captured) as captured:
            scheduler.run_batch(specs, replications=2, seed=0)
        sections = scheduler.design_sections
    keys = captured.value.args[0]
    assert len(keys) == len(set(keys)) == len(figure_keys | sweep_keys)
    assert [section["experiment"] for section in sections] == [figure_id, sweep_id]
