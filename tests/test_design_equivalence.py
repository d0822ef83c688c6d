"""Differential equivalence: DSL designs vs the recorded legacy job lists.

The declarative designs in ``repro.design.library`` replaced the
hand-written figure builders.  ``fixtures/design_jobs.json`` was recorded
from the last pre-DSL version of those builders: per registry
experiment it holds the series labels with the sha256 of each series'
canonical scenario JSON, the experiment metadata, and the flattened
scheduler job list (``result_key`` per job, 2 replications) at seeds 0,
3 and 11.  For every one of the ten paper experiments this suite proves
the DSL reproduces that record *exactly*:

- same series labels, in the same order;
- same scenario configurations (canonical-JSON cache identity);
- same experiment metadata (title, paper ref, checkpoints, engine,
  replication default, number of shape checks);
- the planner's requested jobs, in (series × replication) order — same
  cache keys, same order;
- the deduplicated job list requests exactly the recorded jobs.

If one of these fails, ``repro-sim figure`` output is no longer
byte-for-byte what it was before the DSL landed.  The fixture is never
re-recorded to make a change pass.

``fixtures/sweep_jobs.json`` does the same for the §5.3 strength sweeps
(``repro-sim sweep``): the requested result keys of each sweep, 2
replications at seeds 0 and 11, recorded from the hand-built sweep job
lists of ``repro.experiments.sensitivity`` before the sweeps became
library designs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.cache import result_key
from repro.core.serialization import scenario_to_dict
from repro.design.compile import compile_design
from repro.design.library import (
    DESIGN_FACTORIES,
    EXTENSION_IDS,
    experiment_ids,
    get_design,
    get_experiment,
)
from repro.experiments.spec import plan_experiment

FIXTURE = Path(__file__).parent / "fixtures" / "design_jobs.json"
RECORDED = json.loads(FIXTURE.read_text(encoding="utf-8"))
REPLICATIONS = RECORDED["replications"]
EXPERIMENTS = RECORDED["experiments"]

ALL_IDS = sorted(EXPERIMENTS)

SWEEP_FIXTURE = Path(__file__).parent / "fixtures" / "sweep_jobs.json"
SWEEPS = json.loads(SWEEP_FIXTURE.read_text(encoding="utf-8"))
SWEEP_IDS = sorted(SWEEPS["sweeps"])


def scenario_digest(config) -> str:
    """sha256 of the scenario's canonical JSON — its cache identity."""
    canonical = json.dumps(
        scenario_to_dict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def job_keys(jobs):
    return [result_key(j.config, j.seed, j.replication) for j in jobs]


def requested_keys(plan):
    """The plan's job keys in requested (series × replication) order."""
    keys = job_keys(plan.jobs)
    return [
        keys[index]
        for series in plan.spec.series
        for index in plan.slots[series.label]
    ]


def test_legacy_freeze_covers_the_whole_registry():
    # Extensions (e.g. "hybrid") postdate the pre-DSL builders, so there
    # is nothing recorded to compare them against; the paper's artifact
    # set must stay exactly covered.
    paper_ids = set(experiment_ids()) - EXTENSION_IDS
    assert ALL_IDS == sorted(paper_ids)
    assert set(SWEEP_IDS) <= EXTENSION_IDS
    assert experiment_ids() == list(DESIGN_FACTORIES)
    assert EXTENSION_IDS <= set(experiment_ids())


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_series_labels_and_order_match(experiment_id):
    spec = get_experiment(experiment_id)
    recorded = EXPERIMENTS[experiment_id]["series"]
    assert [s.label for s in spec.series] == [s["label"] for s in recorded]


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_series_scenarios_match(experiment_id):
    spec = get_experiment(experiment_id)
    recorded = EXPERIMENTS[experiment_id]["series"]
    assert len(spec.series) == len(recorded)
    for series, entry in zip(spec.series, recorded):
        assert scenario_digest(series.scenario) == entry["scenario_sha256"], (
            series.label
        )


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_metadata_matches(experiment_id):
    spec = get_experiment(experiment_id)
    recorded = EXPERIMENTS[experiment_id]
    assert spec.experiment_id == experiment_id
    assert spec.title == recorded["title"]
    assert spec.paper_ref == recorded["paper_ref"]
    assert spec.description == recorded["description"]
    assert list(spec.checkpoints) == recorded["checkpoints"]
    assert spec.default_replications == recorded["default_replications"]
    assert spec.engine == recorded["engine"]
    assert len(spec.shape_checks) == recorded["shape_checks"]


@pytest.mark.parametrize("experiment_id", ALL_IDS)
@pytest.mark.parametrize("seed", (0, 11))
def test_flattened_job_lists_match(experiment_id, seed):
    plan = plan_experiment(
        get_experiment(experiment_id), replications=REPLICATIONS, seed=seed
    )
    recorded = EXPERIMENTS[experiment_id]["result_keys"][str(seed)]
    assert requested_keys(plan) == recorded


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_compiled_jobs_request_exactly_the_legacy_jobs(experiment_id):
    compiled = compile_design(
        DESIGN_FACTORIES[experiment_id](), replications=REPLICATIONS, seed=3
    )
    legacy_keys = EXPERIMENTS[experiment_id]["result_keys"]["3"]
    compiled_keys = job_keys(compiled.jobs)
    # The paper grids contain no duplicate configurations, so the
    # deduplicated job list IS the legacy job list, key for key.
    assert compiled_keys == legacy_keys
    assert compiled.dedup_ratio == 1.0
    # The fan-out slots reconstruct every (series, replication) request.
    assert requested_keys(compiled) == legacy_keys


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_registry_serves_the_design_compiled_spec(experiment_id):
    via_registry = get_experiment(experiment_id)
    via_design = get_design(experiment_id).to_spec()
    assert via_registry.series == via_design.series
    assert via_registry.design is not None
    assert via_registry.design.experiment_id == experiment_id


@pytest.mark.parametrize("sweep_id", SWEEP_IDS)
@pytest.mark.parametrize("seed", (0, 11))
def test_sweep_jobs_match(sweep_id, seed):
    plan = compile_design(
        get_design(sweep_id), replications=SWEEPS["replications"], seed=seed
    )
    recorded = SWEEPS["sweeps"][sweep_id]["result_keys"][str(seed)]
    # A sweep has no duplicate configurations, so requested == scheduled.
    assert requested_keys(plan) == recorded
    assert job_keys(plan.jobs) == recorded
