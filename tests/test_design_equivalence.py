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
- same flattened scheduler job list — same cache keys, same order;
- the compiled (dedup-aware) job list requests exactly the recorded jobs.

If one of these fails, ``repro-sim figure`` output is no longer
byte-for-byte what it was before the DSL landed.  The fixture is never
re-recorded to make a change pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

# repro.experiments first: repro.design.compile and repro.experiments
# import each other, and only this order resolves the cycle.
from repro.experiments.registry import experiment_ids, get_experiment
from repro.experiments.scheduler import flatten_experiment
from repro.core.cache import result_key
from repro.core.serialization import scenario_to_dict
from repro.design.compile import compile_design
from repro.design.library import (
    DESIGN_FACTORIES,
    EXTENSION_IDS,
    build,
    design_ids,
)

FIXTURE = Path(__file__).parent / "fixtures" / "design_jobs.json"
RECORDED = json.loads(FIXTURE.read_text(encoding="utf-8"))
REPLICATIONS = RECORDED["replications"]
EXPERIMENTS = RECORDED["experiments"]

ALL_IDS = sorted(EXPERIMENTS)


def scenario_digest(config) -> str:
    """sha256 of the scenario's canonical JSON — its cache identity."""
    canonical = json.dumps(
        scenario_to_dict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def job_keys(jobs):
    return [result_key(j.config, j.seed, j.replication) for j in jobs]


def test_legacy_freeze_covers_the_whole_registry():
    # Extensions (e.g. "hybrid") postdate the pre-DSL builders, so there
    # is nothing recorded to compare them against; the paper's artifact
    # set must stay exactly covered.
    paper_ids = set(experiment_ids()) - EXTENSION_IDS
    assert ALL_IDS == sorted(paper_ids)
    assert ALL_IDS == sorted(set(design_ids()) - EXTENSION_IDS)
    assert EXTENSION_IDS <= set(design_ids())


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_series_labels_and_order_match(experiment_id):
    spec = build(experiment_id)
    recorded = EXPERIMENTS[experiment_id]["series"]
    assert [s.label for s in spec.series] == [s["label"] for s in recorded]


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_series_scenarios_match(experiment_id):
    spec = build(experiment_id)
    recorded = EXPERIMENTS[experiment_id]["series"]
    assert len(spec.series) == len(recorded)
    for series, entry in zip(spec.series, recorded):
        assert scenario_digest(series.scenario) == entry["scenario_sha256"], (
            series.label
        )


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_metadata_matches(experiment_id):
    spec = build(experiment_id)
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
    spec = get_experiment(experiment_id)
    new_keys = job_keys(
        flatten_experiment(spec, replications=REPLICATIONS, seed=seed)
    )
    assert new_keys == EXPERIMENTS[experiment_id]["result_keys"][str(seed)]


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
    requested = [
        compiled_keys[index]
        for series in compiled.spec.series
        for index in compiled.slots[series.label]
    ]
    assert requested == legacy_keys


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_registry_serves_the_design_compiled_spec(experiment_id):
    via_registry = get_experiment(experiment_id)
    via_design = build(experiment_id)
    assert via_registry.series == via_design.series
    assert via_registry.design is not None
    assert via_registry.design.experiment_id == experiment_id
