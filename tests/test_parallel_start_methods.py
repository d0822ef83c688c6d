"""Parallel replication must be bit-identical to serial under fork AND spawn.

``ReplicationScheduler.replicate`` on a worker pool promises results
identical to the serial path.  That promise must hold regardless of the multiprocessing start
method: ``fork`` inherits the parent's module state while ``spawn``
re-imports everything in a fresh interpreter, so any hidden global (a
module-level RNG, a mutated default, an import-order effect) breaks one
but not the other.  The serialized result documents are compared field
by field — bit-identical, not statistically close.  A telemetry-on
scheduler runs its jobs through the pool's ``runner`` hook, which must
pickle under ``spawn`` and leave the results untouched.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core import (
    NetworkParameters,
    ScenarioConfig,
    Targeting,
    UserParameters,
    VirusParameters,
)
from repro.core.parallel import START_METHOD_ENV, mp_context
from repro.core.serialization import result_to_dict
from repro.core.simulation import replicate_scenario
from repro.experiments.scheduler import ReplicationScheduler
from repro.obs.metrics import Metrics

REPLICATIONS = 3
SEED = 13


@pytest.fixture
def quick_scenario() -> ScenarioConfig:
    """Small enough that spawn's interpreter startup dominates, not the DES."""
    return ScenarioConfig(
        name="start-method-test",
        virus=VirusParameters(
            name="quick-virus",
            targeting=Targeting.CONTACT_LIST,
            recipients_per_message=1,
            min_send_interval=0.1,
            extra_send_delay_mean=0.1,
        ),
        network=NetworkParameters(population=80, mean_contact_list_size=12.0),
        user=UserParameters(read_delay_mean=0.1),
        duration=10.0,
    )


def _serial_documents(config: ScenarioConfig) -> list:
    serial = replicate_scenario(config, replications=REPLICATIONS, seed=SEED)
    return [result_to_dict(r) for r in serial.results]


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_parallel_matches_serial_bit_identically(
    method, quick_scenario, monkeypatch
):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable on this platform")
    monkeypatch.setenv(START_METHOD_ENV, method)
    assert mp_context().get_start_method() == method

    with ReplicationScheduler(processes=2, auto_degrade=False) as scheduler:
        parallel = scheduler.replicate(
            quick_scenario, replications=REPLICATIONS, seed=SEED
        )
    assert [result_to_dict(r) for r in parallel.results] == _serial_documents(
        quick_scenario
    )


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_telemetry_scheduler_matches_serial_bit_identically(
    method, quick_scenario, monkeypatch
):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable on this platform")
    monkeypatch.setenv(START_METHOD_ENV, method)

    metrics = Metrics(enabled=True)
    with ReplicationScheduler(
        processes=2, metrics=metrics, auto_degrade=False
    ) as scheduler:
        parallel = scheduler.replicate(
            quick_scenario, replications=REPLICATIONS, seed=SEED
        )
        telemetry = scheduler.telemetry()
    assert [result_to_dict(r) for r in parallel.results] == _serial_documents(
        quick_scenario
    )
    # Every job came back with a sidecar from a worker process.
    assert sum(w["jobs"] for w in telemetry["workers"]) == REPLICATIONS
    assert all(w["pid"] != os.getpid() for w in telemetry["workers"])
    assert telemetry["events_executed"] == sum(
        r.counters["events_fired"] for r in parallel.results
    )


def test_env_override_rejects_unknown_method(monkeypatch):
    monkeypatch.setenv(START_METHOD_ENV, "not-a-method")
    with pytest.raises(ValueError):
        mp_context()
