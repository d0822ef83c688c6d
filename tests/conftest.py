"""Shared fixtures: small, fast scenario configurations for integration tests."""

from __future__ import annotations

import pytest

from repro.core import (
    NetworkParameters,
    ScenarioConfig,
    Targeting,
    UserParameters,
    VirusParameters,
)


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path_factory, monkeypatch):
    """Point the default result cache at a fresh directory for each test.

    CLI runs given neither ``--no-cache`` nor ``--cache-dir`` use
    ``$REPRO_CACHE_DIR`` or ``./.repro-cache``.  Result keys carry no code
    version, so a cache shared across runs of the suite would serve one
    version's results to the next version's tests.
    """
    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache"))
    )


@pytest.fixture
def small_network() -> NetworkParameters:
    """A 200-phone network that keeps integration tests fast."""
    return NetworkParameters(population=200, mean_contact_list_size=20.0)


@pytest.fixture
def fast_virus() -> VirusParameters:
    """An unconstrained contact-list virus that spreads within hours."""
    return VirusParameters(
        name="fast-test-virus",
        targeting=Targeting.CONTACT_LIST,
        recipients_per_message=1,
        min_send_interval=0.05,
        extra_send_delay_mean=0.05,
    )


@pytest.fixture
def small_scenario(small_network, fast_virus) -> ScenarioConfig:
    """A quick end-to-end scenario: ~1–2 seconds to simulate."""
    return ScenarioConfig(
        name="small-test",
        virus=fast_virus,
        network=small_network,
        user=UserParameters(read_delay_mean=0.2),
        duration=48.0,
    )
