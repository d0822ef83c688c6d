"""Metamorphic relations on the xl engine (paper viruses V1–V4).

Each test runs a paper virus twice, once with an input changed in a way
whose effect on the result is known without simulating: no user ever
consents, or a blacklist whose threshold no phone can reach.  Every
virus runs on the ``paper`` preset over 72 h at one seed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.parameters import BlacklistConfig
from repro.xl.engine import run_scenario_xl
from repro.xl.presets import xl_scenario

SEED = 1
DURATION = 72.0
VIRUSES = [1, 2, 3, 4]


def _scenario(virus: int):
    return xl_scenario(virus, "paper", duration=DURATION)


@pytest.mark.parametrize("virus", VIRUSES)
def test_zero_acceptance_infects_only_patient_zero(virus):
    config = _scenario(virus)
    config = replace(config, user=replace(config.user, acceptance_factor=0.0))
    result = run_scenario_xl(config, seed=SEED)
    assert result.infection_times == [0.0]
    assert result.counters["attachments_accepted"] == 0
    # The relation is not vacuous: patient zero's messages were delivered.
    assert result.counters["deliveries"] > 0


@pytest.mark.parametrize("virus", VIRUSES)
def test_unreachable_blacklist_threshold_is_the_baseline(virus):
    baseline = run_scenario_xl(_scenario(virus), seed=SEED)
    blacklisted = run_scenario_xl(
        _scenario(virus).with_responses(BlacklistConfig(threshold=10**9)),
        seed=SEED,
    )
    assert len(baseline.infection_times) > 1
    assert blacklisted.infection_times == baseline.infection_times
    assert blacklisted.counters == baseline.counters
    assert blacklisted.response_stats["blacklist"]["phones_blacklisted"] == 0.0
