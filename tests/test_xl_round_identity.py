"""Bit-identity pins for the xl round loop.

``fixtures/xl_round_identity.json`` was recorded from the xl engine
before its round phases became sort-only (packed-key drains and bucket
splits, no per-round ``lexsort``/``np.unique``).  For each case it holds
the sha256 of one replication's infection times, counters, response
statistics, detection time, patient zero and final time.  Any change to
the round loop must reproduce every digest exactly: the same RNG draws in
the same order, the same counters and the same bucket contents.  The
three V3 cases below the xl-100k one were recorded later, from the engine
before its send batches were built in recipient space and its active sets
merge-inserted, to pin paths the earlier cases never reach.

Re-record only when a change is meant to move results::

    PYTHONPATH=src python tests/test_xl_round_identity.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from dataclasses import replace
from typing import Callable, Dict

import pytest

from repro.core.parameters import (
    BlacklistConfig,
    DetectionAlgorithmConfig,
    GatewayScanConfig,
    ImmunizationConfig,
    MonitoringConfig,
    ResponseDeployment,
    ScenarioConfig,
    UserEducationConfig,
)
from repro.xl.engine import run_scenario_xl
from repro.xl.presets import density_matched_mobility, hybrid_scenario, xl_scenario

FIXTURE = Path(__file__).parent / "fixtures" / "xl_round_identity.json"
SEED = 7


def _v1_with(response) -> Callable[[], ScenarioConfig]:
    return lambda: xl_scenario(1, "xl-10k").with_responses(response)


def _v3_replacing(part: str, **fields) -> Callable[[], ScenarioConfig]:
    """V3 at xl-10k with fields of its ``virus`` or ``network`` replaced."""

    def build() -> ScenarioConfig:
        base = xl_scenario(3, "xl-10k")
        return replace(base, **{part: replace(getattr(base, part), **fields)})

    return build


#: label -> scenario builder.  Responses run on V1 over its paper
#: horizon (V1 never trips the volume monitor, so V3 pins its flagging
#: path); the blacklist case with a deployment delay exercises the
#: latency and rollout draws.  The last three V3 cases pin paths no paper
#: virus reaches: random dialing with several recipients per message, a
#: zero-delay gateway, and both gateway filters under a partial rollout.
CASES: Dict[str, Callable[[], ScenarioConfig]] = {
    "v1-xl-10k": lambda: xl_scenario(1, "xl-10k"),
    "v2-xl-10k": lambda: xl_scenario(2, "xl-10k"),
    "v3-xl-10k": lambda: xl_scenario(3, "xl-10k"),
    "v4-xl-10k": lambda: xl_scenario(4, "xl-10k"),
    "v1-gateway-scan": _v1_with(GatewayScanConfig()),
    "v1-detection-algorithm": _v1_with(DetectionAlgorithmConfig()),
    "v1-user-education": _v1_with(UserEducationConfig()),
    "v1-immunization": _v1_with(ImmunizationConfig()),
    "v1-monitoring": _v1_with(MonitoringConfig()),
    "v3-monitoring": lambda: xl_scenario(3, "xl-10k").with_responses(MonitoringConfig()),
    "v1-blacklist": _v1_with(BlacklistConfig()),
    "v1-blacklist-latency-rollout": lambda: _v1_with(BlacklistConfig())().with_deployment(
        ResponseDeployment(latency_hours=12.0, rollout_rate=0.1)
    ),
    "hybrid-bt-random-mixing": lambda: hybrid_scenario(1, "xl-10k", duration=48.0),
    "hybrid-bt-mobility-grid": lambda: hybrid_scenario(
        1, "xl-10k", duration=48.0, mobility=density_matched_mobility(10_000)
    ),
    "v3-xl-100k-24h": lambda: xl_scenario(3, "xl-100k", duration=24.0),
    "v3-dial-3-recipients": _v3_replacing("virus", recipients_per_message=3),
    "v3-zero-gateway-delay": _v3_replacing("network", gateway_delay_mean=0.0),
    "v3-scan-da-rollout": lambda: xl_scenario(3, "xl-10k")
    .with_responses(GatewayScanConfig(), DetectionAlgorithmConfig())
    .with_deployment(ResponseDeployment(latency_hours=2.0, rollout_rate=0.5)),
}

#: Cases too long for tier-1 (run with ``-m slow``).
SLOW = {"v3-xl-100k-24h"}


def result_digest(config: ScenarioConfig, seed: int = SEED) -> Dict[str, object]:
    """sha256 over everything a replication reports, plus readable totals."""
    result = run_scenario_xl(config, seed=seed, replication=0)
    document = {
        "infection_times": [float(t).hex() for t in result.infection_times],
        "counters": dict(sorted(result.counters.items())),
        "response_stats": {
            name: {key: float(value).hex() for key, value in sorted(stats.items())}
            for name, stats in sorted(result.response_stats.items())
        },
        "detection_time": (
            None if result.detection_time is None else float(result.detection_time).hex()
        ),
        "patient_zero": result.patient_zero,
        "final_time": float(result.final_time).hex(),
    }
    encoded = json.dumps(document, sort_keys=True).encode()
    return {
        "sha256": hashlib.sha256(encoded).hexdigest(),
        "infected": len(result.infection_times),
        "xl_rounds": result.counters["xl_rounds"],
        "events_fired": result.counters["events_fired"],
    }


def _params():
    for label in CASES:
        marks = [pytest.mark.slow] if label in SLOW else []
        yield pytest.param(label, marks=marks, id=label)


@pytest.mark.parametrize("label", list(_params()))
def test_round_loop_matches_recorded_result(label):
    recorded = json.loads(FIXTURE.read_text())["cases"][label]
    assert result_digest(CASES[label]()) == recorded


def test_fixture_covers_every_case():
    recorded = json.loads(FIXTURE.read_text())
    assert recorded["seed"] == SEED
    assert set(recorded["cases"]) == set(CASES)


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {
                "seed": SEED,
                "cases": {label: result_digest(build()) for label, build in CASES.items()},
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {FIXTURE}")
