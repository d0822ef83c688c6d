"""Tier-1 tests for the array-backed xl engine.

Fast correctness checks: engine-axis plumbing (config, serialization,
cache identity, scheduler), dispatch, determinism, unsupported-feature
guards, and small-N behavioural invariants.  The statistical equivalence
campaign against the core DES lives in ``test_xl_equivalence.py``
(validation marker); the 100k-population smoke in ``test_xl_scale.py``
(slow marker).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.cache import result_key
from repro.core.parameters import (
    ENGINES,
    BlacklistConfig,
    GatewayScanConfig,
    ImmunizationConfig,
    MonitoringConfig,
    NetworkParameters,
    ScenarioConfig,
    UserParameters,
    VirusParameters,
    Targeting,
)
from repro.core.scenarios import baseline_scenario
from repro.core.serialization import scenario_from_dict, scenario_to_dict
from repro.core.simulation import run_scenario
from repro.experiments.spec import ExperimentSpec, SeriesSpec, plan_experiment
from repro.validation.golden import (
    checkpoint_times,
    replication_signature,
)
from repro.xl import (
    MAX_ROUNDS,
    UnsupportedFeatureError,
    XL_PRESETS,
    round_width,
    run_scenario_xl,
    xl_scenario,
)


def _small_scenario(virus: int = 1, **overrides) -> ScenarioConfig:
    base = baseline_scenario(
        virus, network=NetworkParameters(population=120), duration=48.0
    )
    return replace(base, engine="xl", **overrides)


# -- engine axis plumbing ---------------------------------------------------


def test_engine_axis_validates():
    assert ENGINES == {"core", "xl"}
    config = baseline_scenario(1)
    assert config.engine == "core"
    assert config.with_engine("xl").engine == "xl"
    with pytest.raises(ValueError):
        replace(config, engine="warp")


def test_engine_round_trips_through_serialization():
    config = _small_scenario()
    document = scenario_to_dict(config)
    assert document["engine"] == "xl"
    assert scenario_from_dict(document).engine == "xl"
    # Core documents stay byte-stable: no engine key at all.
    assert "engine" not in scenario_to_dict(config.with_engine("core"))


def test_engine_is_part_of_cache_identity():
    config = baseline_scenario(1)
    assert result_key(config, 0, 0) != result_key(config.with_engine("xl"), 0, 0)


def test_experiment_spec_stamps_engine():
    scenario = baseline_scenario(1, network=NetworkParameters(population=120))
    spec = ExperimentSpec(
        experiment_id="t",
        title="t",
        paper_ref="t",
        description="t",
        series=(SeriesSpec(label="a", scenario=scenario),),
        engine="xl",
    )
    jobs = plan_experiment(spec, replications=2).jobs
    assert len(jobs) == 2
    assert all(job.config.engine == "xl" for job in jobs)
    with pytest.raises(ValueError):
        replace(spec, engine="warp")


def test_xl_presets_cover_paper_to_million():
    assert set(XL_PRESETS) == {"paper", "xl-10k", "xl-100k", "xl-1m"}
    config = xl_scenario(1, "xl-10k")
    assert config.engine == "xl"
    assert config.network.population == 10_000
    with pytest.raises(ValueError):
        xl_scenario(1, "xl-42")


# -- dispatch ----------------------------------------------------------------


def test_run_scenario_dispatches_to_xl():
    config = _small_scenario()
    result = run_scenario(config, seed=3)
    assert "xl_rounds" in result.counters
    assert result.config.engine == "xl"


def test_xl_rejects_gateway_capacity():
    config = _small_scenario()
    with pytest.raises(UnsupportedFeatureError, match="capacity"):
        run_scenario_xl(
            replace(
                config,
                network=replace(config.network, gateway_capacity_per_hour=100.0),
            )
        )


def test_xl_accepts_bluetooth():
    # Bluetooth was an UnsupportedFeatureError until the hybrid channel
    # landed; dedicated coverage lives in test_xl_bluetooth.py.
    config = _small_scenario()
    result = run_scenario_xl(
        replace(config, virus=replace(config.virus, bluetooth_rate=1.0)), seed=0
    )
    assert result.counters["bluetooth_encounters"] > 0


# -- behaviour ----------------------------------------------------------------


def test_xl_is_deterministic_per_seed_and_replication():
    config = _small_scenario()
    times = checkpoint_times(config.duration)
    first = replication_signature(run_scenario(config, seed=11), times)
    again = replication_signature(run_scenario(config, seed=11), times)
    other = replication_signature(run_scenario(config, seed=12), times)
    assert first == again
    assert first != other


def test_xl_matches_core_susceptibles_and_patient_zero():
    """Population-level draws share the core streams: same susceptible set,
    same patient zero for a given (seed, replication)."""
    config = baseline_scenario(1, network=NetworkParameters(population=150))
    for seed in (0, 7):
        core = run_scenario(config, seed=seed)
        xl = run_scenario(config.with_engine("xl"), seed=seed)
        assert core.patient_zero == xl.patient_zero
        assert core.susceptible_count == xl.susceptible_count


def test_xl_infection_curve_is_monotone_and_bounded():
    result = run_scenario(_small_scenario(), seed=5)
    times = sorted(result.infection_times)
    assert times == list(result.infection_times)
    assert times[0] == 0.0  # patient zero
    assert result.total_infected <= result.susceptible_count
    curve = result.curve()
    sampled = [curve.value_at(t) for t in np.linspace(0.0, result.final_time, 50)]
    assert all(b >= a for a, b in zip(sampled, sampled[1:]))


def test_xl_counters_are_consistent():
    result = run_scenario(_small_scenario(), seed=9)
    counters = result.counters
    assert counters["messages_sent"] >= counters["gateway_messages_processed"] >= 0
    assert (
        counters["gateway_messages_delivered"]
        <= counters["gateway_messages_processed"]
    )
    assert counters["attachments_accepted"] >= result.total_infected - 1
    assert counters["deliveries"] >= counters["attachments_accepted"]
    assert counters["xl_rounds"] >= 1


def test_xl_random_dialing_skips_topology():
    """Virus 3 never consults contact lists; invalid dials are counted."""
    config = replace(
        baseline_scenario(3, network=NetworkParameters(population=200)),
        duration=12.0,
        engine="xl",
    )
    result = run_scenario(config, seed=4)
    assert result.counters["invalid_dials"] > 0
    assert result.total_infected > 1


def test_xl_immunization_quarantines_and_immunizes():
    config = _small_scenario(
        responses=(ImmunizationConfig(development_time=6.0, deployment_window=3.0),)
    )
    result = run_scenario(config, seed=2)
    stats = result.response_stats["immunization"]
    assert stats["patch_ready_time"] > 0
    assert stats["phones_immunized"] + stats["phones_quarantined"] > 0
    # Patch halts the epidemic well short of the no-response plateau.
    unresponded = run_scenario(_small_scenario(), seed=2)
    assert result.total_infected <= unresponded.total_infected


def test_xl_monitoring_throttles_fast_senders():
    fast = replace(
        baseline_scenario(3, network=NetworkParameters(population=200)),
        duration=8.0,
        engine="xl",
    )
    config = replace(fast, responses=(MonitoringConfig(),))
    result = run_scenario(config, seed=6)
    assert result.response_stats["monitoring"]["phones_flagged"] > 0


def test_xl_gateway_scan_blocks_after_activation():
    config = _small_scenario(
        responses=(GatewayScanConfig(activation_delay=2.0),)
    )
    result = run_scenario(config, seed=8)
    stats = result.response_stats["gateway_scan"]
    assert stats["blocked_messages"] > 0
    assert result.counters["gateway_messages_blocked"] > 0


def test_xl_duplicate_mechanism_rejected():
    config = _small_scenario(
        responses=(MonitoringConfig(), MonitoringConfig(forced_wait=0.5))
    )
    with pytest.raises(UnsupportedFeatureError, match="at most one"):
        run_scenario_xl(config)


def test_xl_pinned_graph_population_mismatch_rejected():
    from repro.topology import complete_graph

    graph = complete_graph(10)
    with pytest.raises(ValueError, match="population"):
        run_scenario_xl(_small_scenario(), graph=graph)


def test_round_width_halves_min_interval_and_is_bounded():
    config = _small_scenario()
    assert round_width(config) == pytest.approx(
        config.virus.min_send_interval / 2.0
    )
    instant = replace(
        config,
        virus=replace(
            config.virus, min_send_interval=0.0, extra_send_delay_mean=0.0
        ),
    )
    assert round_width(instant) > 0.0
    tiny = replace(config, duration=1e-3)
    assert round_width(tiny) <= tiny.duration


def test_dt_widening_is_recorded_in_the_result():
    """MAX_ROUNDS widens dt past half the 1-minute send interval only at
    long horizons, and only then does the result carry ``dt_widened``."""
    # Blacklisting every sender after one message lets the round loop
    # skip the dead time, so the 900 h horizon stays cheap.
    long = baseline_scenario(
        3, network=NetworkParameters(population=120), duration=900.0
    ).with_engine("xl").with_responses(BlacklistConfig(threshold=1), suffix="bl")
    assert round_width(long) == pytest.approx(900.0 / MAX_ROUNDS)
    assert round_width(long) > long.virus.min_send_interval / 2.0
    assert run_scenario_xl(long, seed=0).counters["dt_widened"] == 1
    day = replace(long, duration=24.0)
    assert round_width(day) == pytest.approx(day.virus.min_send_interval / 2.0)
    assert "dt_widened" not in run_scenario_xl(day, seed=0).counters
