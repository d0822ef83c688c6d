"""Integration tests: the full phone-network model end to end (small scale)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import (
    BlacklistConfig,
    GatewayScanConfig,
    ImmunizationConfig,
    LimitPeriod,
    MonitoringConfig,
    NetworkParameters,
    PhoneNetworkModel,
    ScenarioConfig,
    UserEducationConfig,
    UserParameters,
    VirusParameters,
)
from repro.core.simulation import run_scenario
from repro.des.random import StreamFactory
from repro.topology import contact_network


def test_seed_infection_picks_susceptible(small_scenario):
    model = PhoneNetworkModel(small_scenario, StreamFactory(1))
    patient_zero = model.seed_infection()
    assert model.phones[patient_zero].infected
    assert model.phones[patient_zero].susceptible
    assert model.total_infected == 1


def test_seed_infection_pinned(small_scenario):
    model = PhoneNetworkModel(small_scenario, StreamFactory(1))
    susceptible_id = next(p.phone_id for p in model.phones if p.susceptible)
    assert model.seed_infection(susceptible_id) == susceptible_id


def test_double_seed_rejected(small_scenario):
    model = PhoneNetworkModel(small_scenario, StreamFactory(1))
    model.seed_infection()
    with pytest.raises(RuntimeError):
        model.seed_infection()


def test_seed_insusceptible_rejected(small_scenario):
    model = PhoneNetworkModel(small_scenario, StreamFactory(1))
    insusceptible = next(p.phone_id for p in model.phones if not p.susceptible)
    with pytest.raises(ValueError):
        model.seed_infection(insusceptible)


def test_susceptible_count_matches_config(small_scenario):
    model = PhoneNetworkModel(small_scenario, StreamFactory(1))
    susceptible = sum(1 for p in model.phones if p.susceptible)
    assert susceptible == small_scenario.network.susceptible_count


def test_graph_population_mismatch_rejected(small_scenario):
    import numpy as np

    tiny = contact_network(10, 4.0, np.random.default_rng(0), model="random")
    with pytest.raises(ValueError):
        PhoneNetworkModel(small_scenario, StreamFactory(1), graph=tiny)


def test_virus_spreads_and_curve_monotone(small_scenario):
    result = run_scenario(small_scenario, seed=3)
    assert result.total_infected > 10
    times = result.infection_times
    assert times == sorted(times)
    assert result.counters["messages_sent"] > 0
    assert result.counters["gateway_messages_delivered"] > 0


def test_determinism_same_seed(small_scenario):
    a = run_scenario(small_scenario, seed=9)
    b = run_scenario(small_scenario, seed=9)
    assert a.infection_times == b.infection_times
    assert a.counters == b.counters


def test_different_seeds_differ(small_scenario):
    a = run_scenario(small_scenario, seed=1)
    b = run_scenario(small_scenario, seed=2)
    assert a.infection_times != b.infection_times


def test_penetration_approaches_total_acceptance(small_scenario):
    """Long-horizon unconstrained spread ⇒ penetration ≈ 0.40."""
    scenario = small_scenario.with_duration(200.0)
    result = run_scenario(scenario, seed=4)
    assert result.penetration == pytest.approx(0.40, abs=0.09)


def test_education_halves_plateau(small_scenario):
    scenario = small_scenario.with_duration(200.0)
    baseline = run_scenario(scenario, seed=4)
    educated = run_scenario(
        scenario.with_responses(UserEducationConfig(acceptance_scale=0.5)), seed=4
    )
    ratio = educated.total_infected / baseline.total_infected
    assert 0.3 <= ratio <= 0.75


def test_gateway_scan_freezes_infection(small_scenario):
    scenario = small_scenario.with_responses(GatewayScanConfig(activation_delay=1.0))
    result = run_scenario(scenario, seed=4)
    baseline = run_scenario(small_scenario, seed=4)
    assert result.total_infected < baseline.total_infected
    assert result.counters["gateway_messages_blocked"] > 0
    # After activation (+ small in-flight window), the curve is flat.
    assert result.detection_time is not None
    freeze_time = result.detection_time + 1.0 + 2.0
    late_infections = [t for t in result.infection_times if t > freeze_time]
    assert late_infections == []


def test_immunization_blocks_everything_eventually(small_scenario):
    scenario = small_scenario.with_responses(
        ImmunizationConfig(development_time=0.5, deployment_window=0.5)
    )
    result = run_scenario(scenario, seed=4)
    stats = result.response_stats["immunization"]
    assert stats["phones_immunized"] + stats["phones_quarantined"] > 0
    # No infection can occur after every patch has arrived (+ read tail).
    assert result.detection_time is not None
    patched_by = result.detection_time + 1.0
    tail = [t for t in result.infection_times if t > patched_by + 3.0]
    assert tail == []


def test_blacklist_blocks_senders(small_scenario):
    scenario = small_scenario.with_responses(BlacklistConfig(threshold=5))
    result = run_scenario(scenario, seed=4)
    assert result.response_stats["blacklist"]["phones_blacklisted"] > 0


def test_monitoring_flags_fast_sender(small_scenario):
    # Threshold low enough that the fast test virus trips it.
    scenario = small_scenario.with_responses(
        MonitoringConfig(forced_wait=1.0, window=10.0, threshold=5)
    )
    result = run_scenario(scenario, seed=4)
    baseline = run_scenario(small_scenario, seed=4)
    assert result.response_stats["monitoring"]["phones_flagged"] > 0
    # Throttled spread is slower mid-run.
    assert result.infected_at(12.0) < baseline.infected_at(12.0)


def test_reboot_limited_virus_stalls_and_resumes():
    """A reboot-limited virus must stop at its budget and resume post-reboot."""
    virus = VirusParameters(
        name="reboot-test",
        min_send_interval=0.01,
        extra_send_delay_mean=0.01,
        message_limit=5,
        limit_period=LimitPeriod.REBOOT,
        reboot_interval_mean=5.0,
    )
    network = NetworkParameters(population=50, mean_contact_list_size=10.0)
    scenario = ScenarioConfig(
        name="reboot-test",
        virus=virus,
        network=network,
        user=UserParameters(acceptance_factor=0.0),  # nobody accepts: 1 sender
        duration=50.0,
    )
    result = run_scenario(scenario, seed=0)
    # One sender, budget 5 per reboot cycle, ~10 reboots in 50 h ⇒ well
    # above 5 messages total but far below the unthrottled ~2500.
    assert result.counters["reboots"] > 0
    sent = result.counters["messages_sent"]
    assert 5 < sent < 200


def test_global_window_virus_bursts_at_boundaries():
    virus = VirusParameters(
        name="burst-test",
        recipients_per_message=100,
        min_send_interval=0.01,
        extra_send_delay_mean=0.01,
        message_limit=3,
        limit_counts_recipients=True,
        limit_period=LimitPeriod.FIXED_WINDOW,
        limit_window=10.0,
        global_limit_windows=True,
    )
    network = NetworkParameters(population=30, mean_contact_list_size=8.0)
    scenario = ScenarioConfig(
        name="burst-test",
        virus=virus,
        network=network,
        user=UserParameters(acceptance_factor=0.0),
        duration=35.0,
    )
    model = PhoneNetworkModel(scenario, StreamFactory(2))
    model.seed_infection()
    model.run()
    # Patient zero sends 3 recipient-copies per 10 h window: 4 windows
    # (0, 10, 20, 30) ⇒ 12 copies total.
    assert model.metrics.get("recipients_addressed") == 12


def test_mid_window_infection_waits_for_boundary():
    """With global windows, a phone infected mid-window sends nothing
    until the next boundary."""
    virus = VirusParameters(
        name="wait-test",
        recipients_per_message=1,
        min_send_interval=0.01,
        extra_send_delay_mean=0.0,
        message_limit=100,
        limit_period=LimitPeriod.FIXED_WINDOW,
        limit_window=10.0,
        global_limit_windows=True,
    )
    network = NetworkParameters(population=20, mean_contact_list_size=5.0)
    scenario = ScenarioConfig(
        name="wait-test",
        virus=virus,
        network=network,
        user=UserParameters(acceptance_factor=0.0),
        duration=9.0,
    )
    model = PhoneNetworkModel(scenario, StreamFactory(3))
    model.seed_infection()
    # Manually infect a second phone mid-window.
    model.sim.schedule(
        4.0,
        lambda: model._infect(
            next(p for p in model.phones if p.can_become_infected)
        ),
    )
    model.run()
    late_phone = [p for p in model.phones if p.infected and p.infection_time == 4.0]
    assert len(late_phone) == 1
    assert late_phone[0].total_messages_sent == 0  # silent until hour 10


def test_isolated_patient_zero_cannot_spread():
    """Contact-list virus with an isolated patient zero never propagates."""
    import numpy as np

    from repro.topology.csr import _from_pairs

    graph = _from_pairs(10, [(u, u + 1) for u in range(1, 9)])
    network = NetworkParameters(population=10, mean_contact_list_size=2.0)
    virus = VirusParameters(name="iso", min_send_interval=0.01)
    scenario = ScenarioConfig(
        name="iso", virus=virus, network=network, duration=20.0,
    )
    result = run_scenario(scenario, seed=1, graph=graph, patient_zero=0)
    assert result.total_infected == 1
    assert result.counters.get("sends_abandoned_no_contacts", 0) > 0
