"""Tests for the random-waypoint model and the Bluetooth encounter channel.

The model is :class:`~repro.mobility.GridWaypointField` (legs held as
arrays, positions interpolated analytically) and its spatial-hash
:class:`~repro.mobility.GridSnapshot`; the encounter channel is either
engine's random mixing or, on the xl engine, the grid.  The grid's exact
neighbor contract against the brute-force oracle lives in
``test_mobility_grid.py``; these tests pin the model's leg geometry,
self-exclusion, and what an outbreak over each channel does.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    NetworkParameters,
    ScenarioConfig,
    Targeting,
    UserParameters,
    VirusParameters,
)
from repro.core.model import PhoneNetworkModel
from repro.core.parameters import MobilityParameters
from repro.des.random import StreamFactory
from repro.mobility import GridSnapshot, GridWaypointField
from repro.xl import XLEngine, run_scenario_xl
from repro.xl.engine import UNINFECTED


def make_field(n=20, arena=100.0, radius=10.0, seed=0) -> GridWaypointField:
    params = MobilityParameters(
        arena_size=arena,
        speed_min=10.0,
        speed_max=30.0,
        pause_min=0.0,
        pause_max=0.5,
        bluetooth_radius=radius,
    )
    return GridWaypointField(n, params, np.random.default_rng(seed))


def pinned_field(origin, target, departure, arrival) -> GridWaypointField:
    """A field whose current legs are set by hand.

    Speed is fixed at 5 and every pause at 1 h, so each leg drawn after
    the pinned ones departs 1 h after it arrives.
    """
    field = GridWaypointField(
        len(origin),
        MobilityParameters(
            arena_size=100.0, speed_min=5.0, speed_max=5.0,
            pause_min=1.0, pause_max=1.0, bluetooth_radius=8.0,
        ),
        np.random.default_rng(0),
    )
    field.origin[:] = origin
    field.target[:] = target
    field.departure[:] = departure
    field.arrival[:] = arrival
    return field


def bluetooth_scenario(
    population: int = 200,
    rate: float = 2.0,
    duration: float = 48.0,
    engine: str = "core",
) -> ScenarioConfig:
    """A pure Bluetooth worm (no MMS sends) over random mixing."""
    virus = VirusParameters(
        name="bluetooth-worm",
        targeting=Targeting.CONTACT_LIST,
        min_send_interval=10_000.0,
        extra_send_delay_mean=0.0,
        bluetooth_rate=rate,
    )
    return ScenarioConfig(
        name="bluetooth",
        virus=virus,
        network=NetworkParameters(population=population, mean_contact_list_size=5.0),
        user=UserParameters(read_delay_mean=0.5),
        duration=duration,
        engine=engine,
    )


def run_core(config: ScenarioConfig, seed: int) -> PhoneNetworkModel:
    model = PhoneNetworkModel(config, StreamFactory(seed).replication(0))
    model.seed_infection()
    model.run()
    return model


def run_xl(config: ScenarioConfig, seed: int) -> XLEngine:
    engine = XLEngine(config, StreamFactory(seed).replication(0))
    engine.seed_infection()
    engine.run()
    return engine


class TestLeg:
    def test_position_interpolates(self):
        # Paused at the origin until t=1, then 10 units at speed 5.
        field = pinned_field([[0.0, 0.0]], [[10.0, 0.0]], [1.0], [3.0])
        expected = {
            0.5: [0.0, 0.0],    # pausing
            2.0: [5.0, 0.0],    # halfway
            3.0: [10.0, 0.0],   # arrived
            3.5: [10.0, 0.0],   # pausing at the target (clamped)
        }
        for time, point in expected.items():
            np.testing.assert_array_equal(field.positions(time)[0], point)

    def test_diagonal_distance(self):
        # After the pinned leg ends, the next one leaves the old target
        # after its 1 h pause and takes its Euclidean length / speed.
        field = pinned_field([[0.0, 0.0]], [[3.0, 4.0]], [0.0], [1.0])
        field.positions(1.5)
        assert field.origin[0].tolist() == [3.0, 4.0]
        assert field.departure[0] == 2.0
        distance = np.hypot(*(field.target[0] - field.origin[0]))
        assert field.arrival[0] == pytest.approx(2.0 + distance / 5.0)
        midway = field.positions(2.0 + distance / 10.0)[0]
        np.testing.assert_allclose(midway, (field.origin[0] + field.target[0]) / 2)


class TestZeroSpeedLeg:
    """Pin the degenerate leg: zero length, so zero travel time."""

    def test_zero_distance_leg_arrives_instantly(self):
        field = pinned_field([[4.0, 4.0]], [[4.0, 4.0]], [0.25], [0.25])
        for time in (0.0, 0.25, 1.0):
            points = field.positions(time)
            assert np.all(np.isfinite(points))
            np.testing.assert_array_equal(points[0], [4.0, 4.0])
        # The leg ended at 0.25: the next departs after its 1 h pause.
        assert field.departure[0] == 1.25


class TestWaypointMobility:
    def test_positions_stay_in_arena(self):
        # A tiny arena crossed many times an hour.
        field = make_field(n=50, arena=5.0)
        for time in (0.0, 1.0, 5.0, 20.0, 100.0):
            points = field.positions(time)
            assert np.all(points >= 0.0)
            assert np.all(points <= 5.0)

    def test_positions_continuous_in_time(self):
        field = make_field(n=5)
        previous = field.positions(0.0)
        for step in range(1, 50):
            current = field.positions(step * 0.1)
            jump = np.hypot(*(current - previous).T)
            # Max speed 30 units/h x 0.1 h = 3 units per step.
            assert np.all(jump <= 3.0 + 1e-9)
            previous = current

    def test_time_monotonicity_enforced(self):
        field = make_field(n=2)
        first = field.positions(50.0)
        # Weakly monotone: the same instant again is allowed.
        np.testing.assert_array_equal(field.positions(50.0), first)
        with pytest.raises(ValueError, match="monotone"):
            field.positions(0.0)
        with pytest.raises(ValueError, match="monotone"):
            field.snapshot(49.9)

    def test_neighbors_within_radius(self):
        field = make_field(n=30, arena=10.0)  # dense arena
        snapshot = field.snapshot(1.0, radius=5.0)
        neighbors = snapshot.neighbors_within(0)
        assert neighbors.size > 0
        assert 0 not in neighbors
        points = snapshot.positions
        for other in neighbors:
            assert np.hypot(*(points[other] - points[0])) <= 5.0

    def test_expected_contact_fraction(self):
        params = MobilityParameters(arena_size=100.0, bluetooth_radius=10.0)
        assert params.expected_contact_fraction == pytest.approx(
            np.pi * 100.0 / 10_000.0
        )
        # A disc wider than the arena covers everyone, not more.
        wide = MobilityParameters(arena_size=100.0, bluetooth_radius=1000.0)
        assert wide.expected_contact_fraction == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GridWaypointField(0, MobilityParameters(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            MobilityParameters(arena_size=-1.0)
        with pytest.raises(ValueError):
            MobilityParameters(speed_min=0.0, speed_max=2.0)
        with pytest.raises(ValueError):
            MobilityParameters(speed_min=2.0, speed_max=1.0)
        with pytest.raises(ValueError):
            MobilityParameters(pause_min=1.0, pause_max=0.5)


class TestEncounters:
    def test_random_mixing_never_self(self):
        # Nobody accepts, so patient zero is the only sender: every one
        # of its ~480 encounters must reach one of the other phones.
        config = bluetooth_scenario(population=20, rate=20.0, duration=24.0)
        config = config.with_acceptance_factor(0.0)
        model = run_core(config, seed=11)
        encounters = model.metrics.counters()["bluetooth_encounters"]
        received = [phone.consent.received_count for phone in model.phones]
        assert encounters > 100
        assert received[model.patient_zero] == 0
        assert sum(received) == encounters
        engine = run_xl(replace(config, engine="xl"), seed=11)
        encounters = engine.counters["bluetooth_encounters"]
        patient_zero = int(np.nonzero(engine.state != UNINFECTED)[0][0])
        assert encounters > 100
        assert engine.received_count[patient_zero] == 0
        assert engine.received_count.sum() == encounters

    def test_random_mixing_covers_population(self):
        # ~480 uniform draws over 19 other phones reach every one of them.
        config = bluetooth_scenario(population=20, rate=20.0, duration=24.0)
        config = config.with_acceptance_factor(0.0)
        model = run_core(config, seed=1)
        reached = {
            phone.phone_id for phone in model.phones if phone.consent.received_count
        }
        assert reached == set(range(20)) - {model.patient_zero}
        engine = run_xl(replace(config, engine="xl"), seed=1)
        assert np.count_nonzero(engine.received_count) == 19

    def test_proximity_partner_in_range(self):
        field = make_field(n=40, arena=20.0, radius=6.0, seed=2)
        rng = np.random.default_rng(3)
        found_any = False
        for step in range(1, 30):
            snapshot = field.snapshot(step * 0.5)
            partner = int(snapshot.sample_partners(np.array([0]), rng)[0])
            if partner >= 0:
                found_any = True
                assert partner != 0
                delta = snapshot.positions[partner] - snapshot.positions[0]
                assert np.hypot(*delta) <= 6.0
        assert found_any

    def test_sparse_arena_fizzles(self):
        field = make_field(n=2, arena=10_000.0, radius=1.0, seed=4)
        rng = np.random.default_rng(5)
        partners = [
            int(field.snapshot(float(t)).sample_partners(np.array([0, 1]), rng)[k])
            for t in range(1, 20)
            for k in (0, 1)
        ]
        assert partners == [-1] * 38

    def test_validation(self):
        field = make_field()
        with pytest.raises(ValueError):
            field.snapshot(0.0, radius=0.0)
        with pytest.raises(ValueError):
            field.snapshot(0.0, radius=-1.0)
        with pytest.raises(ValueError):
            GridSnapshot(np.zeros((3, 2)), -5.0, 1.0)


class TestSelfExclusion:
    """Pin self-exclusion when every phone is co-located."""

    def test_neighbors_within_excludes_self_even_when_colocated(self):
        # A tiny arena forces co-location; the querying phone must still
        # never report itself as its own neighbor.
        field = make_field(n=10, arena=0.5, seed=13)
        snapshot = field.snapshot(1.0, radius=5.0)
        for phone in range(10):
            np.testing.assert_array_equal(
                snapshot.neighbors_within(phone), np.delete(np.arange(10), phone)
            )
        # Identical coordinates, not merely close ones.
        stacked = GridSnapshot(np.full((10, 2), 0.25), 0.5, 5.0)
        for phone in range(10):
            assert phone not in stacked.neighbors_within(phone)
            assert stacked.neighbors_within(phone).size == 9

    def test_proximity_partner_never_self(self):
        rng = np.random.default_rng(15)
        field = make_field(n=10, arena=0.5, seed=14)
        stacked = GridSnapshot(np.full((4, 2), 25.0), 50.0, 5.0)
        for snapshot in (field.snapshot(1.0, radius=5.0), stacked):
            partners = snapshot.sample_partners(np.full(200, 3), rng)
            assert np.all(partners >= 0)
            assert np.all(partners != 3)


class TestProximityOutbreak:
    def test_random_mixing_outbreak_spreads(self):
        result = run_scenario_xl(bluetooth_scenario(engine="xl"), seed=6)
        times = result.infection_times
        assert times[0] == 0.0
        assert list(times) == sorted(times)
        assert result.total_infected > 25
        assert result.counters["bluetooth_encounters"] > 0

    def test_locality_slows_spread(self):
        """A sparse proximity worm spreads slower than random mixing."""
        config = bluetooth_scenario(population=200, rate=3.0, engine="xl")
        sparse = MobilityParameters(arena_size=2000.0, bluetooth_radius=50.0)
        fast = run_scenario_xl(config, seed=7)
        slow = run_scenario_xl(config.with_mobility(sparse), seed=7)
        assert slow.counters["bluetooth_fizzled"] > 0
        assert slow.infected_at(24.0) < fast.infected_at(24.0)

    def test_insusceptible_partners_never_infected(self):
        # Everyone within reach of everyone: the grid never fizzles, so
        # insusceptible phones are offered the file again and again.
        dense = MobilityParameters(arena_size=100.0, bluetooth_radius=200.0)
        config = bluetooth_scenario(population=100, engine="xl").with_mobility(dense)
        engine = run_xl(config, seed=12)
        assert engine.counters.get("bluetooth_fizzled", 0) == 0
        insusceptible = ~engine.susceptible
        assert np.count_nonzero(insusceptible) == 20
        assert np.all(engine.received_count[insusceptible] > 0)
        assert np.all(engine.state[insusceptible] == UNINFECTED)
        assert np.count_nonzero(engine.state != UNINFECTED) > 10


class TestConsentCounterSemantics:
    """Every offer advances the recipient's AF/2^n counter.

    An infected or insusceptible phone still receives the file (it lands
    in the inbox), so its consent series keeps decaying: the counters
    summed over all phones equal the offers made.
    """

    def test_insusceptible_recipient_still_advances_counter(self):
        model = run_core(bluetooth_scenario(), seed=16)
        encounters = model.metrics.counters()["bluetooth_encounters"]
        counts = [phone.consent.received_count for phone in model.phones]
        assert sum(counts) == encounters
        immune = [p for p in model.phones if not p.susceptible]
        assert immune and all(p.infection_time is None for p in immune)
        assert sum(p.consent.received_count for p in immune) > 0

    def test_infected_recipient_still_advances_counter(self):
        # Patient zero is infected before any offer is made, so every
        # offer it receives reaches an infected phone.
        model = run_core(bluetooth_scenario(population=30, rate=4.0), seed=17)
        encounters = model.metrics.counters()["bluetooth_encounters"]
        assert len(model.metrics.infection_times) > 3
        assert sum(p.consent.received_count for p in model.phones) == encounters
        assert model.phones[model.patient_zero].consent.received_count > 0
