"""Array-backed large-population virus propagation engine.

Same model as :class:`repro.core.model.PhoneNetworkModel` — infected
phones send paced MMS messages through a filtering gateway, users consent
with the ``AF/2^n`` decay, accepted attachments install after a read
delay — but represented as flat NumPy arrays over the whole population
and advanced with *batched event rounds* instead of a per-message event
heap.

Design
------
Every event keeps its exact continuous timestamp; rounds of width ``dt``
only batch the *processing*.  Pending deliveries, installs, and patch
arrivals are bucketed by ``floor(time / dt)`` and drained when the loop
reaches their round, so recorded infection times are exact, and empty
stretches are skipped by jumping straight to the round holding the next
scheduled event.  ``dt`` is half the virus's minimum send interval
(falling back to the mean slack, clamped so total rounds stay bounded),
which guarantees a newly infected phone's first send lands in a *later*
round — the only cross-round ordering the dynamics rely on.

The engine reuses the core model's population-level randomness protocol —
the ``"susceptibility"`` and ``"patient_zero"`` streams draw identically,
so a given ``(seed, replication)`` picks the same susceptible set and the
same patient zero as the core DES.  Virus/user/gateway dynamics draw from
the same *named* streams but in vectorised batches, so equivalence with
the core engine is statistical (enforced by the differential gates in
:mod:`repro.validation`), not per-event.

Supported responses: all six mechanisms.  The Bluetooth proximity
channel (``virus.bluetooth_rate > 0``) runs as a vectorised per-round
encounter phase: random-mixing partners by default (statistically
matching the core model's channel), or grid-bucketed physical proximity
when the scenario carries :class:`~repro.core.parameters.MobilityParameters`
(see :mod:`repro.mobility.grid`).  Unsupported scenario features (they
raise :class:`UnsupportedFeatureError`): finite gateway capacity, which
is queue-shaped and gains nothing from batching.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.parameters import (
    BlacklistConfig,
    DetectionAlgorithmConfig,
    GatewayScanConfig,
    ImmunizationConfig,
    LimitPeriod,
    MonitoringConfig,
    ScenarioConfig,
    Targeting,
    UserEducationConfig,
)
from ..core.simulation import ScenarioResult
from ..des.random import StreamFactory
from ..obs.metrics import NULL_METRICS, Metrics, Timer
from ..topology.csr import CSRAdjacency, csr_powerlaw
from ..topology.generators import contact_network
from .consent import acceptance_probabilities, occurrence_index

#: Phone states (compare :class:`repro.core.phone.PhoneState`).
UNINFECTED, INFECTED, IMMUNE = 0, 1, 2

#: Hard ceiling on round count: ``dt`` is widened rather than letting a
#: long horizon with fast pacing produce unbounded rounds.
MAX_ROUNDS = 100_000

_EPS = 1e-9


class UnsupportedFeatureError(ValueError):
    """A scenario feature the xl engine does not implement."""


def _timed(timer: Timer, step: Callable[..., Any]) -> Callable[..., Any]:
    """``step`` wrapped to record each call's wall time on ``timer``."""

    def call(*args: Any) -> Any:
        start = perf_counter()
        result = step(*args)
        timer.observe(perf_counter() - start)
        return result

    return call


def id_time_order(ids: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((times, ids))`` returns, sort-only.

    Sorting packed ``id * size + position`` int64 keys in place orders the
    batch by id with input order inside each id; only the runs of a
    repeated id are then re-ordered by time, with a stable sort, so equal
    times keep input order.  ``ids`` must be non-negative, with
    ``ids.max() * ids.size`` within int64 (phone ids times a batch size).
    """
    size = ids.size
    if size < 2:
        return np.arange(size)
    keys = ids.astype(np.int64, copy=False) * size + np.arange(size)
    keys.sort()
    order = keys % size
    sorted_ids = ids[order]
    repeat = sorted_ids[1:] == sorted_ids[:-1]
    if not repeat.any():
        return order
    in_run = np.zeros(size, dtype=bool)
    in_run[1:] = repeat
    in_run[:-1] |= repeat
    slots = np.nonzero(in_run)[0]
    members = order[slots]
    count = members.size
    by_time = np.argsort(times[members], kind="stable")
    rank = np.empty(count, dtype=np.int64)
    rank[by_time] = np.arange(count)
    packed = sorted_ids[slots].astype(np.int64, copy=False) * count + rank
    packed.sort()
    order[slots] = members[by_time[packed % count]]
    return order


def split_by_key(
    keys: np.ndarray, ids: np.ndarray, times: np.ndarray
) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """``(key, ids, times)`` per distinct key, ascending, input order kept.

    Equal to masking ``ids``/``times`` with ``keys == key`` for each key of
    ``np.unique(keys)``, from one in-place sort of packed
    ``(key - low) * size + position`` int64 keys split at the key changes.
    Each split-out array owns its data: a view would keep the whole
    reordered batch alive until its last bucket drains.  A batch with one
    key is returned as given (callers pass freshly indexed arrays).
    """
    size = keys.size
    if size == 0:
        return []
    low = int(keys.min())
    if low == int(keys.max()):
        return [(low, ids, times)]
    packed = (keys - low) * size + np.arange(size)
    packed.sort()
    offsets, order = np.divmod(packed, size)
    ids, times = ids[order], times[order]
    cuts = (np.nonzero(offsets[1:] != offsets[:-1])[0] + 1).tolist()
    bounds = [0, *cuts, size]
    return [
        (low + int(offsets[start]), ids[start:stop].copy(), times[start:stop].copy())
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]


def round_width(config: ScenarioConfig) -> float:
    """Round width ``dt`` for a scenario (exposed for tests).

    Half the minimum send interval keeps every infection→first-send chain
    crossing a round boundary (first send comes ``>= dormancy + 2*dt``
    after the infection), so batching never reorders the causal chain the
    epidemic depends on.  A horizon longer than :data:`MAX_ROUNDS` such
    rounds widens ``dt`` and breaks that promise; the engine records the
    widening as a ``dt_widened`` counter in its result.
    """
    dt = max(_causal_round_width(config), config.duration / MAX_ROUNDS)
    return min(dt, config.duration)


def _causal_round_width(config: ScenarioConfig) -> float:
    """The round width the causal-ordering argument asks for."""
    virus = config.virus
    if virus.min_send_interval > 0:
        base = virus.min_send_interval
    elif virus.extra_send_delay_mean > 0:
        base = virus.extra_send_delay_mean
    else:
        base = config.duration / 1000.0
    if virus.bluetooth_rate > 0:
        # Bluetooth encounters have no minimum spacing; bound the round by
        # the mean inter-encounter gap so per-round encounter counts stay
        # small and proximity infection chains cross round boundaries.
        base = min(base, 1.0 / virus.bluetooth_rate)
    return base / 2.0


class XLEngine:
    """One executable array-backed replication of a scenario."""

    def __init__(
        self,
        config: ScenarioConfig,
        streams: StreamFactory,
        graph: Optional[CSRAdjacency] = None,
        metrics: Metrics = NULL_METRICS,
    ) -> None:
        virus = config.virus
        network = config.network
        if network.gateway_capacity_per_hour is not None:
            raise UnsupportedFeatureError(
                "the xl engine does not support finite gateway capacity "
                "(network.gateway_capacity_per_hour); use engine='core'"
            )
        self.config = config
        self.streams = streams
        self.population = network.population
        self.duration = config.duration
        self.dt = round_width(config)

        # -- response-mechanism configs (at most one of each kind) ----------
        self.scan: Optional[GatewayScanConfig] = None
        self.detect_alg: Optional[DetectionAlgorithmConfig] = None
        self.education: Optional[UserEducationConfig] = None
        self.immunization: Optional[ImmunizationConfig] = None
        self.monitoring: Optional[MonitoringConfig] = None
        self.blacklist: Optional[BlacklistConfig] = None
        self._filter_order: List[str] = []
        by_kind = {
            GatewayScanConfig: "scan",
            DetectionAlgorithmConfig: "detect_alg",
            UserEducationConfig: "education",
            ImmunizationConfig: "immunization",
            MonitoringConfig: "monitoring",
            BlacklistConfig: "blacklist",
        }
        for response in config.responses:
            attr = by_kind.get(type(response))
            if attr is None:
                raise UnsupportedFeatureError(
                    f"unknown response config type {type(response)!r}"
                )
            if getattr(self, attr) is not None:
                raise UnsupportedFeatureError(
                    f"the xl engine supports at most one {attr} mechanism"
                )
            setattr(self, attr, response)
            if attr in ("scan", "detect_alg"):
                # Gateway filters consult mechanisms in configuration order,
                # like MMSGateway.add_filter.
                self._filter_order.append(attr)

        # -- topology --------------------------------------------------------
        self.adjacency: Optional[CSRAdjacency] = None
        if graph is not None:
            if graph.num_nodes != network.population:
                raise ValueError(
                    f"graph has {graph.num_nodes} nodes but the scenario "
                    f"population is {network.population}"
                )
            self.adjacency = graph
        elif virus.targeting is Targeting.CONTACT_LIST:
            topology_rng = streams.stream("topology")
            if network.topology_model == "powerlaw":
                self.adjacency = csr_powerlaw(
                    network.population,
                    network.mean_contact_list_size,
                    network.powerlaw_exponent,
                    topology_rng,
                )
            else:
                self.adjacency = contact_network(
                    network.population,
                    network.mean_contact_list_size,
                    topology_rng,
                    model=network.topology_model,
                    exponent=network.powerlaw_exponent,
                )
        # Random-dialing viruses never consult contact lists, so topology
        # generation is skipped entirely at scale.
        self.degrees = (
            self.adjacency.degrees() if self.adjacency is not None else None
        )

        # -- population state -----------------------------------------------
        n = network.population
        self.susceptible = np.zeros(n, dtype=bool)
        chosen = streams.stream("susceptibility").choice(
            n, size=network.susceptible_count, replace=False
        )
        self.susceptible[chosen] = True
        self.state = np.zeros(n, dtype=np.int8)
        self.received_count = np.zeros(n, dtype=np.int64)
        self.sent_in_period = np.zeros(n, dtype=np.int64)
        self.period_start = np.zeros(n, dtype=np.float64)
        self.next_send_at = np.full(n, np.inf)
        self.next_reboot_at = np.full(n, np.inf)
        self.cursor = np.zeros(n, dtype=np.int64)
        self.propagation_stopped = np.zeros(n, dtype=bool)
        self.outgoing_blocked = np.zeros(n, dtype=bool)
        self.infection_times: List[float] = []
        self.patient_zero: Optional[int] = None

        # -- virus shorthand -------------------------------------------------
        self.message_limit = virus.message_limit
        self.window_limit = virus.limit_period is LimitPeriod.FIXED_WINDOW
        self.global_windows = self.window_limit and virus.global_limit_windows
        self.uses_reboot = virus.limit_period is LimitPeriod.REBOOT
        self.interval_dist = virus.send_interval_distribution()
        self.reboot_mean = virus.reboot_interval_mean
        self.next_boundary = virus.limit_window if self.global_windows else np.inf

        # -- behaviour RNG streams (same names as the core model) -----------
        self.rng_virus = streams.stream("virus")
        self.rng_user = streams.stream("user")
        self.rng_gateway = streams.stream("gateway")
        self.rng_immunization = (
            streams.stream("response.immunization")
            if self.immunization is not None
            else None
        )
        self.rng_da = (
            streams.stream("response.detection_algorithm")
            if self.detect_alg is not None
            else None
        )

        # -- deployment assumptions (response-time-bounds axis) --------------
        # Zero latency / no rollout keeps every code path and stream draw
        # identical to a deployment-free scenario.
        deployment = config.deployment
        self.response_latency = (
            deployment.latency_hours if deployment is not None else 0.0
        )
        self.rollout_rate = (
            deployment.rollout_rate if deployment is not None else None
        )
        self.rng_scan_rollout = (
            streams.stream("response.gateway_scan.rollout")
            if self.rollout_rate is not None and self.scan is not None
            else None
        )
        self.rng_bl_rollout = (
            streams.stream("response.blacklist.rollout")
            if self.rollout_rate is not None and self.blacklist is not None
            else None
        )

        scale = self.education.acceptance_scale if self.education else 1.0
        self.effective_af = config.user.acceptance_factor * scale
        self.read_delay_mean = config.user.read_delay_mean
        self.gateway_delay_mean = network.gateway_delay_mean

        # -- Bluetooth proximity channel ------------------------------------
        # Encounters are a Poisson process per actively spreading infected
        # phone (blacklisting does NOT silence it — the transfer bypasses
        # the MMS provider, matching core's ``_bluetooth_encounter``).
        # ``_bt_from`` tracks, per phone, the time up to which encounters
        # have been sampled, so mid-round infections lose no coverage.
        self.bt_rate = virus.bluetooth_rate
        self._bt_ids = np.empty(0, dtype=np.int64)
        self.field = None
        if self.bt_rate > 0:
            self._bt_from = np.zeros(n, dtype=np.float64)
            if config.mobility is not None:
                from ..mobility.grid import GridWaypointField

                self.field = GridWaypointField(
                    n, config.mobility, streams.stream("mobility")
                )

        # -- response runtime state -----------------------------------------
        self.detection_time: Optional[float] = None
        self.detectable = config.detection.detectable_infections
        self.scan_activation = np.inf
        self.scan_blocked = 0
        self.da_activation = np.inf
        self.da_blocked = 0
        self.da_missed = 0
        self.patch_ready_at = np.inf
        self.patch_ready_time: Optional[float] = None
        self._patch_deployed = False
        self.phones_immunized = 0
        self.phones_quarantined = 0
        if self.monitoring is not None:
            self.mon_slots = self.monitoring.threshold + 1
            self.mon_buf = np.full((n, self.mon_slots), -np.inf)
            self.mon_pos = np.zeros(n, dtype=np.int64)
            self.mon_count = np.zeros(n, dtype=np.int64)
            self.mon_flagged = np.zeros(n, dtype=bool)
        if self.blacklist is not None:
            self.bl_counts = np.zeros(n, dtype=np.int64)
            self.blacklisted = np.zeros(n, dtype=bool)
            self.bl_counting_from = np.inf

        # -- pending-event buckets (round index -> list of (ids, times)) ----
        self._delivery_buckets: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._install_buckets: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._patch_buckets: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}

        # -- active sets -----------------------------------------------------
        # The round loop never scans the full population: these sorted id
        # arrays are maintained incrementally and are exactly the phones
        # matching ``INFECTED & ~propagation_stopped & ~outgoing_blocked``
        # (``_send_ids``) and the phones with a live reboot chain
        # (``_reboot_ids``, finite ``next_reboot_at``).  Every per-round
        # sweep, budget check, and next-event minimum then costs
        # O(infected), not O(population).
        self._send_ids = np.empty(0, dtype=np.int64)
        self._reboot_ids = np.empty(0, dtype=np.int64)

        #: Telemetry registry; ``metrics.time_events`` times each round
        #: phase (see :meth:`run`).
        self.metrics = metrics

        self.counters: Dict[str, int] = {
            "messages_sent": 0,
            "recipients_addressed": 0,
            "invalid_dials": 0,
            "deliveries": 0,
            "attachments_accepted": 0,
            "installs_prevented": 0,
            "sends_deferred_by_budget": 0,
            "sends_abandoned_no_contacts": 0,
            "reboots": 0,
            "events_fired": 0,
            "xl_rounds": 0,
        }
        if self.dt > _causal_round_width(config):
            # Present only when widened, so every other result (and its
            # cache digest) is unchanged.
            self.counters["dt_widened"] = 1

    # -- seeding -------------------------------------------------------------

    def seed_infection(self, phone_id: Optional[int] = None) -> int:
        """Infect patient zero at time zero (mirrors the core model)."""
        if self.patient_zero is not None:
            raise RuntimeError("patient zero has already been seeded")
        if phone_id is None:
            rng = self.streams.stream("patient_zero")
            susceptible_ids = np.nonzero(self.susceptible)[0]
            if susceptible_ids.size == 0:
                raise RuntimeError("no susceptible phones to seed")
            phone_id = int(susceptible_ids[int(rng.integers(0, susceptible_ids.size))])
        if not (self.susceptible[phone_id] and self.state[phone_id] == UNINFECTED):
            raise ValueError(
                f"phone {phone_id} cannot be patient zero (not susceptible/uninfected)"
            )
        self.patient_zero = int(phone_id)
        self._infect_batch(
            np.array([phone_id], dtype=np.int64), np.array([0.0])
        )
        return int(phone_id)

    # -- main loop -----------------------------------------------------------

    def run(self) -> float:
        """Advance batched rounds to the scenario horizon.

        Each round runs the phases of :meth:`_round_phases` in order, then
        schedules the next round.  When ``metrics.time_events`` is set,
        every phase (and the scheduling step, as ``round_scheduling``) is
        timed into the registry timer ``xl.phase.<name>``; otherwise the
        loop never touches the clock.
        """
        if self.patient_zero is None:
            raise RuntimeError("seed_infection must run before run()")
        phases = self._round_phases()
        next_round = self._next_round
        if self.metrics.time_events:
            timer = self.metrics.timer
            phases = [
                (name, _timed(timer("xl.phase." + name), phase))
                for name, phase in phases
            ]
            next_round = _timed(timer("xl.phase.round_scheduling"), next_round)
        n_rounds = max(1, int(math.ceil(self.duration / self.dt)))
        k = 0
        while k < n_rounds:
            t_end = min((k + 1) * self.dt, self.duration)
            self.counters["xl_rounds"] += 1
            for _, phase in phases:
                phase(t_end, k)
            k = next_round(k, n_rounds)
        return self.duration

    def _round_phases(self) -> List[Tuple[str, Callable[[float, int], None]]]:
        """The per-round phase table, in execution order.

        Bluetooth encounters are a phase only when ``bt_rate > 0``.
        """

        def patches(t_end: float, k: int) -> None:
            self._trigger_patch_wave(t_end)
            self._drain_patches(k)

        def sends(t_end: float, k: int) -> None:
            while self._process_sends(t_end):
                pass

        phases = [
            ("budget_boundaries", lambda t_end, k: self._process_boundaries(t_end)),
            ("reboots", lambda t_end, k: self._process_reboots(t_end)),
            ("patches", patches),
            ("sends", sends),
        ]
        if self.bt_rate > 0:
            phases.append(
                ("bt_encounters", lambda t_end, k: self._process_bt_encounters(t_end))
            )
        phases.append(("deliveries", lambda t_end, k: self._drain_deliveries(k)))
        phases.append(("installs", lambda t_end, k: self._drain_installs(k)))
        return phases

    def _next_round(self, k: int, n_rounds: int) -> int:
        """Round index of the next scheduled activity (skips dead time)."""
        if self.bt_rate > 0 and self._bt_ids.size:
            # Bluetooth encounters fire continuously while any infected
            # phone spreads: every round has expected activity, so dead
            # time cannot be skipped.
            return k + 1
        send_ids = self._send_ids
        time_candidates = [
            float(self.next_send_at[send_ids].min()) if send_ids.size else math.inf
        ]
        if self.uses_reboot and self._reboot_ids.size:
            time_candidates.append(float(self.next_reboot_at[self._reboot_ids].min()))
        if self.global_windows and send_ids.size:
            time_candidates.append(self.next_boundary)
        if self.immunization is not None and not self._patch_deployed:
            time_candidates.append(self.patch_ready_at)
        t_next = min(time_candidates)
        round_candidates = []
        if t_next <= self.duration + _EPS:
            round_candidates.append(self._bucket_of(t_next))
        for buckets in (
            self._delivery_buckets,
            self._install_buckets,
            self._patch_buckets,
        ):
            if buckets:
                round_candidates.append(min(buckets))
        if not round_candidates:
            return n_rounds
        return max(k + 1, min(round_candidates))

    # -- bucket plumbing ------------------------------------------------------

    def _bucket_of(self, time: float) -> int:
        return int(math.floor(time / self.dt - _EPS))

    def _push_bucket(
        self,
        buckets: Dict[int, List[Tuple[np.ndarray, np.ndarray]]],
        ids: np.ndarray,
        times: np.ndarray,
    ) -> None:
        keys = np.floor(times / self.dt - _EPS).astype(np.int64)
        for key, key_ids, key_times in split_by_key(keys, ids, times):
            buckets.setdefault(key, []).append((key_ids, key_times))

    @staticmethod
    def _pop_buckets(
        buckets: Dict[int, List[Tuple[np.ndarray, np.ndarray]]], k: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        due = [key for key in buckets if key <= k]
        if not due:
            return None
        entries: List[Tuple[np.ndarray, np.ndarray]] = []
        for key in due:
            entries.extend(buckets.pop(key))
        ids = np.concatenate([entry[0] for entry in entries])
        times = np.concatenate([entry[1] for entry in entries])
        return ids, times

    # -- infection ------------------------------------------------------------

    def _infect_batch(self, ids: np.ndarray, times: np.ndarray) -> None:
        """State flips + pacing setup for newly infected phones (time order)."""
        count = ids.size
        self.state[ids] = INFECTED
        self.sent_in_period[ids] = 0
        self.period_start[ids] = times
        merged = np.concatenate((self._send_ids, ids))
        merged.sort()
        self._send_ids = merged
        if self.bt_rate > 0:
            spreading = np.concatenate((self._bt_ids, ids))
            spreading.sort()
            self._bt_ids = spreading
            self._bt_from[ids] = times
        if self.uses_reboot:
            chained = np.concatenate((self._reboot_ids, ids))
            chained.sort()
            self._reboot_ids = chained
        if self.global_windows:
            window = self.config.virus.limit_window
            boundary = np.floor(times / window) * window
            self.period_start[ids] = boundary
            # Infected mid-window: the clock-anchored allotment only
            # arrives at the next boundary; stay silent until then.
            silent = (times - boundary) > _EPS
            self.sent_in_period[ids[silent]] = self.message_limit or 0
        first_delay = self.config.virus.dormancy + self.interval_dist.sample_many(
            self.rng_virus, count
        )
        self.next_send_at[ids] = times + first_delay
        if self.uses_reboot:
            self.next_reboot_at[ids] = times + self.rng_virus.exponential(
                self.reboot_mean, count
            )
        self.infection_times.extend(float(t) for t in times)
        if self.detection_time is None and len(self.infection_times) >= self.detectable:
            self._on_detection(self.infection_times[self.detectable - 1])

    def _on_detection(self, detection_time: float) -> None:
        self.detection_time = detection_time
        latency = self.response_latency
        if self.scan is not None:
            self.scan_activation = (
                detection_time + self.scan.activation_delay + latency
            )
        if self.detect_alg is not None:
            self.da_activation = (
                detection_time + self.detect_alg.analysis_period + latency
            )
        if self.immunization is not None:
            self.patch_ready_at = (
                detection_time + self.immunization.development_time + latency
            )
            self.patch_ready_time = self.patch_ready_at
        if self.blacklist is not None:
            self.bl_counting_from = detection_time + latency

    # -- periodic budget machinery -------------------------------------------

    def _process_boundaries(self, t_end: float) -> None:
        """Clock-anchored global windows (V2): grant budgets at boundaries."""
        if not self.global_windows:
            return
        while self.next_boundary <= t_end:
            boundary = self.next_boundary
            infected = self.state == INFECTED
            self.period_start[infected] = boundary
            self.sent_in_period[infected] = 0
            candidates = self._send_ids
            resume = np.isinf(self.next_send_at[candidates])
            ids = candidates[resume]
            if ids.size:
                self.next_send_at[ids] = boundary + self.interval_dist.sample_many(
                    self.rng_virus, ids.size
                )
            self.counters["events_fired"] += 1
            self.next_boundary += self.config.virus.limit_window

    def _process_reboots(self, t_end: float) -> None:
        """Reboot-reset budgets (V1): budget refresh + stalled-send resume."""
        if not self.uses_reboot or self._reboot_ids.size == 0:
            return
        fired = False
        while True:
            candidates = self._reboot_ids
            due = self.next_reboot_at[candidates] <= t_end
            ids = candidates[due]
            if ids.size == 0:
                break
            fired = True
            times = self.next_reboot_at[ids].copy()
            self.sent_in_period[ids] = 0
            self.period_start[ids] = times
            self.counters["reboots"] += int(ids.size)
            self.counters["events_fired"] += int(ids.size)
            # The reboot chain continues only for actively spreading
            # phones (core: _reboot does not reschedule otherwise).
            self.next_reboot_at[ids] = np.inf
            active = (
                (self.state[ids] == INFECTED)
                & ~self.propagation_stopped[ids]
                & ~self.outgoing_blocked[ids]
            )
            act = ids[active]
            if act.size == 0:
                continue
            act_times = times[active]
            stalled = np.isinf(self.next_send_at[act])
            resumed = act[stalled]
            if resumed.size:
                self.next_send_at[resumed] = act_times[
                    stalled
                ] + self.interval_dist.sample_many(self.rng_virus, resumed.size)
            self.next_reboot_at[act] = act_times + self.rng_virus.exponential(
                self.reboot_mean, act.size
            )
        if fired:
            # Chains that ended above left ``inf`` behind; drop those ids.
            live = np.isfinite(self.next_reboot_at[self._reboot_ids])
            self._reboot_ids = self._reboot_ids[live]

    # -- immunization ---------------------------------------------------------

    def _trigger_patch_wave(self, t_end: float) -> None:
        if (
            self.immunization is None
            or self._patch_deployed
            or self.patch_ready_at > t_end
        ):
            return
        assert self.rng_immunization is not None
        susceptible_ids = np.nonzero(self.susceptible)[0]
        window = self.immunization.deployment_window
        if self.rollout_rate is not None:
            window = 1.0 / self.rollout_rate
        offsets = self.rng_immunization.uniform(
            0.0, window, size=susceptible_ids.size
        )
        arrival = self.patch_ready_at + offsets
        within = arrival <= self.duration
        if np.any(within):
            self._push_bucket(
                self._patch_buckets, susceptible_ids[within], arrival[within]
            )
        self._patch_deployed = True
        self.counters["events_fired"] += 1

    def _drain_patches(self, k: int) -> None:
        batch = self._pop_buckets(self._patch_buckets, k)
        if batch is None:
            return
        ids, _times = batch
        self.counters["events_fired"] += int(ids.size)
        states = self.state[ids]
        immunize = states == UNINFECTED
        quarantine = (states == INFECTED) & ~self.propagation_stopped[ids]
        immunized = ids[immunize]
        quarantined = ids[quarantine]
        if immunized.size:
            self.state[immunized] = IMMUNE
            self.phones_immunized += int(immunized.size)
            self.counters["phones_immunized"] = (
                self.counters.get("phones_immunized", 0) + int(immunized.size)
            )
        if quarantined.size:
            self.propagation_stopped[quarantined] = True
            self.next_send_at[quarantined] = np.inf
            self._send_ids = self._send_ids[
                ~np.isin(self._send_ids, quarantined, assume_unique=True)
            ]
            if self._bt_ids.size:
                # A patched phone no longer offers the file over Bluetooth.
                self._bt_ids = self._bt_ids[
                    ~np.isin(self._bt_ids, quarantined, assume_unique=True)
                ]
            self.phones_quarantined += int(quarantined.size)
            self.counters["phones_quarantined_by_patch"] = (
                self.counters.get("phones_quarantined_by_patch", 0)
                + int(quarantined.size)
            )

    # -- sending --------------------------------------------------------------

    def _process_sends(self, t_end: float) -> bool:
        """One sweep of due sends; True if another sweep can find due work.

        Called in a loop per round: a fixed-window retry or a next send can
        fall inside the same round.  A sweep changes ``next_send_at`` only
        for the ids it processed, so it answers from those ids alone and
        most rounds end without rescanning ``_send_ids``.
        """
        virus = self.config.virus
        candidates = self._send_ids
        if candidates.size == 0:
            return False
        due = self.next_send_at[candidates] <= t_end
        ids = candidates[due]
        if ids.size == 0:
            return False
        send_times = self.next_send_at[ids]
        counters = self.counters
        counters["events_fired"] += int(ids.size)

        # Infection-anchored fixed windows roll forward lazily, with the
        # core's comparison (VirusEngine.advance_window): a retry deferred
        # to ``period_start + window`` always finds its window rolled.
        if self.window_limit and not self.global_windows:
            window = virus.limit_window
            roll = send_times >= self.period_start[ids] + window
            rolling, rolling_times = ids[roll], send_times[roll]
            self.sent_in_period[rolling] = 0
            while rolling.size:
                self.period_start[rolling] += window
                later = rolling_times >= self.period_start[rolling] + window
                rolling, rolling_times = rolling[later], rolling_times[later]

        # Budget gate.
        again = False
        if self.message_limit is not None:
            exhausted = self.sent_in_period[ids] >= self.message_limit
            if np.any(exhausted):
                deferred = ids[exhausted]
                counters["sends_deferred_by_budget"] += int(deferred.size)
                if self.window_limit and not self.global_windows:
                    # Fixed window: retry the moment the budget resets.
                    retry_at = self.period_start[deferred] + virus.limit_window
                    self.next_send_at[deferred] = retry_at
                    again = bool((retry_at <= t_end).any())
                else:
                    # Reboot-limited / clock-anchored budgets resume from
                    # the reboot handler / boundary tick.
                    self.next_send_at[deferred] = np.inf
                keep = ~exhausted
                ids, send_times = ids[keep], send_times[keep]
                if ids.size == 0:
                    return again

        # Target selection.
        if virus.targeting is Targeting.CONTACT_LIST:
            assert self.adjacency is not None and self.degrees is not None
            deg = self.degrees[ids]
            isolated = deg == 0
            if np.any(isolated):
                # Nothing to attack; the phone stalls (a reboot or window
                # boundary retries it later), mirroring the core model.
                stalled = ids[isolated]
                counters["sends_abandoned_no_contacts"] += int(stalled.size)
                self.next_send_at[stalled] = np.inf
                keep = ~isolated
                ids, send_times, deg = ids[keep], send_times[keep], deg[keep]
                if ids.size == 0:
                    return again
            fanout = np.minimum(virus.recipients_per_message, deg)
            if virus.limit_counts_recipients:
                remaining = self.message_limit - self.sent_in_period[ids]
                fanout = np.minimum(fanout, remaining)
            rows = np.repeat(np.arange(ids.size), fanout)
            starts = np.concatenate(([0], np.cumsum(fanout)[:-1]))
            position = np.arange(rows.size) - starts[rows]
            senders = ids[rows]
            slot = (self.cursor[senders] + position) % deg[rows]
            recipients = self.adjacency.indices[
                self.adjacency.indptr[senders] + slot
            ].astype(np.int64)
            self.cursor[ids] = (self.cursor[ids] + fanout) % deg
            recipient_msg = rows
            addressed = fanout
            invalid_total = 0
        else:
            per_message = virus.recipients_per_message
            message_of = np.repeat(np.arange(ids.size), per_message)
            valid = (
                self.rng_virus.random(ids.size * per_message)
                < virus.valid_number_fraction
            )
            invalid_total = int((~valid).sum())
            dialing_senders = np.repeat(ids, per_message)[valid]
            targets = self.rng_virus.integers(
                0, self.population - 1, size=dialing_senders.size
            )
            # Shift past the sender so a phone never dials itself.
            recipients = targets + (targets >= dialing_senders)
            recipient_msg = message_of[valid]
            addressed = np.bincount(recipient_msg, minlength=ids.size)

        # Record the send (budget units: recipients for V2, else messages).
        units = addressed if virus.limit_counts_recipients else 1
        self.sent_in_period[ids] += units
        counters["messages_sent"] += int(ids.size)
        counters["recipients_addressed"] += int(addressed.sum())
        if invalid_total:
            counters["invalid_dials"] += invalid_total

        # Point-of-dissemination mechanisms observe the outgoing batch.
        if self.monitoring is not None:
            self._monitor_batch(ids, send_times)
        if self.blacklist is not None and self.detection_time is not None:
            countable = ids[~self.blacklisted[ids]]
            if self.response_latency > 0.0 or self.rollout_rate is not None:
                # Deployment-delayed counting: sends before the
                # latency-adjusted activation are unseen, and a partial
                # rollout counts each send only with the ramp's coverage.
                # (At latency 0 every send in the batch already satisfies
                # ``send_times >= detection_time``, so the deployment-free
                # path below is untouched.)
                countable_times = send_times[~self.blacklisted[ids]]
                seen = countable_times >= self.bl_counting_from
                if self.rng_bl_rollout is not None and countable.size:
                    coverage = np.minimum(
                        1.0,
                        np.maximum(
                            0.0,
                            (countable_times - self.bl_counting_from)
                            * self.rollout_rate,
                        ),
                    )
                    seen &= self.rng_bl_rollout.random(countable.size) < coverage
                countable = countable[seen]
            self.bl_counts[countable] += 1
            newly = countable[self.bl_counts[countable] >= self.blacklist.threshold]
            if newly.size:
                self.blacklisted[newly] = True
                self.outgoing_blocked[newly] = True
                self._send_ids = self._send_ids[
                    ~np.isin(self._send_ids, newly, assume_unique=True)
                ]
                counters["phones_blacklisted"] = counters.get(
                    "phones_blacklisted", 0
                ) + int(newly.size)

        # Gateway: filters consulted at send time, then transit delay.
        has_recipients = addressed > 0
        counters["gateway_messages_processed"] = counters.get(
            "gateway_messages_processed", 0
        ) + int(has_recipients.sum())
        blocked = np.zeros(ids.size, dtype=bool)
        for kind in self._filter_order:
            if kind == "scan":
                candidate = has_recipients & ~blocked & (send_times >= self.scan_activation)
                if self.rng_scan_rollout is not None:
                    # Partial signature rollout: each message past the
                    # activation is blocked with the ramp's coverage.
                    cidx = np.nonzero(candidate)[0]
                    if cidx.size:
                        coverage = np.minimum(
                            1.0,
                            (send_times[cidx] - self.scan_activation)
                            * self.rollout_rate,
                        )
                        miss = self.rng_scan_rollout.random(cidx.size) >= coverage
                        candidate[cidx[miss]] = False
                self.scan_blocked += int(candidate.sum())
                blocked |= candidate
            else:
                assert self.detect_alg is not None and self.rng_da is not None
                candidate = has_recipients & ~blocked & (send_times >= self.da_activation)
                candidates = np.nonzero(candidate)[0]
                if candidates.size:
                    accuracy = self.detect_alg.accuracy
                    if self.rollout_rate is not None:
                        # Ramp scales the effective per-message accuracy;
                        # the one-draw-per-candidate shape is unchanged.
                        accuracy = accuracy * np.minimum(
                            1.0,
                            (send_times[candidates] - self.da_activation)
                            * self.rollout_rate,
                        )
                    hit = self.rng_da.random(candidates.size) < accuracy
                    blocked[candidates[hit]] = True
                    self.da_blocked += int(hit.sum())
                    self.da_missed += int(candidates.size - hit.sum())
        counters["gateway_messages_blocked"] = counters.get(
            "gateway_messages_blocked", 0
        ) + int((blocked & has_recipients).sum())

        passed = has_recipients & ~blocked
        if np.any(passed):
            passed_count = int(passed.sum())
            if self.gateway_delay_mean > 0:
                transit = self.rng_gateway.exponential(
                    self.gateway_delay_mean, passed_count
                )
            else:
                transit = np.zeros(passed_count)
            deliver_at = np.full(ids.size, np.inf)
            deliver_at[passed] = send_times[passed] + transit
            in_horizon = passed & (deliver_at <= self.duration)
            counters["gateway_messages_delivered"] = counters.get(
                "gateway_messages_delivered", 0
            ) + int(in_horizon.sum())
            keep_recipient = in_horizon[recipient_msg]
            if np.any(keep_recipient):
                self._push_bucket(
                    self._delivery_buckets,
                    recipients[keep_recipient],
                    deliver_at[recipient_msg][keep_recipient],
                )

        # Pace the next send (monitoring throttles flagged phones).
        intervals = self.interval_dist.sample_many(self.rng_virus, ids.size)
        if self.monitoring is not None:
            flagged = self.mon_flagged[ids]
            intervals = np.where(
                flagged,
                np.maximum(intervals, self.monitoring.forced_wait),
                intervals,
            )
        next_times = send_times + intervals
        # A phone blacklisted by the message it just sent stops here (the
        # message itself still went out, matching the core ordering).
        next_times[self.outgoing_blocked[ids]] = np.inf
        self.next_send_at[ids] = next_times
        return again or bool((next_times <= t_end).any())

    def _monitor_batch(self, ids: np.ndarray, send_times: np.ndarray) -> None:
        """Sliding-window volume monitor over a ring of recent send times.

        A flag fires when a phone accumulates ``threshold + 1`` sends whose
        oldest member still lies within the window — exactly the deque
        semantics of :class:`repro.core.responses.monitoring.Monitoring`.
        """
        assert self.monitoring is not None
        recording = ~self.mon_flagged[ids]
        monitored = ids[recording]
        if monitored.size == 0:
            return
        times = send_times[recording]
        slots = self.mon_slots
        position = self.mon_pos[monitored]
        self.mon_buf[monitored, position] = times
        position = (position + 1) % slots
        self.mon_pos[monitored] = position
        self.mon_count[monitored] += 1
        oldest_recent = self.mon_buf[monitored, position]
        newly = (self.mon_count[monitored] >= slots) & (
            oldest_recent >= times - self.monitoring.window
        )
        flagged = monitored[newly]
        if flagged.size:
            self.mon_flagged[flagged] = True
            self.counters["phones_flagged_by_monitoring"] = self.counters.get(
                "phones_flagged_by_monitoring", 0
            ) + int(flagged.size)

    # -- Bluetooth proximity channel -------------------------------------------

    def _process_bt_encounters(self, t_end: float) -> None:
        """One round of vectorised Bluetooth encounters.

        Each actively spreading infected phone fires encounters as a
        Poisson process at ``bluetooth_rate``; per round we draw the
        encounter count over the phone's uncovered window (Poisson counts
        over disjoint windows ≡ exponential inter-arrivals), place the
        encounter times uniformly within it, and pick a partner — a
        uniformly random other phone (random mixing), or a uniform
        in-range phone from the grid snapshot when mobility is attached.
        Offers land in the delivery buckets at their exact times, so the
        shared consent drain applies the ``AF/2^n`` decay to MMS and
        Bluetooth receptions alike, in one time-ordered pass per phone.
        The transfer bypasses the MMS gateway entirely: no filters, no
        transit delay, and blacklisted phones still spread.
        """
        ids = self._bt_ids
        if self.bt_rate <= 0 or ids.size == 0:
            return
        widths = t_end - self._bt_from[ids]
        counts = self.rng_virus.poisson(self.bt_rate * widths)
        self._bt_from[ids] = t_end
        total = int(counts.sum())
        if total == 0:
            return
        counters = self.counters
        counters["bluetooth_encounters"] = (
            counters.get("bluetooth_encounters", 0) + total
        )
        counters["events_fired"] += total
        sources = np.repeat(ids, counts)
        window = np.repeat(widths, counts)
        times = t_end - window * self.rng_virus.random(total)
        if self.field is not None:
            snapshot = self.field.snapshot(t_end)
            partners = snapshot.sample_partners(sources, self.rng_virus)
            reached = partners >= 0
            fizzled = total - int(reached.sum())
            if fizzled:
                # Nobody in Bluetooth range: the attempt fizzles.
                counters["bluetooth_fizzled"] = (
                    counters.get("bluetooth_fizzled", 0) + fizzled
                )
            recipients = partners[reached]
            times = times[reached]
        else:
            targets = self.rng_virus.integers(0, self.population - 1, size=total)
            # Shift past the source so a phone never meets itself.
            recipients = targets + (targets >= sources)
        if recipients.size:
            self._push_bucket(self._delivery_buckets, recipients, times)

    # -- delivery, consent, installation --------------------------------------

    def _drain_deliveries(self, k: int) -> None:
        batch = self._pop_buckets(self._delivery_buckets, k)
        if batch is None:
            return
        recipients, times = batch
        order = id_time_order(recipients, times)
        recipients, times = recipients[order], times[order]
        self.counters["deliveries"] += int(recipients.size)
        self.counters["events_fired"] += int(recipients.size)
        # n-th-message index per delivery: prior per-phone count plus the
        # within-batch occurrence number (batch sorted by recipient, time).
        occurrence = occurrence_index(recipients)
        n_index = self.received_count[recipients] + occurrence + 1
        run_start = np.concatenate(([True], recipients[1:] != recipients[:-1]))
        starts = np.nonzero(run_start)[0]
        lengths = np.diff(np.concatenate((starts, [recipients.size])))
        self.received_count[recipients[starts]] += lengths
        probabilities = acceptance_probabilities(self.effective_af, n_index)
        draws = self.rng_user.random(recipients.size)
        can_infect = self.susceptible[recipients] & (
            self.state[recipients] == UNINFECTED
        )
        accepted = can_infect & (draws < probabilities)
        accepted_count = int(accepted.sum())
        if accepted_count == 0:
            return
        self.counters["attachments_accepted"] += accepted_count
        if self.read_delay_mean > 0:
            read_delay = self.rng_user.exponential(
                self.read_delay_mean, accepted_count
            )
        else:
            read_delay = np.zeros(accepted_count)
        install_at = times[accepted] + read_delay
        within = install_at <= self.duration
        if np.any(within):
            self._push_bucket(
                self._install_buckets, recipients[accepted][within], install_at[within]
            )

    def _drain_installs(self, k: int) -> None:
        batch = self._pop_buckets(self._install_buckets, k)
        if batch is None:
            return
        phones, times = batch
        order = id_time_order(phones, times)
        phones, times = phones[order], times[order]
        self.counters["events_fired"] += int(phones.size)
        first = np.concatenate(([True], phones[1:] != phones[:-1]))
        can_infect = self.susceptible[phones] & (self.state[phones] == UNINFECTED)
        infect = first & can_infect
        prevented = int((~infect).sum())
        if prevented:
            # Patched (or independently infected) between acceptance and
            # installation — the paper's immunization semantics.
            self.counters["installs_prevented"] += prevented
        if not np.any(infect):
            return
        new_ids = phones[infect]
        new_times = times[infect]
        time_order = np.argsort(new_times, kind="stable")
        self._infect_batch(new_ids[time_order], new_times[time_order])

    # -- reporting -------------------------------------------------------------

    def response_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-mechanism statistics keyed like the core mechanisms."""
        stats: Dict[str, Dict[str, float]] = {}
        for response in self.config.responses:
            if isinstance(response, GatewayScanConfig):
                stats["gateway_scan"] = {
                    "activation_time": (
                        -1.0 if not math.isfinite(self.scan_activation)
                        else self.scan_activation
                    ),
                    "blocked_messages": float(self.scan_blocked),
                }
            elif isinstance(response, DetectionAlgorithmConfig):
                stats["detection_algorithm"] = {
                    "activation_time": (
                        -1.0 if not math.isfinite(self.da_activation)
                        else self.da_activation
                    ),
                    "blocked_messages": float(self.da_blocked),
                    "missed_messages": float(self.da_missed),
                }
            elif isinstance(response, UserEducationConfig):
                stats["user_education"] = {
                    "acceptance_scale": response.acceptance_scale
                }
            elif isinstance(response, ImmunizationConfig):
                stats["immunization"] = {
                    "patch_ready_time": (
                        -1.0 if self.patch_ready_time is None
                        else self.patch_ready_time
                    ),
                    "phones_immunized": float(self.phones_immunized),
                    "phones_quarantined": float(self.phones_quarantined),
                }
            elif isinstance(response, MonitoringConfig):
                stats["monitoring"] = {
                    "phones_flagged": float(int(self.mon_flagged.sum()))
                }
            elif isinstance(response, BlacklistConfig):
                stats["blacklist"] = {
                    "phones_blacklisted": float(int(self.blacklisted.sum()))
                }
        return stats


def run_scenario_xl(
    config: ScenarioConfig,
    seed: int = 0,
    replication: int = 0,
    graph: Optional[CSRAdjacency] = None,
    patient_zero: Optional[int] = None,
    metrics: Optional[Metrics] = None,
) -> ScenarioResult:
    """Simulate one replication of ``config`` on the xl engine.

    Same contract as :func:`repro.core.simulation.run_scenario` (which
    dispatches here for ``engine="xl"``): seeded stream factory per
    ``(seed, replication)``, optional pinned ``graph`` / ``patient_zero``,
    and a :class:`ScenarioResult` that serializes, caches, and aggregates
    exactly like a core-engine result.  ``metrics`` reaches the engine:
    with ``time_events`` set it times each round phase (see
    :meth:`XLEngine.run`).
    """
    streams = StreamFactory(seed).replication(replication)
    engine = XLEngine(
        config, streams, graph=graph,
        metrics=metrics if metrics is not None else NULL_METRICS,
    )
    engine.seed_infection(patient_zero)
    final_time = engine.run()
    counters = dict(engine.counters)
    counters.setdefault("gateway_messages_processed", 0)
    counters.setdefault("gateway_messages_blocked", 0)
    counters.setdefault("gateway_messages_delivered", 0)
    return ScenarioResult(
        config=config,
        seed=seed,
        replication=replication,
        final_time=final_time,
        infection_times=list(engine.infection_times),
        counters=counters,
        response_stats=engine.response_stats(),
        detection_time=engine.detection_time,
        patient_zero=engine.patient_zero,
        susceptible_count=config.network.susceptible_count,
        population=config.network.population,
    )


__all__ = [
    "XLEngine",
    "UnsupportedFeatureError",
    "run_scenario_xl",
    "round_width",
    "MAX_ROUNDS",
    "UNINFECTED",
    "INFECTED",
    "IMMUNE",
]
