"""The phone-network virus propagation model (paper §4).

:class:`PhoneNetworkModel` wires together the substrates:

* a contact-list topology (:mod:`repro.topology`),
* per-phone state (:mod:`repro.core.phone`) for the whole population,
* the virus behaviour engine (:mod:`repro.core.virus`),
* the MMS gateway (:mod:`repro.core.gateway`),
* the user consent model (:mod:`repro.core.user`),
* any configured response mechanisms (:mod:`repro.core.responses`),

and drives the propagation process on the discrete-event kernel: infected
phones send paced messages; the gateway filters and delays them; receiving
users decide consent with the ``AF/2^n`` decay; accepted attachments
install after a read delay and infect the phone, which then becomes an
attacker.

The model simulates only virus traffic (paper §4: legitimate messages are
not tracked) and only phone infections (the network infrastructure is
assumed to absorb the load).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..des.random import Distribution, StreamFactory
from ..des.simulator import Simulator
from ..obs.metrics import Metrics
from ..topology.csr import CSRAdjacency
# contact_network stays bound here: perfbench's tracer rebinds and
# restores it in every module that imported it by name.
from ..topology.generators import contact_network  # noqa: F401
from ..topology.memo import shared_contact_network
from .detection import DetectionTracker
from .gateway import MMSGateway
from .messages import MessageIdAllocator, MMSMessage
from .metrics import ModelMetrics
from .parameters import ScenarioConfig
from .phone import Phone, PhoneState
from .responses import ResponseMechanism, build_mechanism
from .virus import VirusEngine


class PhoneNetworkModel:
    """One executable instance of the paper's phone-network model."""

    def __init__(
        self,
        config: ScenarioConfig,
        streams: StreamFactory,
        graph: Optional[CSRAdjacency] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.config = config
        self.streams = streams
        self.sim = Simulator(metrics=metrics)
        self.metrics = ModelMetrics()
        self.detection = DetectionTracker(config.detection)

        network = config.network
        if graph is None:
            # Every job of one (seed, replication) shares its graph; the
            # memo builds it once per process.
            contact_lists = shared_contact_network(
                network.population,
                network.mean_contact_list_size,
                streams.stream("topology"),
                model=network.topology_model,
                exponent=network.powerlaw_exponent,
            ).neighbor_lists()
        elif graph.num_nodes != network.population:
            raise ValueError(
                f"graph has {graph.num_nodes} nodes but the scenario population "
                f"is {network.population}"
            )
        else:
            contact_lists = graph.neighbor_lists()

        susceptible_rng = streams.stream("susceptibility")
        chosen = susceptible_rng.choice(
            network.population, size=network.susceptible_count, replace=False
        )
        susceptible_ids = set(int(i) for i in chosen)
        self.phones: Tuple[Phone, ...] = tuple(
            Phone(i, i in susceptible_ids, contact_lists[i])
            for i in range(network.population)
        )

        self.virus = VirusEngine(config.virus, network.population)
        self._virus_rng = streams.stream("virus")
        self._user_rng = streams.stream("user")
        self._message_ids = MessageIdAllocator()
        self._read_delay: Distribution = config.user.read_delay_distribution()
        # Per-event bound-method caches: the send/receive path runs once
        # per kernel event, so each saved attribute hop is paid back tens
        # of thousands of times per replication.
        self._count = self.metrics.count
        self._schedule = self.sim.schedule

        # Response mechanisms attach before any event fires so that
        # detection subscriptions and acceptance scaling are in place.
        self.mechanisms: Tuple[ResponseMechanism, ...] = tuple(
            build_mechanism(response, deployment=config.deployment)
            for response in config.responses
        )
        for mechanism in self.mechanisms:
            mechanism.attach(self)

        scale = math.prod(m.acceptance_scale() for m in self.mechanisms)
        self._effective_acceptance_factor = config.user.acceptance_factor * scale

        self.gateway = MMSGateway(
            self.sim,
            streams.stream("gateway"),
            network.gateway_delay_mean,
            self._deliver_message,
            capacity_per_hour=network.gateway_capacity_per_hour,
        )
        for mechanism in self.mechanisms:
            if mechanism.installs_gateway_filter():
                self.gateway.add_filter(mechanism.message_filter)

        self.patient_zero: Optional[int] = None
        self._infected_phones: list = []

        if self.virus.uses_global_windows:
            # A clock-anchored budget timer (boundaries at 0, W, 2W, ...):
            # every infected phone's allotment is granted at each tick, so
            # all sending bursts happen "very near the start of each
            # 24-hour period" (the paper's Virus 2).
            self.sim.schedule_at(0.0, self._global_window_tick, label="window_tick")

    # -- public API ---------------------------------------------------------

    @property
    def effective_acceptance_factor(self) -> float:
        """Acceptance factor after user-education scaling."""
        return self._effective_acceptance_factor

    @property
    def total_infected(self) -> int:
        """Cumulative infection count."""
        return self.metrics.total_infected

    def seed_infection(self, phone_id: Optional[int] = None) -> int:
        """Infect patient zero at the current simulation time.

        When ``phone_id`` is ``None``, a uniformly random susceptible phone
        is chosen.  Returns the infected phone's id.
        """
        if self.patient_zero is not None:
            raise RuntimeError("patient zero has already been seeded")
        if phone_id is None:
            rng = self.streams.stream("patient_zero")
            susceptible = [p.phone_id for p in self.phones if p.susceptible]
            if not susceptible:
                raise RuntimeError("no susceptible phones to seed")
            phone_id = int(susceptible[int(rng.integers(0, len(susceptible)))])
        phone = self.phones[phone_id]
        if not phone.can_become_infected:
            raise ValueError(
                f"phone {phone_id} cannot be patient zero (not susceptible/uninfected)"
            )
        self.patient_zero = phone_id
        self._infect(phone)
        return phone_id

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation to ``until`` (default: the scenario horizon)."""
        horizon = self.config.duration if until is None else until
        return self.sim.run(until=horizon)

    def susceptible_remaining(self) -> int:
        """Susceptible phones not yet infected or immunized."""
        return sum(1 for p in self.phones if p.can_become_infected)

    # -- infection dynamics -----------------------------------------------------

    def _infect(self, phone: Phone) -> None:
        now = self.sim.now
        phone.infect(now)
        self._infected_phones.append(phone)
        count = self.metrics.record_infection(now)
        self.detection.note_infection_count(count, now)
        if self.config.virus.bluetooth_rate > 0:
            self._schedule_bluetooth_encounter(phone)
        if self.virus.uses_global_windows:
            window = self.config.virus.limit_window
            boundary = math.floor(now / window) * window
            phone.start_new_period(boundary)
            if now - boundary > 1e-9:
                # Infected mid-window: the allotment only arrives at the
                # next clock boundary; stay silent until then.
                phone.sent_in_period = self.config.virus.message_limit or 0
        self._schedule_send(phone, self.virus.initial_send_delay(self._virus_rng))
        if self.virus.uses_reboot_limit:
            self._schedule_reboot(phone)

    def _global_window_tick(self) -> None:
        now = self.sim.now
        for phone in self._infected_phones:
            phone.start_new_period(now)
            if phone.actively_spreading and phone.pending_send is None:
                self._schedule_send(phone, self.virus.sample_send_interval(self._virus_rng))
        self._schedule(
            self.config.virus.limit_window, self._global_window_tick, label="window_tick"
        )

    def _schedule_send(self, phone: Phone, delay: float) -> None:
        phone.pending_send = self._schedule(
            delay, lambda: self._send(phone), label="send"
        )

    def _send(self, phone: Phone) -> None:
        phone.pending_send = None
        if not phone.actively_spreading:
            return
        virus = self.virus
        count = self._count
        now = self.sim.now
        if virus.uses_lazy_windows:
            virus.advance_window(phone, now)
        if virus.budget_exhausted(phone):
            reset_time = virus.next_budget_reset(phone)
            if reset_time is not None:
                # Fixed window: retry the moment the budget resets.
                self._schedule_send(phone, max(0.0, reset_time - now))
            # Reboot-limited budgets resume from the reboot handler.
            count("sends_deferred_by_budget")
            return

        recipients, invalid = virus.select_targets(phone, self._virus_rng)
        if not recipients and invalid == 0:
            # Isolated phone with contact-list targeting: nothing to attack.
            count("sends_abandoned_no_contacts")
            return
        message = MMSMessage(
            message_id=self._message_ids.next_id(),
            sender=phone.phone_id,
            recipients=recipients,
            send_time=now,
            infected=True,
            invalid_dials=invalid,
        )
        addressed = len(recipients) + invalid
        phone.record_send(now, virus.budget_units(addressed))
        count("messages_sent")
        count("recipients_addressed", addressed)
        if invalid:
            count("invalid_dials", invalid)

        if self.mechanisms:
            for mechanism in self.mechanisms:
                mechanism.on_message_sent(phone, message, now)

        if recipients:
            self.gateway.submit(message)

        if not phone.actively_spreading:
            return  # blacklisted by the message just sent
        interval = virus.sample_send_interval(self._virus_rng)
        if self.mechanisms:
            for mechanism in self.mechanisms:
                interval = mechanism.adjust_send_interval(phone, interval, now)
        self._schedule_send(phone, interval)

    def _schedule_reboot(self, phone: Phone) -> None:
        phone.pending_reboot = self._schedule(
            self.virus.sample_reboot_interval(self._virus_rng),
            lambda: self._reboot(phone),
            label="reboot",
        )

    def _reboot(self, phone: Phone) -> None:
        phone.pending_reboot = None
        now = self.sim.now
        phone.reboot(now)
        self.metrics.count("reboots")
        if phone.actively_spreading:
            if phone.pending_send is None:
                # The virus stalled on its budget; the fresh budget lets it
                # resume.
                self._schedule_send(phone, self.virus.sample_send_interval(self._virus_rng))
            self._schedule_reboot(phone)

    # -- Bluetooth proximity channel (paper's proposed extension) --------------

    def _schedule_bluetooth_encounter(self, phone: Phone) -> None:
        rate = self.config.virus.bluetooth_rate
        delay = float(self._virus_rng.exponential(1.0 / rate))
        self._schedule(
            delay, lambda: self._bluetooth_encounter(phone), label="bt_encounter"
        )

    def _bluetooth_encounter(self, phone: Phone) -> None:
        """One proximity encounter: offer the file to a random nearby phone.

        The transfer never touches the MMS infrastructure, so gateway
        filters and provider-side MMS blocks do not apply; a patched phone
        (``propagation_stopped``) no longer offers the file.
        """
        if not phone.infected or phone.propagation_stopped:
            return
        self.metrics.count("bluetooth_encounters")
        target_id = int(self._virus_rng.integers(0, self.config.network.population - 1))
        if target_id >= phone.phone_id:
            target_id += 1
        self._receive(self.phones[target_id], self.sim.now)
        self._schedule_bluetooth_encounter(phone)

    # -- delivery & consent -------------------------------------------------------

    def _deliver_message(self, message: MMSMessage) -> None:
        now = self.sim.now
        self._count("deliveries", len(message.recipients))
        phones = self.phones
        receive = self._receive
        for recipient_id in message.recipients:
            receive(phones[recipient_id], now)

    def _receive(self, phone: Phone, now: float) -> None:
        if phone.susceptible and phone.state is PhoneState.UNINFECTED:
            accepted = phone.consent.receive_and_decide(
                self._effective_acceptance_factor, self._user_rng
            )
            if accepted:
                self._count("attachments_accepted")
                delay = self._read_delay.sample(self._user_rng)
                self._schedule(
                    delay, lambda p=phone: self._install(p), label="install"
                )
        else:
            # Infected/immune/insusceptible phones still receive the
            # message (it sits in the inbox) but cannot be (re)infected.
            phone.consent.received_count += 1

    def _install(self, phone: Phone) -> None:
        if phone.can_become_infected:
            self._infect(phone)
        else:
            # Patched (or independently infected) between acceptance and
            # installation — the paper's immunization semantics.
            self.metrics.count("installs_prevented")


__all__ = ["PhoneNetworkModel"]
