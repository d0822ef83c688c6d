"""SAN-composed reference model for cross-validation.

The paper built its phone-network model in Möbius, i.e. as composed
stochastic activity networks.  This module rebuilds a (simplified but
behaviourally matched) phone-virus model on our SAN layer
(:mod:`repro.san`) so the production event-scheduling model
(:mod:`repro.core.model`) can be cross-validated against the formalism the
paper used.

Per-phone submodel (composed with :func:`repro.san.join`, all phone
places fused across submodels so senders can deposit into neighbours'
inboxes):

* places ``susceptible_i`` (1 while infectable), ``infected_i``,
  ``inbox_i`` (pending infected messages), ``received_i`` (consent decay
  counter);
* timed activity ``send_i`` — enabled while ``infected_i`` holds a token;
  completes after the virus send interval; its cases pick a uniformly
  random contact and deposit a message token in that contact's inbox;
* instantaneous activity ``read_i`` — consumes one inbox token; its
  marking-dependent cases accept with probability ``AF / 2^(received+1)``
  (zero once the phone is not infectable) and the accept case installs the
  infection.

The matched direct-model configuration uses a contact-list virus with no
budget limits and a zero read delay, so both models realise the same
stochastic process and can be compared statistically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..san.activities import Case, InstantaneousActivity, TimedActivity
from ..san.compose import join
from ..san.gates import InputGate, OutputGate
from ..san.model import SANModel
from ..san.rewards import RateReward
from ..san.simulator import SANSimulationResult, SANSimulator
from ..topology.csr import CSRAdjacency
from .parameters import LimitPeriod, ScenarioConfig, Targeting, UserParameters, VirusParameters
from .user import ACCEPTANCE_NEGLIGIBLE_AFTER


class SANCompatibilityError(ValueError):
    """Raised when a scenario uses features the SAN formulation lacks."""


def san_incompatibilities(config: ScenarioConfig) -> List[str]:
    """Why ``config`` cannot be expressed as this SAN composition.

    The per-phone submodel covers exactly the paper's core propagation
    process: contact-list sends paced by the virus send interval, and
    consent decay at read time.  Everything else — budgets, dormancy,
    random dialing, read delay, Bluetooth, response mechanisms — has no
    counterpart here, and a differential campaign must strip it first
    (see :func:`repro.validation.scenarios.matched_scenario`).
    """
    problems: List[str] = []
    virus = config.virus
    if virus.targeting is not Targeting.CONTACT_LIST:
        problems.append("targeting must be CONTACT_LIST (SAN sends pick a contact)")
    if virus.message_limit is not None or virus.limit_period is not LimitPeriod.NONE:
        problems.append("message budgets are not modelled in the SAN")
    if virus.recipients_per_message != 1:
        problems.append("SAN sends address one recipient per message")
    if virus.dormancy != 0.0:
        problems.append("dormancy is not modelled in the SAN")
    if virus.bluetooth_rate != 0.0:
        problems.append("the Bluetooth channel is not modelled in the SAN")
    if config.user.read_delay_mean != 0.0:
        problems.append("SAN reads are instantaneous (read_delay_mean must be 0)")
    if config.responses:
        problems.append("response mechanisms are not modelled in the SAN")
    return problems


def assert_san_compatible(config: ScenarioConfig) -> None:
    """Raise :class:`SANCompatibilityError` unless ``config`` is expressible."""
    problems = san_incompatibilities(config)
    if problems:
        raise SANCompatibilityError(
            f"scenario {config.name!r} is not SAN-expressible: "
            + "; ".join(problems)
        )


def build_phone_submodel(
    phone_id: int,
    contacts: Sequence[int],
    susceptible: bool,
    initially_infected: bool,
    virus: VirusParameters,
    user: UserParameters,
) -> SANModel:
    """Build the SAN submodel for one phone.

    Place names are globally unique (they carry the phone id) and the
    submodel also declares its neighbours' inbox places so that join() can
    fuse them.
    """
    model = SANModel(name=f"phone{phone_id}")
    susceptible_place = f"susceptible_{phone_id}"
    infected_place = f"infected_{phone_id}"
    inbox_place = f"inbox_{phone_id}"
    received_place = f"received_{phone_id}"

    model.place(susceptible_place, 1 if susceptible and not initially_infected else 0)
    model.place(infected_place, 1 if initially_infected else 0)
    model.place(inbox_place, 0)
    model.place(received_place, 0)
    for contact in contacts:
        model.place(f"inbox_{contact}", 0)

    if contacts:
        send_cases = tuple(
            Case(
                probability=1.0 / len(contacts),
                output_arcs=((f"inbox_{contact}", 1),),
            )
            for contact in contacts
        )
        model.add_activity(
            TimedActivity(
                name=f"send_{phone_id}",
                delay=virus.send_interval_distribution(),
                input_gates=(
                    InputGate(
                        name=f"is_infected_{phone_id}",
                        places=(infected_place,),
                        predicate=lambda m, p=infected_place: m[p] >= 1,
                    ),
                ),
                cases=send_cases,
            )
        )

    acceptance_factor = user.acceptance_factor

    def accept_probability(marking, rp=received_place, sp=susceptible_place) -> float:
        received = marking[rp]
        if marking[sp] < 1 or received >= ACCEPTANCE_NEGLIGIBLE_AFTER:
            return 0.0
        return acceptance_factor / (2.0 ** (received + 1))

    def reject_probability(marking) -> float:
        return 1.0 - accept_probability(marking)

    def install(marking, sp=susceptible_place, ip=infected_place) -> None:
        marking[sp] = 0
        marking.add(ip, 1)

    model.add_activity(
        InstantaneousActivity(
            name=f"read_{phone_id}",
            input_arcs=((inbox_place, 1),),
            cases=(
                Case(
                    probability=accept_probability,
                    output_arcs=((received_place, 1),),
                    output_gates=(
                        OutputGate(
                            name=f"install_{phone_id}",
                            places=(susceptible_place, infected_place),
                            function=install,
                        ),
                    ),
                ),
                Case(
                    probability=reject_probability,
                    output_arcs=((received_place, 1),),
                ),
            ),
        )
    )
    return model


def build_san_phone_network(
    graph: CSRAdjacency,
    susceptible_ids: Sequence[int],
    patient_zero: int,
    virus: VirusParameters,
    user: UserParameters,
) -> SANModel:
    """Compose the whole population into one SAN via join().

    This mirrors the paper's Möbius composition (1000 phone submodels with
    shared state); here every phone place is shared by name so senders
    reach their neighbours' fused inbox places.
    """
    susceptible_set = set(susceptible_ids)
    if patient_zero not in susceptible_set:
        raise ValueError(f"patient zero {patient_zero} must be susceptible")
    submodels: List[Tuple[str, SANModel]] = []
    shared: List[str] = []
    for phone_id, contacts in enumerate(graph.neighbor_lists()):
        submodel = build_phone_submodel(
            phone_id,
            contacts,
            susceptible=phone_id in susceptible_set,
            initially_infected=phone_id == patient_zero,
            virus=virus,
            user=user,
        )
        submodels.append((f"p{phone_id}", submodel))
        shared.extend(
            (
                f"susceptible_{phone_id}",
                f"infected_{phone_id}",
                f"inbox_{phone_id}",
                f"received_{phone_id}",
            )
        )
    return join(submodels, shared=shared, name="phone_network")


def infected_count_reward(num_phones: int) -> RateReward:
    """Rate reward: total infected phones."""
    places = tuple(f"infected_{i}" for i in range(num_phones))

    def total(marking) -> float:
        return float(sum(marking[p] for p in places))

    return RateReward(name="infected", function=total)


def run_san_phone_network(
    graph: CSRAdjacency,
    susceptible_ids: Sequence[int],
    patient_zero: int,
    virus: VirusParameters,
    user: UserParameters,
    until: float,
    rng: np.random.Generator,
    record_trajectories: bool = True,
) -> SANSimulationResult:
    """Build and simulate the SAN phone network to ``until`` hours."""
    model = build_san_phone_network(graph, susceptible_ids, patient_zero, virus, user)
    simulator = SANSimulator(
        model,
        rng,
        rate_rewards=[infected_count_reward(graph.num_nodes)],
        record_trajectories=record_trajectories,
    )
    return simulator.run(until)


def san_final_infected_samples(
    graph: CSRAdjacency,
    susceptible_ids: Sequence[int],
    patient_zero: int,
    virus: VirusParameters,
    user: UserParameters,
    until: float,
    replications: int,
    streams,
    stream_prefix: str = "san",
) -> List[float]:
    """Final infected counts from ``replications`` independent SAN runs.

    Each replication draws its own generator from the stream factory
    (``<prefix>-<index>``); trajectories are not recorded, so large
    differential campaigns only pay for the endpoint they compare.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    finals: List[float] = []
    for index in range(replications):
        result = run_san_phone_network(
            graph,
            susceptible_ids,
            patient_zero,
            virus,
            user,
            until=until,
            rng=streams.stream(f"{stream_prefix}-{index}"),
            record_trajectories=False,
        )
        finals.append(result.final_reward("infected"))
    return finals


__all__ = [
    "SANCompatibilityError",
    "assert_san_compatible",
    "build_phone_submodel",
    "build_san_phone_network",
    "infected_count_reward",
    "run_san_phone_network",
    "san_final_infected_samples",
    "san_incompatibilities",
]
