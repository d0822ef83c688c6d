"""Next-event simulator for stochastic activity networks.

Executes a :class:`~repro.san.model.SANModel` on the kernel in
:mod:`repro.des`:

1. start from the initial marking; fire enabled instantaneous activities to
   stability; sample and schedule every enabled timed activity;
2. when a timed activity completes, apply its firing rules, then *locally*
   re-evaluate only the activities connected to changed places — newly
   disabled timed activities are aborted (their sampled times discarded),
   newly enabled ones are sampled and scheduled, and enabled instantaneous
   activities fire immediately;
3. rewards are updated after every state change.

This mirrors Möbius's simulator semantics (race policy with resampling on
re-enabling) and is validated against analytic results in the tests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..des.events import Event
from ..des.simulator import SimulationError, Simulator
from .activities import Activity, InstantaneousActivity, TimedActivity
from .marking import Marking
from .model import SANModel
from .rewards import ImpulseReward, RateReward, RewardAccumulator

#: Safety bound on consecutive instantaneous firings (zeno guard).
_MAX_INSTANTANEOUS_CHAIN = 100_000


class SANSimulationResult:
    """Outcome of one SAN run: final marking + reward accumulator."""

    def __init__(
        self,
        final_time: float,
        final_marking: Marking,
        rewards: RewardAccumulator,
        activity_counts: Dict[str, int],
    ) -> None:
        self.final_time = final_time
        self.final_marking = final_marking
        self.rewards = rewards
        self.activity_counts = activity_counts

    def firing_count(self, activity_name: str) -> int:
        """How many times the named activity completed."""
        return self.activity_counts.get(activity_name, 0)

    def final_reward(self, name: str) -> float:
        """Final value of a rate reward.

        Unlike :meth:`RewardAccumulator.trajectory`, this needs no recorded
        trajectory, so differential campaigns can run many replications
        with ``record_trajectories=False`` and still read the endpoint.
        """
        return self.rewards.instant_value(name)


class SANSimulator:
    """Runs a SAN model to an end time."""

    def __init__(
        self,
        model: SANModel,
        rng: np.random.Generator,
        rate_rewards: Sequence[RateReward] = (),
        impulse_rewards: Sequence[ImpulseReward] = (),
        record_trajectories: bool = True,
    ) -> None:
        self.model = model
        self.rng = rng
        self.sim = Simulator()
        self.marking = model.initial_marking()
        self.rewards = RewardAccumulator(
            rate_rewards, impulse_rewards, record_trajectories=record_trajectories
        )
        self._timed: List[TimedActivity] = []
        self._instantaneous: List[InstantaneousActivity] = []
        for activity in model.activities:
            if isinstance(activity, TimedActivity):
                self._timed.append(activity)
            elif isinstance(activity, InstantaneousActivity):
                self._instantaneous.append(activity)
            else:  # pragma: no cover - model.add_activity guards types
                raise SimulationError(f"unsupported activity type {type(activity)!r}")
        # Deterministic instantaneous firing order: priority desc, then name.
        self._instantaneous.sort(key=lambda a: (-a.priority, a.name))
        # place -> activities that read it (enabling may change when it does)
        self._readers: Dict[str, List[Activity]] = {}
        for activity in model.activities:
            for place in activity.read_places():
                self._readers.setdefault(place, []).append(activity)
        self._scheduled: Dict[str, Event] = {}  # activity name -> event
        self._counts: Dict[str, int] = {}

    # -- public API -------------------------------------------------------

    def run(self, until: float) -> SANSimulationResult:
        """Execute the model from time zero to ``until``."""
        if until < 0:
            raise SimulationError(f"until must be >= 0, got {until}")
        self.rewards.start(self.marking)
        self.marking.take_dirty()
        self._settle_instantaneous(initial=True)
        for activity in self._timed:
            self._consider_timed(activity)
        self.sim.run(until=until)
        self.rewards.finish(self.sim.now, self.marking)
        return SANSimulationResult(
            final_time=self.sim.now,
            final_marking=self.marking,
            rewards=self.rewards,
            activity_counts=dict(self._counts),
        )

    # -- internals ----------------------------------------------------------

    def _consider_timed(self, activity: TimedActivity) -> None:
        """(Re)schedule or abort one timed activity based on its enabling."""
        scheduled = activity.name in self._scheduled
        enabled = activity.enabled(self.marking)
        if enabled and not scheduled:
            delay = activity.sample_delay(self.marking, self.rng)
            event = self.sim.schedule(
                delay,
                lambda a=activity: self._complete_timed(a),
                label=f"san:{activity.name}",
            )
            self._scheduled[activity.name] = event
        elif not enabled and scheduled:
            self._scheduled.pop(activity.name).cancel()

    def _complete_timed(self, activity: TimedActivity) -> None:
        self._scheduled.pop(activity.name, None)
        if not activity.enabled(self.marking):  # pragma: no cover - defensive
            raise SimulationError(
                f"timed activity {activity.name!r} completed while disabled; "
                "enabling bookkeeping is inconsistent"
            )
        self._fire(activity)
        self._propagate()
        # The activity may re-enable itself (e.g. a cyclic send loop).
        if activity.name not in self._scheduled:
            self._consider_timed(activity)

    def _fire(self, activity: Activity) -> None:
        activity.fire(self.marking, self.rng)
        self._counts[activity.name] = self._counts.get(activity.name, 0) + 1
        self.rewards.impulse(activity.name)
        self.rewards.observe(self.sim.now, self.marking)

    def _propagate(self) -> None:
        """Re-evaluate activities connected to places changed by a firing."""
        chain = 0
        while True:
            dirty = self.marking.take_dirty()
            if not dirty:
                return
            affected: Set[str] = set()
            for place in dirty:
                for activity in self._readers.get(place, ()):
                    affected.add(activity.name)
            # Instantaneous first (they pre-empt time), in global order.
            fired_instantaneous = False
            for activity in self._instantaneous:
                if activity.name in affected and activity.enabled(self.marking):
                    self._fire(activity)
                    fired_instantaneous = True
                    chain += 1
                    if chain > _MAX_INSTANTANEOUS_CHAIN:
                        raise SimulationError(
                            "instantaneous activity chain exceeded "
                            f"{_MAX_INSTANTANEOUS_CHAIN} firings (zeno loop?)"
                        )
                    break  # marking changed; recompute affected set
            if fired_instantaneous:
                continue
            for activity in self._timed:
                if activity.name in affected:
                    self._consider_timed(activity)
            # _consider_timed never mutates the marking, so we are stable.
            if not self.marking.take_dirty():
                return

    def _settle_instantaneous(self, initial: bool = False) -> None:
        """Fire instantaneous activities until none is enabled (startup)."""
        chain = 0
        progress = True
        while progress:
            progress = False
            for activity in self._instantaneous:
                if activity.enabled(self.marking):
                    self._fire(activity)
                    progress = True
                    chain += 1
                    if chain > _MAX_INSTANTANEOUS_CHAIN:
                        raise SimulationError(
                            "instantaneous activity chain exceeded "
                            f"{_MAX_INSTANTANEOUS_CHAIN} firings at startup"
                        )
                    break
        self.marking.take_dirty()


def simulate(
    model: SANModel,
    until: float,
    rng: np.random.Generator,
    rate_rewards: Sequence[RateReward] = (),
    impulse_rewards: Sequence[ImpulseReward] = (),
    record_trajectories: bool = True,
) -> SANSimulationResult:
    """One-shot convenience wrapper around :class:`SANSimulator`."""
    simulator = SANSimulator(
        model,
        rng,
        rate_rewards=rate_rewards,
        impulse_rewards=impulse_rewards,
        record_trajectories=record_trajectories,
    )
    return simulator.run(until)


__all__ = ["SANSimulator", "SANSimulationResult", "simulate"]
