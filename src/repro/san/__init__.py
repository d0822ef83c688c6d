"""Stochastic Activity Networks (Möbius-style modeling layer).

The paper built its phone-virus model in the Möbius tool, whose modeling
formalism is stochastic activity networks (SANs).  This subpackage
reproduces that formalism — places, timed/instantaneous activities with
cases, input/output gates, Rep/Join composition, and reward variables — on
top of the :mod:`repro.des` kernel.

The production phone model (:mod:`repro.core`) runs on the kernel directly
for speed; :mod:`repro.core.san_model` builds the same system as a composed
SAN and is used to cross-validate the two implementations.
"""

from .activities import Arc, Case, InstantaneousActivity, TimedActivity
from .compose import join, replicate
from .gates import InputGate, OutputGate
from .marking import Marking
from .model import SANModel, SANStructureError
from .places import Place
from .rewards import (
    ImpulseReward,
    RateReward,
    RewardAccumulator,
    place_count,
    place_sum,
)
from .simulator import SANSimulationResult, SANSimulator, simulate

__all__ = [
    "Place",
    "Marking",
    "Arc",
    "Case",
    "TimedActivity",
    "InstantaneousActivity",
    "InputGate",
    "OutputGate",
    "SANModel",
    "SANStructureError",
    "join",
    "replicate",
    "RateReward",
    "ImpulseReward",
    "RewardAccumulator",
    "place_count",
    "place_sum",
    "SANSimulator",
    "SANSimulationResult",
    "simulate",
]
