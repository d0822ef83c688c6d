"""Discrete-event simulation kernel.

This subpackage is the executable substrate for the whole reproduction
(standing in for the Möbius tool's simulator):

* :class:`~repro.des.simulator.Simulator` — clock, event queue, run loop;
  the :class:`~repro.des.events.Event` it returns is the cancel handle;
* :mod:`~repro.des.random` — independent seeded RNG streams and named
  distribution objects.
"""

from .events import Event
from .queue import EventQueue
from .random import (
    Deterministic,
    Distribution,
    Exponential,
    ShiftedExponential,
    StreamFactory,
    as_distribution,
)
from .simulator import SimulationError, Simulator

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "EventQueue",
    "StreamFactory",
    "Distribution",
    "Deterministic",
    "Exponential",
    "ShiftedExponential",
    "as_distribution",
]
