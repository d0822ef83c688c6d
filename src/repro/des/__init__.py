"""Discrete-event simulation kernel.

This subpackage is the executable substrate for the whole reproduction
(standing in for the Möbius tool's simulator):

* :class:`~repro.des.simulator.Simulator` — clock, event queue, run loop;
* :mod:`~repro.des.random` — independent seeded RNG streams and named
  distribution objects;
* :mod:`~repro.des.trace` — structured run tracing.
"""

from .events import PRIORITY_EARLY, PRIORITY_LATE, PRIORITY_NORMAL, EventHandle
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
from .trace import NULL_TRACER, Tracer, TraceRecord

__all__ = [
    "Simulator",
    "SimulationError",
    "EventQueue",
    "EventHandle",
    "PRIORITY_EARLY",
    "PRIORITY_NORMAL",
    "PRIORITY_LATE",
    "StreamFactory",
    "Distribution",
    "Deterministic",
    "Exponential",
    "ShiftedExponential",
    "as_distribution",
    "Tracer",
    "TraceRecord",
    "NULL_TRACER",
]
