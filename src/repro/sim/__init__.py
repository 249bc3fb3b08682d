"""Discrete-event simulation substrate (S1).

A dependency-free SimPy-style kernel plus a FIFO store and reproducible
random streams.  See :mod:`repro.sim.kernel` for the core event loop.
"""

from .kernel import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    StopSimulation,
    Timeout,
)
from .queues import Store
from .rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
]
