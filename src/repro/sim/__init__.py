"""Deterministic discrete-event simulation kernel (SimPy-style).

Public surface:

* :class:`~repro.sim.core.Environment` — clock + pending-event scheduler.
* :class:`~repro.sim.core.Event`, :class:`~repro.sim.core.Timeout`,
  :class:`~repro.sim.core.InFlight`, :class:`~repro.sim.core.Deferred`,
  :class:`~repro.sim.core.Process`, :class:`~repro.sim.core.AllOf`,
  :class:`~repro.sim.core.Interrupt`.
* :class:`~repro.sim.scheduler.Scheduler` — pluggable event queue:
  :class:`~repro.sim.scheduler.CalendarScheduler` (default) and the
  reference :class:`~repro.sim.scheduler.HeapScheduler`.
* :class:`~repro.sim.resources.Store`, :class:`~repro.sim.resources.FilterStore`.
"""

from .core import (
    AllOf,
    Condition,
    Deferred,
    Environment,
    Event,
    InFlight,
    Interrupt,
    Process,
    SimulationError,
    StopProcess,
    Timeout,
)
from .resources import FilterStore, Store
from .scheduler import CalendarScheduler, HeapScheduler, Scheduler

__all__ = [
    "AllOf",
    "CalendarScheduler",
    "Condition",
    "Deferred",
    "Environment",
    "Event",
    "FilterStore",
    "HeapScheduler",
    "InFlight",
    "Interrupt",
    "Process",
    "Scheduler",
    "SimulationError",
    "StopProcess",
    "Store",
    "Timeout",
]
