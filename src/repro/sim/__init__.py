"""Discrete-event simulation substrate.

A small, fast, generator-based discrete-event kernel in the style of
simpy, written from scratch for this reproduction.  The public surface:

- :class:`~repro.sim.engine.Simulator` — the event loop and clock.
- :class:`~repro.sim.events.Event` — one-shot completion events.
- :class:`~repro.sim.process.Process` — generator-based coroutines that
  ``yield`` events to wait on them, or a bare delay in ns to sleep,
  with support for interrupts (used to model preemption).
- :mod:`~repro.sim.primitives` — FIFO stores and broadcast signals.
- :mod:`~repro.sim.rng` — named, independently seeded random streams.
- :mod:`~repro.sim.trace` — structured execution traces.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout, EventState
from repro.sim.process import Process
from repro.sim.primitives import Store, Signal
from repro.sim.rng import RngRegistry
from repro.sim.tiebreak import FIFO, TieBreakPolicy, permutation_policy
from repro.sim.trace import Tracer, TraceRecord

__all__ = [
    "Simulator",
    "TieBreakPolicy",
    "FIFO",
    "permutation_policy",
    "Event",
    "Timeout",
    "EventState",
    "Process",
    "Store",
    "Signal",
    "RngRegistry",
    "Tracer",
    "TraceRecord",
]
