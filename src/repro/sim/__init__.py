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
"""
