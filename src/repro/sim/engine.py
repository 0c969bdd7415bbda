"""The discrete-event simulation loop.

:class:`Simulator` owns the clock and the schedule, one binary heap.
Time is in nanoseconds (see :mod:`repro.units`).  Events scheduled
for the same instant and tie rank are processed in FIFO order of
scheduling (a strictly increasing tie key breaks ties), which makes
runs fully deterministic for a fixed seed.  Every push draws its key
from one source, :attr:`Simulator._next_key`:
``itertools.count(1).__next__`` for FIFO, or
``map(policy.key, count(1)).__next__`` once
:meth:`Simulator.set_tiebreak` installs a permutation policy.

This module is the only one that knows how an entry is scheduled and
dispatched: every push in the kernel goes through
:meth:`Simulator._push` (or, for a ranked entry,
:meth:`Simulator._push_ranked`), and :meth:`Simulator.run`,
:meth:`Simulator.step` and :meth:`Simulator.run_until_event` all
dispatch through one loop.

Hot-path design
---------------
A fig2-scale sweep dispatches millions of events, so the kernel keeps
its constant factors small without ever changing *what* is scheduled:

- A schedule entry is the 3-tuple ``(when, key, item)``: tuple
  comparison orders by time, then by tie key, and never reaches the
  item because keys are unique.  A *ranked* entry
  (:meth:`Simulator.defer_ranked`, :meth:`Simulator.timeout_ranked`) adds
  ``rank * 2**64`` to its key.  Policy keys are below ``2**64``
  and ordinary entries are rank 0, so at one instant every entry of a
  lower rank dispatches first, and the tie-break policy orders only
  entries of one rank: a rank is the model's own statement of which
  same-instant step goes first.
- The schedule is one ``heapq`` list.  Pending entries scale with
  processes and armed timers, not with the horizon: the heap never
  held more than 32 entries on full-scale fig2, 54 on full-scale fig6
  and 45 on fig3, so every sift touches a handful of tuples.
- One loop dispatches every event.  Instrumentation such as the
  sanitizer observes through :attr:`Simulator.observer`, a hook the
  loop calls after each counted event, instead of a second loop.
- The schedule holds two kinds of entry, and the loop has one branch
  for each: a :class:`~repro.sim.events._Deferred` callback cell, which
  it runs as ``func(*args)``, and an :class:`~repro.sim.events.Event`
  (a :class:`~repro.sim.process.Process` is one), whose callbacks it
  runs unless the event was cancelled.
- :meth:`defer` / :meth:`defer_at` schedule a bare callback in a fresh
  cell instead of an event-plus-lambda pair; they consume exactly one
  tie key and one schedule push, just like :meth:`timeout`, so swapping
  a timeout callback for a deferred one cannot reorder a run.
- A process that yields a bare delay (``yield d``) sleeps on its own
  cell, which points at the process's resume trampoline: the same
  ``now + d`` push with one tie key that ``yield sim.timeout(d)``
  makes, but no event or callbacks list per wait.
- Nothing is recycled: with processes sleeping on their own cells,
  timeouts are rare (about 35,000 against 1.5 million events on
  full-scale fig2), and freelists bought no measurable time
  (EXPERIMENTS.md, "Perf methodology").
- Cancelled events (:meth:`Event.cancel`) stay in the heap and are
  skipped at dispatch — without advancing the event count — and
  compacted away once they dominate, so cancel-heavy workloads
  (timeout/retry fault plans, preemption slices) cannot grow the
  queue.
- Cyclic GC never walks the live graph mid-run.  The experiment
  harness pauses it for a whole point, from building the simulator to
  the summary, and frees the finished point with one young-generation
  pass; the loop's own pause, which nests inside the harness's, serves
  callers that use :meth:`run` directly.

None of this changes the number or order of schedule pushes — the
determinism contract is pinned by the golden differential tests.
"""

from __future__ import annotations

import gc

from heapq import heapify, heappop, heappush
from itertools import count as _count
from typing import Any, Callable, Generator, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import Event, _Deferred
from repro.sim.process import Process
from repro.sim.tiebreak import FIFO, TB_MASK, TieBreakPolicy

#: Compaction threshold: the heap is rebuilt without its cancelled
#: entries once more than this many are queued and they are the
#: majority.
_COMPACT_MIN = 64

#: Key distance between two tie ranks: one more than the largest key a
#: tie-break policy can draw.
_RANK_SPAN = TB_MASK + 1


class Simulator:
    """Event loop, clock, and factory for events and processes.

    Parameters
    ----------
    start_time:
        Initial clock value in nanoseconds (default 0).

    Attributes
    ----------
    now:
        Current simulated time in nanoseconds.  Only the loop writes it.
    event_count:
        Events processed so far (cancelled entries skipped at dispatch
        do not count).  Written back when the loop returns.
    observer:
        ``None`` or a no-argument callable the loop calls after every
        counted event — never for a skipped cancelled entry.  It must
        only observe: scheduling from it, or raising anything but a
        diagnostic, breaks the run it watches.

    Examples
    --------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield 5.0  # sleep 5 ns
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    >>> proc.value
    5.0
    """

    __slots__ = ("now", "_heap", "_next_key",
                 "event_count", "_running", "observer", "fault_injector",
                 "_cancelled", "_tiebreak")

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: list = []
        self.event_count = 0
        self._running = False
        self.observer: Optional[Callable[[], None]] = None
        #: The run's :class:`~repro.faults.injector.FaultInjector`, set
        #: by its ``attach()``; None in a fault-free run.  Lives on the
        #: simulator so dataplane hooks (links, workers, feedback
        #: channels) can consult it without threading a new parameter
        #: through every constructor.
        self.fault_injector = None
        #: Cancelled entries still queued in the heap.
        self._cancelled = 0
        #: Tie-break policy: equal-``when`` events dispatch in tie-key
        #: order.  :meth:`_push` takes every key from ``_next_key``, the
        #: one place that owns the mix.  FIFO keys are the sequence
        #: numbers 1, 2, 3, ... themselves.
        self._tiebreak = FIFO
        self._next_key = _count(1).__next__

    # -- tie-break policy ----------------------------------------------------

    @property
    def tiebreak(self) -> TieBreakPolicy:
        """The active equal-timestamp ordering policy."""
        return self._tiebreak

    def set_tiebreak(self, policy: TieBreakPolicy) -> None:
        """Install *policy* as the equal-timestamp ordering.

        Must be called before anything is scheduled: mixing keys from
        two policies in one schedule would break the total order.
        """
        if self.event_count or self._heap:
            raise SimulationError(
                "set_tiebreak() after scheduling began; install the "
                "policy on a fresh simulator")
        self._tiebreak = policy
        # The identity policy keeps the plain counter: same keys, no
        # per-key method call.
        self._next_key = (_count(1).__next__ if policy.is_identity
                          else map(policy.key, _count(1)).__next__)

    # -- factories -----------------------------------------------------------

    def event(self, label: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, label=label)

    def timeout(self, delay: float, value: Any = None, label: str = "") -> Event:
        """Create an event that fires *delay* ns from now.

        A process that only needs to wait should ``yield delay``
        instead: the same schedule push, without the event.  Create a
        timeout only when its handle is needed: for
        :meth:`Event.cancel` or callbacks.
        """
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"negative or NaN timeout delay: {delay}")
        return self._start_timeout(self.now + delay, value, label)

    def timeout_ranked(self, delay: float, rank: int) -> Event:
        """:meth:`timeout` at tie rank *rank* (see :meth:`_push_ranked`).

        For a process whose wake-up must come before or after the other
        steps of its instant, whatever the tie-break order.
        """
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"negative or NaN timeout delay: {delay}")
        ev = self._triggered(None, "")
        self._push_ranked(self.now + delay, rank, ev)
        return ev

    def timeout_at(self, when: float, value: Any = None,
                   label: str = "") -> Event:
        """Create an event that fires at exactly absolute time *when*.

        Unlike :meth:`defer_at` (which pushes at
        ``now + (when - now)``), the push lands on *when* itself, so a
        wait computed as ``t + cost`` ends bit-exactly there.
        """
        if not when >= self.now:  # also rejects NaN
            raise SchedulingError(
                f"timeout_at({when}) is in the past (now={self.now})")
        return self._start_timeout(when, value, label)

    def _start_timeout(self, when: float, value: Any, label: str) -> Event:
        """Schedule a timeout event at absolute time *when*."""
        ev = self._triggered(value, label)
        self._push(when, ev)
        return ev

    def _triggered(self, value: Any, label: str) -> Event:
        """A succeeded, not yet scheduled :class:`Event` of *value*.

        Timeouts are the most allocated event, so this sets the slots
        directly instead of running the ``__init__`` chain.
        """
        ev = Event.__new__(Event)
        ev.sim = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._state = 1
        ev.label = label
        return ev

    def process(self, generator: Generator, label: str = "") -> Process:
        """Start a new :class:`Process` driving *generator*."""
        return Process(self, generator, label=label)

    def defer(self, delay: float, func: Callable[..., None], *args) -> None:
        """Run ``func(*args)`` after *delay* ns; fire-and-forget.

        The scheduling arithmetic and tie-key consumption are identical
        to :meth:`timeout`'s; ``defer`` simply returns no handle.
        """
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"negative or NaN delay: {delay}")
        self._push(self.now + delay, _Deferred(func, args))

    def defer_ranked(self, delay: float, rank: int,
                     func: Callable[..., None], *args) -> None:
        """:meth:`defer` at tie rank *rank* (see :meth:`_push_ranked`)."""
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"negative or NaN delay: {delay}")
        self._push_ranked(self.now + delay, rank, _Deferred(func, args))

    def defer_at(self, when: float, func: Callable[..., None], *args) -> None:
        """Run ``func(*args)`` at absolute time *when*; fire-and-forget.

        The push lands at ``now + (when - now)``, the same float
        arithmetic as ``timeout(when - now)``, so swapping one for the
        other cannot perturb event timestamps.
        """
        if not when >= self.now:
            raise SchedulingError(
                f"defer_at({when}) is in the past (now={self.now})")
        self.defer(when - self.now, func, *args)

    # -- scheduling core -------------------------------------------------------

    def _push(self, when: float, item: Any) -> None:
        """Schedule *item* at absolute time *when* (kernel use).

        With :meth:`_push_ranked`, the only code that builds a schedule
        entry.  Callers validate *when* (never in the past, never NaN).
        """
        heappush(self._heap, (when, self._next_key(), item))

    def _push_ranked(self, when: float, rank: int, item: Any) -> None:
        """:meth:`_push` at tie rank *rank* (rank 0 is :meth:`_push`).

        At one instant every entry of a lower rank dispatches before any
        entry of a higher one; the tie-break policy orders entries of
        one rank only.  A rank states which same-instant step a model
        needs to go first; it moves no timestamp.
        """
        heappush(self._heap,
                 (when, rank * _RANK_SPAN + self._next_key(), item))

    def _cancel(self, event: Event) -> None:
        """Count *event*'s withdrawn entry (hook for Event.cancel).

        The entry stays in the heap and is skipped at dispatch; once
        cancelled entries dominate the heap, one pass compacts them
        away.
        """
        self._cancelled = dead = self._cancelled + 1
        if dead > _COMPACT_MIN and dead * 2 > len(self._heap):
            self._compact_near()

    def _compact_near(self) -> None:
        """Drop cancelled entries from the heap in one pass."""
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if getattr(entry[2], "_state", 0) != 3]
        heapify(heap)
        self._cancelled = 0

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle.

        A lazily-cancelled entry still waiting to be skipped may be
        reported; nothing will actually happen at that instant.
        """
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def pending_count(self) -> int:
        """Entries still in the schedule.

        Includes lazily-cancelled stragglers not yet compacted away.
        """
        return len(self._heap)

    # -- the loop --------------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        Cancelled entries encountered on the way vanish silently — they
        do not advance the clock, count as events, or satisfy the step.
        """
        if not self._loop(None, self.event_count + 1):
            raise SimulationError("step() on an empty schedule")

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the schedule drains, *until* (absolute ns), or a budget.

        Parameters
        ----------
        until:
            Stop once the clock would pass this absolute time.  The clock
            is left exactly at *until* when the horizon is hit.
        max_events:
            Safety valve: raise :class:`SimulationError` if more than
            this many events are processed in this call (guards against
            accidental infinite simulations in tests).
        """
        if until is not None and until < self.now:
            raise SchedulingError(f"until={until} is in the past (now={self.now})")
        stop = (float("inf") if max_events is None
                else self.event_count + max_events + 1)
        if self._loop(until, stop):
            raise SimulationError(f"run() exceeded max_events={max_events}")

    def run_until_event(self, event: Event,
                        max_events: Optional[int] = None) -> Any:
        """Run until *event* is processed; return its value.

        Raises the event's exception if it failed, and
        :class:`SimulationError` if the schedule drains first.
        """
        processed = 0
        while not event.processed:
            if not self._loop(None, self.event_count + 1):
                raise SimulationError(
                    f"schedule drained before {event!r} was processed")
            processed += 1
            if max_events is not None and processed > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if not event.ok:
            raise event.value
        return event.value

    def _loop(self, until: Optional[float], stop: float) -> bool:
        """Dispatch events until the schedule drains, the clock would
        pass *until*, or ``event_count`` reaches *stop*.

        Returns True only in the last case.  Raises
        :class:`SimulationError` when called from inside a callback of
        a loop already running: the simulator is not reentrant.
        """
        if self._running:
            raise SimulationError(
                "run()/step() re-entered from a callback; the simulator "
                "is not reentrant")
        self._running = True
        # Pause cyclic GC for the duration of the loop: the hot path
        # allocates heap tuples, packets, and requests at event rate,
        # and each collection pass walks the whole live graph.  Nothing
        # about collection timing is observable to the simulation, so
        # this cannot perturb results.  This pause serves direct run()
        # callers; under the experiment harness GC is already paused
        # for the whole point (which one young-generation pass frees
        # when it returns), so the pause nests and changes nothing.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        heap = self._heap
        pop = heappop
        observe = self.observer
        # Hoist the per-iteration None check: an unbounded run compares
        # against +inf, which no event time ever exceeds.
        horizon = float("inf") if until is None else until
        count = self.event_count
        try:
            while heap:
                if heap[0][0] > horizon:
                    self.now = until
                    return False
                when, _key, event = pop(heap)
                if event.__class__ is _Deferred:
                    # A defer() callback, a process's sleep, or the
                    # no-op an interrupt left in an orphaned sleep.
                    self.now = when
                    count += 1
                    event.func(*event.args)
                else:
                    if event._state == 3:  # cancelled: vanish
                        self._cancelled -= 1
                        continue
                    self.now = when
                    count += 1
                    callbacks, event.callbacks = event.callbacks, None
                    event._state = 2
                    for callback in callbacks:
                        callback(event)
                if observe is not None:
                    observe()
                if count >= stop:
                    return True
            if until is not None:
                self.now = until
            return False
        finally:
            self.event_count = count
            self._running = False
            if gc_was_enabled:
                gc.enable()

    def __repr__(self) -> str:
        return (f"<Simulator t={self.now:.1f}ns "
                f"pending={self.pending_count()} "
                f"processed={self.event_count}>")
