"""The discrete-event simulation loop.

:class:`Simulator` owns the clock and a two-tier schedule: a small
*near* binary heap for the currently-draining time window plus a
hierarchical :class:`~repro.sim.wheel.TimerWheel` for everything beyond
it.  Time is in nanoseconds (see :mod:`repro.units`).  Events scheduled
for the same instant are processed in FIFO order of scheduling (a
strictly increasing tie key breaks ties), which makes runs fully
deterministic for a fixed seed.  Every push draws its key from one
source, :attr:`Simulator._next_key`: ``itertools.count(1).__next__``
for FIFO, or ``map(policy.key, count(1)).__next__`` once
:meth:`Simulator.set_tiebreak` installs a permutation policy.

Hot-path design
---------------
A fig2-scale sweep dispatches millions of events, so the kernel keeps
its constant factors small without ever changing *what* is scheduled:

- The schedule is split at ``_near_end``: entries below the boundary
  ride the near heap (identical semantics to the old single-heap
  kernel), entries at/after it are O(1) bucket appends on the wheel.
  Batches drain whole slot windows at a time, so heap sifts act on
  tens of entries instead of the full pending set.  The boundary split
  cannot reorder anything: equal timestamps never straddle it, so the
  merged pop order is exactly the single-heap (time, priority, seq)
  total order — pinned by the golden differential tests and the
  wheel-vs-heap property suite.
- :meth:`Simulator.run` inlines the dispatch loop (no per-event
  :meth:`step` call) whenever ``step`` has not been overridden;
  instrumented subclasses such as the sanitizer's automatically get the
  legacy step-by-step loop instead, with identical semantics.
- Processed :class:`~repro.sim.events.Timeout` and
  :class:`~repro.sim.events.Event` objects are recycled through small
  per-simulator freelists — but only when the kernel holds the *last*
  reference (checked via ``sys.getrefcount``), so an event is never
  reused while user code can still see it.  Subclasses such as
  processes are never pooled.
- :meth:`defer` / :meth:`defer_at` schedule a bare callback through a
  pooled :class:`_Deferred` cell instead of a Timeout-plus-lambda pair;
  they consume exactly one tie key and one schedule push, just like
  :meth:`call_in` / :meth:`call_at`, so swapping one for the other
  cannot reorder a run.  The run loop dispatches these cells first.
- A process that yields a bare delay (``yield d``) sleeps on its own
  :class:`~repro.sim.process._Sleep` cell: the same ``now + d`` push at
  NORMAL priority with one tie key that ``yield sim.timeout(d)`` makes,
  but no Timeout, callbacks list or bound method per wait.  Sleep cells
  are never pooled.
- Cancelled events (:meth:`Event.cancel`) are eagerly removed from
  wheel buckets; entries already in the near heap or the far-future
  overflow heap are skipped at dispatch — without advancing the event
  count — and compacted away once they dominate, so cancel-heavy
  workloads (timeout/retry fault plans, preemption slices) cannot grow
  the queue.

None of this changes the number or order of schedule pushes — the
determinism contract is pinned by the golden differential tests.
"""

from __future__ import annotations

import gc

from heapq import heapify, heappop, heappush
from itertools import count as _count
from sys import getrefcount
from typing import Any, Callable, Generator, Iterator, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process, _Sleep
from repro.sim.tiebreak import FIFO, TieBreakPolicy
from repro.sim.wheel import GRANULARITY, TimerWheel

#: Priority levels: lower runs first among simultaneous events.
URGENT = 0
NORMAL = 1

#: Freelist bound per pool: big enough to absorb steady-state churn,
#: small enough that an idle simulator holds no meaningful memory.
_POOL_CAP = 4096

#: Near-heap compaction threshold for lazily-cancelled entries (same
#: heuristic as the wheel's overflow compaction).
_COMPACT_MIN = 64


class _Deferred:
    """A pooled schedule entry carrying a bare callback.

    Not an :class:`Event`: it has no value, no callbacks list, and no
    observable lifecycle, which is exactly what lets the kernel recycle
    it unconditionally after firing.  Never escapes the kernel.
    """

    __slots__ = ("func", "args")

    def __init__(self, func: Callable[..., None], args: tuple):
        self.func = func
        self.args = args


class Simulator:
    """Event loop, clock, and factory for events and processes.

    Parameters
    ----------
    start_time:
        Initial clock value in nanoseconds (default 0).

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

    __slots__ = ("_now", "_heap", "_near_end", "_wheel", "_next_key",
                 "_event_count", "_running", "fault_injector",
                 "_timeout_pool", "_event_pool", "_deferred_pool",
                 "_near_cancelled", "_tiebreak")

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list = []
        self._wheel = TimerWheel(self._now)
        #: Entries with ``when < _near_end`` go to the near heap; the
        #: rest to the wheel.  Always equals ``wheel.cur0 *
        #: GRANULARITY`` between batch refills.
        self._near_end = self._wheel.near_end
        self._event_count = 0
        self._running = False
        #: The run's :class:`~repro.faults.injector.FaultInjector`, set
        #: by its ``attach()``; None in a fault-free run.  Lives on the
        #: simulator so dataplane hooks (links, workers, feedback
        #: channels) can consult it without threading a new parameter
        #: through every constructor.
        self.fault_injector = None
        self._timeout_pool: list = []
        self._event_pool: list = []
        self._deferred_pool: list = []
        #: Lazily-cancelled entries believed to ride the near heap.
        self._near_cancelled = 0
        #: Tie-break policy: equal-(when, priority) events dispatch in
        #: tie-key order.  Every push site — heap, wheel, and the inlined
        #: fast paths in events.py, primitives.py and process.py — takes
        #: its key from ``_next_key``, the one place that owns the mix.
        #: FIFO keys are the sequence numbers 1, 2, 3, ... themselves.
        self._tiebreak = FIFO
        self._next_key = _count(1).__next__

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Total number of events processed so far (diagnostics)."""
        return self._event_count

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
        if self._event_count or self._heap or self._wheel.count:
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
        """Create a fresh pending :class:`Event` (possibly recycled)."""
        pool = self._event_pool
        if pool:
            # Pooled events arrive with an empty, reusable callbacks list.
            ev = pool.pop()
            ev._value = None
            ev._ok = None
            ev._state = 0
            ev.label = label
            return ev
        return Event(self, label=label)

    def timeout(self, delay: float, value: Any = None, label: str = "") -> Timeout:
        """Create an event that fires *delay* ns from now.

        A process that only needs to wait should ``yield delay``
        instead: the same schedule push, without the event.  Create a
        Timeout only when its handle is needed: for
        :meth:`Event.cancel` or callbacks.
        """
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"negative or NaN timeout delay: {delay}")
        pool = self._timeout_pool
        if pool:
            return self._start_timeout(pool.pop(), self._now + delay, delay,
                                       value, label)
        return Timeout(self, delay, value=value, label=label)

    def timeout_at(self, when: float, value: Any = None,
                   label: str = "") -> Timeout:
        """Create an event that fires at exactly absolute time *when*.

        Unlike :meth:`defer_at` (which keeps :meth:`call_at`'s
        ``now + (when - now)`` arithmetic), the push lands on *when*
        itself, so a wait computed as ``t + cost`` ends bit-exactly
        there.
        """
        now = self._now
        if not when >= now:  # also rejects NaN
            raise SchedulingError(
                f"timeout_at({when}) is in the past (now={now})")
        pool = self._timeout_pool
        if pool:
            ev = pool.pop()
        else:
            ev = Timeout.__new__(Timeout)
            ev.sim = self
            ev.callbacks = []
        return self._start_timeout(ev, when, when - now, value, label)

    def _start_timeout(self, ev: Timeout, when: float, delay: float,
                       value: Any, label: str) -> Timeout:
        """(Re)initialise a pooled or bare Timeout and schedule it."""
        ev._value = value
        ev._ok = True
        ev._state = 1
        ev.label = label
        ev.delay = delay
        ev.when = when
        if when < self._near_end:
            heappush(self._heap, (when, NORMAL, self._next_key(), ev))
        else:
            self._wheel.push((when, NORMAL, self._next_key(), ev))
        return ev

    def process(self, generator: Generator, label: str = "") -> Process:
        """Start a new :class:`Process` driving *generator*."""
        return Process(self, generator, label=label)

    def call_at(self, when: float, func: Callable[[], None]) -> Event:
        """Run *func* (no args) at absolute time *when*.

        Returns the underlying event, so the caller can wait on it or
        observe it; when the handle is not needed, :meth:`defer_at` is
        the cheaper equivalent.
        """
        if not when >= self._now:
            raise SchedulingError(
                f"call_at({when}) is in the past (now={self._now})")
        ev = self.timeout(when - self._now)
        ev.callbacks.append(lambda _ev: func())
        return ev

    def call_in(self, delay: float, func: Callable[[], None]) -> Event:
        """Run *func* (no args) after *delay* ns.

        Returns the underlying event; when the handle is not needed,
        :meth:`defer` is the cheaper equivalent.
        """
        ev = self.timeout(delay)
        ev.callbacks.append(lambda _ev: func())
        return ev

    def defer(self, delay: float, func: Callable[..., None], *args) -> None:
        """Run ``func(*args)`` after *delay* ns; fire-and-forget.

        The scheduling arithmetic, priority, and sequence-number
        consumption are identical to :meth:`call_in`, so the two are
        interchangeable without reordering a run — ``defer`` simply
        returns no handle and recycles its schedule cell.
        """
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"negative or NaN delay: {delay}")
        pool = self._deferred_pool
        if pool:
            cell = pool.pop()
            cell.func = func
            cell.args = args
        else:
            cell = _Deferred(func, args)
        when = self._now + delay
        if when < self._near_end:
            heappush(self._heap, (when, NORMAL, self._next_key(), cell))
        else:
            self._wheel.push((when, NORMAL, self._next_key(), cell))

    def defer_at(self, when: float, func: Callable[..., None], *args) -> None:
        """Run ``func(*args)`` at absolute time *when*; fire-and-forget.

        Mirrors :meth:`call_at` exactly, including its float arithmetic
        (``now + (when - now)``), so swapping one for the other cannot
        perturb event timestamps.
        """
        if not when >= self._now:
            raise SchedulingError(
                f"defer_at({when}) is in the past (now={self._now})")
        self.defer(when - self._now, func, *args)

    # -- scheduling core -------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        """Insert a triggered *event* into the schedule (kernel use)."""
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"negative or NaN delay: {delay}")
        when = self._now + delay
        if when < self._near_end:
            heappush(self._heap, (when, priority, self._next_key(), event))
        else:
            self._wheel.push((when, priority, self._next_key(), event))

    def _refill(self) -> bool:
        """Move the next wheel batch into the (empty) near heap.

        Returns False when the wheel is drained too.  Mutates the heap
        list in place so aliases held by hot loops stay valid.
        """
        batch = self._wheel.next_batch()
        if batch is None:
            return False
        entries, end = batch
        self._near_end = end
        heap = self._heap
        heap[:] = entries
        if len(entries) > 1:
            heapify(heap)
        return True

    def _cancel(self, event: Event) -> None:
        """Withdraw *event*'s schedule entry (hook for Event.cancel).

        Timeouts record their absolute deadline, so wheel residents are
        removed eagerly in O(bucket).  Entries already in the near heap
        (or events without a recorded deadline) are skipped at dispatch
        and compacted away once they dominate the heap.
        """
        when = getattr(event, "when", None)
        if when is not None and self._wheel.discard(event, when):
            return
        self._near_cancelled = dead = self._near_cancelled + 1
        if dead > _COMPACT_MIN and dead * 2 > len(self._heap):
            self._compact_near()

    def _compact_near(self) -> None:
        """Drop cancelled entries from the near heap in one pass."""
        heap = self._heap
        live = [entry for entry in heap
                if getattr(entry[3], "_state", 0) != 3]
        if len(live) != len(heap):
            heap[:] = live
            heapify(heap)
        self._near_cancelled = 0

    def _forget_cancelled(self) -> None:
        """Uncount one cancelled entry popped off the near heap.

        Every loop that skips a cancelled entry calls this, so the count
        that triggers :meth:`_compact_near` tracks the dead entries still
        queued.  It may already be 0 when the entry was counted before a
        compaction reset it (an entry cancelled while in the wheel).
        """
        dead = self._near_cancelled
        if dead > 0:
            self._near_cancelled = dead - 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle.

        A lazily-cancelled entry still waiting to be skipped may be
        reported; nothing will actually happen at that instant.
        """
        heap = self._heap
        if heap:
            return heap[0][0]
        return self._wheel.peek_when()

    def pending_count(self) -> int:
        """Entries still in the schedule (near heap + wheel).

        Includes lazily-cancelled stragglers not yet compacted away.
        """
        return len(self._heap) + self._wheel.count

    def pending_entries(self) -> Iterator[tuple]:
        """All pending schedule tuples, in no particular order
        (diagnostics and tests)."""
        yield from self._heap
        yield from self._wheel.entries()

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        Cancelled entries encountered on the way vanish silently — they
        do not advance the clock, count as events, or satisfy the step.
        """
        heap = self._heap
        while True:
            if not heap and not self._refill():
                raise SimulationError("step() on an empty schedule")
            when, _prio, _key, event = heappop(heap)
            cls = type(event)
            if cls is _Deferred:
                self._now = when
                self._event_count += 1
                func, args = event.func, event.args
                event.func = event.args = None
                pool = self._deferred_pool
                if len(pool) < _POOL_CAP:
                    pool.append(event)
                func(*args)
                return
            if cls is _Sleep:
                self._now = when
                self._event_count += 1
                event.wake()
                return
            if event._state == 3:  # cancelled: drop and keep looking
                self._forget_cancelled()
                continue
            self._now = when
            self._event_count += 1
            callbacks, event.callbacks = event.callbacks, None
            event._mark_processed()
            for callback in callbacks:
                callback(event)
            return

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
        if self._running:
            raise SimulationError("run() re-entered; the simulator is not reentrant")
        if until is not None and until < self._now:
            raise SchedulingError(f"until={until} is in the past (now={self._now})")
        if type(self).step is not Simulator.step:
            # An instrumented subclass (e.g. the sanitizer) overrode
            # step(): dispatch through it, one event at a time.
            self._run_stepwise(until, max_events)
            return
        self._running = True
        # Pause cyclic GC for the duration of the loop: the hot path
        # allocates heap tuples, packets, and requests at event rate,
        # and each collection pass walks the whole live graph.  Nothing
        # about collection timing is observable to the simulation, so
        # this cannot perturb results; the deferred pass runs at exit.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        heap = self._heap
        pop = heappop
        refill = self._refill
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        deferred_pool = self._deferred_pool
        # Hoist the per-iteration None checks: an unbounded run compares
        # against +inf, which no event time or budget ever exceeds.
        horizon = float("inf") if until is None else until
        count = self._event_count
        limit = float("inf") if max_events is None else count + max_events
        try:
            while True:
                while heap:
                    if heap[0][0] > horizon:
                        self._now = until
                        return
                    # Unpack straight off the pop: holding the tuple in
                    # a local would keep a third reference to the event
                    # and silently disable the getrefcount recycling.
                    when, _prio, _key, event = pop(heap)
                    cls = event.__class__
                    if cls is _Deferred:
                        self._now = when
                        count += 1
                        func, args = event.func, event.args
                        event.func = event.args = None
                        if len(deferred_pool) < _POOL_CAP:
                            deferred_pool.append(event)
                        func(*args)
                    elif cls is _Sleep:
                        # A process's bare-delay sleep (or the no-op
                        # left behind by an interrupt): never pooled.
                        self._now = when
                        count += 1
                        event.wake()
                    elif cls is Timeout:
                        if event._state == 3:  # cancelled: vanish
                            self._forget_cancelled()
                            continue
                        self._now = when
                        count += 1
                        callbacks, event.callbacks = event.callbacks, None
                        event._state = 2
                        for callback in callbacks:
                            callback(event)
                        # Recycle only exact-class events the kernel holds the
                        # last reference to (local + getrefcount argument = 2):
                        # anything user code kept a handle on stays untouched.
                        # The detached callbacks list rides along (cleared), so
                        # pooled events always carry an empty list ready to use.
                        if getrefcount(event) == 2 and \
                                len(timeout_pool) < _POOL_CAP:
                            del callbacks[:]
                            event.callbacks = callbacks
                            event._value = None
                            timeout_pool.append(event)
                    else:
                        if event._state == 3:  # cancelled: vanish
                            self._forget_cancelled()
                            continue
                        self._now = when
                        count += 1
                        callbacks, event.callbacks = event.callbacks, None
                        event._state = 2
                        for callback in callbacks:
                            callback(event)
                        if cls is Event:
                            if getrefcount(event) == 2 and \
                                    len(event_pool) < _POOL_CAP:
                                del callbacks[:]
                                event.callbacks = callbacks
                                event._value = None
                                event_pool.append(event)
                    if count > limit:
                        raise SimulationError(
                            f"run() exceeded max_events={max_events}")
                if not refill():
                    break
            if until is not None:
                self._now = until
        finally:
            self._event_count = count
            self._running = False
            if gc_was_enabled:
                gc.enable()

    def _run_stepwise(self, until: Optional[float],
                      max_events: Optional[int]) -> None:
        """The legacy one-step()-per-event loop, for overridden step()."""
        self._running = True
        processed = 0
        heap = self._heap
        try:
            while True:
                # Clear cancelled entries off the head so the horizon
                # check below sees the next *live* event (step() would
                # otherwise skip past the horizon inside one call).
                head = None
                while True:
                    if not heap:
                        if not self._refill():
                            break
                        continue
                    head = heap[0]
                    if getattr(head[3], "_state", 0) == 3:
                        heappop(heap)
                        self._forget_cancelled()
                        head = None
                        continue
                    break
                if head is None:
                    break  # schedule drained
                if until is not None and head[0] > until:
                    self._now = until
                    return
                self.step()
                processed += 1
                if max_events is not None and processed > max_events:
                    raise SimulationError(
                        f"run() exceeded max_events={max_events}")
            if until is not None:
                self._now = until
        finally:
            self._running = False

    def run_until_event(self, event: Event,
                        max_events: Optional[int] = None) -> Any:
        """Run until *event* is processed; return its value.

        Raises the event's exception if it failed, and
        :class:`SimulationError` if the schedule drains first.
        """
        processed = 0
        while not event.processed:
            if not self._heap and not self._refill():
                raise SimulationError(
                    f"schedule drained before {event!r} was processed")
            self.step()
            processed += 1
            if max_events is not None and processed > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if not event.ok:
            raise event.value
        return event.value

    # -- teardown ------------------------------------------------------------

    def pool_sizes(self) -> dict:
        """Current freelist occupancy (diagnostics and tests)."""
        return {"timeout": len(self._timeout_pool),
                "event": len(self._event_pool),
                "deferred": len(self._deferred_pool)}

    def close(self) -> None:
        """Drop all pooled objects (teardown; the simulator stays usable)."""
        self._timeout_pool.clear()
        self._event_pool.clear()
        self._deferred_pool.clear()

    def __repr__(self) -> str:
        return (f"<Simulator t={self._now:.1f}ns "
                f"pending={self.pending_count()} "
                f"processed={self._event_count}>")
