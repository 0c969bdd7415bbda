"""Coordination primitives built on the event kernel.

- :class:`Store` — FIFO buffer with blocking ``get`` and (optionally
  bounded) ``put``; the workhorse for RX/TX rings and task queues.
- :class:`Resource` — counted resource with FIFO request/release.
- :class:`Channel` — a latency pipe: items put in appear at the other
  end after a fixed delay (models wires, inter-thread hops).
- :class:`Signal` — broadcast wakeup for all current waiters.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Optional, TYPE_CHECKING

from repro.errors import QueueFullError, SimulationError
from repro.sim.events import Event, _NORMAL, _PENDING, _TRIGGERED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Store:
    """FIFO item buffer with event-based get/put.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Maximum buffered items; ``None`` means unbounded.  A bounded
        store makes ``put`` block (the returned event stays pending)
        until space frees up.
    name:
        Diagnostic label.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        # Event labels are fixed per store; building them per call is
        # pure allocation churn on the hottest primitive path.
        self._put_label = f"put:{name}"
        self._get_label = f"get:{name}"
        #: Cumulative number of items ever accepted (diagnostics).
        self.total_put = 0
        #: High-water mark of the buffer length (diagnostics).
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        """True when a bounded store is at capacity."""
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Insert *item*; returns an event that fires once accepted."""
        ev = self.sim.event(label=self._put_label)
        # Hand straight to a waiting getter if any.
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._state == _PENDING:  # skip cancelled waits
                getter.succeed(item)
                self.total_put += 1
                ev.succeed()
                return ev
        items = self._items
        capacity = self.capacity
        if capacity is not None and len(items) >= capacity:
            self._putters.append((ev, item))
            return ev
        items.append(item)
        self.total_put += 1
        depth = len(items)
        if depth > self.max_depth:
            self.max_depth = depth
        ev.succeed()
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: returns False (drops) when full.

        Models a hardware ring that tail-drops on overflow.
        """
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._state == _PENDING:
                # Hand off directly (succeed() inlined: the pending
                # check above already guards the state transition).
                getter._ok = True
                getter._value = item
                getter._state = _TRIGGERED
                sim = self.sim
                heappush(sim._heap,
                         (sim._now + 0.0, _NORMAL, sim._next_key(), getter))
                self.total_put += 1
                return True
        items = self._items
        capacity = self.capacity
        if capacity is not None and len(items) >= capacity:
            return False
        items.append(item)
        self.total_put += 1
        depth = len(items)
        if depth > self.max_depth:
            self.max_depth = depth
        return True

    def put_or_raise(self, item: Any) -> None:
        """Put that raises :class:`QueueFullError` instead of blocking."""
        if not self.try_put(item):
            raise QueueFullError(f"store {self.name!r} full (capacity={self.capacity})")

    def get(self) -> Event:
        """Remove and return the oldest item (event-valued)."""
        sim = self.sim
        items = self._items
        if items:
            # Item available: build the event already triggered and
            # schedule it directly — one frame instead of the three-call
            # event()/succeed() chain on the hottest ring path.  The
            # arithmetic matches succeed(delay=0.0): now + 0.0 is
            # bit-identical for the kernel's non-negative clock.
            pool = sim._event_pool
            if pool:
                ev = pool.pop()
                ev.label = self._get_label
            else:
                ev = Event(sim, label=self._get_label)
            ev._value = items.popleft()
            ev._ok = True
            ev._state = _TRIGGERED
            heappush(sim._heap, (sim._now + 0.0, _NORMAL, sim._next_key(), ev))
            if self._putters:
                self._admit_putter()
            return ev
        ev = sim.event(label=self._get_label)
        self._getters.append(ev)
        return ev

    def try_get(self) -> tuple:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        items = self._items
        if items:
            item = items.popleft()
            if self._putters:
                self._admit_putter()
            return True, item
        return False, None

    def peek(self) -> Any:
        """Look at the oldest item without removing it."""
        if not self._items:
            raise SimulationError(f"peek() on empty store {self.name!r}")
        return self._items[0]

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending get (e.g. the waiter was preempted)."""
        try:
            self._getters.remove(event)
        except ValueError:
            pass

    # -- internals ----------------------------------------------------------

    def _accept(self, item: Any) -> None:
        self._items.append(item)
        self.total_put += 1
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def _admit_putter(self) -> None:
        while self._putters and not self.is_full:
            ev, item = self._putters.popleft()
            if ev._state != _PENDING:
                continue
            self._accept(item)
            ev.succeed()

    def __repr__(self) -> str:
        cap = self.capacity if self.capacity is not None else "inf"
        return (f"<Store {self.name!r} depth={len(self._items)}/{cap} "
                f"waiters={len(self._getters)}>")


class Resource:
    """A counted resource with FIFO granting.

    ``request()`` returns an event that fires once a slot is granted;
    ``release()`` frees one slot.  Used for modelling exclusive hardware
    units (e.g. a DMA engine).
    """

    def __init__(self, sim: "Simulator", slots: int = 1, name: str = ""):
        if slots < 1:
            raise SimulationError(f"slots must be >= 1, got {slots}")
        self.sim = sim
        self.slots = slots
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self._req_label = f"req:{name}"

    @property
    def in_use(self) -> int:
        """Slots currently granted."""
        return self._in_use

    @property
    def available(self) -> int:
        """Slots free right now."""
        return self.slots - self._in_use

    def request(self) -> Event:
        """Claim a slot; the returned event fires when granted."""
        ev = self.sim.event(label=self._req_label)
        if self._in_use < self.slots:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free one slot (handing it to the oldest waiter, if any)."""
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter._state == _PENDING:
                waiter.succeed()  # hand the slot over directly
                return
        self._in_use -= 1

    def __repr__(self) -> str:
        return f"<Resource {self.name!r} {self._in_use}/{self.slots}>"


class Channel:
    """A fixed-latency message pipe.

    ``send(item)`` makes *item* appear in the receive :class:`Store`
    after ``latency`` ns.  Models point-to-point paths whose queueing is
    accounted elsewhere: cache-line mailboxes between host threads, or
    the ARM↔host packet path once NIC processing has been charged.
    """

    def __init__(self, sim: "Simulator", latency: float, name: str = "",
                 capacity: Optional[int] = None):
        if latency < 0:
            raise SimulationError(f"negative channel latency: {latency}")
        self.sim = sim
        self.latency = latency
        self.name = name
        self.rx: Store = Store(sim, capacity=capacity, name=f"{name}:rx")
        #: Count of messages that arrived to a full RX store and were dropped.
        self.dropped = 0

    def send(self, item: Any) -> None:
        """Inject *item*; it arrives ``latency`` ns later (tail-drop if full)."""
        if self.latency == 0.0:
            self._arrive(item)
        else:
            self.sim.defer(self.latency, self._arrive, item)

    def _arrive(self, item: Any) -> None:
        if not self.rx.try_put(item):
            self.dropped += 1

    def recv(self) -> Event:
        """Event-valued receive of the next item."""
        return self.rx.get()

    def __repr__(self) -> str:
        return f"<Channel {self.name!r} latency={self.latency}ns depth={len(self.rx)}>"


class Signal:
    """Broadcast wakeup: ``fire(value)`` triggers every current waiter.

    Unlike an :class:`Event`, a Signal can fire repeatedly; each ``wait``
    returns a fresh event attached to the *next* firing.
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._waiters: Deque[Event] = deque()
        #: Number of times the signal has fired (diagnostics).
        self.fired = 0
        self._wait_label = f"signal:{name}"

    def wait(self) -> Event:
        """An event that fires at the signal's next firing."""
        ev = self.sim.event(label=self._wait_label)
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        self.fired += 1
        if not self._waiters:
            return 0
        woken = 0
        waiters, self._waiters = self._waiters, deque()
        sim = self.sim
        heap = sim._heap
        next_key = sim._next_key
        # No callbacks run inside this loop, so the clock is stable.
        when = sim._now + 0.0
        for waiter in waiters:
            if waiter._state == _PENDING:
                # succeed() inlined; the pending check guards the
                # transition exactly as the method would.
                waiter._ok = True
                waiter._value = value
                waiter._state = _TRIGGERED
                heappush(heap, (when, _NORMAL, next_key(), waiter))
                woken += 1
        return woken

    def __repr__(self) -> str:
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"
