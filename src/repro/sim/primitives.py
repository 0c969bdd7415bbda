"""Coordination primitives built on the event kernel.

- :class:`Store` — FIFO buffer with blocking ``get`` and (optionally
  bounded) ``put``; the workhorse for RX/TX rings and task queues.
- :class:`Signal` — broadcast wakeup for all current waiters.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import Event, _PENDING, _TRIGGERED

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
                sim._push(sim.now, getter)
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

    def get(self) -> Event:
        """Remove and return the oldest item (event-valued)."""
        sim = self.sim
        items = self._items
        if items:
            # Item available: build the event already triggered and
            # schedule it directly — one frame instead of the three-call
            # event()/succeed() chain on the hottest ring path.
            ev = Event(sim, label=self._get_label)
            ev._value = items.popleft()
            ev._ok = True
            ev._state = _TRIGGERED
            sim._push(sim.now, ev)
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
        push = sim._push
        # No callbacks run inside this loop, so the clock is stable.
        when = sim.now
        for waiter in waiters:
            if waiter._state == _PENDING:
                # succeed() inlined; the pending check guards the
                # transition exactly as the method would.
                waiter._ok = True
                waiter._value = value
                waiter._state = _TRIGGERED
                push(when, waiter)
                woken += 1
        return woken

    def __repr__(self) -> str:
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"
