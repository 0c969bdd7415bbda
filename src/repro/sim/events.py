"""One-shot events for the simulation kernel.

An :class:`Event` moves through three states::

    PENDING -> TRIGGERED -> PROCESSED

``TRIGGERED`` means the event has a value (or an exception) and sits in
the simulator's schedule; ``PROCESSED`` means its callbacks have run.
Processes wait on events by ``yield``-ing them; the kernel resumes the
process with the event's value, or throws the event's exception into it.

A ``TRIGGERED`` event can additionally be withdrawn via
:meth:`Event.cancel` (state ``CANCELLED``): its schedule entry is
skipped at dispatch and its callbacks never run.

Hot-path note: state lives internally as a small int (``_PENDING`` /
``_TRIGGERED`` / ``_PROCESSED`` / ``_CANCELLED``) because millions of
events flow through a sweep and enum identity checks are measurably
slower; the public :attr:`Event.state` property still answers with the
:class:`EventState` enum.  Triggering schedules the event through
``Simulator._push``, the one place that builds schedule entries.

The schedule holds two kinds of entry: an :class:`Event` (a
:class:`~repro.sim.process.Process` is one) and a :class:`_Deferred`
callback cell.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.errors import SchedulingError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class EventState(enum.Enum):
    """Lifecycle state of an :class:`Event`."""

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"
    CANCELLED = "cancelled"


#: Internal integer states (indices into _STATES); the kernel compares
#: these directly instead of enum members.
_PENDING, _TRIGGERED, _PROCESSED, _CANCELLED = 0, 1, 2, 3
_STATES = (EventState.PENDING, EventState.TRIGGERED, EventState.PROCESSED,
           EventState.CANCELLED)


class Event:
    """A one-shot completion event bound to a :class:`Simulator`.

    Attributes
    ----------
    sim:
        The owning simulator.
    callbacks:
        Functions invoked (with the event) when the event is processed.
        ``None`` once processed — appending afterwards is an error.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "label")

    def __init__(self, sim: "Simulator", label: str = ""):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = _PENDING
        self.label = label

    # -- state inspection --------------------------------------------------

    @property
    def state(self) -> EventState:
        """Current lifecycle state."""
        return _STATES[self._state]

    @property
    def triggered(self) -> bool:
        """True once the event has a result (value or exception)."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _PROCESSED

    @property
    def cancelled(self) -> bool:
        """True once the event has been withdrawn via :meth:`cancel`."""
        return self._state == _CANCELLED

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's result value (or exception, if it failed)."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with *value* after *delay* ns."""
        if self._state != _PENDING:
            raise SchedulingError(f"{self!r} already triggered")
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"negative or NaN delay: {delay}")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        sim = self.sim
        sim._push(sim.now + delay, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception after *delay* ns."""
        if self._state != _PENDING:
            raise SchedulingError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"negative or NaN delay: {delay}")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        sim = self.sim
        sim._push(sim.now + delay, self)
        return self

    def cancel(self) -> bool:
        """Withdraw a triggered-but-unprocessed event from the schedule.

        Returns True when the event was still awaiting dispatch; its
        callbacks will never run.  The entry stays in the schedule and
        is skipped (uncounted, clock untouched) when it surfaces, or
        compacted away under cancel-heavy load.
        Pending or already-processed events return False unchanged.
        """
        if self._state != _TRIGGERED:
            return False
        self._state = _CANCELLED
        self.sim._cancel(self)
        return True

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"<{type(self).__name__}{tag} {_STATES[self._state].value}>"


class _Deferred:
    """A schedule entry carrying a bare callback: the loop runs
    ``func(*args)``.

    Not an :class:`Event`: it has no value, no callbacks list and no
    observable lifecycle.  :meth:`Simulator.defer` pushes a fresh one
    per call; each process owns one for its bare-delay sleeps.  Never
    escapes the kernel.
    """

    __slots__ = ("func", "args")

    def __init__(self, func: Callable[..., None], args: tuple):
        self.func = func
        self.args = args
