"""Generator-based simulation processes.

A :class:`Process` drives a Python generator.  Each value the generator
``yield``-s is either an :class:`~repro.sim.events.Event` — the process
sleeps until that event triggers and is resumed with the event's value
(or has the event's exception thrown into it) — or a delay: a real
number ``d >= 0`` that is not a bool, after which the process resumes
``d`` ns later with ``None``, exactly as ``yield sim.timeout(d)`` would.
The process itself is an event that triggers when the generator returns
(with the return value) or raises (failing the process).

Interrupts
----------
``process.interrupt(cause)`` models asynchronous preemption: a
:class:`~repro.errors.ProcessInterrupt` carrying *cause* is thrown into
the generator at its current wait point.  The generator may catch it,
save state, and continue — exactly how the paper's workers react to a
local-APIC timer interrupt.

Hot-path note: every resume goes through one trampoline,
:meth:`Process._resume`, which binds ``generator.send`` /
``generator.throw`` once at start (a bound-method lookup per event is
measurable at fig2 scale), reads event state as the kernel's internal
int, and tests the yielded value's exact class before anything else.
A bare ``int``/``float`` delay is the common case: it makes the same
``Simulator._push`` at ``now + d`` (one tie key) that
``sim.timeout(d)`` would, but the entry is the process's own
:class:`~repro.sim.events._Deferred` cell, which the kernel fires
straight into ``_resume`` with a shared succeeded event of value
None — no event or callbacks list is allocated per wait.  An
interrupt during a sleep turns the scheduled cell into a no-op (it
still fires and is counted, like an orphaned timeout) and gives the
process a fresh cell.  An interrupt is itself a failed event whose
exception ``_resume`` throws into the generator.
"""

from __future__ import annotations

from numbers import Real
from typing import Any, Generator, TYPE_CHECKING

from repro.errors import ProcessInterrupt, SchedulingError, SimulationError
from repro.sim.events import Event, _Deferred, _PENDING, _PROCESSED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


def _asleep(_slept: Event) -> None:
    """The callback of a sleep cell whose process was interrupted."""


#: What an ended sleep resumes its process with: a succeeded event of
#: value None, shared by every sleep cell.
_SLEPT = Event(None, label="slept")
_SLEPT._ok = True
_SLEPT._state = _PROCESSED


class Process(Event):
    """A running simulation coroutine; also an event for its completion."""

    __slots__ = ("_generator", "_waiting_on", "_send", "_throw", "_cell")

    def __init__(self, sim: "Simulator", generator: Generator, label: str = ""):
        try:
            send = generator.send
            throw = generator.throw
        except AttributeError:
            raise SimulationError(
                f"process() needs a generator, got {generator!r} — "
                "did you forget to call the generator function?") from None
        super().__init__(sim, label=label)
        self._generator = generator
        self._send = send
        self._throw = throw
        #: The pending Event, or this process's sleep cell, or None.
        self._waiting_on: Any = None
        self._cell = _Deferred(self._resume, (_SLEPT,))
        # Kick off on the next kernel step at the current instant.
        bootstrap = sim.event(label=f"start:{label}" if label else "start:")
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    # -- public API ------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process immediately.

        The interrupt is delivered via the schedule (at the current
        instant), so it is safe to call from another process's context.
        Interrupting a finished process is a no-op, mirroring real
        interrupt delivery racing with task exit.
        """
        if self._state != _PENDING:
            return
        self._detach()
        poke = self.sim.event(label=f"interrupt:{self.label}")
        poke.callbacks.append(self._deliver_interrupt)
        poke.fail(ProcessInterrupt(cause))

    def cut_wait(self) -> None:
        """End the current wait early: resume with None at this instant.

        The resume goes through the schedule: one relay event triggered
        at the current time, ordered against same-instant events by its
        tie key like any other.  The event the process was waiting on is
        left as it is — it may still trigger later — but it no longer
        resumes the process.  A no-op on a finished process.
        """
        if self._state != _PENDING:
            return
        self._detach()
        relay = self.sim.event(label=f"wake:{self.label}")
        relay.callbacks.append(self._resume)
        self._waiting_on = relay
        relay.succeed()

    # -- kernel machinery ---------------------------------------------------------

    def _detach(self) -> None:
        """Stop waiting on whatever the process currently waits on."""
        target = self._waiting_on
        if target is None:
            return
        self._waiting_on = None
        if target is self._cell:
            # Sleeping: the scheduled cell fires as a no-op and a fresh
            # cell serves the process's next sleep.
            target.func = _asleep
            self._cell = _Deferred(self._resume, (_SLEPT,))
        elif target._state != _PROCESSED:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass

    def _deliver_interrupt(self, poke: Event) -> None:
        # A resume may have been re-armed between interrupt() and delivery
        # (the interrupted wait completed at the same instant); detach again.
        self._detach()
        self._resume(poke)

    def _resume(self, event: Event) -> None:
        # The per-event trampoline: one kernel callback per resume, so
        # the whole send-and-rearm path lives in this single frame
        # (an extra delegation call per event is measurable at scale).
        if self._state != _PENDING:  # interrupted and finished before this fired
            return
        self._waiting_on = None
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            # An uncaught interrupt kills the process too; treat it as a
            # failure so waiters notice rather than hanging.
            self.fail(exc)
            return
        # Re-arm (the body of _wait_on, inlined for the common cases: a
        # bare delay — _sleep's body — or an unprocessed same-simulator
        # plain Event: timeouts, Store gets/puts and Signal waits are
        # exact-class Events).
        cls = target.__class__
        if cls is float or cls is int:
            if target >= 0:
                sim = self.sim
                cell = self._waiting_on = self._cell
                sim._push(sim.now + target, cell)
                return
        elif cls is Event and target.sim is self.sim \
                and target._state != _PROCESSED:
            self._waiting_on = target
            target.callbacks.append(self._resume)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Validate the yielded *target* and arm the next resume."""
        if not isinstance(target, Event):
            if isinstance(target, Real) and not isinstance(target, bool):
                delay = float(target)
                if delay >= 0:  # NaN fails this test too
                    self._sleep(delay)
                    return
                error: SimulationError = SchedulingError(
                    f"process {self.label!r} yielded a negative or NaN "
                    f"delay: {target!r}")
            else:
                error = SimulationError(
                    f"process {self.label!r} yielded {target!r}; processes "
                    "may only yield Events or delays")
            self._generator.close()
            self.fail(error)
            return
        if target.sim is not self.sim:
            self._generator.close()
            self.fail(SimulationError(
                f"process {self.label!r} yielded an event from another simulator"))
            return

        self._waiting_on = target
        if target._state == _PROCESSED:
            # Already done: resume at the current instant via the schedule
            # to preserve FIFO fairness.
            relay = self.sim.event()
            relay.callbacks.append(self._resume)
            if target._ok:
                relay.succeed(target._value)
            else:
                relay.fail(target._value)
            self._waiting_on = relay
        else:
            target.callbacks.append(self._resume)

    def _sleep(self, delay: float) -> None:
        """Schedule this process's cell *delay* ns from now.

        :meth:`_resume` inlines this body; keep the two in step.
        """
        sim = self.sim
        cell = self._waiting_on = self._cell
        sim._push(sim.now + delay, cell)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        status = "done" if self.triggered else (
            "waiting" if self._waiting_on is not None else "starting")
        return f"<Process{tag} {status}>"
