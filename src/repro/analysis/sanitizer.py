"""The dynamic half of the determinism gate: a sanitizing simulator.

The linter (:mod:`repro.analysis.lint`) proves what it can from source;
this module checks, at runtime and strictly observation-only, the
invariants it cannot:

- **clock monotonicity** — the simulated clock never moves backwards
  from one event to the next;
- **queue accounting** — every watched
  :class:`~repro.runtime.taskqueue.TaskQueue` keeps a depth in
  ``[0, enqueued]`` and below its own ``max_depth`` high-water mark
  (a request that appears in a queue without passing ``enqueue()`` is
  corruption, not scheduling);
- **request conservation** — once the event schedule drains, every
  tracked :class:`~repro.runtime.request.Request` must have terminated
  ``COMPLETED`` or ``DROPPED``; anything still queued or running at
  that point can never make progress again and is a leak;
- **per-stream draw accounting** — every named RNG stream counts its
  primitive draws, so when a serial and a parallel run diverge the
  diagnostic names the exact stream whose draw count differs.

Violations raise :class:`~repro.errors.SanitizerError` immediately,
with the draw-count context attached.  Enable via ``--sanitize`` on the
CLI or ``REPRO_SANITIZE=1`` in the environment (the bench conftest
forwards it); :func:`repro.experiments.harness.sanitize_enabled` reads
it, so an unsanitized run never imports this module.  The wrapper never
perturbs event order, RNG values, or metrics —
``tests/integration/test_sanitizer_equivalence.py`` holds it to
bit-identical :class:`~repro.metrics.summary.RunMetrics`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import SanitizerError
from repro.runtime.request import Request, RequestState
from repro.runtime.taskqueue import TaskQueue
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry, _derive_seed

#: Request states that count as "terminated" for conservation.
_TERMINAL_STATES = (RequestState.COMPLETED, RequestState.DROPPED)


class CountingRandom(random.Random):
    """A ``random.Random`` that counts primitive draws.

    Every public distribution method of :class:`random.Random` bottoms
    out in :meth:`random` or :meth:`getrandbits`, so overriding just
    those two counts every draw while returning bit-identical values
    (the superclass does all the generating).
    """

    def __init__(self, seed: int, name: str = ""):
        self.name = name
        self.draws = 0
        super().__init__(seed)

    def random(self) -> float:
        """One uniform draw in [0, 1); counted."""
        self.draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        """*k* random bits; counted."""
        self.draws += 1
        return super().getrandbits(k)


class SanitizedRngRegistry(RngRegistry):
    """An :class:`RngRegistry` whose streams count their draws.

    Streams are seeded exactly like the plain registry's (same
    BLAKE2b derivation), so draw *values* are identical — only the
    accounting is added.
    """

    def stream(self, name: str) -> CountingRandom:
        """Return the counting stream for *name* (created on first use)."""
        stream = self._streams.get(name)
        if stream is None:
            stream = CountingRandom(_derive_seed(self.seed, name), name)
            self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "SanitizedRngRegistry":
        """A sanitized child registry (same derivation as the base)."""
        return SanitizedRngRegistry(_derive_seed(self.seed, f"fork:{name}"))

    def draw_counts(self) -> Dict[str, int]:
        """Per-stream primitive draw counts, keyed by stream name."""
        return {name: stream.draws
                for name, stream in sorted(self._streams.items())
                if isinstance(stream, CountingRandom)}


@dataclass
class SanitizerReport:
    """What one sanitized run observed (all checks passed)."""

    #: Simulator events processed.
    events: int = 0
    #: Per-stream primitive RNG draw counts.
    draws: Dict[str, int] = field(default_factory=dict)
    #: Requests tracked through the ingress wrapper.
    tracked: int = 0
    completed: int = 0
    dropped: int = 0
    #: Tracked requests still live at finalize (legal unless drained).
    in_flight: int = 0
    queues_watched: int = 0
    #: Whether no live entry was left in the schedule at finalize (the
    #: state in which the conservation check is decidable); cancelled
    #: entries still waiting to be skipped do not count.
    drained: bool = False

    def __str__(self) -> str:
        draws = ", ".join(f"{name}={count}"
                          for name, count in self.draws.items()) or "none"
        return (f"SanitizerReport(events={self.events} "
                f"tracked={self.tracked} completed={self.completed} "
                f"dropped={self.dropped} in_flight={self.in_flight} "
                f"drained={self.drained} draws: {draws})")


class SanitizedSimulator(Simulator):
    """Drop-in :class:`Simulator` that checks runtime invariants.

    Strictly observation-only: it never reorders events, never draws
    randomness, and never mutates watched objects — a sanitized run
    produces bit-identical metrics to a plain one.  It installs
    :meth:`_observe` as the loop's :attr:`~Simulator.observer`, so the
    checks run after each event (between event callbacks, so watched
    state is quiescent) on the same loop a plain run uses, and again
    at :meth:`finalize`.
    """

    def __init__(self, start_time: float = 0.0,
                 rngs: Optional[SanitizedRngRegistry] = None):
        super().__init__(start_time)
        self._rngs = rngs
        self._watched_queues: List[TaskQueue] = []
        self._tracked_requests: List[Request] = []
        #: The clock at the last observed event.
        self._clock = self.now
        self.observer = self._observe

    # -- wiring ------------------------------------------------------------

    def watch_queue(self, queue: TaskQueue) -> None:
        """Check *queue*'s accounting invariants after every event."""
        self._watched_queues.append(queue)

    def watch_system(self, system: Any, max_depth: int = 4) -> int:
        """Discover and watch every :class:`TaskQueue` inside *system*.

        Walks attributes, lists/tuples, and dict values of objects
        defined in this package, to *max_depth* levels; returns how
        many queues were found.  Discovery only reads.
        """
        found = 0
        seen: Set[int] = set()

        def visit(obj: Any, depth: int) -> None:
            nonlocal found
            if depth > max_depth or id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, TaskQueue):
                self.watch_queue(obj)
                found += 1
                return
            if isinstance(obj, (list, tuple)):
                for item in obj:
                    visit(item, depth + 1)
                return
            if isinstance(obj, dict):
                for item in obj.values():
                    visit(item, depth + 1)
                return
            module = getattr(type(obj), "__module__", "")
            if not module.startswith("repro."):
                return
            slots = getattr(type(obj), "__slots__", None)
            names: List[str] = []
            if isinstance(getattr(obj, "__dict__", None), dict):
                names.extend(vars(obj))
            if slots:
                names.extend(slots)
            for attr in names:
                try:
                    value = getattr(obj, attr)
                except AttributeError:
                    continue
                visit(value, depth + 1)

        visit(system, 0)
        return found

    def track_request(self, request: Request) -> None:
        """Include *request* in the conservation check at finalize."""
        self._tracked_requests.append(request)

    def tracking_ingress(self, ingress: Callable[[Request], None],
                         ) -> Callable[[Request], None]:
        """Wrap a system's ingress callable to track each request."""
        def wrapped(request: Request) -> None:
            self.track_request(request)
            ingress(request)
        return wrapped

    # -- checks ------------------------------------------------------------

    def _draw_context(self) -> str:
        if self._rngs is None:
            return ""
        draws = self._rngs.draw_counts()
        if not draws:
            return ""
        listing = ", ".join(f"{name}={count}"
                            for name, count in draws.items())
        return f" [stream draws: {listing}]"

    def _check_queues(self) -> None:
        for queue in self._watched_queues:
            depth = len(queue)
            if depth < 0:
                raise SanitizerError(
                    f"queue {queue.name!r} reports negative depth "
                    f"{depth} at t={self.now}{self._draw_context()}")
            if depth > queue.enqueued:
                raise SanitizerError(
                    f"queue {queue.name!r} holds {depth} requests but "
                    f"only {queue.enqueued} were ever enqueued "
                    f"(accounting corrupted) at t={self.now}"
                    f"{self._draw_context()}")
            if depth > queue.max_depth:
                raise SanitizerError(
                    f"queue {queue.name!r} depth {depth} exceeds its "
                    f"own high-water mark {queue.max_depth} at "
                    f"t={self.now}{self._draw_context()}")

    def _observe(self) -> None:
        """The loop's per-event hook: check clock and queue invariants."""
        now = self.now
        if now < self._clock:
            raise SanitizerError(
                f"clock regressed between events: {self._clock} -> "
                f"{now}{self._draw_context()}")
        self._clock = now
        if self._watched_queues:
            self._check_queues()

    def finalize(self) -> SanitizerReport:
        """End-of-run checks; returns the observation report.

        When no live event is left (cancelled entries still queued do
        not count), every tracked request must be in a terminal state —
        a queued/running request with no live event can never make
        progress again, so it is reported as a leak, localized by id,
        state, and per-stream draw counts.
        """
        self._check_queues()
        report = SanitizerReport(
            events=self.event_count,
            draws=self._rngs.draw_counts() if self._rngs else {},
            tracked=len(self._tracked_requests),
            queues_watched=len(self._watched_queues),
            drained=self.pending_count() == self._cancelled,
        )
        for request in self._tracked_requests:
            if request.state is RequestState.COMPLETED:
                report.completed += 1
            elif request.state is RequestState.DROPPED:
                report.dropped += 1
            else:
                report.in_flight += 1
        if report.drained and report.in_flight:
            leaked = next(r for r in self._tracked_requests
                          if r.state not in _TERMINAL_STATES)
            raise SanitizerError(
                f"{report.in_flight} request(s) leaked: schedule "
                f"drained but e.g. request #{leaked.request_id} is "
                f"still {leaked.state.value!r} (injected requests "
                "must terminate completed or dropped)"
                f"{self._draw_context()}")
        return report
