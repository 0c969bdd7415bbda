"""Just-in-time delivery: congestion control x scheduling (§5.2).

"Recent research proposes the co-design of congestion control with OS
scheduling [30].  The network's goal is not to deliver packets as fast
as possible but rather just in time for processing.  Such a congestion
control scheme requires fine-grained data from both the network and the
host cores and thus would benefit from our proposal."

The informed NIC already aggregates exactly the signal such a scheme
needs: its central queue depth plus per-core outstanding counts.  This
module closes the loop:

- :class:`BacklogAdvertiser` — the NIC periodically publishes its
  instantaneous backlog toward senders (one wire latency away).
- :class:`JustInTimePacer` — a sender-side governor that withholds
  injections while the advertised backlog exceeds a target, releasing
  them as credit reappears.

With pacing, overload queues at the *sender* (where the request hasn't
yet consumed NIC SRAM or host resources) instead of in the server's
central queue — the latency a request would have spent queueing deep
in the server becomes visible, controllable sender-side delay, and the
server-side tail collapses to the just-in-time minimum.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, TYPE_CHECKING

from repro.errors import ConfigError
from repro.sim.primitives import Signal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class BacklogAdvertiser:
    """Periodically samples a backlog function and publishes it.

    Parameters
    ----------
    sim:
        Owning simulator.
    backlog_fn:
        Returns the server's instantaneous backlog (queue depth plus
        dispatched-but-unacknowledged requests).
    wire_latency_ns:
        Delay before a sample becomes visible to senders (the NIC ->
        client path).
    period_ns:
        Sampling period; µs-scale, matching the feedback granularity
        §3.2-2 asks hosts to provide.
    """

    def __init__(self, sim: "Simulator", backlog_fn: Callable[[], int],
                 wire_latency_ns: float = 1000.0,
                 period_ns: float = 2000.0):
        if wire_latency_ns < 0:
            raise ConfigError(f"negative wire latency: {wire_latency_ns}")
        if period_ns <= 0:
            raise ConfigError(f"period must be positive: {period_ns}")
        self.sim = sim
        self.backlog_fn = backlog_fn
        self.wire_latency_ns = wire_latency_ns
        self.period_ns = period_ns
        #: The sender's (delayed) view of the server backlog.
        self.advertised = 0
        #: Fired each time a fresh advertisement lands sender-side.
        self.updated = Signal(sim, name="jit-advert")
        #: Callbacks invoked on each landed advertisement (pacers use
        #: this to reset their sent-since-update estimates).
        self.on_update = []
        #: Samples published (diagnostics).
        self.published = 0
        self._started = False

    def start(self) -> None:
        """Spawn the sampling loop (call once, before the run)."""
        if self._started:
            raise ConfigError("advertiser already started")
        self._started = True
        self.sim.process(self._loop(), label="jit-advertiser")

    def _loop(self):
        while True:
            yield self.period_ns
            sample = self.backlog_fn()
            self.published += 1

            def _land(value=sample) -> None:
                self.advertised = value
                for callback in self.on_update:
                    callback()
                self.updated.fire()

            if self.wire_latency_ns > 0:
                self.sim.defer(self.wire_latency_ns, _land)
            else:
                _land()


class JustInTimePacer:
    """Sender-side injection governor driven by advertised backlog.

    Requests pass straight through while the advertised backlog is
    below ``target_backlog``; beyond it they wait in the sender's own
    queue and drain as advertisements show credit.  ``in_flight``
    tracks this sender's unacknowledged requests so the pacer also
    self-limits when advertisements are stale.

    Parameters
    ----------
    advertiser:
        Where the backlog view comes from.
    target_backlog:
        Keep-the-server-busy depth: roughly workers x outstanding.
    window:
        Hard cap on this sender's unacknowledged requests; None
        disables the sender window (pure backlog pacing).
    """

    def __init__(self, advertiser: BacklogAdvertiser, target_backlog: int,
                 window: Optional[int] = None):
        if target_backlog < 1:
            raise ConfigError(f"target_backlog must be >= 1: {target_backlog}")
        if window is not None and window < 1:
            raise ConfigError(f"window must be >= 1: {window}")
        self.advertiser = advertiser
        self.sim = advertiser.sim
        self.target_backlog = target_backlog
        self.window = window
        self.in_flight = 0
        #: Requests injected since the last advertisement landed: the
        #: sender's correction for advertisement staleness.  Without
        #: it, every send between two updates sees the same stale
        #: backlog and the whole pending queue floods through at once.
        self._sent_since_update = 0
        advertiser.on_update.append(self._on_advertisement)
        self._pending: Deque = deque()
        #: Requests that passed without waiting (diagnostics).
        self.passed_through = 0
        #: Requests that were held back at least one update (diagnostics).
        self.held = 0
        self._draining = False

    # -- sender API ---------------------------------------------------------

    def submit(self, send: Callable[[], None]) -> None:
        """Inject now if allowed, else queue *send* until credit."""
        if self._may_send() and not self._pending:
            self._inject(send)
            self.passed_through += 1
            return
        self.held += 1
        self._pending.append(send)
        self._ensure_drainer()

    def acknowledge(self) -> None:
        """A response arrived: one fewer request in flight."""
        if self.in_flight > 0:
            self.in_flight -= 1

    @property
    def queued(self) -> int:
        """Requests waiting sender-side."""
        return len(self._pending)

    # -- internals ------------------------------------------------------------

    def _on_advertisement(self) -> None:
        self._sent_since_update = 0

    def _may_send(self) -> bool:
        estimated_backlog = (self.advertiser.advertised
                             + self._sent_since_update)
        if estimated_backlog >= self.target_backlog:
            return False
        if self.window is not None and self.in_flight >= self.window:
            return False
        return True

    def _inject(self, send: Callable[[], None]) -> None:
        self.in_flight += 1
        self._sent_since_update += 1
        send()

    def _ensure_drainer(self) -> None:
        if not self._draining:
            self._draining = True
            self.sim.process(self._drain_loop(), label="jit-drainer")

    def _drain_loop(self):
        while self._pending:
            while self._pending and self._may_send():
                self._inject(self._pending.popleft())
            if self._pending:
                yield self.advertiser.updated.wait()
        self._draining = False
