"""Common plumbing for served systems.

Every system exposes the same minimal surface to the experiment
harness:

- :meth:`BaseSystem.start` — spawn its processes (call before run);
- :meth:`BaseSystem.ingress` — accept one client request (the load
  generator's callback);
- completions/drops land in the run's
  :class:`~repro.metrics.collector.MetricsCollector`, which the harness
  hands in and summarizes.

The client<->server wire (ToR switch + cables) is a fixed one-way
latency charged on ingress and on the response, identical across
systems so comparisons isolate the server-side scheduling design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, TYPE_CHECKING

from repro.errors import SimulationError
from repro.metrics.collector import MetricsCollector
from repro.runtime.request import Request, RequestState
from repro.runtime.worker import WorkerCore
from repro.sim.rng import RngRegistry
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

#: One-way client<->server network latency (same rack, cut-through ToR).
DEFAULT_CLIENT_WIRE_NS = us(1.0)


@dataclass
class NotifyMessage:
    """Worker -> dispatcher notification for shared-memory systems."""

    worker_id: int
    outcome: str  # "finished" | "preempted"
    request: Request


class BaseSystem:
    """Shared lifecycle, client-wire, and completion plumbing."""

    name = "base"

    def __init__(self, sim: "Simulator", rngs: RngRegistry,
                 metrics: MetricsCollector,
                 client_wire_ns: float = DEFAULT_CLIENT_WIRE_NS):
        if client_wire_ns < 0:
            raise SimulationError(f"negative client wire: {client_wire_ns}")
        self.sim = sim
        self.rngs = rngs
        #: The run's collector: completions and drops record here.
        self.metrics = metrics
        self.client_wire_ns = client_wire_ns
        self.workers: List[WorkerCore] = []
        self._started = False
        #: A :class:`~repro.faults.recovery.RecoveryManager`, installed
        #: by the fault injector's ``attach()``; None when the run has
        #: no recovery plan.
        self.recovery = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn all system processes; idempotence is an error."""
        if self._started:
            raise SimulationError(f"{self.name} already started")
        self._started = True
        self._start()
        self.metrics.attach_workers(self.workers)

    def _start(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    # -- client side ---------------------------------------------------------------

    def ingress(self, request: Request) -> None:
        """Accept a request from the load generator (at the client)."""
        if not self._started:
            raise SimulationError(f"{self.name} not started")
        request.state = RequestState.IN_FLIGHT
        if self.recovery is not None:
            self.recovery.note_ingress(request)
        if self.client_wire_ns > 0:
            self.sim.defer(self.client_wire_ns, self._server_ingress, request)
        else:
            self._server_ingress(request)

    def _server_ingress(self, request: Request) -> None:  # pragma: no cover
        raise NotImplementedError

    # -- response side ---------------------------------------------------------------

    def respond(self, request: Request) -> None:
        """Ship the response back over the client wire and record it."""
        if self.client_wire_ns > 0:
            self.sim.defer(self.client_wire_ns, self._complete, request)
        else:
            self._complete(request)

    def _complete(self, request: Request) -> None:
        request.complete(self.sim.now)
        self.metrics.record_completion(request)
        if self.recovery is not None:
            self.recovery.note_complete(request)

    def drop(self, request: Request, reason: str = "overflow") -> None:
        """Record a dropped request, tagged with why it was dropped.

        ``reason`` is one of ``overflow`` (bounded queue full),
        ``fault`` (lost to injected failure, retries exhausted) or
        ``timeout`` (reaped by the recovery deadline).  Idempotent per
        request — the stamp, not the state, guards re-entry, because
        bounded queues flip the state to DROPPED before the owning
        system gets to call this.
        """
        if (request.state is RequestState.COMPLETED
                or "dropped" in request.stamps):
            return
        request.state = RequestState.DROPPED
        request.stamp("dropped", self.sim.now)
        self.metrics.record_drop(request, reason)

    # -- fault/recovery hooks ----------------------------------------------------

    def worker_failed(self, worker: WorkerCore, request: Request) -> None:
        """A crashed worker orphaned *request*: fail over or drop it."""
        if self.recovery is not None:
            self.recovery.failover(request)
        else:
            self.drop(request, reason="fault")

    def on_worker_crash(self, worker: WorkerCore) -> None:
        """A worker core just died: stop steering new work to it."""
        tracker = getattr(self, "tracker", None)
        if (tracker is not None and hasattr(tracker, "mark_down")
                and worker.worker_id < tracker.n_workers):
            tracker.mark_down(worker.worker_id)

    # -- diagnostics -------------------------------------------------------------------

    def total_completed(self) -> int:
        """Requests completed across all workers."""
        return sum(worker.completed for worker in self.workers)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} workers={len(self.workers)}>"
