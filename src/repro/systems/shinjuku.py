"""Vanilla Shinjuku (§2.1, the paper's CPU-based comparison system).

"Shinjuku has a centralized queue maintained by a single dispatcher
that assigns requests to idle cores.  Requests that take too long to
finish are preempted by the dispatcher using a low-overhead interrupt
mechanism."

Topology (§4.1): "Shinjuku pins the networking subsystem and the
dispatcher to separate hyperthreads on the same physical core and pins
[N] workers to their own hyperthreads on [N] physical cores."  The
dispatcher costs ~200 ns per operation — the published 5 M RPS ceiling
(§2.2-3) — and all host-side handoffs traverse cache-line mailboxes
with a fixed inter-thread hop latency, which is what produces the ~2 µs
inter-thread tail penalty of §2.2-4.

The whole pipeline is one
:class:`~repro.systems.parts.HostShinjukuPipeline` part; this class
only provisions the hardware and binds ingress/egress to it.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.config import ShinjukuConfig
from repro.core.policy import SchedulingPolicy
from repro.metrics.collector import MetricsCollector
from repro.runtime.request import Request
from repro.sim.rng import RngRegistry
from repro.systems.base import BaseSystem, DEFAULT_CLIENT_WIRE_NS
from repro.systems.parts import (
    HostShinjukuPipeline,
    build_host_machine,
    spawn_worker_pool,
)
from repro.systems.registry import register_system

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


@register_system(
    "shinjuku", config=ShinjukuConfig,
    description="host-resident centralized dispatcher with preemption "
                "(the paper's CPU baseline)")
class ShinjukuSystem(BaseSystem):
    """The host-resident Shinjuku pipeline."""

    name = "shinjuku"

    RX_RING_DEPTH = HostShinjukuPipeline.RX_RING_DEPTH

    def __init__(self, sim: "Simulator", rngs: RngRegistry,
                 metrics: MetricsCollector,
                 config: Optional[ShinjukuConfig] = None,
                 policy: Optional[SchedulingPolicy] = None,
                 client_wire_ns: float = DEFAULT_CLIENT_WIRE_NS):
        super().__init__(sim, rngs, metrics, client_wire_ns)
        self.config = config = (config if config is not None
                                else ShinjukuConfig())
        self.costs = config.host.costs
        self.machine = build_host_machine(sim, config.host)
        self.pipeline = HostShinjukuPipeline(
            sim, self.machine, self.costs, respond=self.respond,
            name=self.name, policy=policy,
            mailbox_depth=config.worker_mailbox_depth,
            on_drop=self.drop)
        self.workers = spawn_worker_pool(
            sim, self.machine, config.workers, self.costs,
            preemption=config.preemption)
        self.pipeline.attach_workers(self.workers)

    # -- pipeline views (diagnostics and benches poke these) -----------------------

    @property
    def policy(self) -> SchedulingPolicy:
        """The dispatcher's worker-selection policy."""
        return self.pipeline.policy

    @property
    def networker_thread(self):
        """The hyperthread running the networking subsystem."""
        return self.pipeline.networker_thread

    @property
    def dispatcher_thread(self):
        """The hyperthread running the dispatcher (shares the core)."""
        return self.pipeline.dispatcher_thread

    @property
    def rx_ring(self):
        """The NIC RX descriptor ring feeding the networker."""
        return self.pipeline.rx_ring

    @property
    def task_queue(self):
        """The centralized task queue the dispatcher drains."""
        return self.pipeline.task_queue

    @property
    def tracker(self):
        """The per-worker outstanding-request credit tracker."""
        return self.pipeline.tracker

    @property
    def dispatched(self) -> int:
        """Total requests the dispatcher has assigned to workers."""
        return self.pipeline.dispatched

    # -- lifecycle -----------------------------------------------------------------

    def _start(self) -> None:
        self.pipeline.start()

    # -- ingress ---------------------------------------------------------------------

    def _server_ingress(self, request: Request) -> None:
        request.stamp("nic_rx", self.sim.now)
        if not self.pipeline.submit(request):
            self.drop(request)
