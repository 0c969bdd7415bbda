"""IX-style RSS dataplane (§2.1).

"IX is a dataplane operating system that uses RSS to hash packet
5-tuples and then assign packets to worker cores based on the hash.
All network packet and application request processing is done on
individual worker cores and runs to completion."

This is d-FCFS: per-core FIFO queues, no preemption, no cross-core
balancing — the system whose tail explodes under dispersion (§2.2
problems 1 and 2), which the baseline-comparison bench demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.config import HostMachineConfig
from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.net.rss import RssSteering
from repro.runtime.request import Request
from repro.runtime.worker import WorkerCore
from repro.sim.primitives import Store
from repro.sim.rng import RngRegistry
from repro.systems.base import BaseSystem, DEFAULT_CLIENT_WIRE_NS
from repro.systems.parts import (
    build_host_machine,
    drain_crashed_worker,
    run_to_completion,
    service_flow,
    spawn_worker_pool,
)
from repro.systems.registry import register_system

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class RssSystemConfig:
    """Configuration for the RSS run-to-completion dataplane.

    ``batch_max > 1`` enables IX-style adaptive batching (§2.1: "By
    eliminating inter-core communication and using adaptive batching,
    IX achieves low tail latency for high throughput"): each poll round
    takes *up to* ``batch_max`` queued requests and amortizes the
    per-round poll cost over them.  The batch is adaptive because it is
    bounded by queue occupancy — at low load batches degenerate to one
    request and add no latency.
    """

    workers: int = 8
    rx_queue_depth: int = 4096
    #: Maximum requests taken per poll round (1 disables batching).
    batch_max: int = 1
    #: Cost of one poll round (ring doorbell, prefetch, bookkeeping),
    #: paid once per batch rather than once per request.  Defaults to
    #: zero so the plain-RSS baseline stays a pure per-request model;
    #: batching studies set it explicitly.
    poll_round_ns: float = 0.0
    host: HostMachineConfig = field(default_factory=HostMachineConfig)

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("need at least one worker")
        if self.batch_max < 1:
            raise ConfigError("batch_max must be >= 1")
        if self.poll_round_ns < 0:
            raise ConfigError("poll_round_ns must be non-negative")


@register_system(
    "rss", config=RssSystemConfig,
    description="IX-style d-FCFS: per-core FIFO queues fed by "
                "hardware RSS, run to completion")
class RssSystem(BaseSystem):
    """Per-core d-FCFS queues fed by hardware RSS."""

    name = "rss"

    def __init__(self, sim: "Simulator", rngs: RngRegistry,
                 metrics: MetricsCollector,
                 config: Optional[RssSystemConfig] = None,
                 client_wire_ns: float = DEFAULT_CLIENT_WIRE_NS):
        super().__init__(sim, rngs, metrics, client_wire_ns)
        self.config = config = (config if config is not None
                                else RssSystemConfig())
        self.costs = config.host.costs
        self.machine = build_host_machine(sim, config.host)
        self.rss = RssSteering(n_queues=config.workers)
        self.queues: List[Store] = [
            Store(sim, capacity=config.rx_queue_depth, name=f"rss-q{i}")
            for i in range(config.workers)]
        self.workers = spawn_worker_pool(
            sim, self.machine, config.workers, self.costs)
        #: Poll rounds that served more than one request (diagnostics).
        self.batched_rounds = 0

    def _start(self) -> None:
        for worker in self.workers:
            process = self.sim.process(
                self._worker_loop(worker),
                label=f"rss-worker{worker.worker_id}")
            worker.attach_process(process)

    # -- steering -------------------------------------------------------------

    def _server_ingress(self, request: Request) -> None:
        request.stamp("nic_rx", self.sim.now)
        queue_index = self.rss.steer_flow(service_flow(request))
        if not self.queues[queue_index].try_put(request):
            self.drop(request)

    # -- run-to-completion workers ------------------------------------------------

    def _worker_loop(self, worker: WorkerCore):
        queue = self.queues[worker.worker_id]
        batch_max = self.config.batch_max
        while True:
            worker.begin_wait()
            request = yield queue.get()
            worker.end_wait()
            # Adaptive batch: grab whatever else is already queued, up
            # to the cap. The poll-round cost is paid once per batch.
            batch = [request]
            while len(batch) < batch_max:
                ok, more = queue.try_get()
                if not ok:
                    break
                batch.append(more)
            if len(batch) > 1:
                self.batched_rounds += 1
            yield worker.thread.execute(self.config.poll_round_ns)
            for index, item in enumerate(batch):
                yield from run_to_completion(self, worker, item)
                if worker.crashed:
                    # Orphan the rest of the batch and the queue: RSS
                    # keeps hashing this flow set here, so everything
                    # stranded goes to failover.
                    for orphan in batch[index + 1:]:
                        self.worker_failed(worker, orphan)
                    drain_crashed_worker(self, worker, queue)
                    return
