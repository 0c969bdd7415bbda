"""ZygOS-style RSS + work stealing (§2.1).

"ZygOS, similarly to IX, uses RSS to assign packets to cores, but also
supports work-stealing.  Cores that are idle can steal packets from
task queues that belong to other cores."

§2.2-4 records why stealing is not enough: "the high work-stealing
rate needed for highly-variable workloads and the high overhead of
work stealing render ZygOS unusable" — the per-steal synchronization
cost here makes that overhead visible in the dispersion bench.
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
from repro.sim.primitives import Signal, Store
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
class WorkStealingConfig:
    """Configuration for the ZygOS-style dataplane."""

    workers: int = 8
    rx_queue_depth: int = 4096
    #: Cost of one successful steal (cross-core queue synchronization).
    steal_cost_ns: float = 600.0
    #: Cost of probing one remote queue while hunting for work.
    probe_cost_ns: float = 120.0
    host: HostMachineConfig = field(default_factory=HostMachineConfig)

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("need at least one worker")
        if self.steal_cost_ns < 0 or self.probe_cost_ns < 0:
            raise ConfigError("steal costs must be non-negative")


@register_system(
    "workstealing", config=WorkStealingConfig,
    description="ZygOS-style RSS dataplane with idle-time work "
                "stealing across per-core queues")
class WorkStealingSystem(BaseSystem):
    """RSS-fed per-core queues with idle-time work stealing."""

    name = "workstealing"

    def __init__(self, sim: "Simulator", rngs: RngRegistry,
                 metrics: MetricsCollector,
                 config: Optional[WorkStealingConfig] = None,
                 client_wire_ns: float = DEFAULT_CLIENT_WIRE_NS):
        super().__init__(sim, rngs, metrics, client_wire_ns)
        self.config = config = (config if config is not None
                                else WorkStealingConfig())
        self.costs = config.host.costs
        self.machine = build_host_machine(sim, config.host)
        self.rss = RssSteering(n_queues=config.workers)
        self.queues: List[Store] = [
            Store(sim, capacity=config.rx_queue_depth, name=f"zygos-q{i}")
            for i in range(config.workers)]
        self._work_signal = Signal(sim, name="zygos-work")
        self.workers = spawn_worker_pool(
            sim, self.machine, config.workers, self.costs)
        #: Successful steals (diagnostics; §2.2-4's "high work-stealing rate").
        self.steals = 0
        #: Remote-queue probes that found nothing.
        self.failed_probes = 0

    def _start(self) -> None:
        for worker in self.workers:
            process = self.sim.process(
                self._worker_loop(worker),
                label=f"zygos-worker{worker.worker_id}")
            worker.attach_process(process)

    # -- steering ---------------------------------------------------------------

    def _server_ingress(self, request: Request) -> None:
        request.stamp("nic_rx", self.sim.now)
        queue_index = self.rss.steer_flow(service_flow(request))
        if self.queues[queue_index].try_put(request):
            self._work_signal.fire()
        else:
            self.drop(request)

    # -- workers with stealing -------------------------------------------------------

    def _worker_loop(self, worker: WorkerCore):
        """Run the own queue, steal when it is empty, sleep when all are.

        Same-instant order is stated with tie ranks: a woken worker
        looks at rank 1, after every request that lands at its instant
        (rank 0), and a thief's probe ends at rank ``2 + worker_id``,
        so every owner pops its own queue before anyone steals and
        thieves take what is left in worker-id order.
        """
        my_queue = self.queues[worker.worker_id]
        timeout_ranked = self.sim.timeout_ranked
        while True:
            ok, request = my_queue.try_get()
            if not ok:
                # Hunt through the other queues (ZygOS's steal scan).
                request = yield from self._steal_scan(worker)
            if request is None:
                # Nothing anywhere: sleep until new work arrives.
                worker.begin_wait()
                yield self._work_signal.wait()
                yield timeout_ranked(0.0, 1)
                worker.end_wait()
                continue
            yield from run_to_completion(self, worker, request)
            if worker.crashed:
                # Peers can still steal from this queue, but new RSS
                # arrivals keep hashing here with nobody home — hand
                # the stranded backlog to failover.
                drain_crashed_worker(self, worker, my_queue)
                return

    def _steal_scan(self, worker: WorkerCore):
        """Probe remote queues round-robin; returns a request or None."""
        thread = worker.thread
        n = self.config.workers
        probe_ns = self.config.probe_cost_ns
        rank = 2 + worker.worker_id
        timeout_ranked = self.sim.timeout_ranked
        for offset in range(1, n):
            victim = (worker.worker_id + offset) % n
            yield timeout_ranked(thread.execute(probe_ns), rank)
            ok, request = self.queues[victim].try_get()
            if ok:
                yield thread.execute(self.config.steal_cost_ns)
                self.steals += 1
                return request
            self.failed_probes += 1
        return None
