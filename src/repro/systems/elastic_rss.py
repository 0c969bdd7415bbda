"""Elastic-RSS-style adaptive hashing (§5.1-1).

"Elastic RSS is a customized version of hardware-based RSS that
provisions cores for applications on the µs scale and incorporates
fine-grained load feedback, but only scheduling parameters can be
changed in the implementation — the scheduling policy itself is fixed
upfront."

The model: a run-to-completion RSS dataplane whose indirection table is
re-weighted every ``epoch_ns`` inversely to each core's instantaneous
queue depth.  Rebalancing fixes *persistent* skew (a hot flow's queue
stops receiving new flows) but, because the policy is still hashing
without preemption, it can neither migrate an already-enqueued burst
nor rescue requests stuck behind a straggler — the §2.2 problems the
informed preemptive NIC exists to solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.config import HostMachineConfig
from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.net.rss import RssSteering
from repro.runtime.request import Request
from repro.sim.primitives import Store
from repro.sim.rng import RngRegistry
from repro.systems.base import BaseSystem, DEFAULT_CLIENT_WIRE_NS
from repro.systems.parts import (
    build_host_machine,
    fifo_worker_loop,
    service_flow,
    spawn_worker_pool,
)
from repro.systems.registry import register_system
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer


@dataclass(frozen=True)
class ElasticRssConfig:
    """Configuration for the adaptive-RSS dataplane."""

    workers: int = 8
    rx_queue_depth: int = 4096
    #: Rebalancing period — Elastic RSS works "on the µs scale".
    epoch_ns: float = us(10.0)
    #: Smoothing: new weight = (1-alpha)*old + alpha*instantaneous.
    smoothing_alpha: float = 0.5
    host: HostMachineConfig = field(default_factory=HostMachineConfig)

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("need at least one worker")
        if self.epoch_ns <= 0:
            raise ConfigError("epoch_ns must be positive")
        if not 0.0 < self.smoothing_alpha <= 1.0:
            raise ConfigError("smoothing_alpha must be in (0, 1]")


@register_system(
    "elastic-rss", config=ElasticRssConfig,
    description="adaptive RSS: indirection table re-weighted each "
                "epoch by per-core queue depth")
class ElasticRssSystem(BaseSystem):
    """RSS whose indirection table tracks per-core load each epoch."""

    name = "elastic-rss"

    def __init__(self, sim: "Simulator", rngs: RngRegistry,
                 metrics: MetricsCollector,
                 config: Optional[ElasticRssConfig] = None,
                 client_wire_ns: float = DEFAULT_CLIENT_WIRE_NS,
                 tracer: Optional["Tracer"] = None):
        super().__init__(sim, rngs, metrics, client_wire_ns, tracer)
        self.config = config = (config if config is not None
                                else ElasticRssConfig())
        self.costs = config.host.costs
        self.machine = build_host_machine(sim, config.host)
        self.rss = RssSteering(n_queues=config.workers)
        self.queues: List[Store] = [
            Store(sim, capacity=config.rx_queue_depth, name=f"erss-q{i}")
            for i in range(config.workers)]
        self._weights = [1.0] * config.workers
        #: Rebalancing epochs executed (diagnostics).
        self.rebalances = 0
        self.workers = spawn_worker_pool(
            sim, self.machine, config.workers, self.costs)

    def _start(self) -> None:
        self.sim.process(self._rebalancer_loop(), label="erss-rebalance")
        for worker in self.workers:
            process = self.sim.process(
                fifo_worker_loop(self, worker, self.queues[worker.worker_id]),
                label=f"erss-worker{worker.worker_id}")
            worker.attach_process(process)

    # -- the on-NIC rebalancer --------------------------------------------------

    def _rebalancer_loop(self):
        """Every epoch, re-weight queues inversely to their depth.

        Runs 'in hardware': it costs no host CPU, exactly as Elastic
        RSS intends, but it can only change *parameters* of the fixed
        hash-and-queue policy.
        """
        config = self.config
        while True:
            yield config.epoch_ns
            depths = [len(queue) for queue in self.queues]
            max_depth = max(depths)
            for i, depth in enumerate(depths):
                # Deep queue -> low weight; empty queue -> full weight.
                instantaneous = 1.0 / (1.0 + depth)
                self._weights[i] = ((1.0 - config.smoothing_alpha)
                                    * self._weights[i]
                                    + config.smoothing_alpha * instantaneous)
            if max_depth > 0:
                self.rss = RssSteering(n_queues=config.workers,
                                       weights=self._weights)
            self.rebalances += 1
            if self.tracer is not None:
                self.tracer.emit(self.name, "rebalance", depths=depths)

    # -- data path ------------------------------------------------------------------

    def _server_ingress(self, request: Request) -> None:
        request.stamp("nic_rx", self.sim.now)
        queue_index = self.rss.steer_flow(service_flow(request))
        if not self.queues[queue_index].try_put(request):
            self.drop(request)
