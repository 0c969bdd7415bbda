"""MICA-style key-partitioned dataplane (§2.1).

"MICA optimizes network request handling, parallel data accesses, and
data structure design for small key-value store accesses.  It uses
Intel's Flow Director to steer requests to cores based on the key they
access."

EREW mode: every key is owned by exactly one core, so steering is a
deterministic function of the key.  Partitioning eliminates cross-core
data sharing but inherits key-popularity skew — a Zipf-heavy workload
overloads the hot key's core (§2.2-1's load-imbalance problem from a
different angle than RSS).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.config import HostMachineConfig
from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.net.flow_director import FlowDirector
from repro.runtime.request import Request
from repro.sim.primitives import Store
from repro.sim.rng import RngRegistry
from repro.systems.base import BaseSystem, DEFAULT_CLIENT_WIRE_NS
from repro.systems.parts import (
    build_host_machine,
    fifo_worker_loop,
    spawn_worker_pool,
)
from repro.systems.registry import register_system

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class MicaSystemConfig:
    """Configuration for the key-partitioned dataplane."""

    workers: int = 8
    rx_queue_depth: int = 4096
    host: HostMachineConfig = field(default_factory=HostMachineConfig)

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("need at least one worker")


@register_system(
    "mica", config=MicaSystemConfig,
    description="MICA-style EREW key partitioning via Flow Director, "
                "run to completion")
class MicaSystem(BaseSystem):
    """Flow-Director key steering, EREW, run-to-completion."""

    name = "mica"

    def __init__(self, sim: "Simulator", rngs: RngRegistry,
                 metrics: MetricsCollector,
                 config: Optional[MicaSystemConfig] = None,
                 client_wire_ns: float = DEFAULT_CLIENT_WIRE_NS):
        super().__init__(sim, rngs, metrics, client_wire_ns)
        self.config = config = (config if config is not None
                                else MicaSystemConfig())
        self.costs = config.host.costs
        self.machine = build_host_machine(sim, config.host)
        self.flow_director = FlowDirector(
            n_queues=config.workers,
            key_extractor=None)  # keys steered directly, below
        self.queues: List[Store] = [
            Store(sim, capacity=config.rx_queue_depth, name=f"mica-q{i}")
            for i in range(config.workers)]
        self.workers = spawn_worker_pool(
            sim, self.machine, config.workers, self.costs)

    def _start(self) -> None:
        for worker in self.workers:
            process = self.sim.process(
                fifo_worker_loop(self, worker, self.queues[worker.worker_id]),
                label=f"mica-worker{worker.worker_id}")
            worker.attach_process(process)

    # -- key-based steering --------------------------------------------------------

    def _partition_of(self, request: Request) -> int:
        """EREW owner core of the request's key."""
        key = request.key
        if key is None:
            # Keyless requests hash on the flow's source port instead.
            key = request.src_port
        if isinstance(key, int):
            digest = key
        else:
            digest = sum((i + 1) * b for i, b in
                         enumerate(str(key).encode("utf-8")))
        queue = digest % self.config.workers
        self.flow_director.counts[queue] += 1
        return queue

    def _server_ingress(self, request: Request) -> None:
        request.stamp("nic_rx", self.sim.now)
        queue_index = self._partition_of(request)
        if not self.queues[queue_index].try_put(request):
            self.drop(request)
