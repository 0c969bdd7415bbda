"""Sharded Shinjuku: multiple dispatchers behind RSS (§2.2-3).

"A modern datacenter server has tens or hundreds of cores, so multiple
dispatchers need to be instantiated.  RSS can be used to route packets
from the NIC to different dispatchers, but this can again result in
load imbalance.  Moreover, one physical core is dedicated to each
dispatcher in the system."

This system instantiates D independent Shinjuku pipelines (networker +
dispatcher hyperthread pair each, each one a
:class:`~repro.systems.parts.HostShinjukuPipeline`) with the workers
statically partitioned among them, and RSS hashing flows to shards.
It exists to quantify §2.2-3's two costs:

1. the dispatch-core tax — D physical cores lost to scheduling; and
2. re-introduced load imbalance — a shard's centralized queue only
   balances *within* the shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, TYPE_CHECKING, Optional

from repro.config import HostMachineConfig, PreemptionConfig
from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.net.rss import RssSteering
from repro.runtime.request import Request
from repro.sim.rng import RngRegistry
from repro.systems.base import BaseSystem, DEFAULT_CLIENT_WIRE_NS
from repro.systems.parts import (
    HostShinjukuPipeline,
    build_host_machine,
    service_flow,
    spawn_worker_pool,
)
from repro.systems.registry import register_system

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class ShardedShinjukuConfig:
    """D Shinjuku shards sharing one host."""

    shards: int = 2
    workers_per_shard: int = 5
    preemption: PreemptionConfig = field(default_factory=PreemptionConfig)
    host: HostMachineConfig = field(default_factory=HostMachineConfig)

    def __post_init__(self):
        if self.shards < 1:
            raise ConfigError("need at least one shard")
        if self.workers_per_shard < 1:
            raise ConfigError("need at least one worker per shard")

    @property
    def total_workers(self) -> int:
        """Worker cores across all shards."""
        return self.shards * self.workers_per_shard

    @property
    def scheduling_cores(self) -> int:
        """Physical cores burned on networking+dispatch (one per shard)."""
        return self.shards


class _Shard(HostShinjukuPipeline):
    """One independent Shinjuku pipeline over a worker subset."""

    @property
    def assigned(self) -> int:
        """Requests this shard has handled (imbalance statistic)."""
        return self.dispatched


@register_system(
    "sharded-shinjuku", config=ShardedShinjukuConfig,
    description="RSS over D independent Shinjuku shards "
                "(quantifies the §2.2-3 multi-dispatcher costs)")
class ShardedShinjukuSystem(BaseSystem):
    """RSS over D independent Shinjuku shards."""

    name = "sharded-shinjuku"

    def __init__(self, sim: "Simulator", rngs: RngRegistry,
                 metrics: MetricsCollector,
                 config: Optional[ShardedShinjukuConfig] = None,
                 client_wire_ns: float = DEFAULT_CLIENT_WIRE_NS):
        super().__init__(sim, rngs, metrics, client_wire_ns)
        self.config = config = (config if config is not None
                                else ShardedShinjukuConfig())
        self.costs = config.host.costs
        self.machine = build_host_machine(sim, config.host)
        self.rss = RssSteering(n_queues=config.shards)
        self.shards: List[_Shard] = []
        self.workers = []
        for shard_index in range(config.shards):
            shard_workers = spawn_worker_pool(
                sim, self.machine, config.workers_per_shard, self.costs,
                preemption=config.preemption,
                name_prefix=f"shard{shard_index}-worker",
                first_worker_id=len(self.workers))
            self.workers.extend(shard_workers)
            shard = _Shard(sim, self.machine, self.costs,
                           respond=self.respond, name=f"shard{shard_index}",
                           mailbox_depth=1, on_drop=self.drop)
            shard.attach_workers(shard_workers)
            self.shards.append(shard)

    def _start(self) -> None:
        for shard in self.shards:
            shard.start()

    def _server_ingress(self, request: Request) -> None:
        request.stamp("nic_rx", self.sim.now)
        shard = self.shards[self.rss.steer_flow(service_flow(request))]
        if not shard.submit(request):
            self.drop(request)

    # -- diagnostics --------------------------------------------------------

    def shard_imbalance(self) -> float:
        """Max/mean of per-shard assigned requests (§2.2-3's concern)."""
        counts = [shard.assigned for shard in self.shards]
        total = sum(counts)
        if total == 0:
            return 1.0
        return max(counts) / (total / len(counts))
