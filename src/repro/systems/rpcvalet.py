"""RPCValet-style NI-integrated central queue (§2.1).

"RPCValet is a custom architecture that makes scheduling decisions to
minimize µsecond-scale tail latency by putting the NIC 'close' to the
cores.  RPCValet integrates a network interface on each core and,
similar to Shinjuku, maintains a centralized task queue."

So: a single global queue realized *in hardware* — zero dispatcher CPU,
nanosecond-scale assignment, single-request-deep per-core buffering —
but **no preemption** (§2.2-2: RPCValet "demonstrate[s] high tail
latency for highly-variable request service time distributions") and
no configurability (§2.2-3: it "lacks preemption and configurability").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.config import HostMachineConfig
from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.runtime.request import Request
from repro.runtime.taskqueue import TaskQueue
from repro.runtime.worker import ExecutionOutcome, WorkerCore
from repro.sim.rng import RngRegistry
from repro.systems.base import BaseSystem, DEFAULT_CLIENT_WIRE_NS
from repro.systems.parts import build_host_machine, spawn_worker_pool
from repro.systems.registry import register_system

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer


@dataclass(frozen=True)
class RpcValetConfig:
    """Configuration for the NI-driven central-queue architecture."""

    workers: int = 8
    #: Hardware queue-pop + assignment decision (ASIC-speed).
    assign_cost_ns: float = 40.0
    #: NI-to-core delivery: the NI is integrated *on* the core.
    delivery_ns: float = 60.0
    queue_capacity: int = 65536
    host: HostMachineConfig = field(default_factory=HostMachineConfig)

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("need at least one worker")
        if self.assign_cost_ns < 0 or self.delivery_ns < 0:
            raise ConfigError("hardware costs must be non-negative")


@register_system(
    "rpcvalet", config=RpcValetConfig,
    description="NI-integrated hardware central queue: nanosecond "
                "assignment, no preemption")
class RpcValetSystem(BaseSystem):
    """A hardware global queue feeding integrated per-core NIs."""

    name = "rpcvalet"

    def __init__(self, sim: "Simulator", rngs: RngRegistry,
                 metrics: MetricsCollector,
                 config: Optional[RpcValetConfig] = None,
                 client_wire_ns: float = DEFAULT_CLIENT_WIRE_NS,
                 tracer: Optional["Tracer"] = None):
        super().__init__(sim, rngs, metrics, client_wire_ns, tracer)
        self.config = config = (config if config is not None
                                else RpcValetConfig())
        self.costs = config.host.costs
        self.machine = build_host_machine(sim, config.host)
        self.task_queue = TaskQueue(sim, capacity=config.queue_capacity,
                                    name="rpcvalet-q")
        self.workers = spawn_worker_pool(
            sim, self.machine, config.workers, self.costs)

    def _start(self) -> None:
        for worker in self.workers:
            process = self.sim.process(
                self._worker_loop(worker),
                label=f"rpcvalet-worker{worker.worker_id}")
            worker.attach_process(process)

    def _server_ingress(self, request: Request) -> None:
        request.stamp("nic_rx", self.sim.now)
        if not self.task_queue.enqueue(request):
            self.drop(request)

    def _worker_loop(self, worker: WorkerCore):
        """Workers pull straight from the hardware global queue.

        The NI's assignment decision plus on-core delivery are a fixed
        ~100 ns — the 'NIC close to the cores' advantage — after which
        execution runs to completion (no preemption, by design).
        """
        thread = worker.thread
        hw_delay = self.config.assign_cost_ns + self.config.delivery_ns
        while True:
            worker.begin_wait()
            request = yield self.task_queue.dequeue()
            worker.end_wait()
            yield hw_delay
            yield thread.execute(self.costs.worker_rx_ns)
            outcome = yield from worker.run_request(request)
            if outcome is ExecutionOutcome.FINISHED:
                yield thread.execute(self.costs.worker_response_tx_ns)
                self.respond(request)
            elif outcome is ExecutionOutcome.FAILED:
                self.worker_failed(worker, request)
            if worker.crashed:
                # The shared queue survives; other workers keep pulling.
                return
