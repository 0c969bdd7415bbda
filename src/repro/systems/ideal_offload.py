"""The ideal informed-scheduling NIC as a complete system (§3.1, §5.1).

Runs the exact Shinjuku-Offload machinery with §5.1's three hardware
fixes applied:

1. **line-rate scheduling** — ASIC-class dispatcher per-op costs
   (:func:`repro.core.ideal.ideal_nic_config`);
2. **low-latency coherent path** — CXL-class NIC<->host one-way
   latency, and workers post notifications as coherent cacheline
   writes instead of constructing packets;
3. **direct interrupts** — the ``direct`` preemption mechanism.

Because the path is so much faster, the queuing optimization needs far
fewer outstanding requests (§5.2: "Shinjuku-Offload may be able to
have fewer outstanding requests at each core with CXL"), which is also
what re-enables L1-targeted DDIO.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.config import (
    OffloadWorkerCosts,
    PreemptionConfig,
    ShinjukuOffloadConfig,
)
from repro.core.ideal import ideal_nic_config
from repro.core.policy import SchedulingPolicy
from repro.metrics.collector import MetricsCollector
from repro.sim.rng import RngRegistry
from repro.systems.base import DEFAULT_CLIENT_WIRE_NS
from repro.systems.registry import register_system
from repro.systems.shinjuku_offload import ShinjukuOffloadSystem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


def ideal_offload_config(workers: int = 4,
                         outstanding_per_worker: int = 2,
                         time_slice_ns: Optional[float] = None,
                         one_way_latency_ns: float = 300.0,
                         scheduler_op_ns: float = 20.0
                         ) -> ShinjukuOffloadConfig:
    """Build a :class:`ShinjukuOffloadConfig` for the ideal NIC.

    Defaults keep preemption off (pass ``time_slice_ns`` to enable,
    with the ``direct`` interrupt mechanism) and only 2 outstanding
    requests per worker — the fast path needs far less latency hiding.
    """
    if time_slice_ns is not None:
        preemption = PreemptionConfig(time_slice_ns=time_slice_ns,
                                      mechanism="direct")
    else:
        preemption = PreemptionConfig(time_slice_ns=None, mechanism="direct")
    return ShinjukuOffloadConfig(
        workers=workers,
        outstanding_per_worker=outstanding_per_worker,
        preemption=preemption,
        nic=ideal_nic_config(one_way_latency_ns=one_way_latency_ns,
                             scheduler_op_ns=scheduler_op_ns),
        # Workers read requests from coherent memory (cheap) and flag
        # completion with a cacheline store the NIC snoops (§5.1-2);
        # only the client response still needs a real packet.
        worker_costs=OffloadWorkerCosts(
            rx_parse_ns=100.0,
            response_tx_ns=300.0,
            notify_tx_ns=50.0,
        ),
    )


@register_system(
    "ideal-offload", config=ShinjukuOffloadConfig,
    default_config=ideal_offload_config,
    description="Shinjuku-Offload on the §5.1 ideal NIC: ASIC "
                "dispatcher, CXL-class path, direct interrupts")
class IdealOffloadSystem(ShinjukuOffloadSystem):
    """Shinjuku-Offload on the §3.1 ideal SmartNIC."""

    name = "ideal-offload"

    def __init__(self, sim: "Simulator", rngs: RngRegistry,
                 metrics: MetricsCollector,
                 config: Optional[ShinjukuOffloadConfig] = None,
                 policy: Optional[SchedulingPolicy] = None,
                 client_wire_ns: float = DEFAULT_CLIENT_WIRE_NS):
        if config is None:
            config = ideal_offload_config()
        super().__init__(sim, rngs, metrics, config=config, policy=policy,
                         client_wire_ns=client_wire_ns)
