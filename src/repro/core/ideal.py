"""The ideal SmartNIC (§3.1, §5.1).

"We propose an ideal SmartNIC that schedules packets at line rate, has
a high throughput and low latency communication path with the host
server, shares coherent memory with the host server, and most
importantly, instantly incorporates host load feedback into its
scheduling decisions."

This module translates §5.1's three hardware asks into a configuration
for the same offload machinery the prototype runs, so the ablation
benches can turn each ask on independently:

1. line-rate scheduling  -> ASIC-class per-op costs (tens of ns);
2. low-latency path      -> CXL-class one-way latency (~300 ns);
3. direct interrupts     -> the ``direct`` preemption mechanism.
"""

from __future__ import annotations

from repro.config import ArmCosts, IdealNicConfig


def ideal_nic_config(one_way_latency_ns: float = 300.0,
                     scheduler_op_ns: float = 20.0) -> IdealNicConfig:
    """An :class:`IdealNicConfig` with the given §5.1 parameters.

    Parameters
    ----------
    one_way_latency_ns:
        NIC<->host one-way latency.  §5.1-2 estimates "a few hundred
        nanoseconds to a microsecond" as the lowest foreseeable.
    scheduler_op_ns:
        Per-decision cost of the line-rate scheduling pipeline.
    """
    return IdealNicConfig(
        one_way_latency_ns=one_way_latency_ns,
        costs=ArmCosts(
            networker_pkt_ns=scheduler_op_ns,
            queue_op_ns=scheduler_op_ns / 2,
            packet_tx_ns=scheduler_op_ns,
            packet_rx_ns=scheduler_op_ns * 0.75,
            intercore_hop_ns=0.0,
            tx_batch_size=1,          # line-rate hardware does not batch
            tx_flush_timeout_ns=0.0,
        ),
    )
