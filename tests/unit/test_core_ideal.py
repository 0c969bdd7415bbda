"""Unit tests for the ideal-NIC parameterization (§3.1, §5.1)."""

from repro.config import ARM_HOST_ONE_WAY_NS, StingrayConfig
from repro.core.ideal import ideal_nic_config


class TestIdealNicConfig:
    def test_line_rate_scheduling_costs(self):
        """§5.1-1: ASIC-class per-op costs, far below the ARM's."""
        ideal = ideal_nic_config()
        stingray = StingrayConfig()
        assert ideal.costs.packet_tx_ns < stingray.costs.packet_tx_ns / 10
        assert ideal.costs.queue_op_ns < stingray.costs.queue_op_ns / 10

    def test_cxl_class_latency(self):
        """§5.1-2: a few hundred ns, versus 2.56 µs."""
        ideal = ideal_nic_config()
        assert ideal.one_way_latency_ns <= 1000.0
        assert ideal.one_way_latency_ns < ARM_HOST_ONE_WAY_NS / 5

    def test_no_tx_batching(self):
        """Line-rate hardware sends immediately; no DPDK drain timer."""
        ideal = ideal_nic_config()
        assert ideal.costs.tx_batch_size == 1
        assert ideal.costs.tx_flush_timeout_ns == 0.0

    def test_parameterizable(self):
        ideal = ideal_nic_config(one_way_latency_ns=500.0,
                                 scheduler_op_ns=40.0)
        assert ideal.one_way_latency_ns == 500.0
        assert ideal.costs.packet_tx_ns == 40.0
