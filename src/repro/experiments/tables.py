"""Table T1: the paper's in-text quantitative claims.

The paper has no numbered tables; its measured constants are sprinkled
through §2.2, §3.3, §3.4 and §5.1.  This module re-derives each one
from the models — by simulation where the quantity is dynamic, from the
calibrated configuration where it is a direct model input — so the
bench run shows paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import (
    ARM_HOST_ONE_WAY_NS,
    HOST_CLOCK_GHZ,
    HOST_DISPATCHER_CAP_RPS,
    HostCosts,
    PreemptionConfig,
    ShinjukuConfig,
    StingrayConfig,
)
from repro.experiments.executor import (
    ConfiguredFactory,
    Plan,
    PointSpec,
    SweepExecutor,
    run_plan,
)
from repro.experiments.harness import RunConfig
from repro.hw.smartnic import FabricDomain, StingraySmartNic
from repro.metrics.summary import RunMetrics
from repro.net.packet import EthernetHeader, Packet
from repro.sim.engine import Simulator
from repro.systems.rss_system import RssSystemConfig
from repro.units import GBPS, KIB, goodput_bps, us
from repro.workload.distributions import Fixed


@dataclass(frozen=True)
class TableRow:
    """One claim: paper number vs reproduced number."""

    claim_id: str
    description: str
    paper_value: float
    measured_value: float
    unit: str
    section: str

    @property
    def ratio(self) -> float:
        """measured / paper (NaN when the paper value is zero)."""
        if self.paper_value == 0:
            return float("nan")
        return self.measured_value / self.paper_value


def _measure_one_way_latency() -> float:
    """Simulate one ARM -> host packet through the Stingray fabric."""
    sim = Simulator()
    nic = StingraySmartNic(sim, StingrayConfig())
    arm_port = nic.create_port(FabricDomain.ARM, "arm0")
    host_port = nic.create_port(FabricDomain.HOST, "vf0")
    arrivals: List[float] = []

    def receiver():
        yield host_port.poll()
        arrivals.append(sim.now)

    sim.process(receiver())
    packet = Packet(eth=EthernetHeader(src=arm_port.mac, dst=host_port.mac),
                    payload="probe")
    start = sim.now
    arm_port.transmit(packet)
    sim.run()
    assert arrivals, "probe packet never arrived"
    return arrivals[0] - start


def plan_t1(config: Optional[RunConfig] = None) -> Plan:
    """Table T1 as a plan: its three simulated points, assembled into
    one row per claim.

    *config* is used as given, never scaled: T1's values are claims.
    T1a's probe is a single packet and runs in-process at assembly.
    """
    if config is None:
        config = RunConfig()
    no_slice = PreemptionConfig(time_slice_ns=None)
    points = (
        # T1d, §2.2-4: "We measure that this communication causes 2 µs
        # of additional tail latency for requests that require minimal
        # application work compared to when all processing is performed
        # by one thread."  Shinjuku's 3-thread pipeline against the
        # one-worker RSS dataplane, both on a minimal 200 ns request at
        # light load.
        ("T1d/shinjuku", "shinjuku",
         ShinjukuConfig(workers=1, preemption=no_slice), 50e3, 200.0),
        ("T1d/rss", "rss", RssSystemConfig(workers=1), 50e3, 200.0),
        # T1e: peak Shinjuku dispatch rate — many workers, tiny service,
        # overload offered.
        ("T1e/shinjuku", "shinjuku",
         ShinjukuConfig(workers=15, preemption=no_slice), 8e6, 400.0),
    )
    specs = tuple(
        PointSpec(factory=ConfiguredFactory.by_name(name, system_config),
                  rate_rps=rate, distribution=Fixed(service_ns),
                  config=config, label=label)
        for label, name, system_config, rate, service_ns in points)
    return Plan(specs, _assemble_t1)


def table_t1(config: Optional[RunConfig] = None,
             executor: Optional[SweepExecutor] = None) -> List[TableRow]:
    """Recompute every in-text claim; returns one row per claim.

    The simulated points run as one batch on *executor* (without one,
    on the process-wide in-process executor).
    """
    return run_plan(plan_t1(config), executor)


def _assemble_t1(metrics: Sequence[RunMetrics]) -> List[TableRow]:
    """The rows of Table T1 from :func:`plan_t1`'s point metrics."""
    pipelined, single, saturated = metrics
    assert pipelined.latency is not None and single.latency is not None
    itc_penalty = pipelined.latency.p99_ns - single.latency.p99_ns
    dispatcher_cap = saturated.throughput.achieved_rps
    costs = HostCosts()
    return [
        TableRow(
            claim_id="T1a",
            description="ARM <-> host one-way communication latency",
            paper_value=ARM_HOST_ONE_WAY_NS / 1e3,
            measured_value=_measure_one_way_latency() / 1e3,
            unit="us", section="3.3"),
        TableRow(
            claim_id="T1b",
            description="Timer arm cost, Linux -> Dune (cycle reduction)",
            paper_value=93.0,
            measured_value=(1.0 - costs.timer_arm_dune_ns
                            / costs.timer_arm_linux_ns) * 100.0,
            unit="% saved", section="3.4.4"),
        TableRow(
            claim_id="T1c",
            description="Timer interrupt receipt, Linux -> Dune "
                        "(cycle reduction)",
            paper_value=70.0,
            measured_value=(1.0 - costs.timer_fire_dune_ns
                            / costs.timer_fire_linux_ns) * 100.0,
            unit="% saved", section="3.4.4"),
        TableRow(
            claim_id="T1d",
            description="Inter-thread communication tail penalty "
                        "(minimal work)",
            paper_value=2.0,
            measured_value=itc_penalty / 1e3,
            unit="us", section="2.2-4"),
        TableRow(
            claim_id="T1e",
            description="Host dispatcher peak scheduling rate",
            paper_value=HOST_DISPATCHER_CAP_RPS / 1e6,
            measured_value=dispatcher_cap / 1e6,
            unit="M RPS", section="2.2-3"),
        TableRow(
            claim_id="T1e64",
            description="Ethernet goodput at dispatcher cap, 64 B requests",
            paper_value=2.5,
            measured_value=goodput_bps(dispatcher_cap, 64) / GBPS,
            unit="Gbps", section="1"),
        TableRow(
            claim_id="T1e1k",
            description="Ethernet goodput at dispatcher cap, 1 KiB requests",
            paper_value=41.0,
            measured_value=goodput_bps(dispatcher_cap, KIB) / GBPS,
            unit="Gbps", section="1"),
        TableRow(
            claim_id="T1f",
            description="Execution resources spent on dispatch at 11 workers",
            paper_value=8.33,
            measured_value=1.0 / 12.0 * 100.0,
            unit="%", section="2.2-3"),
        TableRow(
            claim_id="T1g",
            description="Timer arm cost via Dune-mapped APIC registers",
            paper_value=40.0 / HOST_CLOCK_GHZ,
            measured_value=costs.timer_arm_dune_ns,
            unit="ns", section="3.4.4"),
        TableRow(
            claim_id="T1h",
            description="Posted-interrupt receipt cost",
            paper_value=1272.0 / HOST_CLOCK_GHZ,
            measured_value=costs.timer_fire_dune_ns,
            unit="ns", section="3.4.4"),
    ]
