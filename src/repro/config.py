"""Calibration constants and system configuration.

Single source of truth for every quantitative parameter in the
reproduction.  Constants that come straight from the paper cite their
section; the remaining per-stage costs are *calibrated* so that the
evaluation shapes (Figures 2–6) reproduce, and are documented as such.

Times are nanoseconds; clock rates are GHz; rates are requests/second.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError
from repro.units import cycles_to_ns, us


# ---------------------------------------------------------------------------
# Paper-published constants (with paper section references)
# ---------------------------------------------------------------------------

#: Host CPU clock — two Intel E5-2658 @ 2.3 GHz (§4).
HOST_CLOCK_GHZ = 2.3

#: Stingray ARM A72 cores (§3.3). Clock is not published; 3.0 GHz nominal
#: A72-class, with slowness expressed through per-op costs instead.
ARM_CLOCK_GHZ = 3.0

#: One-way latency ARM CPU <-> host CPU through the Stingray NIC (§3.3):
#: "The ARM CPU to host CPU communication latency is 2.56 µs."
ARM_HOST_ONE_WAY_NS = 2560.0

#: Preemption time slice used in Figure 2 (§3.4.4, §4.1): 10 µs.
DEFAULT_TIME_SLICE_NS = us(10.0)

#: Timer-arm cost, cycles (§3.4.4): Linux path 610, Dune-mapped APIC 40.
TIMER_ARM_LINUX_CYCLES = 610
TIMER_ARM_DUNE_CYCLES = 40

#: Timer-interrupt receipt cost, cycles (§3.4.4): Linux signal 4193,
#: Dune posted interrupt 1272.
TIMER_FIRE_LINUX_CYCLES = 4193
TIMER_FIRE_DUNE_CYCLES = 1272

#: Host (vanilla Shinjuku) dispatcher peak rate (§1, §2.2-3): ~5 M RPS.
HOST_DISPATCHER_CAP_RPS = 5_000_000.0

#: Shinjuku inter-thread communication adds ~2 µs to the tail for
#: minimal-work requests (§2.2-4).
SHINJUKU_ITC_TAIL_NS = us(2.0)

#: Outstanding-request sweet spot (§3.4.5/§4.1): best at 5; +250% for
#: 4 workers (1→5), +88% for 16 workers (1→3).
BEST_OUTSTANDING = 5


# ---------------------------------------------------------------------------
# Calibrated per-stage costs (chosen to reproduce Figures 2-6 shapes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HostCosts:
    """Per-operation costs on host x86 cores (vanilla Shinjuku path)."""

    clock_ghz: float = HOST_CLOCK_GHZ
    #: Networking-subsystem cost to poll+parse one UDP packet.
    networker_pkt_ns: float = 150.0
    #: Dispatcher cost per queue operation.  Each request costs three
    #: ops (ingest, dispatch, completion), so 65 ns/op => ~195 ns per
    #: request => the published 5 M RPS cap (§2.2-3).
    dispatcher_op_ns: float = 65.0
    #: One hop over a cache-line mailbox between pinned host threads.
    #: Calibrated so minimal-work requests see ≈ +2 µs tail latency
    #: versus run-to-completion (§2.2-4): two request-path hops plus
    #: dispatch cost ≈ 1 µs deterministic, plus ~1 µs of tail queueing
    #: from the notify round trip gating back-to-back dispatches.
    interthread_hop_ns: float = 450.0
    #: Worker cost to pick a request up from its mailbox.
    worker_rx_ns: float = 100.0
    #: Worker cost to build + send the client response via the NIC.
    worker_response_tx_ns: float = 300.0
    #: Worker cost to notify the dispatcher (cache-line write).
    worker_notify_ns: float = 100.0
    #: Spawning a fresh execution context for a request (§3.4.3).
    context_spawn_ns: float = 150.0
    #: Saving a preempted context to DRAM (stack + registers, §3.4.3).
    context_save_ns: float = 300.0
    #: Restoring a previously preempted context.
    context_restore_ns: float = 400.0

    @property
    def timer_arm_dune_ns(self) -> float:
        """Arming the Dune-mapped local-APIC timer (40 cycles, §3.4.4)."""
        return cycles_to_ns(TIMER_ARM_DUNE_CYCLES, self.clock_ghz)

    @property
    def timer_arm_linux_ns(self) -> float:
        """Arming a timer through the Linux syscall path (610 cycles)."""
        return cycles_to_ns(TIMER_ARM_LINUX_CYCLES, self.clock_ghz)

    @property
    def timer_fire_dune_ns(self) -> float:
        """Receiving a Dune posted interrupt (1272 cycles, §3.4.4)."""
        return cycles_to_ns(TIMER_FIRE_DUNE_CYCLES, self.clock_ghz)

    @property
    def timer_fire_linux_ns(self) -> float:
        """Receiving a Linux timer signal (4193 cycles, §3.4.4)."""
        return cycles_to_ns(TIMER_FIRE_LINUX_CYCLES, self.clock_ghz)


@dataclass(frozen=True)
class ArmCosts:
    """Per-operation costs on the Stingray's ARM cores (§3.4.1).

    Calibrated: the packet-TX core is the binding stage, capping the
    offloaded dispatcher at ≈ 1.5 M RPS, which reproduces the Figure 3
    16-worker plateau (y-axis tops out at 1.5 M RPS) and the Figure 6
    crossover where vanilla Shinjuku wins decisively.
    """

    clock_ghz: float = ARM_CLOCK_GHZ
    #: ARM networking-subsystem cost to poll+parse one external packet.
    networker_pkt_ns: float = 300.0
    #: Queue-manager core: one enqueue or one dequeue+assign (§3.4.1).
    queue_op_ns: float = 250.0
    #: Packet-TX core: construct + send one packet to a worker (§3.4.1,
    #: "high overhead of constructing and sending packets").
    packet_tx_ns: float = 650.0
    #: Packet-RX core: poll + parse one worker response/notify packet.
    packet_rx_ns: float = 450.0
    #: Shared-memory hop between the three dispatcher ARM cores.
    intercore_hop_ns: float = 150.0
    #: DPDK-style TX buffering on the packet-TX core: packets are held
    #: until a batch fills or the oldest entry ages out.  This is the
    #: standard rte_eth_tx_buffer idiom and is what makes per-worker
    #: round trips long at low outstanding counts (Figure 3's k=1
    #: points) while costing nothing at high rates.
    tx_batch_size: int = 8
    tx_flush_timeout_ns: float = 6000.0


@dataclass(frozen=True)
class OffloadWorkerCosts:
    """Host worker costs when driven by the SmartNIC over packets (§3.4.3).

    Higher than the vanilla-Shinjuku path: the worker must DPDK-poll a
    virtual function, parse a UDP request packet, and construct packets
    both for the client response and the dispatcher notification.
    """

    #: Poll + parse one request packet from the worker's SR-IOV VF.
    rx_parse_ns: float = 600.0
    #: Construct + send the client response packet.
    response_tx_ns: float = 700.0
    #: Construct + send the dispatcher notification packet.
    notify_tx_ns: float = 350.0


# ---------------------------------------------------------------------------
# Hardware configuration blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HostMachineConfig:
    """The x86 host server (§4): 2-socket E5-2658, 128 GB DRAM."""

    sockets: int = 2
    cores_per_socket: int = 12
    threads_per_core: int = 2
    clock_ghz: float = HOST_CLOCK_GHZ
    costs: HostCosts = field(default_factory=HostCosts)

    def __post_init__(self):
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ConfigError("host must have at least one core")
        if self.threads_per_core < 1:
            raise ConfigError("threads_per_core must be >= 1")

    @property
    def total_threads(self) -> int:
        """Total hardware threads on the machine."""
        return self.sockets * self.cores_per_socket * self.threads_per_core


@dataclass(frozen=True)
class StingrayConfig:
    """The Broadcom Stingray PS225 SmartNIC (§3.3)."""

    arm_cores: int = 8
    arm_clock_ghz: float = ARM_CLOCK_GHZ
    #: One-way ARM<->host packet latency through the NIC (§3.3).
    one_way_latency_ns: float = ARM_HOST_ONE_WAY_NS
    #: Per-port RX/TX ring depth (descriptors).
    ring_depth: int = 1024
    #: Fabric latency wire -> ARM port (NIC ingress pipeline).
    fabric_external_arm_ns: float = 300.0
    #: Fabric latency wire -> host port (DMA + DDIO placement).
    fabric_external_host_ns: float = 500.0
    #: Fabric latency between ports in the same domain (e.g. ARM->ARM).
    fabric_intra_ns: float = 100.0
    costs: ArmCosts = field(default_factory=ArmCosts)

    def __post_init__(self):
        if self.arm_cores < 1:
            raise ConfigError("Stingray needs at least one ARM core")
        if self.one_way_latency_ns < 0:
            raise ConfigError("one_way_latency_ns must be non-negative")


@dataclass(frozen=True)
class IdealNicConfig(StingrayConfig):
    """The §3.1/§5.1 *ideal* SmartNIC extrapolation.

    - Line-rate scheduling (ASIC/FPGA): per-decision cost ~20 ns.
    - CXL-class coherent path to the host: a few hundred ns one-way.
    - Direct interrupts to host cores (no packet construction).
    """

    one_way_latency_ns: float = 300.0
    costs: ArmCosts = field(default_factory=lambda: ArmCosts(
        networker_pkt_ns=20.0,
        queue_op_ns=10.0,
        packet_tx_ns=20.0,
        packet_rx_ns=15.0,
        intercore_hop_ns=0.0,
        tx_batch_size=1,          # line-rate hardware does not batch
        tx_flush_timeout_ns=0.0,
    ))


# ---------------------------------------------------------------------------
# Per-experiment run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreemptionConfig:
    """How (and whether) workers preempt long-running requests."""

    #: None disables preemption (Figures 4-6 turn it off).
    time_slice_ns: Optional[float] = DEFAULT_TIME_SLICE_NS
    #: "dune"  - Dune-mapped local-APIC timer + posted interrupt (§3.4.4)
    #: "linux" - Linux timer syscall + signal path
    #: "nic_packet" - local slice tracking, NIC-packet delivery (§3.4.4)
    #: "direct" - ideal NIC's direct interrupt wire (§5.1-3)
    #: "nic_scan" - fully NIC-driven: the SmartNIC tracks execution
    #:   status itself and interrupts overrunning cores (§3.2-4);
    #:   only supported by the offload systems.
    mechanism: str = "dune"

    def __post_init__(self):
        if self.time_slice_ns is not None and self.time_slice_ns <= 0:
            raise ConfigError(
                f"time_slice_ns must be positive or None, got {self.time_slice_ns}")
        if self.mechanism not in ("dune", "linux", "nic_packet", "direct",
                                  "nic_scan"):
            raise ConfigError(f"unknown preemption mechanism {self.mechanism!r}")

    @property
    def enabled(self) -> bool:
        """True when a time slice is configured."""
        return self.time_slice_ns is not None


@dataclass(frozen=True)
class ShinjukuConfig:
    """Vanilla Shinjuku (§2.1): host networker + dispatcher + workers."""

    workers: int = 3
    preemption: PreemptionConfig = field(default_factory=PreemptionConfig)
    host: HostMachineConfig = field(default_factory=HostMachineConfig)
    #: Depth of each worker's mailbox from the dispatcher. Vanilla
    #: Shinjuku dispatches one request per idle worker at a time.
    worker_mailbox_depth: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("need at least one worker")


@dataclass(frozen=True)
class ShinjukuOffloadConfig:
    """Shinjuku-Offload (§3.4): dispatcher on the SmartNIC ARM cores."""

    workers: int = 4
    #: Target requests kept outstanding per worker, including the one
    #: executing (§3.4.5's queuing optimization). 1 disables it.
    outstanding_per_worker: int = 4
    preemption: PreemptionConfig = field(default_factory=PreemptionConfig)
    host: HostMachineConfig = field(default_factory=HostMachineConfig)
    nic: StingrayConfig = field(default_factory=StingrayConfig)
    worker_costs: OffloadWorkerCosts = field(default_factory=OffloadWorkerCosts)

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("need at least one worker")
        if self.outstanding_per_worker < 1:
            raise ConfigError("outstanding_per_worker must be >= 1")


def replace(config, **changes):
    """Dataclass ``replace`` re-export with a friendlier error."""
    try:
        return dataclasses.replace(config, **changes)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
