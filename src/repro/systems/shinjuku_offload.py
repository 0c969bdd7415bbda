"""Shinjuku-Offload: the paper's prototype (§3.4).

"The Shinjuku networking subsystem and dispatcher run on the ARM cores
in the Broadcom Stingray SmartNIC and the workers run on the x86 server
host cores."

Figure 1's packet path, reproduced step for step:

❶ a packet arrives at the SmartNIC and is steered (by MAC) to the ARM
   networking subsystem; ❷ the networker parses it and passes the
   request to the dispatcher through shared memory; ❸ the dispatcher
   (three ARM cores, :class:`~repro.core.nic_dispatcher.NicDispatcherPipeline`)
   assigns it to a worker and sends it through the Stingray fabric to
   the worker's SR-IOV virtual function; ❹ if the worker does not
   finish within the time slice, the local-APIC timer preempts it;
   ❺ the worker notifies the dispatcher — and, when finished, also
   sends the response to the client.

The queuing optimization (§3.4.5) is the ``outstanding_per_worker``
credit target in the dispatcher's :class:`~repro.core.queuing.OutstandingTracker`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.config import ShinjukuOffloadConfig
from repro.core.feedback import CoreStatusBoard
from repro.core.nic_dispatcher import NicDispatcherPipeline
from repro.core.nic_scan import NicPreemptionScanner
from repro.core.policy import SchedulingPolicy
from repro.core.queuing import OutstandingTracker
from repro.errors import ConfigError
from repro.hw.cache import DdioModel
from repro.hw.cpu import CpuCore
from repro.hw.smartnic import FabricDomain, StingraySmartNic
from repro.metrics.collector import MetricsCollector
from repro.net.addressing import IpAddress, MacAddress, mac_allocator
from repro.net.packet import (
    EthernetHeader,
    Ipv4Header,
    NotifyPayload,
    Packet,
    RequestPayload,
    ResponsePayload,
    UdpHeader,
)
from repro.runtime.request import Request
from repro.runtime.worker import ExecutionOutcome, WorkerCore
from repro.sim.rng import RngRegistry
from repro.systems.base import BaseSystem, DEFAULT_CLIENT_WIRE_NS
from repro.systems.parts import build_host_machine, spawn_worker_pool
from repro.systems.registry import register_system

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer

#: UDP port the service listens on.
SERVICE_PORT = 9000


@register_system(
    "shinjuku-offload", config=ShinjukuOffloadConfig,
    description="the paper's prototype: Shinjuku networker + "
                "dispatcher on Stingray ARM cores, workers on host x86")
class ShinjukuOffloadSystem(BaseSystem):
    """Shinjuku with networking subsystem + dispatcher on the SmartNIC."""

    name = "shinjuku-offload"

    def __init__(self, sim: "Simulator", rngs: RngRegistry,
                 metrics: MetricsCollector,
                 config: Optional[ShinjukuOffloadConfig] = None,
                 policy: Optional[SchedulingPolicy] = None,
                 client_wire_ns: float = DEFAULT_CLIENT_WIRE_NS,
                 ddio: Optional[DdioModel] = None,
                 tracer: Optional["Tracer"] = None):
        super().__init__(sim, rngs, metrics, client_wire_ns, tracer)
        self.config = config = (config if config is not None
                                else ShinjukuOffloadConfig())
        #: Optional DDIO payload-placement model (§5.2).  When set, the
        #: worker pays a first-touch cost that depends on where the NIC
        #: placed the payload — which in turn depends on how many
        #: requests the NIC already has in flight at that core.
        self.ddio = ddio
        arm_needed = 4  # networker + queue-manager + packet-TX + packet-RX
        if config.nic.arm_cores < arm_needed:
            raise ConfigError(
                f"need {arm_needed} ARM cores, NIC has {config.nic.arm_cores}")
        # -- hardware -------------------------------------------------------------
        self._macs = mac_allocator()
        self.nic = StingraySmartNic(sim, config.nic, macs=self._macs)
        self.nic.attach_uplink(self._uplink_egress)
        self.machine = build_host_machine(sim, config.host)
        # ARM cores (no SMT on the A72 cluster).
        self._arm_cores = [
            CpuCore(sim, f"arm{i}", config.nic.arm_clock_ghz, smt=1)
            for i in range(config.nic.arm_cores)]
        arm_threads = [core.threads[0] for core in self._arm_cores]
        self.networker_thread = arm_threads[0]
        dispatcher_threads = arm_threads[1:4]
        # -- NIC-side ports ----------------------------------------------------------
        service_ip = IpAddress.parse("10.0.0.10")
        #: Externally visible service interface (clients address this MAC).
        self.service_port = self.nic.create_port(
            FabricDomain.ARM, "networker", ip=service_ip)
        self.dispatch_tx_port = self.nic.create_port(
            FabricDomain.ARM, "dispatch-tx", ip=service_ip)
        self.notify_port = self.nic.create_port(
            FabricDomain.ARM, "dispatch-rx", ip=service_ip)
        #: One SR-IOV VF per worker (§3.4.2).
        self.worker_ports = [
            self.nic.create_port(FabricDomain.HOST, f"vf{i}",
                                 ip=IpAddress.parse(f"10.0.1.{i + 1}"))
            for i in range(config.workers)]
        # -- pseudo-client endpoint (for addressing responses) -------------------------
        self.client_mac: MacAddress = next(self._macs)
        self.client_ip = IpAddress.parse("10.0.2.1")
        # Cached header objects for the three hot packet paths: frozen
        # dataclasses are immutable, so one instance per (src, dst) pair
        # serves every packet on that path.
        self._ingress_headers = (
            EthernetHeader(src=self.client_mac, dst=self.service_port.mac),
            Ipv4Header(src=self.client_ip, dst=self.service_port.ip))
        self._response_headers = {
            port: (EthernetHeader(src=port.mac, dst=self.client_mac),
                   Ipv4Header(src=port.ip, dst=self.client_ip))
            for port in self.worker_ports}
        self._notify_headers = {
            port: (EthernetHeader(src=port.mac, dst=self.notify_port.mac),
                   Ipv4Header(src=port.ip, dst=self.notify_port.ip),
                   UdpHeader(src_port=SERVICE_PORT, dst_port=SERVICE_PORT))
            for port in self.worker_ports}
        # -- workers ---------------------------------------------------------------------
        #: NIC-driven preemption (mechanism "nic_scan"): workers carry
        #: no local timer; the NIC tracks execution status and sends
        #: interrupts itself (§3.2-4).
        nic_driven = (config.preemption.enabled
                      and config.preemption.mechanism == "nic_scan")
        self.workers: List[WorkerCore] = spawn_worker_pool(
            sim, self.machine, config.workers, config.host.costs,
            preemption=(None if nic_driven else config.preemption))
        # -- the dispatcher pipeline ---------------------------------------------------------
        self.tracker = OutstandingTracker(
            n_workers=config.workers, target=config.outstanding_per_worker)
        worker_macs: Dict[int, MacAddress] = {
            i: port.mac for i, port in enumerate(self.worker_ports)}
        self.status_board: Optional[CoreStatusBoard] = None
        self.scanner: Optional[NicPreemptionScanner] = None
        if nic_driven:
            self.status_board = CoreStatusBoard(sim, n_workers=config.workers)
            assert config.preemption.time_slice_ns is not None
            self.scanner = NicPreemptionScanner(
                sim, self.status_board, self.workers,
                time_slice_ns=config.preemption.time_slice_ns,
                delivery_latency_ns=config.nic.one_way_latency_ns,
                one_way_latency_ns=config.nic.one_way_latency_ns)
        self.dispatcher = NicDispatcherPipeline(
            sim, threads=dispatcher_threads, costs=config.nic.costs,
            tracker=self.tracker, tx_port=self.dispatch_tx_port,
            rx_port=self.notify_port, worker_macs=worker_macs,
            policy=policy, on_drop=self.drop,
            on_dispatch=(self.scanner.note_dispatch if self.scanner else None),
            on_notify=(self.scanner.note_notify if self.scanner else None),
            tracer=tracer)

    # -- lifecycle ---------------------------------------------------------------------------

    def _start(self) -> None:
        self.dispatcher.start()
        if self.scanner is not None:
            self.scanner.start()
        self.sim.process(self._networker_loop(), label="offload-networker")
        for worker in self.workers:
            process = self.sim.process(
                self._worker_loop(worker),
                label=f"offload-worker{worker.worker_id}")
            worker.attach_process(process)

    # -- ingress: client -> external wire -> NIC (Figure 1 step ❶) ------------------------------

    def _server_ingress(self, request: Request) -> None:
        request.stamp("nic_rx", self.sim.now)
        eth, ip = self._ingress_headers
        packet = Packet(
            eth=eth, ip=ip,
            udp=UdpHeader(src_port=request.src_port, dst_port=SERVICE_PORT),
            payload=RequestPayload(request=request),
            payload_bytes=request.size_bytes)
        self.nic.external_ingress(packet)

    # -- the ARM networking subsystem (Figure 1 step ❷) ------------------------------------------

    def _networker_loop(self):
        costs = self.config.nic.costs
        pkt_ns = costs.networker_pkt_ns
        hop = costs.intercore_hop_ns
        sim = self.sim
        defer = sim.defer
        thread = self.networker_thread
        poll = self.service_port.poll
        submit = self.dispatcher.submit
        while True:
            packet = yield poll()
            thread.busy_ns += pkt_ns
            yield pkt_ns
            payload = packet.payload
            assert isinstance(payload, RequestPayload)
            request = payload.request
            request.stamp("networker_done", sim.now)
            # Shared memory to the dispatcher's queue-manager core.
            if hop > 0:
                defer(hop, submit, request)
            else:
                submit(request)
            if self.tracer is not None:
                self.tracer.emit(self.name, "networker",
                                 request=request.request_id)

    # -- workers (Figure 1 steps ❸-❺) -----------------------------------------------------------

    def _worker_loop(self, worker: WorkerCore):
        port = self.worker_ports[worker.worker_id]
        thread = worker.thread
        costs = self.config.worker_costs
        rx_parse_ns = costs.rx_parse_ns
        response_tx_ns = costs.response_tx_ns
        notify_tx_ns = costs.notify_tx_ns
        poll = port.poll
        run_request = worker.run_request
        worker_id = worker.worker_id
        while True:
            worker.begin_wait()
            packet = yield poll()
            worker.end_wait()
            thread.busy_ns += rx_parse_ns
            yield rx_parse_ns
            payload = packet.payload
            assert isinstance(payload, RequestPayload)
            request = payload.request
            if self.ddio is not None:
                # The placement the NIC chose when it DMA'd the payload:
                # informed by how many requests it already had
                # outstanding at this core (§5.2's safety argument).
                in_flight = max(
                    0, self.tracker.outstanding(worker_id) - 1)
                level = self.ddio.place(in_flight_at_core=in_flight)
                yield thread.execute(
                    self.ddio.read_cost_ns(request.size_bytes, level))
            outcome = yield from run_request(request)
            if worker.crashed:
                # Dead core: no response, no notify — the orphan goes
                # to failover and the dispatcher stops steering here.
                self.tracker.mark_down(worker.worker_id)
                if outcome is ExecutionOutcome.FAILED:
                    self.worker_failed(worker, request)
                return
            if outcome is ExecutionOutcome.FINISHED:
                thread.busy_ns += response_tx_ns
                yield response_tx_ns
                self._send_response(port, request)
                thread.busy_ns += notify_tx_ns
                yield notify_tx_ns
                self._send_notify(port, worker_id, "finished", request)
            elif outcome is ExecutionOutcome.SKIPPED:
                # Reaped while queued: release the credit, nothing ran.
                thread.busy_ns += notify_tx_ns
                yield notify_tx_ns
                self._send_notify(port, worker_id, "cancelled", request)
            else:
                # Preempted: the request travels back to the dispatcher
                # inside the notification (§3.4.5).
                thread.busy_ns += notify_tx_ns
                yield notify_tx_ns
                self._send_notify(port, worker_id, "preempted", request)

    def _send_response(self, port, request: Request) -> None:
        eth, ip = self._response_headers[port]
        packet = Packet(
            eth=eth, ip=ip,
            udp=UdpHeader(src_port=SERVICE_PORT, dst_port=request.src_port),
            payload=ResponsePayload(request=request),
            payload_bytes=request.size_bytes)
        port.transmit(packet)

    def _send_notify(self, port, worker_id: int, outcome: str,
                     request: Request) -> None:
        eth, ip, udp = self._notify_headers[port]
        packet = Packet(
            eth=eth, ip=ip, udp=udp,
            payload=NotifyPayload(request=request, worker_id=worker_id,
                                  outcome=outcome),
            payload_bytes=32)
        port.transmit(packet)

    # -- uplink egress: responses leave the NIC toward the client --------------------------------

    def _uplink_egress(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, ResponsePayload):
            self.respond(payload.request)
            return
        # Anything else leaving the NIC is unexpected in this topology.
        if self.tracer is not None:
            self.tracer.emit(self.name, "unexpected_egress",
                             packet=packet.packet_id)
