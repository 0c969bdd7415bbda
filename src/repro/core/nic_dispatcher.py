"""The on-NIC dispatcher pipeline (§3.4.1).

"Due to the high overhead of constructing and sending packets, the
dispatcher's functionality is split across three ARM cores.  One core
is dedicated to managing the task queue, enqueuing new and preempted
requests along with dequeuing requests and assigning them to idle
workers.  A second core is dedicated to placing the dequeued requests
into packets and sending the packets to workers.  A third core is
dedicated to polling for response packets from workers and parsing the
responses.  These three cores communicate via shared memory."

:class:`NicDispatcherPipeline` reproduces that structure:

- **queue-manager core** — serializes every enqueue and every
  dequeue+assign at ``queue_op_ns`` each;
- **packet-TX core** — per dispatched request, ``packet_tx_ns`` to
  construct and send the UDP packet to the worker's SR-IOV VF;
- **packet-RX core** — per worker notification, ``packet_rx_ns`` to
  poll and parse; completion notifications release outstanding
  credits, preemption notifications re-enqueue the request at the
  task-queue tail.

The stages are pipelined: the binding stage's per-op cost sets the
dispatcher's throughput ceiling, which is exactly the Figure 6
bottleneck.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.config import ArmCosts
from repro.errors import SchedulingError
from repro.core.policy import CentralizedFifoPolicy, SchedulingPolicy
from repro.core.queuing import OutstandingTracker
from repro.hw.cpu import HardwareThread
from repro.net.addressing import MacAddress
from repro.net.packet import (
    EthernetHeader,
    Ipv4Header,
    NotifyPayload,
    Packet,
    RequestPayload,
    UdpHeader,
)
from repro.net.port import NetworkPort
from repro.runtime.request import Request
from repro.runtime.taskqueue import TaskQueue
from repro.sim.primitives import Signal, Store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator
    from repro.sim.events import Timeout
    from repro.sim.process import Process


class NicDispatcherPipeline:
    """The three-ARM-core dispatcher.

    Parameters
    ----------
    sim:
        Owning simulator.
    threads:
        Exactly three ARM hardware threads: (queue-manager, packet-TX,
        packet-RX).
    costs:
        Per-op ARM costs.
    tracker:
        Outstanding-request credits (the §3.4.5 optimization).
    tx_port:
        ARM-side NIC port used to send requests to workers.
    rx_port:
        ARM-side NIC port workers send notifications to.
    worker_macs:
        ``worker_id -> MAC`` of each worker's SR-IOV VF.
    policy:
        Worker-selection policy (default: the paper's).
    on_drop:
        Called when the bounded task queue rejects a request.
    """

    DST_PORT_WORK = 9000  # UDP port workers listen for work on

    def __init__(self, sim: "Simulator", threads: List[HardwareThread],
                 costs: ArmCosts, tracker: OutstandingTracker,
                 tx_port: NetworkPort, rx_port: NetworkPort,
                 worker_macs: Dict[int, MacAddress],
                 policy: Optional[SchedulingPolicy] = None,
                 queue_capacity: Optional[int] = None,
                 on_drop: Optional[Callable[[Request], None]] = None,
                 on_dispatch: Optional[Callable[[int], None]] = None,
                 on_notify: Optional[Callable[[int], None]] = None):
        if len(threads) != 3:
            raise SchedulingError(
                f"the dispatcher pipeline needs 3 ARM threads, got {len(threads)}")
        self.sim = sim
        self.qm_thread, self.tx_thread, self.rx_thread = threads
        self.costs = costs
        self.tracker = tracker
        self.tx_port = tx_port
        self.rx_port = rx_port
        self.worker_macs = dict(worker_macs)
        self.policy = policy if policy is not None else CentralizedFifoPolicy()
        self.on_drop = on_drop
        #: Hooks for NIC-side observers (e.g. the §3.2-4 preemption
        #: scanner's execution-status estimates).
        self.on_dispatch = on_dispatch
        self.on_notify = on_notify

        self.task_queue = TaskQueue(sim, capacity=queue_capacity,
                                    name="nic-taskq")
        #: Requests handed to the NIC but not yet ingested by the
        #: queue-manager core (shared memory with the networker).
        self._ingest: Store = Store(sim, name="nic-ingest")
        #: Dequeued (request, worker) pairs awaiting packetization.
        self._to_tx: Store = Store(sim, name="nic-to-tx")
        self._work_signal = Signal(sim, name="nic-dispatch-work")
        #: Per-worker cached (eth, ip, udp) header triples for work packets.
        self._work_headers: Dict[int, tuple] = {}
        # -- statistics --------------------------------------------------------
        self.dispatched = 0
        self.completions = 0
        self.preemption_returns = 0
        self._started = False
        self._tx_process: Optional["Process"] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn the three pipeline core processes."""
        if self._started:
            raise SchedulingError("dispatcher pipeline already started")
        self._started = True
        self.sim.process(self._queue_manager_loop(), label="nic-qm")
        self._tx_process = self.sim.process(self._tx_loop(), label="nic-tx")
        self.sim.process(self._rx_loop(), label="nic-rx")

    # -- ingress (called by the networking subsystem) ------------------------------

    def submit(self, request: Request) -> None:
        """Hand a parsed request to the dispatcher (shared memory)."""
        self._ingest.try_put(request)
        self._work_signal.fire()

    # -- the queue-manager core -----------------------------------------------------

    def _queue_manager_loop(self):
        """Dispatch takes priority over ingest.

        Keeping workers fed matters more than draining the networker's
        shared-memory handoff; the reverse order lets an arrival flood
        starve dispatching under overload and collapse goodput.
        """
        op = self.costs.queue_op_ns
        thread = self.qm_thread
        sim = self.sim
        task_queue = self.task_queue
        # The underlying containers never get reassigned, so their
        # truthiness is a call-free emptiness test.
        tq_fifo = task_queue._fifo
        tq_heap = task_queue._srpt
        tracker = self.tracker
        # The default policy ignores the queue head and just asks the
        # tracker; skip the delegation (and the peek) on the hot path.
        if type(self.policy) is CentralizedFifoPolicy:
            select = tracker.select
        else:
            select_worker = self.policy.select_worker
            peek = task_queue.peek
            select = lambda: select_worker(tracker, peek())
        ingest_get = self._ingest.try_get
        wait = self._work_signal.wait
        while True:
            worker_id: Optional[int] = None
            if tq_fifo or tq_heap:
                worker_id = select()
            if worker_id is not None:
                ok, request = task_queue.try_dequeue()
                assert ok and request is not None
                # Dequeue + assign op.
                thread.busy_ns += op
                yield op
                tracker.credit(worker_id)
                request.stamp("dispatched", sim.now)
                self.dispatched += 1
                if self.on_dispatch is not None:
                    self.on_dispatch(worker_id)
                # Shared-memory hop to the packet-TX core.
                self._hand_to_tx(request, worker_id)
                continue
            ok, request = ingest_get()
            if ok:
                # Enqueue op: new or preempted request to the tail.
                thread.busy_ns += op
                yield op
                accepted = task_queue.enqueue(request)
                if not accepted and self.on_drop is not None:
                    self.on_drop(request)
                continue
            yield wait()

    def _hand_to_tx(self, request: Request, worker_id: int) -> None:
        hop = self.costs.intercore_hop_ns
        if hop > 0:
            self.sim.defer(hop, self._to_tx.try_put, (request, worker_id))
        else:
            self._to_tx.try_put((request, worker_id))

    # -- the packet-TX core -----------------------------------------------------------

    def _tx_loop(self):
        """Construct and send worker packets, with DPDK-style batching.

        The TX core buffers up to ``tx_batch_size`` packets and flushes
        when the batch fills or the oldest buffered packet ages past
        ``tx_flush_timeout_ns`` (the rte_eth_tx_buffer + drain-timer
        idiom).  Construction cost is still paid per packet; batching
        only delays the doorbell, so it stretches round trips at low
        outstanding counts without changing peak throughput.
        """
        costs = self.costs
        batch_size = max(1, costs.tx_batch_size)
        flush_timeout = costs.tx_flush_timeout_ns
        sim = self.sim
        thread = self.tx_thread
        tx_ns = costs.packet_tx_ns
        to_tx_get = self._to_tx.get
        flush_due = self._flush_due
        build = self._build_work_packet
        transmit = self.tx_port.transmit
        while True:
            batch = [(yield to_tx_get())]
            if batch_size > 1 and flush_timeout > 0:
                deadline = sim.now + flush_timeout
                while len(batch) < batch_size:
                    remaining = deadline - sim.now
                    if remaining <= 0:
                        break
                    # Wait on the get itself; the flush timer cuts the
                    # wait short if it fires first (see _flush_due).
                    get_ev = to_tx_get()
                    flush = sim.timeout(remaining)
                    flush.callbacks.append(flush_due)
                    yield get_ev
                    # A get that lands at the flush instant, after the
                    # timer but before the wake-up, still joins the batch.
                    if get_ev.triggered:
                        flush.cancel()
                        batch.append(get_ev.value)
                    else:
                        self._to_tx.cancel_get(get_ev)
                        break
            for request, worker_id in batch:
                # Construct + send the UDP packet to the worker's VF.
                thread.busy_ns += tx_ns
                yield tx_ns
                transmit(build(request, worker_id))

    def _flush_due(self, _flush: "Timeout") -> None:
        """The flush deadline beat the next packet: wake the TX core.

        Costs one schedule push at the deadline (the relay event
        ``cut_wait`` triggers).  The timer is cancelled whenever the get
        wins, so this only runs when the timer fires first.
        """
        assert self._tx_process is not None
        self._tx_process.cut_wait()

    def _build_work_packet(self, request: Request, worker_id: int) -> Packet:
        # Headers are invariant per worker; frozen dataclasses are safe
        # to share across packets and expensive to rebuild per send.
        headers = self._work_headers.get(worker_id)
        if headers is None:
            dst_mac = self.worker_macs[worker_id]
            src_ip = self.tx_port.ip
            assert src_ip is not None, "dispatcher tx_port needs an IP"
            headers = (
                EthernetHeader(src=self.tx_port.mac, dst=dst_mac),
                Ipv4Header(src=src_ip, dst=src_ip),  # on-NIC addressing is by MAC
                UdpHeader(src_port=self.DST_PORT_WORK,
                          dst_port=self.DST_PORT_WORK))
            self._work_headers[worker_id] = headers
        eth, ip, udp = headers
        return Packet(eth=eth, ip=ip, udp=udp,
                      payload=RequestPayload(request=request),
                      payload_bytes=request.size_bytes)

    # -- the packet-RX core ------------------------------------------------------------

    def _rx_loop(self):
        rx_ns = self.costs.packet_rx_ns
        thread = self.rx_thread
        poll = self.rx_port.poll
        debit = self.tracker.debit
        fire = self._work_signal.fire
        while True:
            packet = yield poll()
            # Poll + parse the notification.
            thread.busy_ns += rx_ns
            yield rx_ns
            payload = packet.payload
            if not isinstance(payload, NotifyPayload):
                raise SchedulingError(
                    f"dispatcher rx port got a non-notify packet: {packet!r}")
            debit(payload.worker_id)
            if self.on_notify is not None:
                self.on_notify(payload.worker_id)
            if payload.outcome == "preempted":
                self.preemption_returns += 1
                # Back to the tail of the centralized queue (§3.4.1).
                self._ingest.try_put(payload.request)
            elif payload.outcome == "cancelled":
                # The worker skipped a request reaped while queued; the
                # debit above released its credit — nothing completed.
                pass
            else:
                self.completions += 1
            fire()

    # -- diagnostics -------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests waiting in the central task queue."""
        return len(self.task_queue)

    def __repr__(self) -> str:
        return (f"<NicDispatcherPipeline dispatched={self.dispatched} "
                f"queue={len(self.task_queue)} "
                f"outstanding={self.tracker.total}>")
