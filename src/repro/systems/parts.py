"""Composable wiring parts shared by the served systems.

Before this module existed every ``systems/*.py`` file hand-wired the
same plumbing: host-machine construction, worker-pool spawning with
context costs and optional preemption, the 5-tuple the steering
hardware hashes, the run-to-completion request tail, and — twice,
line-for-line — the whole Shinjuku networker/dispatcher/mailbox
pipeline.  Each part here is that plumbing pulled up once, so a
concrete system declares *what* it composes instead of re-implementing
*how*:

- :func:`build_host_machine` / :func:`spawn_worker_pool` — hardware
  and worker-core provisioning from a :class:`HostMachineConfig`;
- :func:`deferred` — the "charge a hop latency, or act immediately at
  zero" idiom of every inter-thread handoff;
- :func:`service_flow` — the UDP 5-tuple RSS/Flow-Director hash input;
- :func:`run_to_completion` / :func:`fifo_worker_loop` — the
  dataplane request tail (packet parse, execute, respond);
- :class:`HostShinjukuPipeline` — a complete §4.1 host pipeline
  (networker + centralized dispatcher + mailbox-fed workers), used
  once by :class:`~repro.systems.shinjuku.ShinjukuSystem` and D times
  by :class:`~repro.systems.sharded_shinjuku.ShardedShinjukuSystem`.

Everything here is order-preserving with respect to the hand-wired
code it replaced: same thread-allocation sequence, same process spawn
order, same generator structure — the registry differential suite
holds the composition to bit-identical :class:`RunMetrics`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.config import HostMachineConfig, PreemptionConfig
from repro.core.policy import CentralizedFifoPolicy, SchedulingPolicy
from repro.core.preemption import PreemptionDriver
from repro.core.queuing import OutstandingTracker
from repro.hw.cpu import HostMachine
from repro.net.addressing import FiveTuple
from repro.runtime.context import ContextCosts
from repro.runtime.request import Request
from repro.runtime.taskqueue import TaskQueue
from repro.runtime.worker import ExecutionOutcome, WorkerCore
from repro.sim.primitives import Signal, Store
from repro.systems.base import NotifyMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.collector import MetricsCollector
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer
    from repro.systems.base import BaseSystem

#: IANA protocol number for UDP (what the steering hardware hashes).
PROTO_UDP = 17
#: The service's IP as it appears in the hashed 5-tuple.
SERVICE_IP = 0x0A00000A
#: The service's UDP port.
SERVICE_PORT = 9000


def deferred(sim: "Simulator", delay_ns: float,
             fn: Callable[..., None], *args) -> None:
    """Run ``fn(*args)`` after *delay_ns*; immediately when zero.

    The standard inter-thread/inter-core handoff: a positive hop cost
    becomes a scheduled callback, a zero hop stays synchronous so it
    adds no kernel event.  Passing the arguments through (rather than
    closing over them) lets hot callers reuse one bound method instead
    of allocating a closure per message.
    """
    if delay_ns > 0:
        sim.defer(delay_ns, fn, *args)
    else:
        fn(*args)


def make_context_costs(costs) -> ContextCosts:
    """The worker context-switch cost triple from a host cost block."""
    return ContextCosts(
        spawn_ns=costs.context_spawn_ns,
        save_ns=costs.context_save_ns,
        restore_ns=costs.context_restore_ns)


def build_host_machine(sim: "Simulator",
                       host: HostMachineConfig) -> HostMachine:
    """The x86 host server a system runs its workers on."""
    return HostMachine(
        sim, sockets=host.sockets,
        cores_per_socket=host.cores_per_socket,
        clock_ghz=host.clock_ghz,
        smt=host.threads_per_core)


def spawn_worker_pool(sim: "Simulator", machine: HostMachine, count: int,
                      costs, preemption: Optional[PreemptionConfig] = None,
                      name_prefix: str = "worker",
                      first_worker_id: int = 0) -> List[WorkerCore]:
    """Allocate one dedicated physical core per worker and wrap it.

    ``preemption`` attaches a :class:`PreemptionDriver` per worker when
    enabled; pass None for run-to-completion systems (and for
    NIC-driven preemption, where the scanner interrupts workers
    itself).
    """
    context_costs = make_context_costs(costs)
    workers: List[WorkerCore] = []
    for i in range(count):
        thread = machine.allocate_dedicated_core(f"{name_prefix}{i}")
        driver = None
        if preemption is not None and preemption.enabled:
            driver = PreemptionDriver(thread, preemption)
        workers.append(WorkerCore(
            sim, worker_id=first_worker_id + i, thread=thread,
            context_costs=context_costs, preemption=driver))
    return workers


def service_flow(request: Request) -> FiveTuple:
    """The UDP 5-tuple steering hardware hashes for *request*."""
    return FiveTuple(src_ip=request.src_ip, dst_ip=SERVICE_IP,
                     src_port=request.src_port, dst_port=SERVICE_PORT,
                     protocol=PROTO_UDP)


def run_to_completion(system: "BaseSystem", worker: WorkerCore,
                      request: Request):
    """The run-to-completion request tail every dataplane shares.

    Per-request packet processing (no dispatcher), execution, and the
    client response — charged to the worker's own core, exactly as the
    RSS/MICA/ZygOS designs do.  Returns the
    :class:`~repro.runtime.worker.ExecutionOutcome`: a FAILED episode
    (worker crashed) hands the orphan to the system's failover hook
    instead of responding; a SKIPPED one (request already reaped)
    responds to nobody.
    """
    thread = worker.thread
    costs = system.costs
    yield thread.execute(costs.networker_pkt_ns)
    yield thread.execute(costs.worker_rx_ns)
    outcome = yield from worker.run_request(request)
    if outcome is ExecutionOutcome.FINISHED:
        yield thread.execute(costs.worker_response_tx_ns)
        system.respond(request)
    elif outcome is ExecutionOutcome.FAILED:
        system.worker_failed(worker, request)
    return outcome


def drain_crashed_worker(system: "BaseSystem", worker: WorkerCore,
                         queue) -> None:
    """Hand every request stranded in a dead worker's queue to failover.

    Accepts either a :class:`~repro.sim.primitives.Store` or a
    :class:`~repro.runtime.taskqueue.TaskQueue`.
    """
    take = getattr(queue, "try_get", None)
    if take is None:
        take = queue.try_dequeue
    while True:
        ok, request = take()
        if not ok:
            return
        system.worker_failed(worker, request)


def fifo_worker_loop(system: "BaseSystem", worker: WorkerCore, queue: Store):
    """Blocking-FIFO worker loop over a per-core queue."""
    while True:
        worker.begin_wait()
        request = yield queue.get()
        worker.end_wait()
        yield from run_to_completion(system, worker, request)
        if worker.crashed:
            drain_crashed_worker(system, worker, queue)
            return


class HostShinjukuPipeline:
    """One §4.1 host Shinjuku pipeline over a worker subset.

    Owns the networker/dispatcher hyperthread pair (pinned to one
    physical core), the RX ring, the centralized task queue, per-worker
    mailboxes, the outstanding-credit tracker, and the three process
    loops.  The unsharded system instantiates exactly one; the sharded
    system instantiates one per shard over its worker partition.
    """

    RX_RING_DEPTH = 4096

    def __init__(self, sim: "Simulator", machine: HostMachine, costs,
                 respond: Callable[[Request], None], name: str,
                 policy: Optional[SchedulingPolicy] = None,
                 mailbox_depth: int = 1,
                 rx_ring_depth: int = RX_RING_DEPTH,
                 tracer: Optional["Tracer"] = None,
                 tracer_scope: Optional[str] = None,
                 on_drop: Optional[Callable[[Request], None]] = None,
                 metrics: Optional["MetricsCollector"] = None):
        self.sim = sim
        self.costs = costs
        self.respond = respond
        self.on_drop = on_drop
        self.name = name
        #: This pipeline's metric scope (a child of the owning system's
        #: host scope) — per-shard breakdowns for sharded systems.  The
        #: roll-up deduplicates workers, so registering the subset here
        #: on top of the host-level registration never double-counts.
        self.metrics = metrics
        self.policy = policy if policy is not None else CentralizedFifoPolicy()
        self.tracer = tracer
        self.tracer_scope = tracer_scope if tracer_scope is not None else name
        self.mailbox_depth = mailbox_depth
        # §4.1 pinning: networker + dispatcher share one physical core.
        self.networker_thread = machine.allocate_thread(f"{name}-networker")
        self.dispatcher_thread = machine.allocate_thread(
            f"{name}-dispatcher", share_core_with=self.networker_thread)
        self.rx_ring: Store = Store(sim, capacity=rx_ring_depth,
                                    name=f"{name}-rxring")
        self.ingest: Store = Store(sim, name=f"{name}-ingest")
        self.notifications: Store = Store(sim, name=f"{name}-notify")
        self.task_queue = TaskQueue(sim, name=f"{name}-taskq")
        self.work_signal = Signal(sim, name=f"{name}-work")
        self.workers: List[WorkerCore] = []
        self.mailboxes: List[Store] = []
        self.tracker = OutstandingTracker(n_workers=1, target=mailbox_depth)
        #: Requests this pipeline has dispatched (imbalance statistic).
        self.dispatched = 0

    def attach_workers(self, workers: Sequence[WorkerCore]) -> None:
        """Bind the worker subset this pipeline dispatches to."""
        self.workers = list(workers)
        if self.metrics is not None:
            self.metrics.attach_workers(self.workers)
        self.mailboxes = [
            Store(self.sim, capacity=self.mailbox_depth,
                  name=f"{self.name}-mbox{i}")
            for i in range(len(self.workers))]
        self.tracker = OutstandingTracker(
            n_workers=len(self.workers), target=self.mailbox_depth)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Spawn the networker, dispatcher, and worker processes."""
        sim = self.sim
        sim.process(self._networker_loop(), label=f"{self.name}-networker")
        sim.process(self._dispatcher_loop(), label=f"{self.name}-dispatcher")
        for local_id, worker in enumerate(self.workers):
            process = sim.process(
                self._worker_loop(local_id, worker),
                label=f"{self.name}-worker{local_id}")
            worker.attach_process(process)

    # -- ingress -------------------------------------------------------------------

    def submit(self, request: Request) -> bool:
        """Offer *request* to the RX ring; False when the ring is full."""
        return self.rx_ring.try_put(request)

    # -- the networking subsystem --------------------------------------------------

    def _networker_loop(self):
        hop = self.costs.interthread_hop_ns
        sim = self.sim
        rx_get = self.rx_ring.get
        thread = self.networker_thread
        pkt_ns = self.costs.networker_pkt_ns
        arrive = self._ingest_arrive
        while True:
            request = yield rx_get()
            thread.busy_ns += pkt_ns
            yield pkt_ns
            request.stamp("networker_done", sim.now)
            deferred(sim, hop, arrive, request)

    def _ingest_arrive(self, request: Request) -> None:
        self.ingest.try_put(request)
        self.work_signal.fire()

    # -- the dispatcher ------------------------------------------------------------

    def _dispatcher_loop(self):
        """One thread serializes: notifications, dispatch, then ingest.

        Priority order matters under overload: worker notifications
        free credits and dispatches keep workers fed; new arrivals can
        wait in the networker handoff.  Ingesting first would let an
        arrival flood starve dispatching and collapse goodput.
        """
        op = self.costs.dispatcher_op_ns
        thread = self.dispatcher_thread
        notif_get = self.notifications.try_get
        ingest_get = self.ingest.try_get
        task_queue = self.task_queue
        # The underlying containers never get reassigned, so their
        # truthiness is a call-free emptiness test.
        tq_fifo = task_queue._fifo
        tq_heap = task_queue._heap
        tracker = self.tracker
        # The default policy ignores the queue head and just asks the
        # tracker; skip the delegation (and the peek) on the hot path.
        if type(self.policy) is CentralizedFifoPolicy:
            select = tracker.select
        else:
            select_worker = self.policy.select_worker
            peek = task_queue.peek
            select = lambda: select_worker(tracker, peek())
        wait = self.work_signal.wait
        while True:
            ok, message = notif_get()
            if ok:
                thread.busy_ns += op
                yield op
                self._handle_notification(message)
                continue
            if (tq_fifo or tq_heap) and \
                    (worker_id := select()) is not None:
                ok, request = task_queue.try_dequeue()
                assert ok and request is not None
                thread.busy_ns += op
                yield op
                self._dispatch(request, worker_id)
                continue
            ok, request = ingest_get()
            if ok:
                thread.busy_ns += op
                yield op
                self._enqueue(request)
                continue
            yield wait()

    def _enqueue(self, request: Request) -> None:
        accepted = self.task_queue.enqueue(request)
        if not accepted and self.on_drop is not None:
            self.on_drop(request)

    def _handle_notification(self, message: NotifyMessage) -> None:
        self.tracker.debit(message.worker_id)
        if message.outcome == "preempted":
            # Tail of the centralized queue (§3.4.1 semantics).
            self._enqueue(message.request)
        # "finished" and "cancelled" only release the credit.

    def _dispatch(self, request: Request, worker_id: int) -> None:
        self.tracker.credit(worker_id)
        request.stamp("dispatched", self.sim.now)
        self.dispatched += 1
        deferred(self.sim, self.costs.interthread_hop_ns,
                 self.mailboxes[worker_id].try_put, request)
        if self.tracer is not None:
            self.tracer.emit(self.tracer_scope, "dispatch",
                             request=request.request_id, worker=worker_id)

    # -- workers -------------------------------------------------------------------

    def _worker_loop(self, local_id: int, worker: WorkerCore):
        mailbox = self.mailboxes[local_id]
        thread = worker.thread
        mailbox_get = mailbox.get
        run_request = worker.run_request
        rx_ns = self.costs.worker_rx_ns
        response_tx_ns = self.costs.worker_response_tx_ns
        notify_ns = self.costs.worker_notify_ns
        while True:
            worker.begin_wait()
            request = yield mailbox_get()
            worker.end_wait()
            thread.busy_ns += rx_ns
            yield rx_ns
            outcome = yield from run_request(request)
            if worker.crashed:
                # Dead core: orphan the episode (no notify — the credit
                # stays consumed, which is fine since the tracker also
                # marks the worker down) and stop the loop.
                self.tracker.mark_down(local_id)
                if outcome is ExecutionOutcome.FAILED:
                    injector = self.sim.fault_injector
                    if injector is not None:
                        injector.handle_worker_failure(worker, request)
                return
            if outcome is ExecutionOutcome.FINISHED:
                thread.busy_ns += response_tx_ns
                yield response_tx_ns
                self.respond(request)
                thread.busy_ns += notify_ns
                yield notify_ns
                self._notify(local_id, "finished", request)
            elif outcome is ExecutionOutcome.SKIPPED:
                # Already reaped while queued: just release the credit.
                thread.busy_ns += notify_ns
                yield notify_ns
                self._notify(local_id, "cancelled", request)
            else:
                thread.busy_ns += notify_ns
                yield notify_ns
                self._notify(local_id, "preempted", request)

    def _notify(self, worker_id: int, outcome: str, request: Request) -> None:
        message = NotifyMessage(worker_id=worker_id, outcome=outcome,
                                request=request)
        deferred(self.sim, self.costs.interthread_hop_ns,
                 self._notification_arrive, message)

    def _notification_arrive(self, message: NotifyMessage) -> None:
        self.notifications.try_put(message)
        self.work_signal.fire()
