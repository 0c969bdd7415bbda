"""Executes a :class:`~repro.faults.plan.FaultPlan` against a system.

The :class:`FaultInjector` is the single runtime authority for faults:
the Stingray fabric asks it for a verdict on every packet hop, feedback
channels ask it about update loss and staleness, worker cores ask it
for stall penalties and straggler factors, and it schedules the plan's
crashes itself.  All randomness comes from two sanctioned registry
streams — ``faults.link`` and ``faults.feedback`` — created only when
the corresponding fault class is active, so a null or partial plan
draws nothing and perturbs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryManager, StalenessFallbackPolicy
from repro.metrics.summary import FaultSummary
from repro.net.packet import NotifyPayload, RequestPayload, ResponsePayload
from repro.runtime.request import Request, RequestState
from repro.runtime.taskqueue import TaskQueue
from repro.sim.primitives import Store
from repro.sim.rng import RngRegistry
from repro.units import SEC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.collector import MetricsCollector
    from repro.net.packet import Packet
    from repro.runtime.worker import WorkerCore
    from repro.sim.engine import Simulator
    from repro.systems.base import BaseSystem

#: Request states from which no fault action makes sense.
_TERMINAL = (RequestState.COMPLETED, RequestState.DROPPED)


@dataclass
class FaultCounters:
    """Mutable tally of every fault injected and recovery attempted."""

    link_drops: int = 0
    link_corruptions: int = 0
    link_reorders: int = 0
    feedback_lost: int = 0
    feedback_stale: int = 0
    worker_crashes: int = 0
    worker_stalls: int = 0
    retries: int = 0
    retry_successes: int = 0
    timeouts: int = 0
    failovers: int = 0
    failover_successes: int = 0
    stale_fallbacks: int = 0
    #: Completions that needed at least one retry or failover.
    assisted_completions: int = 0

    def summarize(self, dropped_by_reason: Dict[str, int],
                  completed_in_window: int,
                  window_ns: float) -> FaultSummary:
        """Fold the tally into the frozen end-of-run summary record."""
        clean = max(0, completed_in_window - self.assisted_completions)
        goodput = (clean / window_ns * SEC) if window_ns > 0 else 0.0
        return FaultSummary(
            link_drops=self.link_drops,
            link_corruptions=self.link_corruptions,
            link_reorders=self.link_reorders,
            feedback_lost=self.feedback_lost,
            feedback_stale=self.feedback_stale,
            worker_crashes=self.worker_crashes,
            worker_stalls=self.worker_stalls,
            drops_overflow=dropped_by_reason.get("overflow", 0),
            drops_fault=dropped_by_reason.get("fault", 0),
            drops_timeout=dropped_by_reason.get("timeout", 0),
            retries=self.retries,
            retry_successes=self.retry_successes,
            timeouts=self.timeouts,
            failovers=self.failovers,
            failover_successes=self.failover_successes,
            stale_fallbacks=self.stale_fallbacks,
            goodput_rps=goodput,
        )


class FaultInjector:
    """Runs one :class:`FaultPlan` deterministically against a system.

    Parameters
    ----------
    sim:
        Owning simulator; :meth:`attach` publishes the injector on it
        as ``sim.fault_injector`` so dataplane hooks find it without
        new plumbing through every constructor.
    rngs:
        The run's registry; fault draws use the ``faults.*`` streams.
    plan:
        The scenario to execute.
    metrics:
        Run collector; gains the live :class:`FaultCounters` so the
        final :class:`~repro.metrics.summary.RunMetrics` carries a
        fault summary.
    """

    def __init__(self, sim: "Simulator", rngs: RngRegistry, plan: FaultPlan,
                 metrics: Optional["MetricsCollector"] = None):
        self.sim = sim
        self.rngs = rngs
        self.plan = plan
        self.metrics = metrics
        self.counters = FaultCounters()
        self.system: Optional["BaseSystem"] = None
        self.recovery: Optional[RecoveryManager] = None
        #: Hot-path flags the dataplane checks before calling in.
        self.link_active = plan.link.active
        self.feedback_active = plan.feedback.active
        # Streams exist only when their fault class can draw, so an
        # inactive class leaves the registry untouched (bit-identity).
        self._link_rng = (rngs.stream("faults.link")
                         if self.link_active else None)
        self._feedback_rng = (rngs.stream("faults.feedback")
                              if plan.feedback.loss_prob > 0 else None)

    # -- wiring ------------------------------------------------------------

    def attach(self, system: "BaseSystem") -> None:
        """Bind to *system* and arm every scheduled fault.

        Validates worker ids against the system's pool, tightens task
        queues, schedules crash events, installs the recovery manager
        (when the plan opts in), and wraps the dispatcher policy with
        the staleness detector where the system exposes a status board.
        """
        self.system = system
        self.sim.fault_injector = self
        if self.metrics is not None:
            self.metrics.fault_counters = self.counters
        n = len(system.workers)
        for worker_id, _at in self.plan.workers.crashes:
            if worker_id >= n:
                raise ConfigError(
                    f"crash worker {worker_id} out of range (system has "
                    f"{n} workers)")
        for worker_id, _s, _d in (self.plan.workers.stalls
                                  + self.plan.workers.stragglers):
            if worker_id >= n:
                raise ConfigError(
                    f"stall/straggler worker {worker_id} out of range "
                    f"(system has {n} workers)")
        if self.plan.queues.capacity is not None:
            self._restrict_queues(system, self.plan.queues.capacity)
        for worker_id, at_ns in self.plan.workers.crashes:
            self.sim.defer_at(max(at_ns, self.sim.now),
                              self._crash, worker_id)
        if self.plan.recovery.active:
            self.recovery = RecoveryManager(
                self.sim, system, self.plan.recovery, self.counters,
                metrics=self.metrics)
            system.recovery = self.recovery
        if self.plan.recovery.staleness_threshold_ns > 0:
            board = getattr(system, "status_board", None)
            dispatcher = getattr(system, "dispatcher", None)
            if board is not None and dispatcher is not None:
                dispatcher.policy = StalenessFallbackPolicy(
                    self.sim, dispatcher.policy, board,
                    self.plan.recovery.staleness_threshold_ns,
                    counters=self.counters)

    def _restrict_queues(self, system: "BaseSystem", capacity: int) -> None:
        """Tighten every *work* queue reachable from *system*.

        Deterministic walk (sorted attribute names, bounded depth,
        repro-package objects only) mirroring the sanitizer's queue
        discovery, so both always find the same queues.  Work queues
        are every :class:`TaskQueue`, plus :class:`Store` lists bound
        to an attribute literally named ``queues`` (the static-steered
        per-worker queues, whose ``try_put`` callers all have a drop
        path).  Handoff buffers — RX rings, ingest/notification stores,
        mailboxes — are never touched: their producers do not expect
        rejection.
        """
        seen = set()

        def restrict_store(store) -> None:
            if isinstance(store, Store) and (store.capacity is None
                                             or capacity < store.capacity):
                store.capacity = capacity

        def visit(obj, depth: int) -> None:
            if depth > 4 or id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, TaskQueue):
                obj.restrict_capacity(capacity)
                return
            if isinstance(obj, (list, tuple)):
                for item in obj:
                    visit(item, depth + 1)
                return
            module = getattr(type(obj), "__module__", "")
            if not module.startswith("repro."):
                return
            attrs = getattr(obj, "__dict__", None)
            if not isinstance(attrs, dict):
                return
            for name in sorted(attrs):
                if name.startswith("_") or name == "sim":
                    continue
                if name == "queues" and isinstance(attrs[name],
                                                   (list, tuple)):
                    for store in attrs[name]:
                        restrict_store(store)
                    continue
                visit(attrs[name], depth + 1)

        visit(system, 0)

    # -- link faults -------------------------------------------------------

    def link_verdict(self, where: str) -> Tuple[str, float]:
        """Per-packet fate at fabric hop *where* (``nic:<nic name>``).

        Returns ``(verdict, extra_delay_ns)`` with verdict one of
        ``"deliver"``, ``"loss"``, ``"corrupt"``, ``"reorder"``.  One
        uniform draw is partitioned across the three fault bands so
        probabilities compose exactly as specified.
        """
        plan = self.plan.link
        if plan.scope and not where.startswith(plan.scope):
            return "deliver", 0.0
        u = self._link_rng.random()
        if u < plan.loss_prob:
            return "loss", 0.0
        u -= plan.loss_prob
        if u < plan.corrupt_prob:
            return "corrupt", 0.0
        u -= plan.corrupt_prob
        if u < plan.reorder_prob:
            self.counters.link_reorders += 1
            return "reorder", plan.reorder_delay_ns
        return "deliver", 0.0

    def on_packet_lost(self, packet: "Packet", kind: str) -> None:
        """Account a destroyed packet and route its payload to recovery.

        A lost request or response packet strands the request; it is
        retried (bounded, backed off) when the plan allows, otherwise
        dropped with reason ``fault``.  A lost completion/cancellation
        notification only leaks a dispatcher credit — the request
        itself already terminated — but a lost *preemption* notification
        carries the request and strands it the same way.
        """
        if kind == "corrupt":
            self.counters.link_corruptions += 1
        else:
            self.counters.link_drops += 1
        payload = getattr(packet, "payload", None)
        request: Optional[Request] = None
        if isinstance(payload, (RequestPayload, ResponsePayload)):
            request = payload.request
            if isinstance(payload, RequestPayload):
                self._reclaim_credit(packet)
        elif isinstance(payload, NotifyPayload):
            # Every dispatch credits the tracker and every notification
            # debits it — destroying the notification must still return
            # the credit or the pool shrinks until dispatch stops.
            self._debit_worker(payload.worker_id)
            if payload.outcome != "preempted":
                return
            request = payload.request
        if request is None or request.state in _TERMINAL:
            return
        if self.recovery is not None and self.recovery.can_retry(request):
            self.recovery.schedule_retry(request)
        elif self.system is not None:
            self.system.drop(request, reason="fault")

    def _reclaim_credit(self, packet: "Packet") -> None:
        """Release the dispatcher credit held by a destroyed dispatch.

        A request packet destroyed on its way to a worker VF can never
        produce the notification that normally debits the outstanding
        tracker; without reclamation every such loss permanently
        shrinks the credit pool until dispatch stops entirely.  The
        lost packet's destination MAC identifies the worker whose
        credit to return.
        """
        dispatcher = getattr(self.system, "dispatcher", None)
        macs = getattr(dispatcher, "worker_macs", None)
        if not macs:
            return
        dst = packet.eth.dst
        for worker_id in sorted(macs):
            if macs[worker_id] == dst:
                self._debit_worker(worker_id)
                return

    def _debit_worker(self, worker_id: int) -> None:
        """Return one outstanding credit and wake the queue manager.

        Waking matters: if the pool was exhausted, the queue-manager
        core is parked on its work signal and — with the notification
        destroyed — no future event would ever resume dispatch.
        """
        dispatcher = getattr(self.system, "dispatcher", None)
        tracker = getattr(dispatcher, "tracker", None)
        if tracker is None or tracker.outstanding(worker_id) <= 0:
            return
        tracker.debit(worker_id)
        signal = getattr(dispatcher, "_work_signal", None)
        if signal is not None:
            signal.fire()

    # -- feedback faults ---------------------------------------------------

    def feedback_lost(self) -> bool:
        """Whether the current feedback update is lost in transit."""
        if self._feedback_rng is None:
            return False
        if self._feedback_rng.random() < self.plan.feedback.loss_prob:
            self.counters.feedback_lost += 1
            return True
        return False

    def feedback_staleness_ns(self) -> float:
        """Extra delay added to the current (surviving) update."""
        staleness = self.plan.feedback.staleness_ns
        if staleness > 0:
            self.counters.feedback_stale += 1
        return staleness

    # -- worker faults -----------------------------------------------------

    def stall_penalty_ns(self, worker_id: int) -> float:
        """Time *worker_id* must freeze before starting work right now."""
        now = self.sim.now
        for wid, start_ns, duration_ns in self.plan.workers.stalls:
            if wid == worker_id and start_ns <= now < start_ns + duration_ns:
                self.counters.worker_stalls += 1
                return (start_ns + duration_ns) - now
        return 0.0

    def straggler_factor(self, worker_id: int) -> float:
        """Service-time multiplier for work started on *worker_id* now."""
        now = self.sim.now
        for wid, start_ns, duration_ns in self.plan.workers.stragglers:
            if wid == worker_id and start_ns <= now < start_ns + duration_ns:
                return self.plan.workers.straggler_factor
        return 1.0

    def _crash(self, worker_id: int) -> None:
        worker = self.system.workers[worker_id]
        if worker.crashed:
            return
        self.counters.worker_crashes += 1
        worker.crash()
        self.system.on_worker_crash(worker)

    def handle_worker_failure(self, worker: "WorkerCore",
                              request: Request) -> None:
        """Route an orphaned request from a crashed worker to recovery.

        Called by worker loops that hold no system reference (the
        shared pipeline parts); the injector is guaranteed live
        whenever a crash can occur, because only it schedules crashes.
        """
        self.system.worker_failed(worker, request)

    def __repr__(self) -> str:
        return (f"<FaultInjector link={self.link_active} "
                f"feedback={self.feedback_active} "
                f"crashes={len(self.plan.workers.crashes)}>")
