"""NIC-driven preemption (§3.2-4, §5.1-3).

The prototype preempts with *local* APIC timers because the Stingray's
interrupt path is too slow ("The Stingray could interrupt CPU cores by
sending network packets, but given the communication latency of
2.56 µs, this would not be efficient", §3.4.4).  But requirement §3.2-4
is explicit — "The SmartNIC must be able to interrupt specific host
server cores to implement preemptive scheduling" — and §5.1-3 asks for
a direct interrupt wire precisely so the NIC can own this decision.

:class:`NicPreemptionScanner` implements that design point: the NIC
maintains its own view of what each worker is running (a
:class:`~repro.core.feedback.CoreStatusBoard` updated from its dispatch
records and the workers' completion/preemption notifications — the
"execution status of active requests" from the abstract) and scans it
every few hundred nanoseconds, firing an interrupt at any worker whose
current request has exceeded the time slice.

The NIC's view is *estimated*: it assumes a dispatched request starts
one wire-latency after it was sent, and that a worker with stashed
requests starts the next one the moment it sends a notification.  The
estimation error plus the interrupt's delivery latency produce exactly
the artifacts §3.4.4 worries about — late preemptions, interrupts that
race with completions, and spurious interrupts into the next request —
all of which the worker statistics expose.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.config import ARM_HOST_ONE_WAY_NS
from repro.core.feedback import CoreStatusBoard, WorkerStatus
from repro.errors import ConfigError
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.worker import WorkerCore
    from repro.sim.engine import Simulator


class NicPreemptionScanner:
    """The NIC's slice-enforcement engine.

    Parameters
    ----------
    sim:
        Owning simulator.
    board:
        The NIC-resident per-worker status table this scanner reads.
        The serving system keeps it current via :meth:`note_dispatch`
        and :meth:`note_notify`.
    workers:
        The worker cores, for interrupt delivery.
    time_slice_ns:
        Budget before a running request gets interrupted.
    delivery_latency_ns:
        Interrupt travel time: ~2560 ns for packet interrupts through
        the Stingray, ~200 ns on the ideal NIC's wire.
    scan_period_ns:
        How often the (hardware) scanner sweeps the board.
    one_way_latency_ns:
        The NIC<->host latency used to *estimate* when work started.
    """

    def __init__(self, sim: "Simulator", board: CoreStatusBoard,
                 workers: List["WorkerCore"], time_slice_ns: float,
                 delivery_latency_ns: float = ARM_HOST_ONE_WAY_NS,
                 scan_period_ns: float = us(1.0),
                 one_way_latency_ns: float = ARM_HOST_ONE_WAY_NS):
        if time_slice_ns <= 0:
            raise ConfigError(f"time_slice_ns must be positive: {time_slice_ns}")
        if scan_period_ns <= 0:
            raise ConfigError(f"scan_period_ns must be positive: {scan_period_ns}")
        if delivery_latency_ns < 0 or one_way_latency_ns < 0:
            raise ConfigError("latencies must be non-negative")
        self.sim = sim
        self.board = board
        self.workers = {worker.worker_id: worker for worker in workers}
        self.time_slice_ns = time_slice_ns
        self.delivery_latency_ns = delivery_latency_ns
        self.scan_period_ns = scan_period_ns
        self.one_way_latency_ns = one_way_latency_ns
        #: Last running_since value each worker was interrupted for —
        #: prevents re-interrupting the same execution episode.
        self._interrupted_for: Dict[int, float] = {}
        #: Interrupts sent (diagnostics).
        self.interrupts_sent = 0
        self._started = False

    # -- board maintenance (called by the serving system) --------------------

    def note_dispatch(self, worker_id: int) -> None:
        """The dispatcher sent one request toward *worker_id*."""
        status = self.board.get(worker_id)
        outstanding = status.outstanding + 1
        if status.busy:
            running_since = status.running_since
        else:
            # The request starts when it reaches the worker.
            running_since = self.sim.now + self.one_way_latency_ns
        self.board.apply(WorkerStatus(
            worker_id=worker_id, busy=True, outstanding=outstanding,
            running_since=running_since))

    def note_notify(self, worker_id: int) -> None:
        """A completion/preemption notification from *worker_id* landed."""
        status = self.board.get(worker_id)
        outstanding = max(0, status.outstanding - 1)
        if outstanding == 0:
            self.board.apply(WorkerStatus(
                worker_id=worker_id, busy=False, outstanding=0,
                running_since=None))
            return
        # The worker had stashed requests and started the next one
        # as it sent this notification, one wire-latency ago.
        self.board.apply(WorkerStatus(
            worker_id=worker_id, busy=True, outstanding=outstanding,
            running_since=self.sim.now - self.one_way_latency_ns))

    # -- the scanner -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the scan loop (call once, before the run)."""
        if self._started:
            raise ConfigError("scanner already started")
        self._started = True
        self.sim.process(self._scan_loop(), label="nic-preempt-scan")

    def _scan_loop(self):
        while True:
            yield self.scan_period_ns
            now = self.sim.now
            for status in self.board.all():
                if not status.busy or status.running_since is None:
                    continue
                if now - status.running_since < self.time_slice_ns:
                    continue
                if self._interrupted_for.get(status.worker_id) == \
                        status.running_since:
                    continue  # this episode was already interrupted
                self._interrupted_for[status.worker_id] = \
                    status.running_since
                self._send_interrupt(status.worker_id)

    def _send_interrupt(self, worker_id: int) -> None:
        worker = self.workers[worker_id]
        self.interrupts_sent += 1
        if self.delivery_latency_ns <= 0:
            worker._on_interrupt(cause="nic-preempt")
        else:
            self.sim.defer(self.delivery_latency_ns,
                           lambda: worker._on_interrupt(cause="nic-preempt"))

    def __repr__(self) -> str:
        return (f"<NicPreemptionScanner slice={self.time_slice_ns}ns "
                f"sent={self.interrupts_sent}>")
