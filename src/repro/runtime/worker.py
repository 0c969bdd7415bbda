"""The worker-core execution state machine (§3.4.3).

:class:`WorkerCore` owns everything that happens while a request is on
a worker hardware thread: context spawn/restore, arming the preemption
slice, running the fake work, absorbing the interrupt, and saving the
context on preemption.  The surrounding I/O (mailbox vs SR-IOV packet
polling, response/notify construction) differs per system and lives in
:mod:`repro.systems`.

The core generator is :meth:`run_request`; systems drive it with
``yield from``.  It returns an :class:`ExecutionOutcome`.
"""

from __future__ import annotations

import enum
from typing import Any, Optional, TYPE_CHECKING

from repro.config import TIMER_FIRE_DUNE_CYCLES
from repro.errors import ProcessInterrupt, SimulationError
from repro.hw.cpu import HardwareThread
from repro.units import cycles_to_ns
from repro.runtime.context import ContextCosts, ExecutionContext
from repro.runtime.request import Request, RequestState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.preemption import PreemptionDriver
    from repro.sim.engine import Simulator
    from repro.sim.process import Process


class ExecutionOutcome(enum.Enum):
    """How one on-core execution episode ended."""

    FINISHED = "finished"
    PREEMPTED = "preempted"
    #: The worker crashed before or during the episode; the request is
    #: orphaned and needs failover.
    FAILED = "failed"
    #: The request was already dropped (timeout/fault) when the worker
    #: picked it up; nothing ran.
    SKIPPED = "skipped"


class WorkerCore:
    """One worker's execution engine and statistics.

    Parameters
    ----------
    sim:
        Owning simulator.
    worker_id:
        Stable index within the system.
    thread:
        The pinned hardware thread.
    context_costs:
        Prices for context spawn/save/restore.
    preemption:
        A :class:`PreemptionDriver`, or None to run to completion
        (Figures 4-6 disable preemption).
    """

    def __init__(self, sim: "Simulator", worker_id: int,
                 thread: HardwareThread,
                 context_costs: ContextCosts = ContextCosts(),
                 preemption: Optional["PreemptionDriver"] = None):
        self.sim = sim
        self.worker_id = worker_id
        self.thread = thread
        self.context_costs = context_costs
        self.preemption = preemption
        if preemption is not None:
            preemption.deliver = self._on_interrupt
        self._process: Optional["Process"] = None
        self._interruptible = False
        #: Set by a fault plan's crash schedule; a crashed core fails
        #: its current episode and refuses all future work.
        self.crashed = False
        # -- statistics ----------------------------------------------------
        self.completed = 0
        self.preempted = 0
        #: Interrupts that raced with completion (§3.4.4's concern).
        self.wasted_preemptions = 0
        #: Interrupts landing with nothing running (late packets).
        self.spurious_interrupts = 0
        #: Restores that hit this worker's still-warm caches.
        self.warm_restores = 0
        #: Total time spent waiting for work (the Figure-6 statistic).
        self.wait_ns = 0.0
        #: Total time spent executing service demand.
        self.service_ns = 0.0
        self._wait_started: Optional[float] = None

    # -- process binding -----------------------------------------------------

    def attach_process(self, process: "Process") -> None:
        """Bind the worker-loop process so interrupts can reach it."""
        self._process = process

    # -- wait accounting (Figure 6's "110% more time waiting") ----------------

    def begin_wait(self) -> None:
        """Mark the start of a waiting-for-work interval."""
        if self._wait_started is None:
            self._wait_started = self.sim._now

    def end_wait(self) -> None:
        """Close the current waiting interval and accrue it."""
        if self._wait_started is not None:
            self.wait_ns += self.sim._now - self._wait_started
            self._wait_started = None

    # -- interrupt plumbing -----------------------------------------------------

    def _on_interrupt(self, cause: Any) -> None:
        """PreemptionDriver delivery hook."""
        if self._interruptible and self._process is not None:
            self._process.interrupt(cause)
        else:
            # Nothing preemptable is running: a late packet interrupt
            # or a completion race.  Real handlers just IRET.
            self.spurious_interrupts += 1

    # -- fault injection -----------------------------------------------------

    def crash(self) -> None:
        """Kill this core permanently (fault-plan crash schedule).

        An episode in its interruptible service phase is cut short and
        reported :attr:`ExecutionOutcome.FAILED`; a core between
        requests simply fails the next episode it is offered.
        """
        if self.crashed:
            return
        self.crashed = True
        if self._interruptible and self._process is not None:
            self._process.interrupt("crash")

    # -- the execution episode ----------------------------------------------------

    def run_request(self, request: Request):
        """Generator: run *request* until it finishes or is preempted.

        Drive with ``yield from``; returns an :class:`ExecutionOutcome`.
        Charges, in order: context spawn *or* restore, timer arm (if
        preemption is on), the service demand (interruptible), then on
        interrupt the receipt cost and the context save.
        """
        if self._process is None:
            raise SimulationError(
                f"worker {self.worker_id}: attach_process() before running")
        if request.state is RequestState.DROPPED:
            # Reaped (timeout/fault) while queued; nothing to run.
            return ExecutionOutcome.SKIPPED
        if self.crashed:
            # A dead core orphans whatever it is handed.
            return ExecutionOutcome.FAILED
        thread = self.thread
        # Who ran this request last — read before claiming it.
        previous_worker = request.worker_id
        request.state = RequestState.RUNNING
        request.worker_id = self.worker_id
        stamps = request.stamps
        if "first_run" not in stamps:
            stamps["first_run"] = self.sim._now

        sim = self.sim
        injector = sim.fault_injector
        if injector is not None:
            # A stalled core freezes until its stall window closes.
            stall_ns = injector.stall_penalty_ns(self.worker_id)
            if stall_ns > 0:
                yield stall_ns
                if self.crashed:
                    return ExecutionOutcome.FAILED

        # Context spawn (first run) or restore.  A restore on the
        # worker that last ran the request hits warm caches (§3.1's
        # affinity argument); crossing workers pays the full cost.
        if request.context is None:
            request.context = ExecutionContext()
            prep_ns = self.context_costs.spawn_ns
        else:
            request.context.record_restore()
            warm = previous_worker == self.worker_id
            if warm:
                self.warm_restores += 1
            prep_ns = self.context_costs.restore_cost_ns(warm)
        thread.busy_ns += prep_ns
        if self.preemption is None:
            yield prep_ns
        else:
            # Arm the slice for when the spawn/restore ends and wait
            # once for both costs: the same instants as waiting out the
            # spawn/restore, arming, then waiting out the arm cost.
            ready = sim._now + prep_ns
            cost = self.preemption.arm(cause=request, at=ready)
            yield sim.timeout_at(ready + cost)

        started = self.sim._now
        self._interruptible = True
        # A straggler window dilates the service demand; factor 1.0 is
        # the exact identity (x * 1.0 and x / 1.0 are bit-exact), so a
        # fault-free run's float arithmetic is untouched.
        factor = (injector.straggler_factor(self.worker_id)
                  if injector is not None else 1.0)
        try:
            # The service demand itself; busy time accounted on exit so
            # a preempted episode only charges what actually ran.
            yield request.remaining_ns * factor
        except ProcessInterrupt:
            ran = self.sim._now - started
            thread.busy_ns += ran
            self.service_ns += ran
            self._interruptible = False
            request.run_for(ran / factor)
            if self.crashed:
                # The interrupt was the crash itself: no receipt, no
                # context save — the core is gone mid-request.
                return ExecutionOutcome.FAILED
            # Interrupt-receipt cost is paid regardless of outcome.
            # Without a local driver (NIC-driven preemption) the
            # interrupt still lands as a posted interrupt.
            if self.preemption is not None:
                receipt_ns = self.preemption.receipt_cost_ns
            else:
                receipt_ns = cycles_to_ns(TIMER_FIRE_DUNE_CYCLES,
                                          thread.clock_ghz)
            yield thread.execute(receipt_ns)
            if request.finished_work:
                # The interrupt raced with completion.
                self.wasted_preemptions += 1
                self.completed += 1
                return ExecutionOutcome.FINISHED
            request.preemptions += 1
            request.state = RequestState.PREEMPTED
            request.context.record_save()
            yield thread.execute(self.context_costs.save_ns)
            self.preempted += 1
            return ExecutionOutcome.PREEMPTED

        ran = self.sim._now - started
        thread.busy_ns += ran
        self.service_ns += ran
        self._interruptible = False
        request.run_for(ran / factor)
        if self.preemption is not None:
            self.preemption.cancel()
        self.completed += 1
        return ExecutionOutcome.FINISHED

    def __repr__(self) -> str:
        return (f"<WorkerCore #{self.worker_id} on {self.thread.name} "
                f"completed={self.completed} preempted={self.preempted}>")
