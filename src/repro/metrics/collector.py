"""Per-run measurement collection.

One :class:`MetricsCollector` records a whole run: the load generator
records arrivals, the system under test (see
:class:`~repro.systems.base.BaseSystem`) records completions and drops,
and the harness calls :meth:`MetricsCollector.summarize` once at the
horizon.  Samples from the warmup window are excluded so queues reach
steady state before measurement — the standard methodology for
open-loop tail-latency experiments.

Where a request's time went is not recorded here: every request carries
its own stage stamps (``request.stamps``: ``nic_rx``,
``networker_done``, ``dispatched``, ``queued``, ``first_run``,
``dropped``), and the dispatchers count what they did.

Every statistic is a function of the observation multiset or of one
fixed order: counts are integer sums, reservoir statistics read a
sorted view (so completion order across workers or shards cannot move
them), and the worker wait numerator sums per-worker totals left to
right in worker attach order.  That last sum is the one float reduction
a tie-break permutation could round differently if two workers swapped
waits, which is what the schedule-permutation fuzzer (``repro race``)
checks on this very summation.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.errors import ExperimentError
from repro.metrics.reservoir import LatencyReservoir
from repro.metrics.summary import LatencySummary, RunMetrics, ThroughputSummary
from repro.runtime.request import Request
from repro.units import SEC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.worker import WorkerCore
    from repro.sim.engine import Simulator


class MetricsCollector:
    """Collects arrivals, completions, drops, and worker statistics.

    Parameters
    ----------
    sim:
        Owning simulator.
    warmup_ns:
        Requests *arriving* before this time are excluded from latency
        and throughput statistics (they still run, filling the queues).
    """

    def __init__(self, sim: "Simulator", warmup_ns: float = 0.0):
        if warmup_ns < 0:
            raise ExperimentError(f"negative warmup: {warmup_ns}")
        self.sim = sim
        self.warmup_ns = warmup_ns
        #: Measurement-window latencies and slowdowns (ns, ratio).
        self.latency = LatencyReservoir()
        self.slowdown = LatencyReservoir()
        #: Arrivals, measurement window / all.
        self.generated = 0
        self.generated_all = 0
        #: Completions of measurement-window arrivals / all.
        self.completed = 0
        self.completed_all = 0
        #: Completions happening inside the measurement window,
        #: regardless of when the request arrived — the correct
        #: numerator for steady-state throughput under overload (the
        #: arrival-filtered count undercounts as the backlog grows).
        self.completed_in_window = 0
        #: Measurement-window drops, in total and keyed by reason
        #: ("overflow", "fault", "timeout").
        self.dropped = 0
        self.dropped_by_reason: Dict[str, int] = {}
        #: Preemptions observed across completed requests.
        self.preemptions = 0
        #: The run's :class:`~repro.faults.injector.FaultCounters`, set
        #: by the injector's ``attach()``; None in fault-free runs.
        self.fault_counters = None
        self._workers: List["WorkerCore"] = []
        self._worker_attach_time = 0.0

    # -- wiring ------------------------------------------------------------

    def attach_workers(self, workers: List["WorkerCore"]) -> None:
        """Register worker cores for utilization/wait statistics."""
        self._workers = list(workers)
        self._worker_attach_time = self.sim.now

    # -- recording ---------------------------------------------------------

    def _in_measurement(self, request: Request) -> bool:
        return request.arrival_ns >= self.warmup_ns

    def record_arrival(self, request: Request) -> None:
        """Count one generated request (the load generator calls this)."""
        self.generated_all += 1
        if self._in_measurement(request):
            self.generated += 1

    def record_completion(self, request: Request) -> None:
        """Record one response delivery and its latency sample."""
        completion_ns = request.completion_ns
        if completion_ns is None:
            request.complete(self.sim.now)
            completion_ns = request.completion_ns
        self.completed_all += 1
        if completion_ns >= self.warmup_ns:
            self.completed_in_window += 1
        if request.arrival_ns < self.warmup_ns:
            return
        self.completed += 1
        # Property bodies inlined (same arithmetic, one frame instead
        # of four on the per-completion path).
        latency_ns = completion_ns - request.arrival_ns
        self.latency.add(latency_ns)
        service_ns = request.service_ns
        if service_ns > 0:
            self.slowdown.add(latency_ns / service_ns)
        self.preemptions += request.preemptions

    def record_drop(self, request: Request, reason: str = "overflow") -> None:
        """Count one dropped request, keyed by why it was dropped."""
        if self._in_measurement(request):
            self.dropped += 1
            self.dropped_by_reason[reason] = \
                self.dropped_by_reason.get(reason, 0) + 1

    # -- summarization ------------------------------------------------------

    def summarize(self, offered_rps: float) -> RunMetrics:
        """Build the run's final :class:`RunMetrics`."""
        now = self.sim.now
        window_ns = max(0.0, now - self.warmup_ns)
        achieved = (self.completed_in_window / window_ns * SEC) \
            if window_ns > 0 else 0.0
        throughput = ThroughputSummary(
            offered_rps=offered_rps,
            achieved_rps=achieved,
            generated=self.generated,
            completed=self.completed,
            dropped=self.dropped,
            window_ns=window_ns,
        )
        latency = (LatencySummary.from_reservoir(self.latency)
                   if not self.latency.empty else None)
        mean_slowdown = (self.slowdown.mean()
                         if not self.slowdown.empty else float("nan"))
        faults = None
        if self.fault_counters is not None:
            faults = self.fault_counters.summarize(
                dropped_by_reason=self.dropped_by_reason,
                completed_in_window=self.completed_in_window,
                window_ns=window_ns)
        return RunMetrics(
            latency=latency,
            throughput=throughput,
            preemptions=self.preemptions,
            mean_slowdown=mean_slowdown,
            worker_wait_fraction=self.worker_wait_fraction(),
            faults=faults,
        )

    def worker_wait_fraction(self) -> float:
        """Fraction of worker-time spent waiting for work (Figure 6).

        The numerator sums per-worker wait totals left to right in
        worker attach order; the published metrics digests pin that
        rounding.
        """
        now = self.sim.now
        elapsed = now - self._worker_attach_time
        if not self._workers or elapsed <= 0:
            return 0.0
        total = 0.0
        for worker in self._workers:
            # Close out a still-open wait interval without mutating it.
            wait = worker.wait_ns
            if worker._wait_started is not None:
                wait += now - worker._wait_started
            total += wait
        return total / (elapsed * len(self._workers))

    def __repr__(self) -> str:
        return (f"<MetricsCollector completed={self.completed} "
                f"dropped={self.dropped} samples={len(self.latency)}>")
