"""Per-run measurement collection, organized as a scope tree.

A :class:`MetricsCollector` is shared between the load generator (which
records arrivals) and the system under test (which records completions
and drops).  Samples from the warmup window are excluded so queues
reach steady state before measurement — the standard methodology for
open-loop tail-latency experiments.

Collectors form a tree of :class:`~repro.metrics.scope.MetricScope`
nodes: the harness owns the run-level root, every system records
through a host-level child (see :class:`~repro.systems.base.BaseSystem`),
and worker scopes hang beneath the host (sharded systems add a shard
level in between; tenant scoping is just one more level of names).
Every counter and reservoir a collector exposes *rolls up* its subtree,
so reading ``root.completed`` after a run reports the whole run no
matter which scope recorded each event, and ``summarize()`` on any node
summarizes exactly that node's subtree.

The roll-up is bit-identical to the historical flat collector because
every derived statistic is a function of the observation multiset or
of a canonical ordering of it: counts are integer sums, reservoir
statistics read a sorted view, and the worker wait numerator
accumulates in the deterministic pre-order fold over scopes (worker
attach order — exactly the historical iteration, so the pinned metrics
digests do not move).  The same property makes collectors mergeable
(:class:`~repro.metrics.scope.MergeableCollector`): folding two shard
collectors is indistinguishable from one collector having recorded the
whole run.

Floating-point reductions have one residual order sensitivity: summing
per-worker wait totals left-to-right rounds differently when the same
totals appear in a different order.  The canonical fold order fixes
that order, and the published digests pin its rounding; a system whose
workers took different waits under a tie-break permutation would show
here, which is what the schedule-permutation fuzzer (``repro race``)
checks on this very summation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ExperimentError
from repro.metrics.reservoir import LatencyReservoir
from repro.metrics.scope import MetricScope, check_mergeable
from repro.metrics.summary import LatencySummary, RunMetrics, ThroughputSummary
from repro.runtime.request import Request
from repro.units import SEC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.worker import WorkerCore
    from repro.sim.engine import Simulator

#: The run-level scope every collector tree starts from.
ROOT_SCOPE_NAME = "run"


class MetricsCollector:
    """Collects arrivals, completions, drops, and worker statistics.

    Parameters
    ----------
    sim:
        Owning simulator.
    warmup_ns:
        Requests *arriving* before this time are excluded from latency
        and throughput statistics (they still run, filling the queues).
    scope:
        This node's position in the scope tree; defaults to a fresh
        run-level root.  Use :meth:`scoped` rather than passing one.
    """

    def __init__(self, sim: "Simulator", warmup_ns: float = 0.0,
                 scope: Optional[MetricScope] = None):
        if warmup_ns < 0:
            raise ExperimentError(f"negative warmup: {warmup_ns}")
        self.sim = sim
        self.warmup_ns = warmup_ns
        self.scope = scope if scope is not None else MetricScope(ROOT_SCOPE_NAME)
        #: Child collectors by scope name, in creation order.
        self._children: Dict[str, "MetricsCollector"] = {}
        # Raw local counters (warmup excluded unless *_all); the public
        # names are subtree roll-up properties below.
        self._latency = LatencyReservoir()
        self._slowdown = LatencyReservoir()
        self._generated = 0
        self._generated_all = 0
        self._completed = 0
        self._completed_all = 0
        self._completed_in_window = 0
        self._dropped = 0
        self._dropped_by_reason: Dict[str, int] = {}
        self._preemptions = 0
        #: The run's :class:`~repro.faults.injector.FaultCounters`, set
        #: by the injector's ``attach()``; None in fault-free runs.
        self.fault_counters = None
        self._measure_start: Optional[float] = None
        self._workers: List["WorkerCore"] = []
        self._worker_attach_time = 0.0

    # -- the scope tree ----------------------------------------------------

    def scoped(self, name: str) -> "MetricsCollector":
        """The child collector for scope *name* (created on first use).

        Children share the simulator and warmup of their parent; their
        measurements roll up into every ancestor's counters and
        ``summarize()``.
        """
        child = self._children.get(name)
        if child is None:
            child = MetricsCollector(self.sim, warmup_ns=self.warmup_ns,
                                     scope=self.scope.child(name))
            self._children[name] = child
        return child

    def children(self) -> Tuple["MetricsCollector", ...]:
        """This node's child collectors, in creation order."""
        return tuple(self._children.values())

    def walk(self) -> Iterator["MetricsCollector"]:
        """This node and every descendant, depth-first, pre-order."""
        yield self
        for child in self._children.values():
            yield from child.walk()

    # -- wiring ------------------------------------------------------------

    def attach_workers(self, workers: List["WorkerCore"],
                       per_worker_scopes: bool = True) -> None:
        """Register worker cores for utilization/wait statistics.

        With *per_worker_scopes* (the default) each worker also gets a
        ``worker<id>`` child scope of its own, completing the
        run -> host -> worker tree; the roll-up deduplicates workers
        registered at more than one scope, so attaching a worker both
        here and in a shard's scope never double-counts it.
        """
        self._workers = list(workers)
        self._worker_attach_time = self.sim.now
        if per_worker_scopes:
            for worker in workers:
                child = self.scoped(f"worker{worker.worker_id}")
                child._workers = [worker]
                child._worker_attach_time = self.sim.now

    # -- recording (always local to this scope) ----------------------------

    def _in_measurement(self, request: Request) -> bool:
        return request.arrival_ns >= self.warmup_ns

    def record_arrival(self, request: Request) -> None:
        """Count one generated request (the load generator calls this)."""
        self._generated_all += 1
        if self._in_measurement(request):
            self._generated += 1
            if self._measure_start is None:
                self._measure_start = request.arrival_ns

    def record_completion(self, request: Request) -> None:
        """Record one response delivery and its latency sample."""
        completion_ns = request.completion_ns
        if completion_ns is None:
            request.complete(self.sim.now)
            completion_ns = request.completion_ns
        self._completed_all += 1
        if completion_ns >= self.warmup_ns:
            self._completed_in_window += 1
        if request.arrival_ns < self.warmup_ns:
            return
        self._completed += 1
        # Property bodies inlined (same arithmetic, one frame instead
        # of four on the per-completion path).
        latency_ns = completion_ns - request.arrival_ns
        self._latency.add(latency_ns)
        service_ns = request.service_ns
        if service_ns > 0:
            self._slowdown.add(latency_ns / service_ns)
        self._preemptions += request.preemptions

    def record_drop(self, request: Request, reason: str = "overflow") -> None:
        """Count one dropped request, keyed by why it was dropped."""
        if self._in_measurement(request):
            self._dropped += 1
            self._dropped_by_reason[reason] = \
                self._dropped_by_reason.get(reason, 0) + 1

    # -- subtree roll-ups --------------------------------------------------
    #
    # Every public reader folds the subtree, so callers holding the
    # root see the whole run regardless of which scope recorded each
    # event.  Integer sums and sorted-multiset statistics make each
    # roll-up bit-identical to a flat collector having recorded
    # everything itself.

    def _fold_int(self, attr: str) -> int:
        return sum(getattr(node, attr) for node in self.walk())

    @property
    def generated(self) -> int:
        """Measurement-window arrivals across this subtree."""
        return self._fold_int("_generated")

    @property
    def generated_all(self) -> int:
        """All arrivals across this subtree, warmup included."""
        return self._fold_int("_generated_all")

    @property
    def completed(self) -> int:
        """Measurement-window completions across this subtree."""
        return self._fold_int("_completed")

    @property
    def completed_all(self) -> int:
        """All completions across this subtree, warmup included."""
        return self._fold_int("_completed_all")

    @property
    def completed_in_window(self) -> int:
        """Completions happening inside the measurement window,
        regardless of when the request arrived — the correct numerator
        for steady-state throughput under overload (the
        arrival-filtered count undercounts as the backlog grows)."""
        return self._fold_int("_completed_in_window")

    @property
    def dropped(self) -> int:
        """Measurement-window drops across this subtree."""
        return self._fold_int("_dropped")

    @property
    def preemptions(self) -> int:
        """Preemptions observed across completed requests."""
        return self._fold_int("_preemptions")

    @property
    def dropped_by_reason(self) -> Dict[str, int]:
        """Measurement-window drops keyed by reason ("overflow",
        "fault", "timeout"), folded across this subtree."""
        folded: Dict[str, int] = {}
        for node in self.walk():
            for reason, count in node._dropped_by_reason.items():
                folded[reason] = folded.get(reason, 0) + count
        return folded

    @property
    def latency(self) -> LatencyReservoir:
        """The subtree's latency reservoir.

        A leaf returns its own reservoir; an inner node returns a
        folded copy (identical statistics — they all read the sorted
        sample multiset).
        """
        return self._fold_reservoir("_latency")

    @property
    def slowdown(self) -> LatencyReservoir:
        """The subtree's slowdown reservoir (see :attr:`latency`)."""
        return self._fold_reservoir("_slowdown")

    def _fold_reservoir(self, attr: str) -> LatencyReservoir:
        own: LatencyReservoir = getattr(self, attr)
        if not self._children:
            return own
        folded = LatencyReservoir()
        for node in self.walk():
            folded.merge_from(getattr(node, attr))
        return folded

    def _fold_worker_attachments(self) -> List[Tuple["WorkerCore", float]]:
        """Every (worker, attach_time) in the subtree, deduplicated.

        A worker attached at several scopes (host list plus its own
        worker scope, or a shard scope plus the host) counts once, at
        its first registration in pre-order.
        """
        seen: Dict[int, None] = {}
        attachments: List[Tuple["WorkerCore", float]] = []
        for node in self.walk():
            for worker in node._workers:
                if id(worker) in seen:
                    continue
                seen[id(worker)] = None
                attachments.append((worker, node._worker_attach_time))
        return attachments

    # -- summarization ------------------------------------------------------

    def summarize(self, offered_rps: float) -> RunMetrics:
        """Build the final :class:`RunMetrics` for this subtree."""
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
        latency_reservoir = self.latency
        latency = (LatencySummary.from_reservoir(latency_reservoir)
                   if not latency_reservoir.empty else None)
        slowdown_reservoir = self.slowdown
        mean_slowdown = (slowdown_reservoir.mean()
                         if not slowdown_reservoir.empty else float("nan"))
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

    def _sum_waits(self, waits: List[float]) -> float:
        """Reduce per-worker wait totals to one number.

        Left-to-right accumulation over the canonical fold order —
        bit-identical to the historical flat collector, which the
        published metrics digests pin.
        """
        total = 0.0
        for wait in waits:
            total += wait
        return total

    def worker_wait_fraction(self) -> float:
        """Fraction of worker-time spent waiting for work (Figure 6).

        The numerator sums per-worker wait totals in the deterministic
        pre-order fold over scopes (worker attach order); see
        :meth:`_sum_waits` for the reduction contract.
        """
        now = self.sim.now
        attachments = self._fold_worker_attachments()
        if not attachments:
            return 0.0
        # Close out any still-open wait intervals without mutating them.
        waits = []
        for worker, _attached in attachments:
            wait = worker.wait_ns
            if worker._wait_started is not None:
                wait += now - worker._wait_started
            waits.append(wait)
        first_attach = attachments[0][1]
        if all(attached == first_attach for _w, attached in attachments):
            # The common case (every worker attached at start-of-run):
            # one shared elapsed window, exactly the historical
            # denominator.
            elapsed = now - first_attach
            if elapsed <= 0:
                return 0.0
            return self._sum_waits(waits) / (elapsed * len(attachments))
        denominator = math.fsum(
            now - attached for _w, attached in attachments)
        if denominator <= 0:
            return 0.0
        return self._sum_waits(waits) / denominator

    # -- merging -----------------------------------------------------------

    def merge_from(self, other: "MetricsCollector") -> None:
        """Fold *other*'s subtree into this one (in place).

        Counters add, reservoirs union, matching child scopes merge
        recursively, and *other*'s unmatched children appear as new
        children here.  The result summarizes bit-identically to one
        collector having recorded both inputs' events (the
        merge-≡-monolithic guarantee the property suite enforces).
        """
        check_mergeable("warmups", self.warmup_ns, other.warmup_ns)
        self._generated += other._generated
        self._generated_all += other._generated_all
        self._completed += other._completed
        self._completed_all += other._completed_all
        self._completed_in_window += other._completed_in_window
        self._dropped += other._dropped
        self._preemptions += other._preemptions
        for reason in sorted(other._dropped_by_reason):
            self._dropped_by_reason[reason] = \
                self._dropped_by_reason.get(reason, 0) \
                + other._dropped_by_reason[reason]
        self._latency.merge_from(other._latency)
        self._slowdown.merge_from(other._slowdown)
        if other._measure_start is not None:
            self._measure_start = (other._measure_start
                                   if self._measure_start is None
                                   else min(self._measure_start,
                                            other._measure_start))
        if other._workers:
            if not self._workers:
                self._worker_attach_time = other._worker_attach_time
            self._workers.extend(other._workers)
        if self.fault_counters is None:
            self.fault_counters = other.fault_counters
        for name, child in other._children.items():
            self.scoped(name).merge_from(child)

    def merged(self, other: "MetricsCollector") -> "MetricsCollector":
        """A new root collector equivalent to recording both inputs."""
        result = MetricsCollector(self.sim, warmup_ns=self.warmup_ns,
                                  scope=MetricScope(self.scope.name))
        result.merge_from(self)
        result.merge_from(other)
        return result

    def __repr__(self) -> str:
        return (f"<MetricsCollector {self.scope.path} "
                f"completed={self.completed} dropped={self.dropped} "
                f"samples={len(self.latency)}>")
