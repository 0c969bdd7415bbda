"""Summary records produced at the end of a run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.reservoir import LatencyReservoir
from repro.units import to_us


@dataclass(frozen=True)
class LatencySummary:
    """Latency distribution of one run, in nanoseconds."""

    count: int
    mean_ns: float
    p50_ns: float
    p90_ns: float
    p99_ns: float
    p999_ns: float
    max_ns: float

    @classmethod
    def from_reservoir(cls, reservoir: LatencyReservoir) -> "LatencySummary":
        return cls(
            count=len(reservoir),
            mean_ns=reservoir.mean(),
            p50_ns=reservoir.percentile(50.0),
            p90_ns=reservoir.percentile(90.0),
            p99_ns=reservoir.percentile(99.0),
            p999_ns=reservoir.percentile(99.9),
            max_ns=reservoir.maximum(),
        )

    @property
    def tail_ns(self) -> float:
        """The paper's tail-latency statistic: p99 (§4)."""
        return self.p99_ns

    def __str__(self) -> str:
        return (f"n={self.count} mean={to_us(self.mean_ns):.1f}us "
                f"p50={to_us(self.p50_ns):.1f}us "
                f"p99={to_us(self.p99_ns):.1f}us "
                f"p99.9={to_us(self.p999_ns):.1f}us")


@dataclass(frozen=True)
class ThroughputSummary:
    """Offered vs achieved rates over the measurement window."""

    offered_rps: float
    achieved_rps: float
    generated: int
    completed: int
    dropped: int
    window_ns: float

    @property
    def saturated(self) -> bool:
        """Heuristic: completing < 95% of offered load in steady state."""
        if self.offered_rps <= 0:
            return False
        return self.achieved_rps < 0.95 * self.offered_rps

    def __str__(self) -> str:
        return (f"offered={self.offered_rps / 1e3:.0f}kRPS "
                f"achieved={self.achieved_rps / 1e3:.0f}kRPS "
                f"dropped={self.dropped}")


@dataclass(frozen=True)
class FaultSummary:
    """Fault-injection and recovery accounting for one run.

    Present on :class:`RunMetrics` only when the run carried a
    non-null :class:`~repro.faults.plan.FaultPlan`; fault-free runs
    keep ``faults=None`` so their serialized metrics are unchanged.
    """

    # -- injected faults ---------------------------------------------------
    link_drops: int
    link_corruptions: int
    link_reorders: int
    feedback_lost: int
    feedback_stale: int
    worker_crashes: int
    worker_stalls: int
    # -- drops by reason (measurement window) ------------------------------
    drops_overflow: int
    drops_fault: int
    drops_timeout: int
    # -- recovery actions --------------------------------------------------
    retries: int
    retry_successes: int
    timeouts: int
    failovers: int
    failover_successes: int
    stale_fallbacks: int
    #: Completions/s in the window that needed no recovery assistance.
    goodput_rps: float

    def __str__(self) -> str:
        return (f"faults(drops={self.link_drops}+{self.drops_overflow}ovf"
                f"+{self.drops_timeout}to retries={self.retries}"
                f"/{self.retry_successes}ok failovers={self.failovers}"
                f"/{self.failover_successes}ok "
                f"goodput={self.goodput_rps / 1e3:.0f}kRPS)")


@dataclass(frozen=True)
class RunMetrics:
    """Everything measured in one simulation run."""

    latency: Optional[LatencySummary]
    throughput: ThroughputSummary
    #: Total preemptions observed across completed requests.
    preemptions: int
    #: Mean slowdown (latency / service demand) across completions.
    mean_slowdown: float
    #: Aggregate worker time spent waiting for work, as a fraction of
    #: worker-seconds available (Figure 6's statistic).
    worker_wait_fraction: float
    #: Fault/recovery accounting; None for fault-free runs.
    faults: Optional[FaultSummary] = None

    def __str__(self) -> str:
        lat = str(self.latency) if self.latency is not None else "no samples"
        return (f"RunMetrics({lat}; {self.throughput}; "
                f"preemptions={self.preemptions}; "
                f"wait={self.worker_wait_fraction:.1%})")
