"""Workload traces: record a request stream once, replay it anywhere.

Comparing two systems under independently sampled workloads leaves
sampling noise in the difference; replaying the *identical* request
stream (same arrival instants, same service demands, same flow
identities) against both systems is the exact form of common random
numbers.  The cross-system benches sample fresh streams per run (as the
paper's testbed did); traces are the sharper tool the library offers on
top.

A trace can also be saved to a JSON-lines file and reloaded, so a
workload regression (e.g. a production-incident arrival pattern) can
live in a repository.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import WorkloadError
from repro.metrics.collector import MetricsCollector
from repro.runtime.request import Request
from repro.sim.rng import RngRegistry
from repro.workload.arrivals import ArrivalProcess
from repro.workload.distributions import ServiceTimeDistribution
from repro.workload.generator import ClientPool

if False:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class TraceEntry:
    """One recorded request."""

    arrival_ns: float
    service_ns: float
    src_ip: int
    src_port: int
    key: Optional[int] = None
    size_bytes: int = 64


class RequestTrace:
    """An immutable, replayable request stream."""

    def __init__(self, entries: List[TraceEntry]):
        if not entries:
            raise WorkloadError("a trace needs at least one entry")
        arrivals = [entry.arrival_ns for entry in entries]
        if arrivals != sorted(arrivals):
            raise WorkloadError("trace entries must be in arrival order")
        self.entries = list(entries)

    # -- construction ---------------------------------------------------------

    @classmethod
    def record(cls, distribution: ServiceTimeDistribution,
               arrivals: ArrivalProcess, horizon_ns: float,
               seed: int = 0,
               clients: Optional[ClientPool] = None) -> "RequestTrace":
        """Sample a trace from a distribution + arrival process."""
        if horizon_ns <= 0:
            raise WorkloadError(f"horizon must be positive: {horizon_ns}")
        rngs = RngRegistry(seed)
        arrival_rng = rngs.stream("arrivals")
        service_rng = rngs.stream("service")
        flow_rng = rngs.stream("flows")
        pool = clients if clients is not None else ClientPool()
        entries: List[TraceEntry] = []
        now = 0.0
        while True:
            # Single-producer arrival clock: the whole trace is drawn
            # here in one pass, so accumulation order is fixed.
            now += arrivals.next_gap_ns(arrival_rng)  # repro: allow[sim-time-arith]
            if now > horizon_ns:
                break
            src_ip, src_port = pool.pick(flow_rng)
            entries.append(TraceEntry(
                arrival_ns=now,
                service_ns=distribution.sample(service_rng),
                src_ip=src_ip, src_port=src_port))
        if not entries:
            raise WorkloadError(
                "horizon too short: the trace recorded no arrivals")
        return cls(entries)

    # -- persistence ----------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the trace as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for entry in self.entries:
                handle.write(json.dumps({
                    "arrival_ns": entry.arrival_ns,
                    "service_ns": entry.service_ns,
                    "src_ip": entry.src_ip,
                    "src_port": entry.src_port,
                    "key": entry.key,
                    "size_bytes": entry.size_bytes,
                }) + "\n")

    @classmethod
    def load(cls, path: str) -> "RequestTrace":
        """Read a trace written by :meth:`save`."""
        entries: List[TraceEntry] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                entries.append(TraceEntry(
                    arrival_ns=float(raw["arrival_ns"]),
                    service_ns=float(raw["service_ns"]),
                    src_ip=int(raw["src_ip"]),
                    src_port=int(raw["src_port"]),
                    key=raw.get("key"),
                    size_bytes=int(raw.get("size_bytes", 64))))
        return cls(entries)

    # -- inspection -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def horizon_ns(self) -> float:
        """Arrival time of the last entry."""
        return self.entries[-1].arrival_ns

    def offered_rps(self) -> float:
        """Average offered rate over the trace span."""
        span = self.entries[-1].arrival_ns
        if span <= 0:
            return 0.0
        return len(self.entries) / span * 1e9

    def total_work_ns(self) -> float:
        """Sum of all service demands in the trace."""
        return sum(entry.service_ns for entry in self.entries)

    def __repr__(self) -> str:
        return (f"<RequestTrace n={len(self.entries)} "
                f"span={self.horizon_ns / 1e6:.1f}ms "
                f"rate={self.offered_rps() / 1e3:.0f}kRPS>")


class TraceReplayer:
    """Replays a trace into a system, mirroring the open-loop generator.

    Parameters
    ----------
    sim:
        Owning simulator (fresh per replay).
    ingress:
        The system's entry point.
    trace:
        The recorded stream.
    metrics:
        Where arrivals are recorded.
    """

    def __init__(self, sim: "Simulator", ingress: Callable[[Request], None],
                 trace: RequestTrace, metrics: MetricsCollector):
        self.sim = sim
        self.ingress = ingress
        self.trace = trace
        self.metrics = metrics
        self.replayed = 0
        self._started = False

    def start(self) -> None:
        """Begin replaying (call once, before the run)."""
        if self._started:
            raise WorkloadError("replayer already started")
        self._started = True
        self.sim.process(self._run(), label="trace-replay")

    def _run(self):
        now = 0.0
        for entry in self.trace.entries:
            gap = entry.arrival_ns - now
            if gap > 0:
                yield gap
            now = entry.arrival_ns
            request = Request(
                service_ns=entry.service_ns, arrival_ns=self.sim.now,
                src_ip=entry.src_ip, src_port=entry.src_port,
                key=entry.key, size_bytes=entry.size_bytes)
            self.replayed += 1
            self.metrics.record_arrival(request)
            self.ingress(request)

    def __repr__(self) -> str:
        return f"<TraceReplayer {self.replayed}/{len(self.trace)}>"
