"""Running systems under load: single points, sweeps, saturation search.

A *system factory* is any callable ``(sim, rngs, metrics) -> BaseSystem``;
the harness owns simulator construction so every point runs in a fresh,
independently seeded universe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.sanitizer import (
    SanitizedRngRegistry,
    SanitizedSimulator,
    sanitize_enabled,
)
from repro.errors import ExperimentError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import RunMetrics
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.tiebreak import TieBreakPolicy, tiebreak_from_env
from repro.systems.base import BaseSystem
from repro.units import ms
from repro.workload.arrivals import PoissonArrivals
from repro.workload.distributions import ServiceTimeDistribution
from repro.workload.generator import ClientPool, OpenLoopLoadGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.executor import SweepExecutor
    from repro.experiments.progress import ProgressCallback

SystemFactory = Callable[[Simulator, RngRegistry, MetricsCollector], BaseSystem]


@dataclass(frozen=True)
class RunConfig:
    """How long and how carefully to run each point.

    ``horizon_ns``/``warmup_ns`` trade precision for wall-clock time;
    benches use the defaults, unit tests shrink them.
    """

    seed: int = 42
    horizon_ns: float = ms(10.0)
    warmup_ns: float = ms(2.0)
    #: Hard ceiling on kernel events per run (guards runaway points).
    max_events: Optional[int] = 50_000_000
    #: Fault scenario for this run; None (or a null plan) runs clean.
    faults: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.horizon_ns <= self.warmup_ns:
            raise ExperimentError(
                f"horizon {self.horizon_ns} must exceed warmup {self.warmup_ns}")

    def scaled(self, factor: float) -> "RunConfig":
        """A config with horizon and warmup scaled by *factor*."""
        if factor <= 0:
            raise ExperimentError(f"scale factor must be positive: {factor}")
        return replace(self, horizon_ns=self.horizon_ns * factor,
                       warmup_ns=self.warmup_ns * factor)


@dataclass(frozen=True)
class SweepPoint:
    """One measured point of a load sweep."""

    offered_rps: float
    metrics: RunMetrics

    @property
    def achieved_rps(self) -> float:
        """Measured steady-state throughput at this point."""
        return self.metrics.throughput.achieved_rps

    @property
    def p99_ns(self) -> float:
        """Tail latency at this point (NaN with no samples)."""
        if self.metrics.latency is None:
            return float("nan")
        return self.metrics.latency.p99_ns


@dataclass
class LoadSweepResult:
    """All points of one system's sweep, in offered-rate order."""

    system_name: str
    points: List[SweepPoint]

    def xs_achieved_rps(self) -> List[float]:
        """The x series: achieved throughput per point."""
        return [p.achieved_rps for p in self.points]

    def ys_p99_us(self) -> List[float]:
        """The y series: p99 latency per point, microseconds."""
        return [p.p99_ns / 1e3 for p in self.points]

    def saturation_rps(self, efficiency: float = 0.95) -> float:
        """Highest offered rate still served at *efficiency* of offered.

        An empty sweep returns NaN ("never measured"); a sweep whose
        every point misses the efficiency bar returns 0.0 ("saturates
        below the lowest offered rate").  The two used to be
        indistinguishable.
        """
        if not self.points:
            return float("nan")
        best = 0.0
        for point in self.points:
            if point.achieved_rps >= efficiency * point.offered_rps:
                best = max(best, point.offered_rps)
        return best

    def max_achieved_rps(self) -> float:
        """The best throughput any point achieved."""
        return max((p.achieved_rps for p in self.points), default=0.0)


def run_point_with_events(factory: SystemFactory, rate_rps: float,
                          distribution: ServiceTimeDistribution,
                          config: Optional[RunConfig] = None,
                          clients: Optional[ClientPool] = None,
                          sanitize: Optional[bool] = None,
                          tiebreak: Optional[TieBreakPolicy] = None,
                          exact_reductions: bool = False,
                          ) -> Tuple[RunMetrics, int]:
    """Run one point and return (metrics, simulator events executed).

    The event count is what executors aggregate to prove a cached
    re-run did no simulation work.

    ``sanitize`` switches the run onto the observation-only sanitizing
    simulator (clock monotonicity, queue accounting, request
    conservation, per-stream draw counts — see
    :mod:`repro.analysis.sanitizer`); the default None defers to the
    ``REPRO_SANITIZE`` environment variable, which an executor's
    worker processes inherit.  Metrics are bit-identical either way.

    ``tiebreak`` installs an equal-timestamp ordering policy on the
    fresh simulator (see :mod:`repro.sim.tiebreak`); the default None
    defers to ``REPRO_TIEBREAK`` (identity/FIFO when unset).  The
    schedule-permutation fuzzer (``repro race``) drives this seam —
    results must be bit-identical under any policy for a system free of
    tie-break races.

    ``exact_reductions`` runs the collector with exactly rounded
    (:func:`math.fsum`) wait summation instead of the digest-pinned
    canonical-order accumulation; the fuzzer enables it so float
    reassociation cannot masquerade as a schedule race.
    """
    if config is None:
        config = RunConfig()
    if rate_rps <= 0:
        raise ExperimentError(f"rate must be positive: {rate_rps}")
    if sanitize is None:
        sanitize = sanitize_enabled()
    if tiebreak is None:
        tiebreak = tiebreak_from_env()
    if sanitize:
        rngs: RngRegistry = SanitizedRngRegistry(config.seed)
        sim: Simulator = SanitizedSimulator(rngs=rngs)
    else:
        rngs = RngRegistry(config.seed)
        sim = Simulator()
    if tiebreak is not None:
        sim.set_tiebreak(tiebreak)
    metrics = MetricsCollector(sim, warmup_ns=config.warmup_ns,
                               exact_reductions=exact_reductions)
    system = factory(sim, rngs, metrics)
    plan = config.faults
    if plan is not None and not plan.is_null:
        injector = FaultInjector(sim, rngs, plan, metrics=metrics,
                                 tracer=getattr(system, "tracer", None))
        injector.attach(system)
    ingress = system.ingress
    if isinstance(sim, SanitizedSimulator):
        sim.watch_system(system)
        ingress = sim.tracking_ingress(system.ingress)
    system.start()
    generator = OpenLoopLoadGenerator(
        sim, ingress, PoissonArrivals(rate_rps), rngs, metrics,
        horizon_ns=config.horizon_ns, distribution=distribution,
        clients=clients)
    generator.start()
    # Run to the horizon exactly: the measurement window is
    # [warmup, horizon] regardless of in-flight stragglers, and systems
    # with perpetual housekeeping processes (rebalancers, advertisers)
    # terminate cleanly.
    sim.run(until=config.horizon_ns, max_events=config.max_events)
    if isinstance(sim, SanitizedSimulator):
        sim.finalize()
    return metrics.summarize(offered_rps=rate_rps), sim.event_count


def run_point(factory: SystemFactory, rate_rps: float,
              distribution: ServiceTimeDistribution,
              config: Optional[RunConfig] = None,
              clients: Optional[ClientPool] = None) -> RunMetrics:
    """Run one (system, rate) point and return its metrics."""
    metrics, _events = run_point_with_events(factory, rate_rps, distribution,
                                             config, clients)
    return metrics


def _run_batch(factory: SystemFactory, rates_rps: Sequence[float],
               distribution: ServiceTimeDistribution, config: RunConfig,
               system_name: str,
               executor: Optional["SweepExecutor"],
               on_event: Optional["ProgressCallback"] = None,
               ) -> List[RunMetrics]:
    """One metrics list for *rates_rps*: one ``run_points`` call.

    Without an *executor* the points run on the process-wide
    :func:`~repro.experiments.executor.default_executor`.  *on_event*
    subscribes to this batch's progress stream.
    """
    from repro.experiments.executor import PointSpec, default_executor
    specs = [PointSpec(factory=factory, rate_rps=rate,
                       distribution=distribution, config=config,
                       label=system_name)
             for rate in rates_rps]
    return (executor or default_executor()).run_points(specs,
                                                       on_event=on_event)


def load_sweep(factory: SystemFactory, rates_rps: Sequence[float],
               distribution: ServiceTimeDistribution,
               config: Optional[RunConfig] = None,
               system_name: str = "system",
               executor: Optional["SweepExecutor"] = None,
               on_event: Optional["ProgressCallback"] = None,
               ) -> LoadSweepResult:
    """Run *factory* at each offered rate; one fresh simulator each.

    With an *executor*, points may run in parallel worker processes
    and/or be served from its result cache; ``points`` stay in
    offered-rate order either way.  *on_event* streams per-point
    progress (see :mod:`repro.experiments.progress`) with or without
    an executor.  A point that fails every attempt raises
    :class:`~repro.errors.SweepFailure` once the other points are done.
    """
    if config is None:
        config = RunConfig()
    if not rates_rps:
        raise ExperimentError("empty rate list")
    all_metrics = _run_batch(factory, rates_rps, distribution, config,
                             system_name, executor, on_event=on_event)
    points = [SweepPoint(offered_rps=rate, metrics=metrics)
              for rate, metrics in zip(rates_rps, all_metrics)]
    return LoadSweepResult(system_name=system_name, points=points)


def measure_capacity(factory: SystemFactory,
                     distribution: ServiceTimeDistribution,
                     overload_rps: float,
                     config: Optional[RunConfig] = None,
                     system_name: str = "system",
                     executor: Optional["SweepExecutor"] = None,
                     on_event: Optional["ProgressCallback"] = None) -> float:
    """Achieved throughput under heavy overload — the plateau value.

    This is how Figure 3's y-axis is measured: offer far more than the
    system can serve and report what actually completes.
    """
    if config is None:
        config = RunConfig()
    metrics = _run_batch(factory, [overload_rps], distribution, config,
                         system_name, executor, on_event=on_event)[0]
    return metrics.throughput.achieved_rps


class SaturationResult(float):
    """The saturation knee, plus every point probed on the way there.

    Compares and arithmetics as a plain float (the knee rate), so
    existing callers are untouched; ``probes`` maps each bisection
    midpoint's offered rate to its full :class:`RunMetrics`, in probe
    order, so callers and caches can reuse the measurements instead of
    re-running them.
    """

    probes: Dict[float, RunMetrics]

    def __new__(cls, rate: float,
                probes: Optional[Dict[float, RunMetrics]] = None
                ) -> "SaturationResult":
        result = super().__new__(cls, rate)
        result.probes = dict(probes or {})
        return result

    @property
    def rate_rps(self) -> float:
        """The knee rate as a plain float."""
        return float(self)

    def __repr__(self) -> str:
        return (f"SaturationResult({float(self)!r}, "
                f"probes={len(self.probes)} points)")


def find_saturation(factory: SystemFactory,
                    distribution: ServiceTimeDistribution,
                    lo_rps: float, hi_rps: float,
                    config: Optional[RunConfig] = None,
                    efficiency: float = 0.95,
                    iterations: int = 7,
                    system_name: str = "system",
                    executor: Optional["SweepExecutor"] = None,
                    on_event: Optional["ProgressCallback"] = None,
                    ) -> SaturationResult:
    """Binary-search the saturation knee between *lo_rps* and *hi_rps*.

    Returns the highest rate at which the system still completes at
    least *efficiency* of offered load, as a :class:`SaturationResult`
    carrying every probed point's metrics (they used to be discarded).
    """
    if config is None:
        config = RunConfig()
    if not 0 < lo_rps < hi_rps:
        raise ExperimentError(f"need 0 < lo < hi, got {lo_rps}, {hi_rps}")
    best = 0.0
    lo, hi = lo_rps, hi_rps
    probes: Dict[float, RunMetrics] = {}
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        metrics = _run_batch(factory, [mid], distribution, config,
                             system_name, executor, on_event=on_event)[0]
        probes[mid] = metrics
        if metrics.throughput.achieved_rps >= efficiency * mid:
            best = mid
            lo = mid
        else:
            hi = mid
    return SaturationResult(best, probes)
