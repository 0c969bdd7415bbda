"""Running systems under load: single points, sweeps, capacity.

A *system factory* is any callable ``(sim, rngs, metrics) -> BaseSystem``;
the harness owns simulator construction so every point runs in a fresh,
independently seeded universe.
"""

from __future__ import annotations

import gc
import math
import os
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

from repro.errors import ExperimentError
from repro.metrics.summary import RunMetrics
from repro.units import ms
from repro.workload.distributions import ServiceTimeDistribution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.executor import Plan, SweepExecutor
    from repro.experiments.progress import ProgressCallback
    from repro.faults.plan import FaultPlan
    from repro.sim.tiebreak import TieBreakPolicy
    from repro.systems.base import BaseSystem
    from repro.workload.generator import ClientPool

#: ``(sim, rngs, metrics) -> system``; the model it names is imported
#: by the first point a process runs, not by this module.
SystemFactory = Callable[..., "BaseSystem"]

#: Environment variable that switches sanitized runs on everywhere
#: (CLI, harness, benches, worker processes of a parallel executor).
SANITIZE_ENV = "REPRO_SANITIZE"


def sanitize_enabled(env: Optional[Dict[str, str]] = None) -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized runs.

    Accepts the usual truthy spellings; ``0``/``false``/``no``/empty
    (or unset) disable.  *env* defaults to ``os.environ``.
    """
    if env is None:
        env = os.environ  # type: ignore[assignment]
    value = env.get(SANITIZE_ENV, "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


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
    keeps the identity (FIFO) order.  The schedule-permutation fuzzer
    (``repro race``) drives this seam — results must be bit-identical
    under any policy for a system free of tie-break races.

    The point's memory lives and dies with the call: cyclic GC is
    paused from building the simulator until the summary is taken, so
    the whole simulated machine sits in the young generation, and once
    :func:`_run_point` has returned it is unreachable and one
    young-generation pass frees it before the next point is built.  The
    caller's GC state is restored on the way out, also after a point
    that raised (whose traceback keeps its graph alive).
    """
    if config is None:
        config = RunConfig()
    if not (math.isfinite(rate_rps) and rate_rps > 0):
        raise ExperimentError(f"rate must be positive and finite: {rate_rps}")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        outcome = _run_point(factory, rate_rps, distribution, config,
                             clients, sanitize, tiebreak)
        if gc_was_enabled:
            gc.collect(0)
        return outcome
    finally:
        if gc_was_enabled:
            gc.enable()


def load_model() -> tuple:
    """The model every point builds, imported on first use.

    Building an executor, a cache or a ledger loads none of it: a
    process imports it with its first point, and a sweep imports it
    before it forks workers, so each worker inherits the modules
    instead of compiling them again.  The fault injector and the
    sanitizer load only for a point that uses them.
    """
    from repro.metrics.collector import MetricsCollector
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry
    from repro.workload.arrivals import PoissonArrivals
    from repro.workload.generator import OpenLoopLoadGenerator
    return (MetricsCollector, Simulator, RngRegistry, PoissonArrivals,
            OpenLoopLoadGenerator)


def _run_point(factory: SystemFactory, rate_rps: float,
               distribution: ServiceTimeDistribution, config: RunConfig,
               clients: Optional[ClientPool], sanitize: Optional[bool],
               tiebreak: Optional[TieBreakPolicy],
               ) -> Tuple[RunMetrics, int]:
    """Build, run and summarize one point; only the outcome escapes."""
    (MetricsCollector, Simulator, RngRegistry, PoissonArrivals,
     OpenLoopLoadGenerator) = load_model()
    if sanitize is None:
        sanitize = sanitize_enabled()
    if sanitize:
        from repro.analysis.sanitizer import (
            SanitizedRngRegistry,
            SanitizedSimulator,
        )
        rngs: RngRegistry = SanitizedRngRegistry(config.seed)
        sim: Simulator = SanitizedSimulator(rngs=rngs)
    else:
        rngs = RngRegistry(config.seed)
        sim = Simulator()
    if tiebreak is not None:
        sim.set_tiebreak(tiebreak)
    metrics = MetricsCollector(sim, warmup_ns=config.warmup_ns)
    system = factory(sim, rngs, metrics)
    plan = config.faults
    if plan is not None and not plan.is_null:
        from repro.faults.injector import FaultInjector
        injector = FaultInjector(sim, rngs, plan, metrics=metrics)
        injector.attach(system)
    ingress = system.ingress
    if sanitize:
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
    if sanitize:
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


def sweep_plan(factory: SystemFactory, rates_rps: Sequence[float],
               distribution: ServiceTimeDistribution, config: RunConfig,
               system_name: str = "system") -> "Plan":
    """The plan of one load sweep: a point per offered rate, assembled
    into a :class:`LoadSweepResult` in the order of *rates_rps*."""
    from repro.experiments.executor import Plan, PointSpec
    if not rates_rps:
        raise ExperimentError("empty rate list")
    specs = tuple(PointSpec(factory=factory, rate_rps=rate,
                            distribution=distribution, config=config,
                            label=system_name)
                  for rate in rates_rps)
    return Plan(specs, lambda metrics: LoadSweepResult(
        system_name=system_name,
        points=[SweepPoint(offered_rps=spec.rate_rps, metrics=m)
                for spec, m in zip(specs, metrics)]))


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
    from repro.experiments.executor import run_plan
    if config is None:
        config = RunConfig()
    return run_plan(sweep_plan(factory, rates_rps, distribution, config,
                               system_name), executor, on_event)


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
    sweep = load_sweep(factory, [overload_rps], distribution, config,
                       system_name, executor, on_event)
    return sweep.points[0].achieved_rps
