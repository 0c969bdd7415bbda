"""Named benchmark suites: what ``repro bench <name>`` can measure.

Three families cover the paths the ROADMAP's hot-path item cares about:

- ``fig2`` — the full Figure 2 sweep (two systems x nine offered
  rates), the canonical end-to-end workload every engine optimization
  is judged on;
- ``systems`` / ``system:<name>`` — one point per registered system
  (or a single named one) at a common load, so a regression localizes
  to the system that slowed down;
- ``engine`` — kernel microbenchmarks (timeout storm, process
  ping-pong through a :class:`~repro.sim.primitives.Store`, deferred
  timer drain) that isolate the DES substrate from any system model.

Every suite reports the sweep points it ran, the simulator events it
executed, and a metrics digest — the determinism witness that a faster
run measured exactly the same simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.bench.recorder import (
    BenchOptions,
    SuiteResult,
    metrics_digest,
    values_digest,
)
from repro.errors import ExperimentError

#: Offered load / service time for the per-system single points: high
#: enough to exercise queueing, low enough that every system keeps up.
_SYSTEM_POINT_RPS = 200e3
_SYSTEM_POINT_SERVICE_US = 2.0


@dataclass(frozen=True)
class BenchSuite:
    """One runnable suite: a name, a description, and its runner."""

    name: str
    description: str
    run: Callable[[BenchOptions], SuiteResult]


def _run_fig2(options: BenchOptions) -> SuiteResult:
    from repro.experiments.executor import make_executor
    from repro.experiments.figures import figure2
    from repro.experiments.harness import RunConfig
    progress = None
    if options.progress:
        # Measure the streaming layer under load: every point flows
        # through the event stream while the bench clock runs.
        from repro.experiments.progress import SweepProgress
        progress = SweepProgress()
    executor = make_executor(jobs=options.jobs, cache_dir=options.cache_dir,
                             on_event=progress)
    figure = figure2(config=RunConfig(seed=options.seed),
                     scale=options.scale, executor=executor)
    all_metrics = [point.metrics for sweep in figure.sweeps
                   for point in sweep.points]
    stats = executor.stats
    detail_progress = ({"progress_events": progress.events_seen}
                       if progress is not None else {})
    return SuiteResult(
        points=len(all_metrics),
        events=stats.events_executed,
        metrics_digest=metrics_digest(all_metrics),
        detail={
            "figure": "fig2",
            "series": [sweep.system_name for sweep in figure.sweeps],
            "points_cached": stats.points_cached,
            "points_retried": stats.points_retried,
            **detail_progress,
        },
        payload=figure,
    )


def _system_point_suite(names: List[str]) -> Callable[[BenchOptions],
                                                      SuiteResult]:
    def run(options: BenchOptions) -> SuiteResult:
        from repro.experiments.executor import (
            ConfiguredFactory,
            PointSpec,
            make_executor,
        )
        from repro.experiments.harness import RunConfig
        from repro.systems import registry
        from repro.units import us
        from repro.workload.distributions import Fixed
        config = RunConfig(seed=options.seed).scaled(options.scale)
        distribution = Fixed(us(_SYSTEM_POINT_SERVICE_US))
        specs = [PointSpec(
            factory=ConfiguredFactory.by_name(
                name, registry.default_config(name)),
            rate_rps=_SYSTEM_POINT_RPS, distribution=distribution,
            config=config, label=name) for name in names]
        executor = make_executor(jobs=options.jobs,
                                 cache_dir=options.cache_dir)
        results = executor.run_points(specs)
        stats = executor.stats
        return SuiteResult(
            points=len(results),
            events=stats.events_executed,
            metrics_digest=metrics_digest(results),
            detail={
                "systems": list(names),
                "rate_rps": _SYSTEM_POINT_RPS,
                "service_us": _SYSTEM_POINT_SERVICE_US,
                "points_cached": stats.points_cached,
            },
            payload=results,
        )
    return run


def _run_engine(options: BenchOptions) -> SuiteResult:
    """Kernel microbenchmarks — no system model, no workload, no RNG."""
    from repro.sim.engine import Simulator
    from repro.sim.primitives import Store

    witnesses: List = []
    events = 0
    # 1) Timeout storm: raw schedule/dispatch rate with heavy heap churn.
    n_timeouts = max(1_000, int(100_000 * options.scale))
    sim = Simulator()
    for i in range(n_timeouts):
        sim.timeout(float(i % 97))
    sim.run()
    witnesses.append(["timeouts", sim.event_count, sim.now])
    events += sim.event_count
    sim.close()

    # 2) Process ping-pong through a Store: the generator-trampoline
    # path every worker/dispatcher loop exercises.
    n_pairs = max(500, int(20_000 * options.scale))
    sim = Simulator()
    store = Store(sim)

    def producer(sim):
        for i in range(n_pairs):
            yield sim.timeout(1.0)
            store.put(i)

    def consumer(sim):
        total = 0
        for _ in range(n_pairs):
            item = yield store.get()
            total += item
        return total

    sim.process(producer(sim))
    consumer_proc = sim.process(consumer(sim))
    sim.run()
    witnesses.append(["pingpong", sim.event_count, sim.now,
                      consumer_proc.value])
    events += sim.event_count
    sim.close()

    # 3) Deferred-callback drain: the pacing/feedback timer path
    # (many same-instant callbacks, FIFO within each batch).
    n_timers = max(1_000, int(50_000 * options.scale))
    sim = Simulator()
    fired: List[int] = []
    for i in range(n_timers):
        sim.defer(float(i % 13), (lambda k: (lambda: fired.append(k)))(i))
    sim.run()
    witnesses.append(["defer", sim.event_count, sim.now,
                      len(fired), fired[0], fired[-1]])
    events += sim.event_count
    sim.close()

    return SuiteResult(
        points=3,
        events=events,
        metrics_digest=values_digest(witnesses),
        detail={"microbenches": [w[0] for w in witnesses],
                "n_timeouts": n_timeouts, "n_pairs": n_pairs,
                "n_timers": n_timers},
        payload=witnesses,
    )


def _registered_names() -> List[str]:
    from repro.systems import registry
    return [entry.name for entry in registry.list_systems()]


def get_suite(name: str) -> BenchSuite:
    """Resolve suite *name* (static catalog plus ``system:<name>``)."""
    if name == "fig2":
        return BenchSuite(
            name="fig2",
            description="Figure 2 sweep: 2 systems x 9 offered rates",
            run=_run_fig2)
    if name == "systems":
        return BenchSuite(
            name="systems",
            description="one point per registered system",
            run=_system_point_suite(_registered_names()))
    if name == "engine":
        return BenchSuite(
            name="engine",
            description="kernel microbenchmarks (timeouts, ping-pong, "
                        "deferred timers)",
            run=_run_engine)
    if name.startswith("system:"):
        system = name[len("system:"):]
        from repro.systems import registry
        registry.get(system)  # raises ConfigError for unknown names
        return BenchSuite(
            name=name,
            description=f"single point of registered system {system!r}",
            run=_system_point_suite([system]))
    raise ExperimentError(
        f"unknown bench suite {name!r}; available: "
        f"{', '.join(s.name for s in list_suites())} or system:<name>")


def list_suites() -> List[BenchSuite]:
    """The static suite catalog (``system:<name>`` resolves on demand)."""
    return [get_suite("fig2"), get_suite("systems"), get_suite("engine")]
