"""One definition per evaluation figure (§4.1).

Each figure is a plan (:func:`plan_figure`): the points it needs plus
how their metrics become a :class:`FigureResult` whose series mirror
the paper's plot — same workloads, same worker counts, same
outstanding-request targets, same preemption settings.  Figures 2, 4,
5 and 6 are rows of one table, :data:`SWEEP_FIGURES`; Figure 3 is its
own grid.  ``figureN`` (= ``ALL_FIGURES["figN"]``) runs one figure as
one executor batch.  ``scale`` shrinks horizons for quick runs (tests
use ``scale=0.2``; benches run at 1.0).

Absolute RPS values come from the simulator's calibration, not the 2019
testbed — EXPERIMENTS.md records the paper-vs-measured comparison and
the shape criteria each figure is judged on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.config import (
    PreemptionConfig,
    ShinjukuConfig,
    ShinjukuOffloadConfig,
)
from repro.experiments.executor import (
    ConfiguredFactory,
    Plan,
    PointSpec,
    SweepExecutor,
    run_plan,
)
from repro.experiments.harness import (
    LoadSweepResult,
    RunConfig,
    sweep_plan,
)
from repro.metrics.summary import RunMetrics
from repro.units import us
from repro.workload.distributions import (
    BIMODAL_FIG2,
    Fixed,
    ServiceTimeDistribution,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.progress import ProgressCallback

#: Preemption disabled ("We turned off preemption for the fixed
#: workloads", §4.1).
NO_PREEMPTION = PreemptionConfig(time_slice_ns=None)
#: Figure 2's 10 µs Dune-timer slice.
SLICE_10US = PreemptionConfig(time_slice_ns=us(10.0), mechanism="dune")


@dataclass
class FigureSeries:
    """One plotted line: a label plus (x, y) pairs."""

    label: str
    xs: List[float]
    ys: List[float]
    x_label: str = "throughput (100k RPS)"
    y_label: str = "p99 latency (us)"


@dataclass
class FigureResult:
    """A regenerated paper figure."""

    figure_id: str
    title: str
    series: List[FigureSeries]
    notes: str = ""
    #: Raw sweep results for deeper inspection (absent for Figure 3).
    sweeps: List[LoadSweepResult] = field(default_factory=list)


@dataclass(frozen=True)
class SweepFigure:
    """A Shinjuku-vs-Offload load-sweep figure (:data:`SWEEP_FIGURES`)."""

    title: str
    notes: str
    distribution: ServiceTimeDistribution
    #: Offered rates (RPS) when the caller names none.
    rates: Tuple[float, ...]
    shinjuku: ShinjukuConfig
    offload: ShinjukuOffloadConfig
    #: Horizon multiple on top of ``scale``.
    horizon_factor: float = 1.0


#: Figures 2, 4, 5 and 6 (§4.1).
SWEEP_FIGURES: Dict[str, SweepFigure] = {
    # "Shinjuku has 3 workers and Shinjuku-Offload has 4 (up to 4
    # outstanding requests).  The preemption time slice is 10 µs."
    "fig2": SweepFigure(
        title="99.5% 5us / 0.5% 100us bimodal; slice 10us; 3 vs 4 workers",
        notes="Expected shape: both hold low tails under dispersion; "
              "Offload sustains more load (its dispatcher costs no host "
              "core).",
        distribution=BIMODAL_FIG2,
        rates=(100e3, 200e3, 300e3, 350e3, 400e3, 450e3, 500e3, 550e3,
               600e3),
        shinjuku=ShinjukuConfig(workers=3, preemption=SLICE_10US),
        offload=ShinjukuOffloadConfig(workers=4, outstanding_per_worker=4,
                                      preemption=SLICE_10US)),
    "fig4": SweepFigure(
        title="Fixed 5us; no preemption; 3 vs 4 workers",
        notes="Expected shape: Offload outperforms - its extra worker is "
              "the freed host core.",
        distribution=Fixed(us(5.0)),
        rates=(100e3, 200e3, 300e3, 400e3, 450e3, 500e3, 550e3, 600e3,
               650e3, 700e3),
        shinjuku=ShinjukuConfig(workers=3, preemption=NO_PREEMPTION),
        offload=ShinjukuOffloadConfig(workers=4, outstanding_per_worker=4,
                                      preemption=NO_PREEMPTION)),
    "fig5": SweepFigure(
        title="Fixed 100us; 15 vs 16 workers (<=2 outstanding)",
        notes="Expected shape: Offload wins at large service times - "
              "communication overhead amortizes, extra worker dominates.",
        distribution=Fixed(us(100.0)),
        rates=(25e3, 50e3, 75e3, 100e3, 120e3, 135e3, 145e3, 155e3, 165e3),
        shinjuku=ShinjukuConfig(workers=15, preemption=NO_PREEMPTION),
        offload=ShinjukuOffloadConfig(workers=16, outstanding_per_worker=2,
                                      preemption=NO_PREEMPTION),
        # Long services need a longer window for stable p99s.
        horizon_factor=4.0),
    # The bottleneck figure (§5.1).
    "fig6": SweepFigure(
        title="Fixed 1us; 15 vs 16 workers (<=5 outstanding)",
        notes="Expected shape: Shinjuku greatly outperforms - the ARM "
              "dispatcher and packetized communication are the "
              "bottleneck; Offload workers spend far more time waiting "
              "for work.",
        distribution=Fixed(us(1.0)),
        rates=(500e3, 1000e3, 1250e3, 1500e3, 2000e3, 2500e3, 3000e3,
               3500e3, 4000e3, 4500e3),
        shinjuku=ShinjukuConfig(workers=15, preemption=NO_PREEMPTION),
        offload=ShinjukuOffloadConfig(workers=16, outstanding_per_worker=5,
                                      preemption=NO_PREEMPTION)),
}


def _plan_sweep_figure(fig_id: str, config: RunConfig, scale: float,
                       rates: Optional[Sequence[float]] = None) -> Plan:
    """Both systems' sweeps of one :data:`SWEEP_FIGURES` row."""
    row = SWEEP_FIGURES[fig_id]
    run_config = config.scaled(scale * row.horizon_factor)
    if rates is None:
        rates = row.rates
    # By-name factories stay picklable + fingerprintable, so figure
    # sweeps can fan out across worker processes and land in the cache.
    # Shinjuku first: equal-cost points launch in submission order, and
    # Offload's overloaded points first raise peak RSS (fig6: +0.13 MiB).
    sweeps = [sweep_plan(ConfiguredFactory.by_name(name, system_config),
                         rates, row.distribution, run_config, label)
              for name, label, system_config in (
                  ("shinjuku", "Shinjuku", row.shinjuku),
                  ("shinjuku-offload", "Shinjuku-Offload", row.offload))]

    def assemble(results: List[LoadSweepResult]) -> FigureResult:
        offload_first = results[::-1]
        series = [FigureSeries(label=s.system_name,
                               xs=[x / 1e5 for x in s.xs_achieved_rps()],
                               ys=s.ys_p99_us())
                  for s in offload_first]
        return FigureResult(figure_id=fig_id, title=row.title, series=series,
                            notes=row.notes, sweeps=offload_first)

    return Plan.join(sweeps, assemble)


def _plan_figure3(config: RunConfig, scale: float,
                  outstanding: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
                  worker_counts: Sequence[int] = (16, 4),
                  overload_rps: float = 2.5e6) -> Plan:
    """Offload saturation throughput vs outstanding requests per worker.

    "Fixed 1 µs service time.  Shinjuku-Offload [with 4 and 16
    workers]" — preemption off, overload offered, plateau measured.
    """
    run_config = config.scaled(scale)
    grid = [(workers, k) for workers in worker_counts for k in outstanding]
    # The outstanding target joins the label: every grid cell runs at
    # the same overload rate, and (label, rate) is how progress streams
    # and ``repro watch`` curves tell points apart — two cells must
    # never alias.
    specs = tuple(
        PointSpec(factory=ConfiguredFactory.by_name(
                      "shinjuku-offload",
                      ShinjukuOffloadConfig(workers=workers,
                                            outstanding_per_worker=k,
                                            preemption=NO_PREEMPTION)),
                  rate_rps=overload_rps, distribution=Fixed(us(1.0)),
                  config=run_config,
                  label=f"Shinjuku-Offload/{workers}w/k{k}")
        for workers, k in grid)

    def assemble(results: Sequence[RunMetrics]) -> FigureResult:
        capacities = {cell: metrics.throughput.achieved_rps
                      for cell, metrics in zip(grid, results)}
        series = [
            FigureSeries(
                label=f"{workers} workers",
                xs=[float(k) for k in outstanding],
                ys=[capacities[(workers, k)] / 1e5 for k in outstanding],
                x_label="outstanding requests",
                y_label="throughput (100k RPS)")
            for workers in worker_counts]
        return FigureResult(
            "fig3", "Fixed 1us; Shinjuku-Offload throughput vs outstanding",
            series=series,
            notes="Expected shape: throughput rises with outstanding then "
                  "plateaus; 16 workers level earlier (dispatcher-bound) "
                  "and higher; 4 workers gain the most from 1 -> 5.")

    return Plan(specs, assemble)


def plan_figure(fig_id: str, config: Optional[RunConfig] = None,
                scale: float = 1.0, **overrides: Any) -> Plan:
    """The plan of figure *fig_id* (a key of :data:`ALL_FIGURES`).

    *overrides* are the figure's keyword overrides: ``rates`` for a
    load-sweep figure; ``outstanding``, ``worker_counts`` and
    ``overload_rps`` for Figure 3.
    """
    config = config if config is not None else RunConfig()
    if fig_id == "fig3":
        return _plan_figure3(config, scale, **overrides)
    return _plan_sweep_figure(fig_id, config, scale, **overrides)


def run_figure(fig_id: str, config: Optional[RunConfig] = None,
               scale: float = 1.0,
               executor: Optional[SweepExecutor] = None,
               on_event: Optional["ProgressCallback"] = None,
               **overrides: Any) -> FigureResult:
    """Regenerate figure *fig_id* as one executor batch (both systems'
    points together)."""
    return run_plan(plan_figure(fig_id, config, scale, **overrides),
                    executor, on_event)


#: Registry used by the CLI and the smoke tests:
#: ``ALL_FIGURES[fig_id](config=, scale=, executor=, on_event=, ...)``.
ALL_FIGURES: Dict[str, Callable[..., FigureResult]] = {
    fig_id: functools.partial(run_figure, fig_id)
    for fig_id in ("fig2", "fig3", "fig4", "fig5", "fig6")}
figure2 = ALL_FIGURES["fig2"]
figure3 = ALL_FIGURES["fig3"]
figure4 = ALL_FIGURES["fig4"]
figure5 = ALL_FIGURES["fig5"]
figure6 = ALL_FIGURES["fig6"]
