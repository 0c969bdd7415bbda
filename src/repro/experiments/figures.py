"""One definition per evaluation figure (§4.1).

Each ``figureN`` function reruns that figure's experiment and returns a
:class:`FigureResult` whose series mirror the paper's plot: same
workloads, same worker counts, same outstanding-request targets, same
preemption settings.  ``scale`` shrinks horizons for quick runs (tests
use ``scale=0.2``; benches run at 1.0).

Absolute RPS values come from the simulator's calibration, not the 2019
testbed — EXPERIMENTS.md records the paper-vs-measured comparison and
the shape criteria each figure is judged on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import (
    PreemptionConfig,
    ShinjukuConfig,
    ShinjukuOffloadConfig,
)
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    SweepExecutor,
    default_executor,
)
from repro.experiments.harness import (
    LoadSweepResult,
    RunConfig,
    load_sweep,
)
from repro.units import us
from repro.workload.distributions import BIMODAL_FIG2, Fixed

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


def _sweep_pair(shinjuku_config: ShinjukuConfig,
                offload_config: ShinjukuOffloadConfig,
                distribution, rates: Sequence[float],
                config: RunConfig,
                executor: Optional[SweepExecutor] = None,
                on_event: Optional["ProgressCallback"] = None,
                ) -> Tuple[LoadSweepResult, LoadSweepResult]:
    # By-name factories stay picklable + fingerprintable, so figure
    # sweeps can fan out across worker processes and land in the cache.
    shinjuku = load_sweep(
        ConfiguredFactory.by_name("shinjuku", shinjuku_config), rates,
        distribution, config, system_name="Shinjuku", executor=executor,
        on_event=on_event)
    offload = load_sweep(
        ConfiguredFactory.by_name("shinjuku-offload", offload_config), rates,
        distribution, config, system_name="Shinjuku-Offload",
        executor=executor, on_event=on_event)
    return shinjuku, offload


def _to_figure(figure_id: str, title: str, notes: str,
               sweeps: Sequence[LoadSweepResult]) -> FigureResult:
    series = [
        FigureSeries(label=s.system_name,
                     xs=[x / 1e5 for x in s.xs_achieved_rps()],
                     ys=s.ys_p99_us())
        for s in sweeps]
    return FigureResult(figure_id=figure_id, title=title, series=series,
                        notes=notes, sweeps=list(sweeps))


# ---------------------------------------------------------------------------
# Figure 2 — bimodal 99.5% 5 µs / 0.5% 100 µs, 10 µs slice
# ---------------------------------------------------------------------------

def figure2(config: Optional[RunConfig] = None, scale: float = 1.0,
            rates: Optional[Sequence[float]] = None,
            executor: Optional[SweepExecutor] = None,
            on_event: Optional["ProgressCallback"] = None) -> FigureResult:
    """Tail latency vs throughput for the Figure 2 bimodal workload.

    "Shinjuku has 3 workers and Shinjuku-Offload has 4 (up to 4
    outstanding requests).  The preemption time slice is 10 µs."
    """
    run_config = (config if config is not None else RunConfig()).scaled(scale)
    if rates is None:
        rates = [100e3, 200e3, 300e3, 350e3, 400e3, 450e3, 500e3, 550e3, 600e3]
    shinjuku, offload = _sweep_pair(
        ShinjukuConfig(workers=3, preemption=SLICE_10US),
        ShinjukuOffloadConfig(workers=4, outstanding_per_worker=4,
                              preemption=SLICE_10US),
        BIMODAL_FIG2, rates, run_config, executor=executor,
        on_event=on_event)
    return _to_figure(
        "fig2",
        "99.5% 5us / 0.5% 100us bimodal; slice 10us; 3 vs 4 workers",
        "Expected shape: both hold low tails under dispersion; "
        "Offload sustains more load (its dispatcher costs no host core).",
        [offload, shinjuku])


# ---------------------------------------------------------------------------
# Figure 3 — throughput vs outstanding requests (queuing optimization)
# ---------------------------------------------------------------------------

def figure3(config: Optional[RunConfig] = None, scale: float = 1.0,
            outstanding: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
            worker_counts: Sequence[int] = (16, 4),
            overload_rps: float = 2.5e6,
            executor: Optional[SweepExecutor] = None,
            on_event: Optional["ProgressCallback"] = None) -> FigureResult:
    """Offload saturation throughput vs outstanding requests per worker.

    "Fixed 1 µs service time.  Shinjuku-Offload [with 4 and 16
    workers]" — preemption off, overload offered, plateau measured.
    """
    run_config = (config if config is not None else RunConfig()).scaled(scale)
    grid = [(workers, k) for workers in worker_counts for k in outstanding]
    factories = {
        (workers, k): ConfiguredFactory.by_name(
            "shinjuku-offload",
            ShinjukuOffloadConfig(workers=workers, outstanding_per_worker=k,
                                  preemption=NO_PREEMPTION))
        for workers, k in grid}
    # One batch for the whole grid, so a multi-worker executor fans the
    # cells out instead of seeing fourteen single-point sweeps.  The
    # outstanding target joins the label: every grid cell runs at the
    # same overload rate, and (label, rate) is how progress streams and
    # ``repro watch`` curves tell points apart — two cells must never
    # alias.
    specs = [PointSpec(factory=factories[cell], rate_rps=overload_rps,
                       distribution=Fixed(us(1.0)), config=run_config,
                       label=f"Shinjuku-Offload/{cell[0]}w/k{cell[1]}")
             for cell in grid]
    results = (executor or default_executor()).run_points(
        specs, on_event=on_event)
    capacities = {cell: metrics.throughput.achieved_rps
                  for cell, metrics in zip(grid, results)}
    series: List[FigureSeries] = []
    for workers in worker_counts:
        series.append(FigureSeries(
            label=f"{workers} workers", xs=[float(k) for k in outstanding],
            ys=[capacities[(workers, k)] / 1e5 for k in outstanding],
            x_label="outstanding requests",
            y_label="throughput (100k RPS)"))
    return FigureResult(
        "fig3", "Fixed 1us; Shinjuku-Offload throughput vs outstanding",
        series=series,
        notes="Expected shape: throughput rises with outstanding then "
              "plateaus; 16 workers level earlier (dispatcher-bound) and "
              "higher; 4 workers gain the most from 1 -> 5.")


# ---------------------------------------------------------------------------
# Figure 4 — fixed 5 µs, no preemption, 3 vs 4 workers
# ---------------------------------------------------------------------------

def figure4(config: Optional[RunConfig] = None, scale: float = 1.0,
            rates: Optional[Sequence[float]] = None,
            executor: Optional[SweepExecutor] = None,
            on_event: Optional["ProgressCallback"] = None) -> FigureResult:
    """Tail vs throughput at fixed 5 µs (§4.1's second workload)."""
    run_config = (config if config is not None else RunConfig()).scaled(scale)
    if rates is None:
        rates = [100e3, 200e3, 300e3, 400e3, 450e3, 500e3, 550e3,
                 600e3, 650e3, 700e3]
    shinjuku, offload = _sweep_pair(
        ShinjukuConfig(workers=3, preemption=NO_PREEMPTION),
        ShinjukuOffloadConfig(workers=4, outstanding_per_worker=4,
                              preemption=NO_PREEMPTION),
        Fixed(us(5.0)), rates, run_config, executor=executor,
        on_event=on_event)
    return _to_figure(
        "fig4", "Fixed 5us; no preemption; 3 vs 4 workers",
        "Expected shape: Offload outperforms - its extra worker is the "
        "freed host core.",
        [offload, shinjuku])


# ---------------------------------------------------------------------------
# Figure 5 — fixed 100 µs, 15 vs 16 workers, <= 2 outstanding
# ---------------------------------------------------------------------------

def figure5(config: Optional[RunConfig] = None, scale: float = 1.0,
            rates: Optional[Sequence[float]] = None,
            executor: Optional[SweepExecutor] = None,
            on_event: Optional["ProgressCallback"] = None) -> FigureResult:
    """Tail vs throughput at fixed 100 µs (§4.1's third workload)."""
    # Long services need a longer window for stable p99s.
    run_config = (config if config is not None
                  else RunConfig()).scaled(scale * 4.0)
    if rates is None:
        rates = [25e3, 50e3, 75e3, 100e3, 120e3, 135e3, 145e3, 155e3, 165e3]
    shinjuku, offload = _sweep_pair(
        ShinjukuConfig(workers=15, preemption=NO_PREEMPTION),
        ShinjukuOffloadConfig(workers=16, outstanding_per_worker=2,
                              preemption=NO_PREEMPTION),
        Fixed(us(100.0)), rates, run_config, executor=executor,
        on_event=on_event)
    return _to_figure(
        "fig5", "Fixed 100us; 15 vs 16 workers (<=2 outstanding)",
        "Expected shape: Offload wins at large service times - "
        "communication overhead amortizes, extra worker dominates.",
        [offload, shinjuku])


# ---------------------------------------------------------------------------
# Figure 6 — fixed 1 µs, 15 vs 16 workers, <= 5 outstanding
# ---------------------------------------------------------------------------

def figure6(config: Optional[RunConfig] = None, scale: float = 1.0,
            rates: Optional[Sequence[float]] = None,
            executor: Optional[SweepExecutor] = None,
            on_event: Optional["ProgressCallback"] = None) -> FigureResult:
    """Tail vs throughput at fixed 1 µs — the bottleneck figure (§5.1)."""
    run_config = (config if config is not None else RunConfig()).scaled(scale)
    if rates is None:
        rates = [500e3, 1000e3, 1250e3, 1500e3, 2000e3, 2500e3,
                 3000e3, 3500e3, 4000e3, 4500e3]
    shinjuku, offload = _sweep_pair(
        ShinjukuConfig(workers=15, preemption=NO_PREEMPTION),
        ShinjukuOffloadConfig(workers=16, outstanding_per_worker=5,
                              preemption=NO_PREEMPTION),
        Fixed(us(1.0)), rates, run_config, executor=executor,
        on_event=on_event)
    return _to_figure(
        "fig6", "Fixed 1us; 15 vs 16 workers (<=5 outstanding)",
        "Expected shape: Shinjuku greatly outperforms - the ARM "
        "dispatcher and packetized communication are the bottleneck; "
        "Offload workers spend far more time waiting for work.",
        [offload, shinjuku])


#: Registry used by the CLI and the smoke tests.
ALL_FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
}
