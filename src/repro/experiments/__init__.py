"""Experiment harness: run points, sweeps, figures, and tables."""

from repro.experiments.harness import (
    RunConfig,
    SaturationResult,
    SweepPoint,
    LoadSweepResult,
    run_point,
    run_point_with_events,
    load_sweep,
    measure_capacity,
    find_saturation,
)
from repro.experiments.executor import (
    ConfiguredFactory,
    ExecutorStats,
    PointSpec,
    ResultCache,
    SweepExecutor,
    make_executor,
    spec_cache_key,
)
from repro.experiments.figures import (
    FigureSeries,
    FigureResult,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    ALL_FIGURES,
)
from repro.experiments.sensitivity import (
    SensitivityPoint,
    SensitivityResult,
    sweep_parameter,
)
from repro.experiments.tables import table_t1, TableRow
from repro.experiments.report import (
    render_table,
    render_figure,
    render_executor_stats,
    render_run,
    render_t1,
)

__all__ = [
    "RunConfig",
    "SaturationResult",
    "SweepPoint",
    "LoadSweepResult",
    "run_point",
    "run_point_with_events",
    "load_sweep",
    "measure_capacity",
    "find_saturation",
    "ConfiguredFactory",
    "ExecutorStats",
    "PointSpec",
    "ResultCache",
    "SweepExecutor",
    "make_executor",
    "spec_cache_key",
    "FigureSeries",
    "FigureResult",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "ALL_FIGURES",
    "SensitivityPoint",
    "SensitivityResult",
    "sweep_parameter",
    "table_t1",
    "TableRow",
    "render_table",
    "render_figure",
    "render_executor_stats",
    "render_run",
    "render_t1",
]
