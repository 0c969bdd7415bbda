"""ASCII rendering of figures and tables.

Benches print through these so their stdout mirrors the structure of
the paper's plots: one row per x value, one column per series.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.experiments.executor import ExecutorStats
from repro.experiments.figures import FigureResult
from repro.experiments.tables import TableRow
from repro.metrics.summary import RunMetrics


def render_table(headers: Sequence[str], rows: Iterable[Sequence[str]],
                 title: str = "") -> str:
    """Align *rows* under *headers* with simple column padding."""
    materialized = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_figure(figure: FigureResult) -> str:
    """Render a figure as a paper-style series table.

    Each series keeps its own (x, y) pairs — sweeps measure achieved
    throughput per system, so x values differ across series.
    """
    lines: List[str] = [f"== {figure.figure_id}: {figure.title} =="]
    if figure.notes:
        lines.append(f"   {figure.notes}")
    for series in figure.series:
        lines.append(f"-- {series.label} "
                     f"[x: {series.x_label}; y: {series.y_label}]")
        header = ["x"] + [f"{x:.2f}" for x in series.xs]
        values = ["y"] + [f"{y:.1f}" for y in series.ys]
        width = max(max(len(a), len(b)) for a, b in zip(header, values))
        lines.append("  ".join(cell.rjust(width) for cell in header))
        lines.append("  ".join(cell.rjust(width) for cell in values))
    return "\n".join(lines)


def render_t1(rows: Iterable[TableRow]) -> str:
    """Render Table T1 (in-text claims) as paper-vs-measured."""
    body = [
        (row.claim_id, row.description, f"{row.paper_value:.2f}",
         f"{row.measured_value:.2f}", row.unit, f"§{row.section}")
        for row in rows]
    return render_table(
        ["id", "claim", "paper", "measured", "unit", "ref"], body,
        title="== Table T1: in-text quantitative claims ==")


def render_executor_stats(stats: ExecutorStats, jobs: int = 1) -> str:
    """One-line summary of where a run's points came from.

    Forked workers and the robustness tallies (retries, failures,
    quarantined cache entries) are appended only when nonzero, so an
    undisturbed in-process run renders exactly as it always has.
    ``cached=`` counts the points a re-run with the same cache
    directory resumed from.
    """
    line = (f"[executor: jobs={jobs} points={stats.points_total} "
            f"run={stats.points_run} cached={stats.points_cached} "
            f"events={stats.events_executed}")
    extras = [(label, value) for label, value in (
        ("workers", stats.workers_started),
        ("retried", stats.points_retried),
        ("failed", stats.points_failed),
        ("quarantined", stats.points_quarantined)) if value]
    for label, value in extras:
        line += f" {label}={value}"
    return line + "]"


def render_run(name: str, metrics: RunMetrics) -> str:
    """One-line rendering of a single run's headline numbers."""
    latency = metrics.latency
    if latency is None:
        tail = "n/a"
        mean = "n/a"
    else:
        tail = f"{latency.p99_ns / 1e3:.1f}us"
        mean = f"{latency.mean_ns / 1e3:.1f}us"
    throughput = metrics.throughput
    return (f"{name}: achieved={throughput.achieved_rps / 1e3:.0f}kRPS "
            f"mean={mean} p99={tail} drops={throughput.dropped} "
            f"preemptions={metrics.preemptions} "
            f"wait={metrics.worker_wait_fraction:.1%}")
