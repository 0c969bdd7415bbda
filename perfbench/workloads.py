"""The benchmark's workloads and how one repetition of each runs.

Every workload is a batch of figure sweeps run to completion by one
client, through the same public entry points ``repro fig*`` and
``repro all`` use: ``repro.experiments.figures.figureN`` with a
``RunConfig`` and an executor from ``make_executor``.  README.md beside
this file gives the reason for each workload.

Nothing here imports ``repro`` at module level, so ``run.py`` can read
the workload table without paying for the program's imports.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    #: Figure ids, run in this order (keys of ``figures.ALL_FIGURES``).
    figures: Tuple[str, ...]
    #: Horizon scale handed to every figure function.
    scale: float
    #: Worker processes (``--jobs``); 1 runs every point in-process.
    jobs: int
    #: Whether the repetition writes a fresh result cache and ledger.
    cold_cache: bool
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig2-bimodal", ("fig2",), 1.0, 1, False,
             "exact full-scale Figure 2: the kernel plus the preemption, "
             "timer and interrupt path do the work, the harness almost none"),
    Workload("fig6-fixed1us", ("fig6",), 0.1, 1, False,
             "Figure 6 at scale 0.1: preemption idle, NIC dispatcher the "
             "bottleneck, generator and metrics costs per request weigh most"),
    Workload("figs-cold-jobs2", ("fig2", "fig3", "fig4", "fig5", "fig6"),
             0.1, 2, True,
             "repro all --jobs 2 into a fresh cache and ledger at scale 0.1: "
             "the only workload with a process pool, cache and ledger writes"),
)}


def point_digest(metrics: Any) -> str:
    """SHA-256 over one point's canonical ``RunMetrics`` image."""
    from repro.experiments.executor import metrics_to_jsonable
    payload = json.dumps(metrics_to_jsonable(metrics), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Run:
    """The executor (and, for a cold-cache workload, the cache directory
    and progress ledger) of one repetition, built before it is timed.

    Every completed point arrives here as a progress event, which is how
    points of Figure 3 (a figure without load sweeps) are seen too.
    """

    def __init__(self, workload: Workload, work_dir: Path):
        from repro.experiments.executor import make_executor
        from repro.experiments.progress import ProgressLedger, multiplex
        self.workload = workload
        self.cache_dir: Optional[Path] = None
        self.ledger = None
        if workload.cold_cache:
            self.cache_dir = work_dir / "cache"
            if self.cache_dir.exists():
                shutil.rmtree(self.cache_dir)
            self.ledger = ProgressLedger.in_cache_dir(str(self.cache_dir))
        self.figure = ""
        #: (figure, batch, index, label, rate, metrics) per settled point.
        self.events: List[tuple] = []
        self.executor = make_executor(
            jobs=workload.jobs,
            cache_dir=(str(self.cache_dir) if self.cache_dir is not None
                       else None),
            on_event=multiplex(self._collect, self.ledger))

    def _collect(self, event: Any) -> None:
        if event.metrics is not None and event.kind in ("completed",
                                                        "cache-hit"):
            self.events.append((self.figure, event.batch, event.index,
                                event.label, event.rate_rps, event.metrics))

    def run_figure(self, fig_id: str, seed: int, scale: float) -> Any:
        from repro.experiments.figures import ALL_FIGURES
        from repro.experiments.harness import RunConfig
        self.figure = fig_id
        return ALL_FIGURES[fig_id](config=RunConfig(seed=seed), scale=scale,
                                   executor=self.executor)

    def finish(self) -> None:
        if self.ledger is not None:
            self.ledger.write_done()

    def discard(self) -> None:
        if self.cache_dir is not None and self.cache_dir.exists():
            shutil.rmtree(self.cache_dir)


def figure_points(fig_id: str, figure: Any,
                  events: List[tuple]) -> List[Tuple[str, Any]]:
    """``(point key, RunMetrics)`` of one figure, in the figure's order.

    Figures with load sweeps use ``figure.sweeps`` (the order the
    committed fig2 golden digest is taken in); Figure 3 has none, so
    its points come from the progress events in submission order.
    """
    if figure is not None and figure.sweeps:
        return [(f"{fig_id}|{sweep.system_name}|{point.offered_rps!r}",
                 point.metrics)
                for sweep in figure.sweeps for point in sweep.points]
    mine = sorted((e for e in events if e[0] == fig_id),
                  key=lambda e: (e[1], e[2]))
    return [(f"{fig_id}|{e[3]}|{e[4]!r}", e[5]) for e in mine]


def expected_points(fig_id: str) -> int:
    """Points a figure runs with its default rates (for failure counts)."""
    return {"fig2": 18, "fig3": 14, "fig4": 20, "fig5": 18, "fig6": 20}[fig_id]
