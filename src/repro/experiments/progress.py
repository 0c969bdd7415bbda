"""Typed progress events for streaming sweep results.

Executors emit one :class:`PointEvent` stream per process: a point is
*started* when it is handed to a worker (or this process), *completed*
when its :class:`~repro.metrics.summary.RunMetrics` lands, *cache-hit*
when it is served from the on-disk result cache without simulating, and
*failed* when its attempts are exhausted.  Points that run in worker
processes are reported from the parent process as their results land,
so consumers never cross a process boundary themselves — partial
results stream out of a sweep while later points are still running.

Three consumers live here:

- :class:`SweepProgress` — an in-memory accumulator that turns the
  stream into per-point status, partial latency/throughput curves, and
  a rendered scoreboard;
- :class:`ConsoleProgress` — a line-per-event printer for ``--progress``
  runs;
- :class:`ProgressLedger` — the ``progress.jsonl`` a sweep writes next
  to its result cache, which ``repro watch`` tails from another
  process.

Ledger lines carry a monotone sequence number, never a wall-clock
timestamp — the stream must not introduce nondeterminism into anything
that could feed back into results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ExperimentError
from repro.metrics.summary import RunMetrics

# Event kinds.
STARTED = "started"
COMPLETED = "completed"
CACHE_HIT = "cache-hit"
FAILED = "failed"
#: Terminal sentinel a driver appends when the whole sweep is over
#: (``repro watch`` exits its follow loop on it).
SWEEP_DONE = "sweep-done"

_KINDS = (STARTED, COMPLETED, CACHE_HIT, FAILED, SWEEP_DONE)
#: Kinds that settle a point (it will emit no further events).
TERMINAL_KINDS = (COMPLETED, CACHE_HIT, FAILED)

#: The ledger filename inside a sweep's cache directory.
LEDGER_FILENAME = "progress.jsonl"

#: What an executor (or any emitter) accepts as a subscriber.
ProgressCallback = Callable[["PointEvent"], None]


@dataclass(frozen=True)
class PointEvent:
    """One progress notification about one sweep point.

    ``(batch, index)`` identifies the point: *batch* is the ordinal of
    the ``run_points`` call on the emitting executor and *index* the
    point's position in that call's spec list.  ``seq`` orders events
    globally per emitter.  ``metrics`` carries the point's partial
    result on terminal kinds (None for :data:`STARTED`,
    :data:`FAILED`, and :data:`SWEEP_DONE`).
    """

    kind: str
    seq: int
    batch: int
    index: int
    #: Points in the emitting ``run_points`` batch.
    total: int
    label: str
    rate_rps: float
    metrics: Optional[RunMetrics] = None
    error: Optional[str] = None
    #: Execution attempts behind a ``failed`` event (0 on other kinds
    #: and in ledgers that predate the field).
    attempts: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ExperimentError(f"unknown progress event kind: "
                                  f"{self.kind!r}")

    @property
    def terminal(self) -> bool:
        """Does this event settle its point?"""
        return self.kind in TERMINAL_KINDS


def sweep_done_event(seq: int) -> PointEvent:
    """The end-of-sweep sentinel (not tied to any point)."""
    return PointEvent(kind=SWEEP_DONE, seq=seq, batch=-1, index=-1,
                      total=0, label="", rate_rps=0.0)


def multiplex(*callbacks: Optional[ProgressCallback]) -> ProgressCallback:
    """One callback fanning out to every non-None *callback*."""
    targets = [callback for callback in callbacks if callback is not None]

    def fan_out(event: PointEvent) -> None:
        for target in targets:
            target(event)

    return fan_out


# ---------------------------------------------------------------------------
# Event <-> JSON (exact float round-trip, same contract as the cache)
# ---------------------------------------------------------------------------

def event_to_jsonable(event: PointEvent) -> Dict[str, Any]:
    """A plain-dict image of *event* suitable for ``json.dumps``."""
    from repro.experiments.executor import metrics_to_jsonable
    return {
        "kind": event.kind,
        "seq": event.seq,
        "batch": event.batch,
        "index": event.index,
        "total": event.total,
        "label": event.label,
        "rate_rps": event.rate_rps,
        "metrics": (None if event.metrics is None
                    else metrics_to_jsonable(event.metrics)),
        "error": event.error,
        "attempts": event.attempts,
    }


def event_from_jsonable(data: Dict[str, Any]) -> PointEvent:
    """Rebuild the exact :class:`PointEvent` stored by
    :func:`event_to_jsonable`."""
    from repro.experiments.executor import metrics_from_jsonable
    metrics = (None if data.get("metrics") is None
               else metrics_from_jsonable(data["metrics"]))
    return PointEvent(
        kind=data["kind"], seq=data["seq"], batch=data["batch"],
        index=data["index"], total=data["total"], label=data["label"],
        rate_rps=data["rate_rps"], metrics=metrics,
        error=data.get("error"), attempts=data.get("attempts", 0))


# ---------------------------------------------------------------------------
# The on-disk ledger (what `repro watch` tails)
# ---------------------------------------------------------------------------

class ProgressLedger:
    """JSONL event log next to a sweep's result cache.

    One writer (the sweeping process), any number of tailing readers.
    Each event is one line, flushed on write, so a reader never sees a
    torn line except possibly the final one — which :meth:`read_events`
    skips.  Use the instance itself as an executor subscriber.

    Opening a ledger truncates any file already at *path*: one sweep,
    one ledger.  The ledger is a progress feed, not a checkpoint — an
    interrupted sweep resumes from the result cache, by re-running with
    the same cache directory.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._seq = 0

    @classmethod
    def in_cache_dir(cls, cache_dir: Union[str, Path]) -> "ProgressLedger":
        """The canonical ledger for the sweep caching into *cache_dir*."""
        return cls(Path(cache_dir) / LEDGER_FILENAME)

    def __call__(self, event: PointEvent) -> None:
        """Append one event (executor-subscriber entry point)."""
        self._seq = max(self._seq, event.seq)
        self._handle.write(json.dumps(event_to_jsonable(event),
                                      sort_keys=True))
        self._handle.write("\n")
        self._handle.flush()

    def write_done(self) -> None:
        """Append the end-of-sweep sentinel and close the ledger."""
        self(sweep_done_event(self._seq + 1))
        self.close()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    @staticmethod
    def read_events(path: Union[str, Path]) -> List[PointEvent]:
        """Every well-formed event currently in the ledger at *path*.

        A missing file reads as an empty stream; a torn final line
        (a write caught mid-append) is skipped, not an error.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return []
        events: List[PointEvent] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(event_from_jsonable(json.loads(line)))
            except (ValueError, KeyError, TypeError, ExperimentError):
                continue
        return events


# ---------------------------------------------------------------------------
# In-memory accumulation and rendering
# ---------------------------------------------------------------------------

@dataclass
class PointStatus:
    """The latest known state of one sweep point."""

    batch: int
    index: int
    label: str
    rate_rps: float
    kind: str
    metrics: Optional[RunMetrics] = None
    error: Optional[str] = None


class SweepProgress:
    """Folds a :class:`PointEvent` stream into live sweep state.

    Feed it events (it is callable, so it subscribes directly to an
    executor) or a whole ledger via :meth:`replay`; read back overall
    counts, per-label partial curves, and a rendered scoreboard at any
    moment — including mid-sweep, which is the point.
    """

    def __init__(self):
        self._points: Dict[Tuple[int, int], PointStatus] = {}
        self._batch_totals: Dict[int, int] = {}
        self.events_seen = 0
        self.done = False

    def __call__(self, event: PointEvent) -> None:
        self.events_seen += 1
        if event.kind == SWEEP_DONE:
            self.done = True
            return
        self._batch_totals[event.batch] = max(
            self._batch_totals.get(event.batch, 0), event.total)
        key = (event.batch, event.index)
        status = self._points.get(key)
        if status is None or event.terminal or status.kind == STARTED:
            self._points[key] = PointStatus(
                batch=event.batch, index=event.index, label=event.label,
                rate_rps=event.rate_rps, kind=event.kind,
                metrics=event.metrics, error=event.error)

    def replay(self, events: List[PointEvent]) -> "SweepProgress":
        """Consume *events* in order; returns self for chaining."""
        for event in events:
            self(event)
        return self

    # -- aggregate views ---------------------------------------------------

    @property
    def expected(self) -> int:
        """Points across every batch seen so far."""
        return sum(self._batch_totals[batch]
                   for batch in sorted(self._batch_totals))

    def count(self, kind: str) -> int:
        """Points whose latest state is *kind*."""
        return sum(1 for status in self._points.values()
                   if status.kind == kind)

    @property
    def settled(self) -> int:
        """Points that completed, hit the cache, or failed."""
        return sum(1 for status in self._points.values()
                   if status.kind in TERMINAL_KINDS)

    @property
    def complete(self) -> bool:
        """Has every known point settled (or the sentinel arrived)?"""
        if self.done:
            return True
        return self.expected > 0 and self.settled >= self.expected

    def labels(self) -> List[str]:
        """Series labels in first-seen order."""
        seen: Dict[str, None] = {}
        for key in sorted(self._points):
            seen.setdefault(self._points[key].label, None)
        return list(seen)

    def partial_curve(self, label: str) -> List[Tuple[float, float, float]]:
        """``(offered_rps, achieved_rps, p99_us)`` per settled point of
        *label*, in offered-rate order — a figure curve that grows as
        the sweep runs."""
        rows: List[Tuple[float, float, float]] = []
        for key in sorted(self._points):
            status = self._points[key]
            if status.label != label or status.metrics is None:
                continue
            metrics = status.metrics
            p99_us = (metrics.latency.p99_ns / 1e3
                      if metrics.latency is not None else float("nan"))
            rows.append((status.rate_rps,
                         metrics.throughput.achieved_rps, p99_us))
        rows.sort(key=lambda row: row[0])
        return rows

    def partial_curves(self) -> Dict[str, List[Tuple[float, float, float]]]:
        """Every label's partial curve, keyed by label."""
        return {label: self.partial_curve(label) for label in self.labels()}

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """The live per-point scoreboard (what ``repro watch`` shows)."""
        expected = self.expected
        if expected == 0 and not self._points:
            return ("sweep complete" if self.done
                    else "sweep progress: no events yet")
        lines = [
            f"sweep progress: {self.settled}/{expected} points settled "
            f"({self.count(COMPLETED)} run, {self.count(CACHE_HIT)} cached, "
            f"{self.count(FAILED)} failed, {self.count(STARTED)} in flight)"
        ]
        for label in self.labels():
            statuses = [self._points[key] for key in sorted(self._points)
                        if self._points[key].label == label]
            settled = [s for s in statuses if s.kind in TERMINAL_KINDS]
            lines.append(f"  {label:24s} {len(settled)} settled / "
                         f"{len(statuses)} seen")
            curve = self.partial_curve(label)
            if curve:
                rendered = "  ".join(
                    f"{offered / 1e3:.0f}k:{achieved / 1e3:.1f}k"
                    f"/{p99_us:.1f}us"
                    for offered, achieved, p99_us in curve)
                lines.append(f"    curve: {rendered}")
            failures = [s for s in statuses if s.kind == FAILED]
            for status in failures:
                lines.append(f"    FAILED @{status.rate_rps / 1e3:.0f}k: "
                             f"{status.error}")
        if self.done:
            lines.append("sweep complete")
        return "\n".join(lines)


class ConsoleProgress:
    """Line-per-event printer for ``--progress`` runs.

    Prints a settled-count prefix, the point, and — on completions —
    the point's headline numbers, so an operator watching the terminal
    sees each partial result the moment it exists.
    """

    def __init__(self, write: Callable[[str], None] = print):
        self._write = write
        self._progress = SweepProgress()

    def __call__(self, event: PointEvent) -> None:
        self._progress(event)
        if event.kind == SWEEP_DONE:
            self._write("[progress] sweep complete")
            return
        progress = self._progress
        prefix = (f"[progress {progress.settled:>3}/"
                  f"{progress.expected}]")
        point = f"{event.label} @{event.rate_rps / 1e3:.0f}k"
        if event.kind == STARTED:
            self._write(f"{prefix} start  {point}")
        elif event.kind == FAILED:
            self._write(f"{prefix} FAILED {point}: {event.error}")
        else:
            verb = "cached" if event.kind == CACHE_HIT else "done  "
            metrics = event.metrics
            detail = ""
            if metrics is not None:
                p99 = (f"  p99 {metrics.latency.p99_ns / 1e3:.1f}us"
                       if metrics.latency is not None else "")
                detail = (f": {metrics.throughput.achieved_rps / 1e3:.1f}k "
                          f"RPS{p99}")
            self._write(f"{prefix} {verb} {point}{detail}")


def ledger_path(cache_dir: Union[str, Path, None]) -> Optional[Path]:
    """Where the ledger lives for *cache_dir* (None without a cache)."""
    if cache_dir is None:
        return None
    return Path(cache_dir) / LEDGER_FILENAME

