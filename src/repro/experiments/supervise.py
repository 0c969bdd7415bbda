"""Supervised attempts: crash-safe workers, deadlines, bounded retries.

:class:`~repro.experiments.executor.SweepExecutor` hands every point
its cache and resume lookups miss to :func:`run_attempts`, the one loop
that runs point attempts:

- with ``jobs == 1`` and no per-point deadline, attempts run in this
  process, one after another;
- otherwise every attempt runs in its own disposable worker process
  (at most ``jobs`` at once) watched by the parent: a worker whose
  result pipe drops without a result is a *crash*, and one that
  outlives its per-point wall-clock deadline is killed as a *timeout*;
- failed attempts retry with bounded exponential backoff, classified
  by the typed taxonomy in :mod:`repro.errors` (crash / timeout /
  exception);
- a point whose every attempt fails becomes a recorded failure; every
  *other* point still completes before the caller reports the
  casualties.

The robustness contract is deterministic: points are independent and
slot into the result list by index, so a retried sweep is bit-for-bit
identical to an undisturbed one.  Every wall-clock read below times
the *host* (deadlines, backoff); nothing it produces feeds simulated
state or cached results.
"""

from __future__ import annotations

import pickle
import time
import traceback
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    ExperimentError,
    PointCrashError,
    PointExecutionError,
    PointTimeoutError,
    SweepPointError,
)
from repro.metrics.summary import RunMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import multiprocessing.connection
    import multiprocessing.process

    from repro.experiments.executor import ExecutorStats, PointSpec

#: One attempt's outcome: the point's metrics and its simulator events.
Outcome = Tuple[RunMetrics, int]

#: Default extra attempts after a point's first failure.
DEFAULT_MAX_RETRIES = 2
#: Backoff schedule: base * factor**(attempt-1), capped.
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_FACTOR = 2.0
DEFAULT_BACKOFF_MAX_S = 2.0
#: How long to wait for a killed worker to be reaped before moving on.
_REAP_TIMEOUT_S = 5.0


def backoff_delay(attempt: int, base_s: float = DEFAULT_BACKOFF_BASE_S,
                  factor: float = DEFAULT_BACKOFF_FACTOR,
                  max_s: float = DEFAULT_BACKOFF_MAX_S) -> float:
    """Seconds to wait before retry number *attempt* (1-based).

    Bounded exponential: ``min(max_s, base_s * factor**(attempt-1))``.
    Deterministic on purpose — no jitter — so test runs are exactly
    reproducible; sweep points are independent, so synchronized retries
    cannot contend with each other the way RPC storms do.
    """
    if attempt < 1:
        raise ExperimentError(f"attempt must be >= 1: {attempt}")
    return min(max_s, base_s * (factor ** (attempt - 1)))


def _describe(exc: BaseException) -> str:
    """The message a failed attempt reports: exception type and text."""
    return f"{type(exc).__name__}: {exc}"


def _portable(exc: BaseException) -> Optional[BaseException]:
    """*exc* if it survives a pickle round trip (to cross the worker
    pipe as a failure's cause), else None."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def _attempt_worker(conn, execute: Callable[["PointSpec"], Outcome],
                    spec: "PointSpec") -> None:
    """Child-process entry: run one spec, ship the outcome up the pipe.

    Ships ``("ok", metrics, events)`` on success and ``("error",
    message, traceback, cause)`` on an exception (``cause`` is None when
    the exception cannot be pickled); a crash (SIGKILL, segfault, OOM)
    ships nothing — the parent sees the pipe drop and classifies from
    the exit code.
    """
    try:
        metrics, events = execute(spec)
        conn.send(("ok", metrics, events))
    except BaseException as exc:  # noqa: BLE001 - everything goes upstream
        try:
            conn.send(("error", _describe(exc), traceback.format_exc(),
                       _portable(exc)))
        except Exception:
            pass  # parent will classify the silent death as a crash
    finally:
        conn.close()


def supervision_context():
    """The multiprocessing context worker attempts run under.

    Fork is preferred where available: attempt arguments transfer by
    inheritance, so even unpicklable specs stay fully supervised (and
    killable).  Elsewhere the platform default applies and unpicklable
    specs fall back to in-process execution.
    """
    # Imported here, not at module level: in-process sweeps (and the
    # CLI's start-up) never pay for the multiprocessing machinery.
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


@dataclass
class _Attempt:
    """One scheduled (or in-flight) execution attempt of one spec."""

    index: int
    attempt: int
    #: Wall-clock instant before which this attempt must not launch
    #: (backoff); 0.0 launches immediately.
    not_before: float = 0.0


@dataclass
class _InFlight:
    """Bookkeeping for one live worker process."""

    task: _Attempt
    process: "multiprocessing.process.BaseProcess"
    #: Wall-clock kill deadline (None = no per-point timeout).
    kill_after: Optional[float]


def _now() -> float:
    """Host wall clock for deadlines/backoff (never simulated time)."""
    return time.monotonic()  # repro: allow[wall-clock]


def run_attempts(specs: Sequence["PointSpec"],
                 execute: Callable[["PointSpec"], Outcome],
                 record: Callable[[int, Outcome], None],
                 started: Callable[[int], None],
                 failed: Callable[[int, SweepPointError], None],
                 stats: "ExecutorStats", *, jobs: int,
                 point_timeout_s: Optional[float], max_retries: int,
                 sleep: Callable[[float], None] = time.sleep,
                 ) -> List[SweepPointError]:
    """Run every spec to a result or a permanent failure.

    *execute* runs one spec and returns its outcome; *record* receives
    each ``(index, outcome)`` as it lands, *started* fires once per spec
    at its first launch, and *failed* once per spec whose attempts are
    exhausted.  Retries are counted into *stats*.  Returns the permanent
    failures in detection order.
    """
    import multiprocessing.connection
    context = supervision_context()
    in_process = jobs == 1 and point_timeout_s is None
    needs_pickle = context.get_start_method() != "fork"
    ready: List[_Attempt] = [_Attempt(index=j, attempt=1)
                             for j in range(len(specs))]
    delayed: List[_Attempt] = []
    inflight: Dict[multiprocessing.connection.Connection, _InFlight] = {}
    failures: List[SweepPointError] = []
    started_indices = set()

    def classify(task: _Attempt, kind: type, message: str,
                 cause: Optional[BaseException] = None) -> SweepPointError:
        spec = specs[task.index]
        return kind(message, label=spec.label, rate_rps=spec.rate_rps,
                    attempts=task.attempt, config=spec.config, cause=cause)

    def attempt_failed(task: _Attempt, error: SweepPointError) -> None:
        if task.attempt <= max_retries:
            stats.points_retried += 1
            delayed.append(_Attempt(
                index=task.index, attempt=task.attempt + 1,
                not_before=_now() + backoff_delay(task.attempt)))
            return
        failures.append(error)
        failed(task.index, error)

    def reap(entry: _InFlight) -> None:
        entry.process.join(_REAP_TIMEOUT_S)

    def handle_result(conn) -> None:
        entry = inflight.pop(conn)
        task = entry.task
        try:
            message = conn.recv()
        except (EOFError, OSError):
            reap(entry)
            conn.close()
            code = entry.process.exitcode
            detail = (f"killed by signal {-code}" if code is not None
                      and code < 0 else f"exit code {code}")
            attempt_failed(task, classify(
                task, PointCrashError,
                f"worker process died without a result ({detail})"))
            return
        reap(entry)
        conn.close()
        if message[0] == "ok":
            _tag, metrics, events = message
            record(task.index, (metrics, events))
            return
        _tag, text, tb, cause = message
        error = classify(task, PointExecutionError, text, cause=cause)
        error.worker_traceback = tb
        attempt_failed(task, error)

    def handle_timeout(conn) -> None:
        entry = inflight.pop(conn)
        task = entry.task
        entry.process.kill()
        reap(entry)
        conn.close()
        attempt_failed(task, classify(
            task, PointTimeoutError,
            f"point exceeded its {point_timeout_s:g}s wall-clock "
            f"deadline and was killed"))

    def run_local(task: _Attempt) -> None:
        # Exceptions stay typed and retryable, but there is no kill
        # lever in this process, so no deadline applies here.
        try:
            outcome = execute(specs[task.index])
        except Exception as exc:
            error = classify(task, PointExecutionError, _describe(exc),
                             cause=exc)
            error.worker_traceback = traceback.format_exc()
            attempt_failed(task, error)
            return
        record(task.index, outcome)

    def launch(task: _Attempt) -> None:
        if task.index not in started_indices:
            started_indices.add(task.index)
            started(task.index)
        if in_process:
            run_local(task)
            return
        if needs_pickle:
            try:
                pickle.dumps(specs[task.index])
            except Exception:
                run_local(task)  # unpicklable spec on a spawn platform
                return
        recv_conn, send_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_attempt_worker,
            args=(send_conn, execute, specs[task.index]), daemon=True)
        process.start()
        # Close the parent's copy of the send end so the pipe drops —
        # and the watchdog wakes — the instant the worker dies, cleanly
        # or not.
        send_conn.close()
        kill_after = (_now() + point_timeout_s
                      if point_timeout_s is not None else None)
        inflight[recv_conn] = _InFlight(task=task, process=process,
                                        kill_after=kill_after)

    try:
        while ready or delayed or inflight:
            wall = _now()
            due = [t for t in delayed if t.not_before <= wall]
            delayed = [t for t in delayed if t.not_before > wall]
            ready.extend(due)
            while ready and len(inflight) < jobs:
                launch(ready.pop(0))
            if not inflight:
                if delayed:
                    pause = min(t.not_before for t in delayed) - _now()
                    if pause > 0:
                        sleep(pause)
                continue
            wall = _now()
            horizons = [entry.kill_after - wall
                        for entry in inflight.values()
                        if entry.kill_after is not None]
            horizons.extend(t.not_before - wall for t in delayed)
            wait_s = max(0.0, min(horizons)) if horizons else None
            for conn in multiprocessing.connection.wait(list(inflight),
                                                        timeout=wait_s):
                handle_result(conn)
            wall = _now()
            for conn in [c for c, entry in list(inflight.items())
                         if entry.kill_after is not None
                         and wall >= entry.kill_after]:
                handle_timeout(conn)
    except BaseException:
        # Ctrl-C or an unexpected supervisor bug: never orphan live
        # workers.  Completed points are already recorded (and cached),
        # so a re-run (or --resume) picks up from them.
        for conn, entry in list(inflight.items()):
            entry.process.kill()
            conn.close()
        raise
    return failures
