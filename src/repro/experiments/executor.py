"""Sweep execution: one executor, with a result cache.

Every figure and study in this repro bottoms out in points that each
build a fresh, independently seeded :class:`Simulator` — so points are
embarrassingly parallel, and identical inputs always produce identical
:class:`RunMetrics`.  This module exploits both facts:

- :class:`SweepExecutor` is the one way a point runs: a cache lookup
  first, then every miss through the supervised attempt loop of
  :mod:`repro.experiments.supervise` — in this process at ``jobs=1``
  without a point deadline, otherwise in up to ``jobs`` forked workers
  per batch, each reused after every success — with one typed progress
  stream and one failure contract;
- :class:`ResultCache` is an on-disk content-addressed store keyed by a
  stable SHA-256 over (system name, factory fingerprint, offered rate,
  distribution parameters, :class:`RunConfig`), so re-running a figure
  or resuming an interrupted sweep skips already-measured points.

Determinism is the contract that makes all of this safe; the
differential suite in ``tests/integration/test_executor_equivalence.py``
enforces bit-identical in-process/worker/cached results for every
system.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from itertools import islice
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.errors import (
    ConfigError,
    ExperimentError,
    SweepFailure,
    SweepPointError,
)
from repro.experiments.harness import (
    RunConfig,
    SystemFactory,
    load_model,
    run_point_with_events,
)
from repro.experiments.progress import (
    CACHE_HIT,
    COMPLETED,
    FAILED,
    STARTED,
    PointEvent,
    ProgressCallback,
)
from repro.experiments.supervise import DEFAULT_MAX_RETRIES, run_attempts
from repro.metrics.summary import (
    FaultSummary,
    LatencySummary,
    RunMetrics,
    ThroughputSummary,
)
from repro.systems import registry
from repro.workload.distributions import ServiceTimeDistribution

#: Bump when the cache key payload or the stored schema changes shape;
#: old entries then simply miss instead of deserializing wrongly.
#: Schema 2: fault plans join the key payload and fault summaries the
#: stored metrics.
#: Schema 3: the fast-path config joins the key payload (approximate
#: and exact results must never share an entry) and provenance tags
#: join the stored metrics.
#: Schema 4: a content checksum joins the stored entry, verified on
#: every read; entries that fail it are quarantined, never trusted.
#: Schema 5: the fast-path config leaves the key payload and provenance
#: tags the stored metrics (every point is an exact simulation).
CACHE_SCHEMA = 5


# ---------------------------------------------------------------------------
# Point specifications and cache keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSpec:
    """One (system, rate) point, fully specified and self-contained.

    A spec is the unit handed to executors: everything needed to run the
    point in any process, plus the identity used for cache lookups.
    """

    factory: SystemFactory
    rate_rps: float
    distribution: ServiceTimeDistribution
    config: RunConfig
    #: Display / cache-key name of the system under test.
    label: str = "system"


@dataclass(frozen=True)
class Plan:
    """The points a result needs, and how their metrics become it:
    :func:`run_plan` runs ``specs`` as one batch and hands their
    metrics, in order, to ``assemble``."""

    specs: Tuple[PointSpec, ...]
    assemble: Callable[[Sequence[RunMetrics]], Any]

    @staticmethod
    def join(plans: Sequence["Plan"],
             assemble: Callable[[List[Any]], Any] = list) -> "Plan":
        """One plan over every point of *plans*, in order; its result is
        ``assemble`` of their results."""

        def assemble_all(metrics: Sequence[RunMetrics]) -> Any:
            rest = iter(metrics)
            return assemble([plan.assemble(list(islice(rest, len(plan.specs))))
                             for plan in plans])

        return Plan(tuple(spec for plan in plans for spec in plan.specs),
                    assemble_all)


@dataclass(frozen=True)
class ConfiguredFactory:
    """A picklable, fingerprintable system factory.

    All served systems share the ``(sim, rngs, metrics, config=...)``
    constructor shape, so a (class, config) pair is a complete recipe.
    Classes pickle by reference and configs are plain dataclasses, which
    is what lets them cross a process boundary on any platform; the
    deterministic dataclass ``repr`` of the config is what lets the
    cache fingerprint them.

    ``system`` may also be a registry name (see :meth:`by_name`); the
    name resolves through :mod:`repro.systems.registry` at call and
    fingerprint time, so a by-name factory pickles as a short string
    and produces the *same* cache token as the equivalent by-class
    factory — switching construction styles never invalidates a cache.
    """

    system: Union[Type, str]
    config: Any = None

    @classmethod
    def by_name(cls, name: str, config: Any = None) -> "ConfiguredFactory":
        """A factory keyed by registry name, validated eagerly.

        Unknown names and config-type mismatches raise
        :class:`ConfigError` here, at construction — not minutes later
        inside a worker process.
        """
        entry = registry.get(name)
        if config is not None:
            if entry.config_cls is None:
                raise ConfigError(
                    f"system {name!r} takes no config, "
                    f"got {type(config).__name__}")
            if not isinstance(config, entry.config_cls):
                raise ConfigError(
                    f"system {name!r} expects {entry.config_cls.__name__}, "
                    f"got {type(config).__name__}")
        return cls(system=name, config=config)

    def resolve(self) -> Type:
        """The concrete system class (resolving a registry name)."""
        if isinstance(self.system, str):
            return registry.get(self.system).cls
        return self.system

    def __call__(self, sim, rngs, metrics):
        system = self.resolve()
        if self.config is None:
            return system(sim, rngs, metrics)
        return system(sim, rngs, metrics, config=self.config)

    def cache_token(self) -> str:
        """Deterministic fingerprint: qualified class plus config repr."""
        cls = self.resolve()
        return f"{cls.__module__}.{cls.__qualname__}(config={self.config!r})"


def factory_token(factory: SystemFactory) -> Optional[str]:
    """A stable textual fingerprint of *factory*, or None if opaque.

    Factories advertise cacheability by exposing a ``cache_token()``
    method (see :class:`ConfiguredFactory`).  Closures and other opaque
    callables return None: their points always run, never cache —
    correctness over convenience.
    """
    token = getattr(factory, "cache_token", None)
    if callable(token):
        return token()
    return None


def spec_cache_key(spec: PointSpec) -> Optional[str]:
    """Content hash identifying *spec*'s result, or None if uncacheable.

    The payload hashes exact values: floats go in as ``float.hex()`` so
    two rates that differ in the last ulp never share a key, and the
    distribution contributes its parameter-bearing ``repr``.
    """
    token = factory_token(spec.factory)
    if token is None:
        return None
    config = spec.config
    payload = json.dumps({
        "schema": CACHE_SCHEMA,
        "system": spec.label,
        "factory": token,
        "rate_rps": float(spec.rate_rps).hex(),
        "distribution": repr(spec.distribution),
        "config": {
            "seed": config.seed,
            "horizon_ns": float(config.horizon_ns).hex(),
            "warmup_ns": float(config.warmup_ns).hex(),
            "max_events": config.max_events,
            # Frozen-dataclass reprs: deterministic, value-complete.
            "faults": repr(config.faults),
        },
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# RunMetrics <-> JSON (exact float round-trip via repr)
# ---------------------------------------------------------------------------

def metrics_to_jsonable(metrics: RunMetrics) -> Dict[str, Any]:
    """A plain-dict image of *metrics* suitable for ``json.dumps``."""
    data = {
        "latency": (None if metrics.latency is None
                    else dataclasses.asdict(metrics.latency)),
        "throughput": dataclasses.asdict(metrics.throughput),
        "preemptions": metrics.preemptions,
        "mean_slowdown": metrics.mean_slowdown,
        "worker_wait_fraction": metrics.worker_wait_fraction,
    }
    if metrics.faults is not None:
        # Emitted only for faulted runs, so fault-free entries keep
        # their historical shape byte for byte.
        data["faults"] = dataclasses.asdict(metrics.faults)
    return data


def metrics_from_jsonable(data: Dict[str, Any]) -> RunMetrics:
    """Rebuild the exact :class:`RunMetrics` stored by
    :func:`metrics_to_jsonable`."""
    latency = (None if data["latency"] is None
               else LatencySummary(**data["latency"]))
    faults = (FaultSummary(**data["faults"])
              if data.get("faults") is not None else None)
    return RunMetrics(
        latency=latency,
        throughput=ThroughputSummary(**data["throughput"]),
        preemptions=data["preemptions"],
        mean_slowdown=data["mean_slowdown"],
        worker_wait_fraction=data["worker_wait_fraction"],
        faults=faults,
    )


def metrics_digest(metrics: Iterable[RunMetrics]) -> str:
    """SHA-256 over the exact JSON images of *metrics*, in order.

    Uses the :func:`metrics_to_jsonable` image the result cache stores,
    so the digest covers every measured bit (floats via ``repr``
    round-trip exactly in JSON).  The fig2 golden is taken in this form.
    """
    payload = json.dumps([metrics_to_jsonable(m) for m in metrics],
                         sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------

#: Where corrupt entries are moved inside a cache root (their suffix is
#: changed so they never count as, or collide with, live entries).
QUARANTINE_DIRNAME = "quarantine"


@dataclass(frozen=True)
class QuarantineRecord:
    """One corrupt cache entry that was moved aside instead of trusted."""

    key: str
    reason: str
    #: Where the corrupt bytes now live (None if the move itself failed
    #: and the entry was unlinked instead).
    path: Optional[Path]


def _entry_checksum(metrics_jsonable: Dict[str, Any]) -> str:
    """The integrity checksum stored beside a cache entry's metrics."""
    payload = json.dumps(metrics_jsonable, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of point results under one directory.

    Layout: ``<root>/<key[:2]>/<key>.json`` — two-level fanout keeps
    directories small for big sweeps.  Writes are atomic (tempfile +
    rename) so interrupted runs never leave half-written entries.

    Every entry carries a SHA-256 checksum over its metrics image,
    verified on read: a torn, truncated, bit-flipped, or otherwise
    corrupt entry is *quarantined* — moved to ``<root>/quarantine/``
    with a ``.corrupt`` suffix — and read as a miss, so the sweep
    recomputes the point transparently instead of crashing on (or
    silently trusting) damaged bytes.  Entries from an older schema
    read as plain misses without quarantine — they are honest
    old-format files, not corruption.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        #: Every corrupt entry this instance has quarantined, in
        #: detection order (the executor reports these).
        self.quarantine_log: List[QuarantineRecord] = []
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ExperimentError(
                f"cache dir {self.root} exists and is not a directory") \
                from exc

    def path_for(self, key: str) -> Path:
        """Where *key*'s entry lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved (may not exist yet)."""
        return self.root / QUARANTINE_DIRNAME

    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Move the corrupt entry at *path* aside and log the incident."""
        destination: Optional[Path] = None
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            destination = self.quarantine_dir / f"{key}.corrupt"
            n = 0
            while destination.exists():
                n += 1
                destination = self.quarantine_dir / f"{key}.corrupt.{n}"
            os.replace(path, destination)
        except OSError:
            # Quarantine is best-effort; a cache that cannot even move
            # the entry still must not trust or crash on it.
            destination = None
            try:
                os.unlink(path)
            except OSError:
                pass
        self.quarantine_log.append(
            QuarantineRecord(key=key, reason=reason, path=destination))

    def get(self, key: str) -> Optional[RunMetrics]:
        """The cached metrics for *key*, or None on any kind of miss.

        A missing entry is a plain miss; an unreadable, unparseable,
        checksum-mismatched, or malformed entry is quarantined first
        (see the class docstring) and then misses.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            return None
        except ValueError:  # UnicodeDecodeError: not even text
            self._quarantine(path, key, "undecodable bytes")
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
        except ValueError:
            self._quarantine(path, key, "unparseable JSON "
                                        "(torn or truncated write)")
            return None
        schema = entry.get("schema")
        if schema != CACHE_SCHEMA:
            if isinstance(schema, int) and 0 < schema < CACHE_SCHEMA \
                    and "metrics" in entry:
                return None  # honest old-format entry: miss, re-run
            self._quarantine(path, key, f"unrecognized schema {schema!r}")
            return None
        stored = entry.get("checksum")
        if "metrics" not in entry or \
                stored != _entry_checksum(entry["metrics"]):
            self._quarantine(path, key, "checksum mismatch "
                                        "(bit-flip or partial write)")
            return None
        try:
            return metrics_from_jsonable(entry["metrics"])
        except (KeyError, TypeError, ValueError):
            self._quarantine(path, key, "malformed metrics payload")
            return None

    def put(self, key: str, metrics: RunMetrics) -> None:
        """Store *metrics* under *key*, atomically, with its checksum."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        image = metrics_to_jsonable(metrics)
        payload = json.dumps({"schema": CACHE_SCHEMA,
                              "checksum": _entry_checksum(image),
                              "metrics": image})
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        # Quarantined files end in .corrupt, so they never count here.
        return sum(1 for _ in self.root.glob("*/*.json"))




# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

@dataclass
class ExecutorStats:
    """Tallies across every ``run_points`` call on one executor."""

    points_total: int = 0
    #: Points actually simulated (cache misses or uncacheable).
    points_run: int = 0
    #: Points served straight from the cache.
    points_cached: int = 0
    #: Simulator events executed across all fresh runs (0 on a fully
    #: cached re-run — the "no simulation happened" witness).
    events_executed: int = 0
    #: Points that permanently failed (every attempt exhausted).
    points_failed: int = 0
    #: Extra attempts made beyond each point's first.
    points_retried: int = 0
    #: Corrupt cache entries quarantined while serving lookups.
    points_quarantined: int = 0
    #: Worker processes forked (0 when every attempt ran in-process).
    workers_started: int = 0

    def reset(self) -> None:
        """Zero every tally (fresh measurement window)."""
        self.points_total = 0
        self.points_run = 0
        self.points_cached = 0
        self.events_executed = 0
        self.points_failed = 0
        self.points_retried = 0
        self.points_quarantined = 0
        self.workers_started = 0


def _execute_spec(spec: PointSpec) -> Tuple[RunMetrics, int]:
    """Run one spec, return (metrics, events).

    Calls :func:`run_point_with_events` through this module's global, so
    a wrapper installed on it here reaches forked workers too.
    """
    return run_point_with_events(spec.factory, spec.rate_rps,
                                 spec.distribution, spec.config)


class SweepExecutor:
    """Runs sweep points: cache, progress, supervised attempts.

    :meth:`run_points` serves every point it can from the result cache;
    that is also how an interrupted sweep resumes — re-run it with the
    same cache directory.  The rest run through
    :func:`~repro.experiments.supervise.run_attempts`, costliest first:
    in this process when ``jobs == 1`` and no ``point_timeout_s`` is
    set, otherwise in up to ``jobs`` forked workers per batch, each
    sent the next ready point after a success and killed past
    ``point_timeout_s``.  A worker whose attempt
    crashed, timed out or raised is retired; the attempt retries, in a
    fresh fork, up to ``max_retries`` times with bounded backoff.

    One failure contract holds at every ``jobs`` value: a point whose
    attempts are all exhausted becomes a typed
    :class:`~repro.errors.SweepPointError` chaining its cause and a
    ``failed`` progress event; every other point completes and is
    cached; then :class:`~repro.errors.SweepFailure` is raised.

    Every executor emits one typed
    :class:`~repro.experiments.progress.PointEvent` stream — started /
    completed / cache-hit / failed, completions carrying the point's
    :class:`RunMetrics` — from *this* process, even when the points ran
    in workers.  Results are bit-identical in every case: points are
    independent and slot by index, so neither completion order,
    retries, nor cache hits can move a single measured bit.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 on_event: Optional[ProgressCallback] = None,
                 point_timeout_s: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES):
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1: {jobs}")
        if point_timeout_s is not None and point_timeout_s <= 0:
            raise ExperimentError(
                f"point timeout must be positive: {point_timeout_s}")
        if max_retries < 0:
            raise ExperimentError(f"max retries must be >= 0: {max_retries}")
        self.jobs = jobs
        self.cache = cache
        #: Persistent progress subscriber (every ``run_points`` call).
        self.on_event = on_event
        self.point_timeout_s = point_timeout_s
        self.max_retries = max_retries
        self.stats = ExecutorStats()
        self._seq = 0
        self._batches = 0
        #: Backoff pacing between retries; host-side only (tests stub it).
        self._sleep: Callable[[float], None] = time.sleep

    def run_points(self, specs: Sequence[PointSpec],
                   on_event: Optional[ProgressCallback] = None,
                   ) -> List[RunMetrics]:
        """Run every spec, returning metrics in the order given.

        Cached points are served without simulating; the rest run under
        supervision.  Each fresh point is written to the cache the
        moment it completes — before its ``completed`` event, not at the
        end of the batch — so an interrupted sweep, re-run with the same
        cache, resumes from every finished point.

        *on_event* subscribes to this batch's progress stream on top of
        the executor-wide :attr:`on_event`; both see every event.
        """
        specs = list(specs)
        self.stats.points_total += len(specs)
        batch = self._batches
        self._batches += 1
        subscribers = [callback for callback in (self.on_event, on_event)
                       if callback is not None]

        def emit(kind: str, i: int, metrics: Optional[RunMetrics] = None,
                 error: Optional[str] = None, attempts: int = 0) -> None:
            if not subscribers:
                return
            self._seq += 1
            event = PointEvent(
                kind=kind, seq=self._seq, batch=batch, index=i,
                total=len(specs), label=specs[i].label,
                rate_rps=specs[i].rate_rps, metrics=metrics, error=error,
                attempts=attempts)
            for callback in subscribers:
                callback(event)

        results: List[Optional[RunMetrics]] = [None] * len(specs)
        misses: List[int] = []
        keys: List[Optional[str]] = [None] * len(specs)
        quarantined_before = (len(self.cache.quarantine_log)
                              if self.cache is not None else 0)
        for i, spec in enumerate(specs):
            key = spec_cache_key(spec) if self.cache is not None else None
            keys[i] = key
            hit = self.cache.get(key) if key is not None else None
            if hit is not None:
                results[i] = hit
                self.stats.points_cached += 1
                emit(CACHE_HIT, i, metrics=hit)
            else:
                misses.append(i)
        if self.cache is not None:
            self.stats.points_quarantined += \
                len(self.cache.quarantine_log) - quarantined_before

        def record(batch_index: int, outcome: Tuple[RunMetrics, int]) -> None:
            i = misses[batch_index]
            metrics, events = outcome
            results[i] = metrics
            self.stats.points_run += 1
            self.stats.events_executed += events
            if self.cache is not None and keys[i] is not None:
                self.cache.put(keys[i], metrics)
            emit(COMPLETED, i, metrics=metrics)

        def started(batch_index: int) -> None:
            emit(STARTED, misses[batch_index])

        def failed(batch_index: int, error: SweepPointError) -> None:
            self.stats.points_failed += 1
            emit(FAILED, misses[batch_index], error=str(error),
                 attempts=error.attempts)

        if misses:
            # Forked workers inherit this process's modules: import the
            # model once here rather than in every worker.
            load_model()
            failures = run_attempts(
                [specs[i] for i in misses], _execute_spec, record, started,
                failed, self.stats, jobs=self.jobs,
                point_timeout_s=self.point_timeout_s,
                max_retries=self.max_retries, sleep=self._sleep)
            if failures:
                raise SweepFailure(failures) from failures[0]
        return results  # every slot is filled once no point failed

    def run_point(self, spec: PointSpec) -> RunMetrics:
        """Convenience wrapper for a single point."""
        return self.run_points([spec])[0]


def make_executor(jobs: int = 1,
                  cache_dir: Optional[Union[str, Path]] = None,
                  on_event: Optional[ProgressCallback] = None,
                  point_timeout_s: Optional[float] = None,
                  max_retries: Optional[int] = None,
                  ) -> SweepExecutor:
    """Build the executor the CLI/benches ask for.

    ``jobs`` (>= 1; anything less raises
    :class:`~repro.errors.ExperimentError`) bounds concurrent points,
    ``cache_dir`` (optional) enables the on-disk result cache,
    ``on_event`` (optional) subscribes a progress callback to every
    sweep, ``point_timeout_s`` sets a per-point wall-clock deadline,
    and ``max_retries`` (default
    :data:`~repro.experiments.supervise.DEFAULT_MAX_RETRIES`) bounds
    extra attempts.  An interrupted sweep resumes by building its
    executor over the same ``cache_dir`` again.  Results are
    bit-identical under every combination.
    """
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return SweepExecutor(
        jobs=jobs, cache=cache, on_event=on_event,
        point_timeout_s=point_timeout_s,
        max_retries=(DEFAULT_MAX_RETRIES if max_retries is None
                     else max_retries))


@functools.lru_cache(maxsize=None)
def default_executor() -> SweepExecutor:
    """The in-process executor sweeps run on when given none.

    One instance per process, so its batch numbering keeps every
    ``(batch, index)`` progress key unique across successive
    executor-less sweeps feeding one subscriber.
    """
    return make_executor()


def run_plan(plan: Plan, executor: Optional[SweepExecutor] = None,
             on_event: Optional[ProgressCallback] = None) -> Any:
    """Run *plan*'s points as one batch on *executor* (without one, on
    :func:`default_executor`) and assemble its result.  *on_event*
    subscribes to that batch's progress stream."""
    return plan.assemble((executor or default_executor()).run_points(
        plan.specs, on_event=on_event))
