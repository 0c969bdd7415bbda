"""In-memory spans, call counts and per-point profiles for the traced run.

The benchmark measures its end-to-end metrics with nothing installed.
A separate traced repetition then installs :class:`Tracer`, which wraps
public entry points of the program from the outside (no source file is
edited) and records:

- **spans** (id, parent, name, layer, pid, start, end, CPU start/end)
  around coarse boundaries: the repetition, each figure, each
  ``SweepExecutor.run_points`` call, each point
  (``run_point_with_events``), ``MetricsCollector.summarize``,
  ``ResultCache.put`` and every progress-ledger write;
- **counts** of calls to fine-grained entry points (``Simulator.timeout``,
  ``NicDispatcherPipeline.submit``, ``ApicTimer.arm``, ...), which are
  far too frequent for one span each;
- **a cProfile profile per point**.  Much of a point runs inside
  generators that the event kernel resumes and no public call brackets
  (the loops in ``systems/parts.py``, worker and dispatcher loops), so
  a point's self time is split across layers by the module each
  profiled function lives in.

Wrappers installed before a process pool forks are inherited by its
workers.  Each worker resets its copy of the state after the fork and
writes its spans, counts and profiles to ``trace-<pid>.json`` when it
exits; :func:`load` merges those files with the parent's own records.

Times are ``CLOCK_MONOTONIC`` readings, which are comparable across the
processes of one machine, so a span recorded in a worker can be a child
of a span recorded in the parent.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import multiprocessing.util
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layer names, one per package under ``src/repro`` that a point runs,
#: plus the harness (``repro.experiments``), everything else in
#: ``repro`` (``other``) and the benchmark's own bookkeeping (``trace``).
LAYERS = ("sim", "core", "hw", "net", "runtime", "systems", "workload",
          "metrics", "harness", "other", "trace")

_PACKAGE_LAYERS = {"sim": "sim", "core": "core", "hw": "hw", "net": "net",
                   "runtime": "runtime", "systems": "systems",
                   "workload": "workload", "metrics": "metrics",
                   "experiments": "harness"}

_THIS_DIR = os.path.dirname(os.path.abspath(__file__))


def clock() -> float:
    """System-wide monotonic time in seconds (shared by forked workers)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None outside the program.

    ``.../repro/<package>/<module>.py`` maps through the package name;
    modules directly under ``repro`` are ``other``; the benchmark's own
    files are ``trace``.  Anything else (the standard library, built-in
    functions) returns None and is charged to its caller.
    """
    path = filename.replace("\\", "/")
    if os.path.dirname(os.path.abspath(filename)) == _THIS_DIR:
        return "trace"
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    rest = path[at + len(marker):].split("/")
    if len(rest) == 1:
        return "other"
    return _PACKAGE_LAYERS.get(rest[0], "other")


def profile_by_layer(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Self (``tottime``) seconds per layer from cProfile *stats*.

    *stats* is ``cProfile.Profile.stats`` after ``create_stats()``:
    ``{(file, line, name): (cc, nc, tt, ct, callers)}`` where
    ``callers`` maps each caller to its own ``(nc, cc, tt, ct)`` edge.
    A function outside the program (a built-in such as ``heappush``, or
    a standard-library helper) is charged to its callers' layers in
    proportion to the time each edge carried, recursively.
    """
    resolved: Dict[tuple, Dict[str, float]] = {}
    in_progress = set()

    def shares(key: tuple) -> Dict[str, float]:
        if key in resolved:
            return resolved[key]
        layer = layer_of_file(key[0])
        if layer is not None:
            result = {layer: 1.0}
        elif key in in_progress or key not in stats:
            result = {"other": 1.0}
        else:
            in_progress.add(key)
            callers = stats[key][4]
            total = sum(edge[2] for edge in callers.values())
            result = {}
            if total > 0:
                for caller, edge in callers.items():
                    for name, share in shares(caller).items():
                        result[name] = (result.get(name, 0.0)
                                        + share * edge[2] / total)
            if not result:
                result = {"other": 1.0}
            in_progress.discard(key)
        resolved[key] = result
        return result

    out: Dict[str, float] = {}
    for key, entry in stats.items():
        tottime = entry[2]
        if tottime <= 0:
            continue
        for name, share in shares(key).items():
            out[name] = out.get(name, 0.0) + share * tottime
    return out


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals: Iterable[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each span's self time: its duration minus the part of its
    interval that its child spans cover.

    Children may come from other processes (a point run by a pool
    worker is a child of the sweep span in the parent), so they can
    overlap one another; the union of their intervals is subtracted,
    never their plain sum, and self time is never negative.
    """
    children: Dict[Optional[str], List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"]))
    return {span["id"]: max(0.0, (span["end"] - span["start"])
                            - _covered(children.get(span["id"], ()),
                                       span["start"], span["end"]))
            for span in spans}


def layer_self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self seconds per layer.

    A span's self time goes to its layer, except for a span carrying a
    ``profile`` (a point): its self time is split across layers in the
    proportions its profile measured.
    """
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        seconds = own[span["id"]]
        profile = span.get("profile")
        total = sum(profile.values()) if profile else 0.0
        if total > 0:
            for layer, share in profile.items():
                out[layer] = out.get(layer, 0.0) + seconds * share / total
        else:
            out[span["layer"]] = out.get(span["layer"], 0.0) + seconds
    return out


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------

#: (metric, module, class, method) for every counted entry point.  The
#: method is wrapped on the class and on each subclass overriding it.
COUNTED = (
    ("sim.timeout_calls", "repro.sim.engine", "Simulator", "timeout"),
    ("sim.defer_calls", "repro.sim.engine", "Simulator", "defer"),
    ("sim.defer_calls", "repro.sim.engine", "Simulator", "defer_at"),
    ("sim.process_calls", "repro.sim.engine", "Simulator", "process"),
    ("sim.store_ops", "repro.sim.primitives", "Store", "put"),
    ("sim.store_ops", "repro.sim.primitives", "Store", "try_put"),
    ("sim.store_ops", "repro.sim.primitives", "Store", "put_or_raise"),
    ("sim.store_ops", "repro.sim.primitives", "Store", "get"),
    ("sim.store_ops", "repro.sim.primitives", "Store", "try_get"),
    ("core.preemption_arms", "repro.core.preemption", "PreemptionDriver",
     "arm"),
    ("core.dispatches", "repro.core.nic_dispatcher", "NicDispatcherPipeline",
     "submit"),
    ("core.feedback_msgs", "repro.core.feedback", "FeedbackChannel", "send"),
    ("hw.timer_arms", "repro.hw.timer_apic", "ApicTimer", "arm"),
    # Every interrupt a simulated thread receives, whichever mechanism
    # (posted interrupt, signal, packet) modelled its delivery.
    ("hw.interrupts", "repro.sim.process", "Process", "interrupt"),
    ("hw.thread_executes", "repro.hw.cpu", "HardwareThread", "execute"),
    ("runtime.requests_run", "repro.runtime.worker", "WorkerCore",
     "run_request"),
    # Packets a port puts on its TX link (a wire Link or the SmartNIC
    # fabric); Link.transmit itself is only reached through a port.
    ("net.link_transmits", "repro.net.port", "NetworkPort", "transmit"),
    ("workload.requests", "repro.workload.apps", "SyntheticApp",
     "make_request"),
    ("metrics.completions", "repro.metrics.collector", "MetricsCollector",
     "record_completion"),
)

COUNT_NAMES = tuple(sorted({entry[0] for entry in COUNTED}))

#: (span name, layer, module, class, method) for every spanned call.
SPANNED = (
    ("sweep", "harness", "repro.experiments.executor", "SweepExecutor",
     "run_points"),
    ("cache_put", "harness", "repro.experiments.executor", "ResultCache",
     "put"),
    # write_done appends through __call__ too, so it is not spanned.
    ("ledger", "harness", "repro.experiments.progress", "ProgressLedger",
     "__call__"),
)


def _subclasses(cls: type) -> List[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class Tracer:
    """Records spans, counts and point profiles while installed.

    Use :meth:`install` before the traced repetition and
    :meth:`uninstall` after it; :meth:`records` returns the parent's own
    records and :func:`load` adds those the pool workers wrote to
    *out_dir*.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self.stack: List[str] = []
        self.counts = {name: 0 for name in COUNT_NAMES}
        self._next_id = 0
        self._restore: List[Tuple[type, str, Any]] = []
        self._profile: Optional[cProfile.Profile] = None

    # -- spans ----------------------------------------------------------

    def begin(self, name: str, layer: str) -> Dict[str, Any]:
        self._next_id += 1
        span = {"id": f"{self.pid}-{self._next_id}", "name": name,
                "layer": layer, "pid": self.pid,
                "parent": self.stack[-1] if self.stack else None,
                "cpu_start": time.process_time(), "start": clock()}
        self.stack.append(span["id"])
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = clock()
        span["cpu_end"] = time.process_time()
        self.stack.pop()
        self.spans.append(span)

    def _spanned(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
        return wrapper

    def _counted(self, fn: Callable, metric: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _point(self, fn: Callable) -> Callable:
        """Span plus profile around ``run_point_with_events``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            profile = cProfile.Profile()
            span = tracer.begin("point", "harness")
            tracer._profile = profile
            profile.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                profile.disable()
                tracer._profile = None
                tracer.end(span)
                book = tracer.begin("profile", "trace")
                profile.create_stats()
                span["profile"] = profile_by_layer(profile.stats)
                tracer.end(book)
        return wrapper

    def _summarize(self, fn: Callable) -> Callable:
        """Span around ``summarize``, kept out of the point's profile so
        the point's profiled self time and this span partition it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            profile = tracer._profile
            if profile is not None:
                profile.disable()
            span = tracer.begin("summarize", "metrics")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
                if profile is not None:
                    profile.enable()
        return wrapper

    # -- installation ---------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every entry point (once; :meth:`uninstall` undoes it)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for metric, module, cls_name, method in COUNTED:
            base = getattr(importlib.import_module(module), cls_name)
            for cls in _subclasses(base):
                if method in cls.__dict__:
                    self._patch(cls, method,
                                self._counted(cls.__dict__[method], metric))
        for name, layer, module, cls_name, method in SPANNED:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method,
                        self._spanned(cls.__dict__[method], name, layer))
        executor = importlib.import_module("repro.experiments.executor")
        self._patch(executor, "run_point_with_events",
                    self._point(executor.run_point_with_events))
        collector = importlib.import_module("repro.metrics.collector")
        self._patch(collector.MetricsCollector, "summarize",
                    self._summarize(collector.MetricsCollector.summarize))
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- forked workers -------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked pool worker: start from empty records (the stack
        is kept, so the worker's spans hang off the parent's current
        span) and write them out when the worker exits."""
        self.pid = os.getpid()
        self.spans = []
        # Zeroed in place: the counting wrappers hold this very dict.
        for name in self.counts:
            self.counts[name] = 0
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def records(self) -> Dict[str, Any]:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def dump(self) -> None:
        """Write this process's records to ``<out_dir>/trace-<pid>.json``."""
        path = Path(self.out_dir) / f"trace-{self.pid}.json"
        path.write_text(json.dumps(self.records()), encoding="utf-8")


def load(out_dir: str, own: Dict[str, Any]) -> Dict[str, Any]:
    """Merge the parent's *own* records with every worker's dump."""
    spans = list(own["spans"])
    counts = dict(own["counts"])
    for path in sorted(Path(out_dir).glob("trace-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(data["spans"])
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}
