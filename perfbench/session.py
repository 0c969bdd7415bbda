"""One measuring session of a workload, in a fresh interpreter.

``run.py`` launches this module; it is not meant to be run by hand::

    python3 -m perfbench.session --workload fig2-bimodal --seed 42 \\
        --seconds 35 --trace 0 --work-dir DIR [--setup-only]

Set-up (imports, then the executor and, for a cold-cache workload, the
cache and progress ledger) ends at the ``setup_end`` stamp it prints.
With ``--setup-only`` that is all it does.  Otherwise it repeats the
workload until ``--seconds`` are used (at least twice), checks every
point against the committed reference and against the first
repetition, and with ``--trace 1`` adds one traced repetition whose
per-layer figures it reports.  The last line of its output is one JSON
object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import trace
from perfbench.workloads import (
    WORKLOADS,
    Run,
    Workload,
    expected_points,
    figure_points,
    point_digest,
)

REFERENCE = Path(__file__).resolve().parent / "reference.json"
#: The seed the committed reference digests were taken at.
REFERENCE_SEED = 42
MIN_REPS = 2
MAX_REPS = 50


def cpu_seconds() -> float:
    """User+system CPU of this process and of every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    #: point key -> digest of its RunMetrics image, in figure order.
    digests: Dict[str, str]
    #: figure id -> SHA-256 over its points' images (the repo's
    #: ``metrics_digest`` form, so fig2 compares with the golden).
    figure_digests: Dict[str, str]
    #: Exact counts read from ExecutorStats and RunMetrics.
    counts: Dict[str, int]
    #: Points the figures should have produced.
    expected: int
    errors: List[str] = field(default_factory=list)


def one_rep(run: Run, workload: Workload, seed: int, scale: float,
            tracer: Optional[trace.Tracer] = None) -> Rep:
    """Run every figure of *workload* once through *run*'s executor."""
    from repro.experiments.executor import metrics_to_jsonable
    figures: Dict[str, Any] = {}
    errors: List[str] = []
    gc.collect()
    cpu0 = cpu_seconds()
    t0 = trace.clock()
    root = tracer.begin("rep", "harness") if tracer is not None else None
    for fig_id in workload.figures:
        span = tracer.begin("figure", "harness") if tracer else None
        try:
            figures[fig_id] = run.run_figure(fig_id, seed, scale)
        except Exception as exc:  # a failed point: counted, not fatal
            figures[fig_id] = None
            errors.append(f"{fig_id}: {type(exc).__name__}: {exc}")
        finally:
            if span is not None:
                tracer.end(span)
    run.finish()
    if root is not None:
        tracer.end(root)
    t1 = trace.clock()
    cpu1 = cpu_seconds()

    digests: Dict[str, str] = {}
    figure_digests: Dict[str, str] = {}
    generated = completed = 0
    for fig_id in workload.figures:
        points = figure_points(fig_id, figures[fig_id], run.events)
        images = [metrics_to_jsonable(m) for _key, m in points]
        figure_digests[fig_id] = hashlib.sha256(json.dumps(
            images, sort_keys=True).encode("utf-8")).hexdigest()
        for key, metrics in points:
            digests[key] = point_digest(metrics)
            generated += metrics.throughput.generated
            completed += metrics.throughput.completed
    stats = run.executor.stats
    counts = {"sim.events": stats.events_executed,
              "harness.points": stats.points_total,
              "harness.points_cached": stats.points_cached,
              "window.generated": generated,
              "window.completed": completed}
    return Rep(wall_s=t1 - t0, cpu_s=cpu1 - cpu0, digests=digests,
               figure_digests=figure_digests, counts=counts,
               expected=sum(expected_points(f) for f in workload.figures),
               errors=errors)


def check(reps: List[Rep], reference: Optional[Dict[str, Any]]
          ) -> Dict[str, Any]:
    """Failures across *reps*: a point fails when it is missing (raised
    or never returned), when it differs from the committed reference,
    or when it differs from the first repetition.  A repetition whose
    exact counts differ from the first one's fails every point it ran:
    counts of the same code must repeat, so a difference is a fault."""
    first = reps[0]
    attempted = failed = 0
    messages: List[str] = []
    for n, rep in enumerate(reps):
        attempted += rep.expected
        bad = rep.expected - len(rep.digests)
        messages.extend(rep.errors)
        for key, digest in rep.digests.items():
            if reference is not None and \
                    reference["points"].get(key) != digest:
                bad += 1
                messages.append(f"rep {n}: {key} differs from the reference")
            elif first.digests.get(key) != digest:
                bad += 1
                messages.append(f"rep {n}: {key} differs from rep 0")
        if reference is not None:
            for fig_id, digest in rep.figure_digests.items():
                if reference["figures"].get(fig_id) != digest:
                    messages.append(f"rep {n}: {fig_id} digest {digest[:16]} "
                                    f"differs from the reference")
                    bad = max(bad, 1)  # e.g. same points, another order
        if rep.counts != first.counts:
            messages.append(f"rep {n}: counts {rep.counts} differ from "
                            f"rep 0's {first.counts}")
            bad = rep.expected
        failed += min(bad, rep.expected)
    return {"attempted": attempted, "failed": failed, "messages": messages}


def per_layer(records: Dict[str, Any], rep: Rep, untraced_wall_s: float,
              jobs: int, failed_frac: float) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition *rep*."""
    spans = records["spans"]
    counts = records["counts"]
    layers = trace.layer_self_times(spans)
    total_self = sum(layers.values())
    events = rep.counts["sim.events"]
    requests = counts["workload.requests"]
    points = [s for s in spans if s["name"] == "point"]
    own = trace.self_times(spans)
    point_self = sum(own[s["id"]] for s in points)
    profiled = sum(sum(s.get("profile", {}).values()) for s in points)
    point_cpu = sum(s["cpu_end"] - s["cpu_start"] for s in points)
    trace_cpu = sum(s["cpu_end"] - s["cpu_start"] for s in spans
                    if s["layer"] == "trace")

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    out: Dict[str, float] = {
        "sim.events": events,
        "sim.events_per_request": events / requests if requests else 0.0,
    }
    out.update(counts)
    out.update({f"{layer}.self_s": seconds
                for layer, seconds in layers.items()})
    out["sim.share"] = layers["sim"] / total_self if total_self else 0.0
    out["sim.ns_per_event"] = layers["sim"] / events * 1e9 if events else 0.0
    out["metrics.summarize_s"] = total("summarize")
    out["harness.points"] = rep.counts["harness.points"]
    out["harness.points_cached"] = rep.counts["harness.points_cached"]
    out["harness.cache_put_s"] = total("cache_put")
    out["harness.ledger_s"] = total("ledger")
    out["harness.overhead_cpu_s"] = rep.cpu_s - point_cpu - trace_cpu
    out["harness.worker_busy_frac"] = (total("point") / (jobs * rep.wall_s)
                                       if rep.wall_s > 0 else 0.0)
    out["trace.wall_s"] = rep.wall_s
    out["trace.overhead"] = (rep.wall_s / untraced_wall_s - 1.0
                             if untraced_wall_s > 0 else 0.0)
    out["trace.profile_coverage"] = (profiled / point_self
                                     if point_self > 0 else 0.0)
    out["failed_frac"] = failed_frac
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.session")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scale-factor", type=float, default=1.0)
    parser.add_argument("--reference", default=None,
                        help="check against this reference at any seed "
                             "and scale (default: the committed one, at "
                             "seed 42 and full scale only)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, work_dir)
    setup_end = trace.clock()
    if args.setup_only:
        run.discard()
        print(json.dumps({"setup_end": setup_end}))
        return 0

    scale = workload.scale * args.scale_factor
    reference_path = args.reference
    if reference_path is None and args.seed == REFERENCE_SEED \
            and args.scale_factor == 1.0:
        reference_path = REFERENCE
    reference = None
    if reference_path is not None:
        reference = json.loads(Path(reference_path).read_text(
            encoding="utf-8"))[workload.name]

    reps: List[Rep] = []
    start = trace.clock()
    while True:
        reps.append(one_rep(run, workload, args.seed, scale))
        run.discard()
        # Stop at the repetition that ends nearest to --seconds.
        elapsed = trace.clock() - start
        if len(reps) >= MAX_REPS or (
                len(reps) >= MIN_REPS
                and elapsed + elapsed / len(reps) / 2 > args.seconds):
            break
        run = Run(workload, work_dir)
    rss = peak_rss_mb()

    traced: Optional[Rep] = None
    records = None
    if args.trace:
        trace_dir = work_dir / "trace"
        trace_dir.mkdir(exist_ok=True)
        run = Run(workload, work_dir)
        tracer = trace.Tracer(str(trace_dir))
        tracer.install()
        try:
            traced = one_rep(run, workload, args.seed, scale, tracer=tracer)
        finally:
            tracer.uninstall()
        run.discard()
        records = trace.load(str(trace_dir), tracer.records())

    verdict = check(reps + ([traced] if traced is not None else []),
                    reference)
    result: Dict[str, Any] = {
        "setup_end": setup_end,
        "reps": len(reps),
        "wall_s": [r.wall_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "peak_rss_mb": rss,
        **verdict,
    }
    if traced is not None:
        result["per_layer"] = per_layer(
            records, traced, statistics.median(result["wall_s"]),
            workload.jobs, verdict["failed"] / verdict["attempted"])
    for message in verdict["messages"]:
        print(message, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
