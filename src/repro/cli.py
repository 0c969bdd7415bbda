"""Command-line entry point: ``repro <experiment>``.

Regenerates any paper figure or the in-text claims table from the
terminal::

    repro list                 # what's available
    repro fig2                 # Figure 2 at full scale
    repro fig6 --scale 0.5     # quicker, noisier
    repro fig2 --jobs 4        # fan points across 4 worker processes
    repro fig2 --cache-dir ~/.repro-cache   # reuse measured points
    repro fig2 --sanitize      # runtime determinism invariants on
    repro systems              # every registered system, with configs
    repro run --system rss --rate 200e3     # one point of one system
    repro table-t1             # in-text claims, paper vs measured
    repro all                  # every figure plus T1, as one batch
    repro lint                 # determinism static analysis over src
    repro lint --list-rules    # the rule catalog
    repro race                 # schedule-permutation fuzzer (tie races)
    repro race --inject        # self-test on a planted race
    repro fig2 --progress --cache-dir d   # stream per-point progress
    repro watch --cache-dir d  # live scoreboard of that sweep
    repro fig2 --point-timeout 120   # killable workers, per-point deadline
    repro fig2 --cache-dir d  # re-run with the same --cache-dir to resume
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.executor import Plan

import repro
from repro.errors import ExperimentError, ReproError
from repro.version import __version__

# Each command imports what it runs inside its handler, so ``--help``,
# ``--version``, ``list``, ``lint`` and ``watch`` load no simulation
# model and a figure loads no fault or lint module.

_FIGURE_DESCRIPTIONS = {
    "fig2": "bimodal 99.5%/0.5%, 10us slice, Shinjuku 3w vs Offload 4w",
    "fig3": "fixed 1us, Offload throughput vs outstanding requests",
    "fig4": "fixed 5us, no preemption, 3w vs 4w",
    "fig5": "fixed 100us, 15w vs 16w",
    "fig6": "fixed 1us, 15w vs 16w (the dispatcher bottleneck)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation of 'Mind the Gap' "
                    "(HotNets '19) from simulation.")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    sub.add_parser("systems",
                   help="list every registered system with its config "
                        "class and description")

    def add_executor_args(cmd_parser: argparse.ArgumentParser) -> None:
        cmd_parser.add_argument(
            "--jobs", type=_jobs_arg, default=1, metavar="N",
            help="points run at once, each in its own worker process "
                 "(1 = in this process; results are bit-identical "
                 "either way)")
        cmd_parser.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="on-disk result cache; re-runs skip already-measured "
                 "points (re-run with the same DIR to resume an "
                 "interrupted sweep)")
        cmd_parser.add_argument(
            "--sanitize", action="store_true",
            help="run every point on the observation-only sanitizing "
                 "simulator (clock/queue/conservation invariants; "
                 "metrics stay bit-identical)")
        cmd_parser.add_argument(
            "--progress", action="store_true",
            help="stream per-point progress events (started/completed/"
                 "cache-hit/failed) as the sweep runs; with --cache-dir, "
                 "also write a progress.jsonl ledger 'repro watch' tails")
        cmd_parser.add_argument(
            "--point-timeout", type=float, default=None, metavar="SEC",
            dest="point_timeout",
            help="per-point wall-clock deadline; every point runs in a "
                 "worker process, and a hung one is killed and the point "
                 "retried")
        cmd_parser.add_argument(
            "--max-retries", type=int, default=None, metavar="N",
            dest="max_retries",
            help="extra attempts after a point's first failure "
                 "(default: 2)")

    for fig_id, description in _FIGURE_DESCRIPTIONS.items():
        # argparse %-formats help text; "99.5%" must reach it as "%%".
        fig_parser = sub.add_parser(fig_id,
                                    help=description.replace("%", "%%"))
        fig_parser.add_argument(
            "--scale", type=float, default=1.0,
            help="horizon scale factor (smaller = faster, noisier)")
        fig_parser.add_argument("--seed", type=int, default=42)
        add_executor_args(fig_parser)

    run_parser = sub.add_parser(
        "run", help="run one registered system at one offered load")
    run_parser.add_argument(
        "--system", required=True, metavar="NAME",
        help="registry name of the system (see 'repro systems')")
    run_parser.add_argument(
        "--rate", type=float, default=100e3, metavar="RPS",
        help="offered load, requests per second (default: 100e3)")
    run_parser.add_argument(
        "--service-us", type=float, default=2.0, metavar="US",
        help="fixed service time per request, microseconds "
             "(default: 2.0)")
    run_parser.add_argument("--seed", type=int, default=42)
    run_parser.add_argument(
        "--scale", type=float, default=1.0,
        help="horizon scale factor (smaller = faster, noisier)")
    run_parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault scenario, comma-separated key=value "
             "(e.g. 'link-loss=0.02,timeout-us=200,retries=2'; "
             "crash=WID@US, stall=WID@US+US, queue-cap=N, ...)")
    add_executor_args(run_parser)

    t1_parser = sub.add_parser(
        "table-t1", help="in-text quantitative claims, paper vs measured")
    t1_parser.add_argument("--seed", type=int, default=42)

    all_parser = sub.add_parser("all", help="every figure plus table T1")
    all_parser.add_argument("--scale", type=float, default=1.0)
    all_parser.add_argument("--seed", type=int, default=42)
    add_executor_args(all_parser)

    lint_parser = sub.add_parser(
        "lint", help="determinism static analysis over the package "
                     "source (the bit-identical-reproduction gate)")
    lint_parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed "
             "repro package source)")
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)")
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")

    race_parser = sub.add_parser(
        "race", help="schedule-permutation fuzzer: replay systems "
                     "under permuted equal-timestamp dispatch order "
                     "and require metrics-digest invariance")
    race_parser.add_argument(
        "--permutations", type=int, default=4, metavar="N",
        help="tie-break policies per system, including the identity "
             "(default: 4)")
    race_parser.add_argument(
        "--systems", default=None, metavar="NAMES",
        help="comma-separated registry names (default: every "
             "registered system)")
    race_parser.add_argument(
        "--scale", type=float, default=0.1,
        help="horizon scale factor per replay (default: 0.1)")
    race_parser.add_argument(
        "--policy-seed", type=int, default=0,
        help="seed of the permutation family (default: 0)")
    race_parser.add_argument("--seed", type=int, default=42,
                             help="workload seed (default: 42)")
    race_parser.add_argument(
        "--strict", action="store_true",
        help="fail float-summation reassociation too, not just "
             "semantic divergence")
    race_parser.add_argument(
        "--inject", action="store_true",
        help="self-test: run the planted race instead and require "
             "the fuzzer to catch it")
    race_parser.add_argument(
        "--sanitize", action="store_true",
        help="replay on the observation-only sanitizing simulator")

    watch_parser = sub.add_parser(
        "watch", help="live per-point scoreboard of a running sweep: "
                      "tail the progress.jsonl ledger a --progress "
                      "--cache-dir run writes next to its result cache")
    watch_parser.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="the sweep's cache directory (same value passed to the "
             "running command)")
    watch_parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SEC",
        help="poll interval in seconds (default: 2.0)")
    watch_parser.add_argument(
        "--once", action="store_true",
        help="render the current scoreboard once and exit")
    return parser


def _jobs_arg(text: str) -> int:
    """``--jobs``: an integer >= 1 (anything else is a usage error)."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {jobs}")
    return jobs


def _execute(args: argparse.Namespace,
             plan: "Plan") -> Tuple[Any, str, float]:
    """Run *plan* as one batch on the executor the flags ask for.

    ``--progress`` attaches a console printer and — when a cache
    directory exists to anchor it — a fresh ``progress.jsonl`` ledger
    that ``repro watch`` tails, closed with its done sentinel however
    the batch ends.  Returns the plan's result, the ``[executor: ...]``
    stats line and the batch's wall time in seconds.
    """
    from repro.experiments.executor import make_executor, run_plan
    from repro.experiments.progress import (
        ConsoleProgress,
        ProgressLedger,
        multiplex,
    )
    from repro.experiments.report import render_executor_stats
    # Built before the ledger: a bad --cache-dir is reported as such.
    executor = make_executor(jobs=args.jobs, cache_dir=args.cache_dir,
                             point_timeout_s=args.point_timeout,
                             max_retries=args.max_retries)
    ledger = (ProgressLedger.in_cache_dir(args.cache_dir)
              if args.progress and args.cache_dir is not None else None)
    if args.progress:
        executor.on_event = multiplex(ConsoleProgress(), ledger)
    _apply_sanitize_flag(args)
    # The one sanctioned wall-clock site: operator-facing elapsed-time
    # reporting, which never feeds simulated state or cached results.
    start = time.perf_counter()  # repro: allow[wall-clock]
    try:
        result = run_plan(plan, executor)
    finally:
        if ledger is not None:
            ledger.write_done()
    elapsed = time.perf_counter() - start  # repro: allow[wall-clock]
    return (result, render_executor_stats(executor.stats, jobs=executor.jobs),
            elapsed)


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``fig2``..``fig6`` and ``all``: every point in one executor batch.

    ``all`` joins the five figure plans and table T1's (at its full
    horizon whatever ``--scale`` is), so a ``--cache-dir`` re-run
    serves T1 from the cache like any figure point.
    """
    from repro.experiments.executor import Plan
    from repro.experiments.figures import plan_figure
    from repro.experiments.harness import RunConfig
    from repro.experiments.report import render_figure, render_t1
    config = RunConfig(seed=args.seed)
    everything = args.command == "all"
    fig_ids = list(_FIGURE_DESCRIPTIONS) if everything else [args.command]
    plans = [plan_figure(fig_id, config, args.scale) for fig_id in fig_ids]
    if everything:
        from repro.experiments.tables import plan_t1
        plans.append(plan_t1(config))
    results, stats, elapsed = _execute(args, Plan.join(plans))
    print("\n\n".join(render_figure(figure)
                      for figure in results[:len(fig_ids)]))
    if everything:
        print()
        print(render_t1(results[-1]))
    print(stats)
    print(f"[{args.command} regenerated in {elapsed:.1f}s]")
    return 0


def _cmd_table_t1(args: argparse.Namespace) -> int:
    """Measure and print the in-text claims table."""
    from repro.experiments.harness import RunConfig
    from repro.experiments.report import render_t1
    from repro.experiments.tables import table_t1
    print(render_t1(table_t1(RunConfig(seed=args.seed))))
    return 0


def _cmd_systems(_args: argparse.Namespace) -> int:
    """Print the registry: one line per system."""
    from repro.systems import registry
    print("registered systems:")
    for entry in registry.list_systems():
        config_name = (entry.config_cls.__name__
                       if entry.config_cls is not None else "-")
        print(f"  {entry.name:18s} {config_name:22s} {entry.description}")
    print("\nrun one with: repro run --system <name>")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one (system, rate) point by registry name and report it."""
    from repro.experiments.executor import ConfiguredFactory, Plan, PointSpec
    from repro.experiments.harness import RunConfig
    from repro.faults.plan import parse_fault_spec
    from repro.units import us
    from repro.workload.distributions import Fixed
    config = RunConfig(seed=args.seed).scaled(args.scale)
    if getattr(args, "faults", None):
        config = replace(config, faults=parse_fault_spec(args.faults))
    spec = PointSpec(factory=ConfiguredFactory.by_name(args.system),
                     rate_rps=args.rate,
                     distribution=Fixed(us(args.service_us)), config=config,
                     label=args.system)
    metrics, stats, elapsed = _execute(
        args, Plan((spec,), lambda results: results[0]))
    throughput = metrics.throughput
    print(f"{args.system} @ {args.rate / 1e3:.0f}k RPS offered, "
          f"fixed {args.service_us:g}us service (seed {args.seed}):")
    print(f"  achieved    {throughput.achieved_rps / 1e3:.1f}k RPS "
          f"({throughput.completed} completed, {throughput.dropped} dropped)")
    if metrics.latency is None:
        print("  latency     no samples in the measurement window")
    else:
        latency = metrics.latency
        print(f"  latency     p50 {latency.p50_ns / 1e3:.2f}us  "
              f"p99 {latency.p99_ns / 1e3:.2f}us  "
              f"p99.9 {latency.p999_ns / 1e3:.2f}us")
    print(f"  preemptions {metrics.preemptions}  "
          f"worker wait {metrics.worker_wait_fraction:.1%}")
    if metrics.faults is not None:
        faults = metrics.faults
        print(f"  faults      link drops {faults.link_drops} "
              f"corrupt {faults.link_corruptions} "
              f"reorder {faults.link_reorders}  "
              f"feedback lost {faults.feedback_lost}  "
              f"crashes {faults.worker_crashes} "
              f"stalls {faults.worker_stalls}")
        print(f"  drops       overflow {faults.drops_overflow}  "
              f"fault {faults.drops_fault}  "
              f"timeout {faults.drops_timeout}")
        print(f"  recovery    retries {faults.retries} "
              f"({faults.retry_successes} ok)  "
              f"failovers {faults.failovers} "
              f"({faults.failover_successes} ok)  "
              f"stale fallbacks {faults.stale_fallbacks}")
        print(f"  goodput     {faults.goodput_rps / 1e3:.1f}k RPS "
              f"(unassisted completions)")
    print(stats)
    print(f"[{args.system} point in {elapsed:.1f}s]")
    return 0


def _apply_sanitize_flag(args: argparse.Namespace) -> None:
    """Export ``--sanitize`` through the environment.

    The harness (and any worker process, which inherits the
    environment) reads ``REPRO_SANITIZE``, so one env var covers
    in-process and worker points alike.
    """
    from repro.experiments.harness import SANITIZE_ENV
    if getattr(args, "sanitize", False):
        os.environ[SANITIZE_ENV] = "1"


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism lint; exit 0 only when nothing survives.

    Every per-file rule runs over the path set; only an inline
    ``# repro: allow[rule-id]`` sanctions a finding.
    """
    from repro.analysis.lint import lint_paths
    from repro.analysis.report import (
        render_result,
        render_result_json,
        render_rules,
    )
    if args.list_rules:
        print(render_rules())
        return 0
    package_dir = Path(repro.__file__).resolve().parent
    paths = [Path(p) for p in args.paths] or [package_dir]
    # Paths are reported relative to the source root so reports read
    # the same across checkouts; explicit paths keep their own form.
    root = package_dir.parent if not args.paths else None
    result = lint_paths(paths, root=root)
    if args.format == "json":
        print(render_result_json(result))
    else:
        print(render_result(result))
    return 0 if result.ok else 1


def _cmd_race(args: argparse.Namespace) -> int:
    """Run the schedule-permutation fuzzer (or its injection self-test)."""
    from repro.analysis.racefuzz import (
        REPLAYS,
        VERDICT_DIVERGENT,
        fuzz_all,
        fuzz_injected,
    )
    from repro.analysis.report import render_race_report
    _apply_sanitize_flag(args)
    if args.inject:
        report = fuzz_injected(permutations=args.permutations,
                               policy_seed=args.policy_seed)
        outcomes = report.replays[0].outcomes
        flipped = sum(1 for o in outcomes
                      if o.verdict == VERDICT_DIVERGENT)
        caught = report.verdict == VERDICT_DIVERGENT
        print("race --inject (planted tie-break-sensitive schedule):")
        print(f"  {flipped}/{len(outcomes)} permutations diverged from "
              f"identity {'[caught]' if caught else '[MISSED]'}")
        if caught:
            print("injection caught by the fuzzer")
            return 0
        print("injection MISSED; the race detector is not detecting",
              file=sys.stderr)
        return 1
    names = ([name.strip() for name in args.systems.split(",")
              if name.strip()] if args.systems else None)
    start = time.perf_counter()  # repro: allow[wall-clock]
    reports = fuzz_all(names, permutations=args.permutations,
                       policy_seed=args.policy_seed, scale=args.scale,
                       run_seed=args.seed)
    elapsed = time.perf_counter() - start  # repro: allow[wall-clock]
    print(f"schedule-permutation fuzz: {len(reports)} system(s), "
          f"{len(REPLAYS)} replays ({', '.join(r.name for r in REPLAYS)}), "
          f"{args.permutations} permutations each, policy seed "
          f"{args.policy_seed}, scale {args.scale:g}:")
    print(render_race_report(reports, strict=args.strict))
    print(f"[race fuzz in {elapsed:.1f}s]")
    return 0 if all(r.ok(strict=args.strict) for r in reports) else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    """Tail a sweep's progress ledger and render the live scoreboard.

    Reads ``<cache-dir>/progress.jsonl`` (written by any ``--progress
    --cache-dir`` run) from a separate process, so an operator can
    observe a long sweep — partial curves included — without touching
    the run itself.  Exits when the sweep's done sentinel lands, or
    after one render with ``--once``.
    """
    from repro.experiments.progress import ProgressLedger, SweepProgress, \
        ledger_path
    if args.interval <= 0:
        raise ExperimentError(f"interval must be positive: {args.interval}")
    path = ledger_path(args.cache_dir)
    last_rendered = None
    last_seen = -1
    while True:
        events = ProgressLedger.read_events(path)
        progress = SweepProgress().replay(events)
        rendered = progress.render()
        if rendered != last_rendered:
            print(rendered)
            print()
            last_rendered = rendered
        if args.once or progress.done:
            return 0
        # Operator-facing polling cadence; never feeds simulated state.
        time.sleep(args.interval)  # repro: allow[wall-clock]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None or args.command == "list":
        print("experiments:")
        for fig_id, description in _FIGURE_DESCRIPTIONS.items():
            print(f"  {fig_id:9s} {description}")
        print(f"  {'table-t1':9s} in-text claims, paper vs measured")
        print(f"  {'all':9s} everything above")
        print(f"  {'systems':9s} every registered system (repro run "
              f"--system <name>)")
        print(f"  {'lint':9s} determinism static analysis "
              f"(repro lint --list-rules)")
        print(f"  {'race':9s} schedule-permutation fuzzer "
              f"(repro race --permutations N)")
        print(f"  {'watch':9s} live scoreboard of a --progress "
              f"--cache-dir sweep")
        return 0
    commands = {"systems": _cmd_systems, "run": _cmd_run,
                "table-t1": _cmd_table_t1, "lint": _cmd_lint,
                "race": _cmd_race, "watch": _cmd_watch, "all": _cmd_sweep,
                **dict.fromkeys(_FIGURE_DESCRIPTIONS, _cmd_sweep)}
    try:
        return commands[args.command](args)
    except ReproError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
