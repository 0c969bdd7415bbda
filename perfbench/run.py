"""Benchmark entry point.  From the root of a checkout::

    python3 perfbench/run.py --workload fig2-bimodal --seed 42 \\
        --seconds 35 --trace 0

It needs the program's source under ``src/`` beside this directory and
fails (exit 2, no result) without it.  Every measurement happens in
fresh interpreters it launches:

- ``setup_s`` is the median, over several launches before and after the
  measuring session, of the time from starting a fresh interpreter
  until its imports are done and its executor (and cache and ledger)
  are built;
- one measuring session repeats the workload for ``--seconds`` and
  reports the median ``wall_s`` and ``cpu_s`` of its repetitions and
  its ``peak_rss_mb``; with ``--trace 1`` it also makes one traced
  repetition and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every point matched its reference.  Scratch files live
under ``.perfbench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

#: Fresh-interpreter launches timed for ``setup_s`` (after one untimed
#: launch that warms the byte-code and file caches).
SETUP_LAUNCHES = 7
#: Whole-run deadline, below the 180 s a run may take.
DEADLINE_S = 170.0


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> Dict[str, str]:
    """The environment of every launch: the program on the path and no
    ``REPRO_*`` switch (sanitizer, tie-break policy) inherited."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def launch(args: List[str], timeout: float) -> Dict[str, Any]:
    """Run ``python -m perfbench.session ARGS`` in its own process group;
    return its last JSON line plus ``launched`` (the clock at launch).
    On timeout the whole group (pool workers included) is killed."""
    cmd = [sys.executable, "-m", "perfbench.session"] + args
    launched = clock()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                            stdout=subprocess.PIPE, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"session timed out after {timeout:.0f}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"session exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["launched"] = launched
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's own tests: shrink every horizon (the reference
    # then does not apply) and time fewer set-up launches.
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-launches", type=int, default=SETUP_LAUNCHES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--reference", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = clock()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    common = ["--workload", args.workload, "--work-dir", str(work)]

    def setup_time() -> float:
        probe = launch(common + ["--setup-only"], timeout=60.0)
        return probe["setup_end"] - probe["launched"]

    try:
        setup_time()  # untimed: warms the byte-code and file caches
        # Half the timed launches before the session and half after, so
        # the samples span the run and not one moment of the machine.
        setups = [setup_time() for _ in range((args.setup_launches + 1) // 2)]
        session = common + ["--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace),
                            "--scale-factor", str(args.scale_factor)]
        if args.reference is not None:
            session += ["--reference", args.reference]
        result = launch(session, timeout=DEADLINE_S - (clock() - started)
                        - 3.0 * (args.setup_launches // 2))
        setups.append(result["setup_end"] - result["launched"])
        setups += [setup_time() for _ in range(args.setup_launches // 2)]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    correct = result["failed"] == 0 and not result["messages"]
    if args.trace:
        names, values = "per_layer", result["per_layer"]
    else:
        names = "end_to_end"
        values = {"wall_s": statistics.median(result["wall_s"]),
                  "cpu_s": statistics.median(result["cpu_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[names]}
    print(f"perfbench: {args.workload} seed={args.seed} reps={result['reps']} "
          f"wall_s={result['wall_s']} setup_s={setups}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
