"""Shared configuration for the benchmark suite.

Every ``bench_fig*.py`` regenerates one paper figure at full scale and
prints the same series the paper plots.  ``REPRO_BENCH_SCALE`` (a float
env var, default 0.6) scales simulation horizons: 1.0 gives the
smoothest curves, smaller values run faster with more sampling noise.
The shape assertions hold from scale 0.3 up: ``figure2`` passes every
``bench_fig2_bimodal`` check at 0.3, 0.4 and 0.6 on seeds 42, 1, 2
and 3.  Below 0.3 its lightest-load point completes only ~70-160
requests, so the p99 can land in the 0.5% 100 µs straggler class
(seed 3 at 0.1 and 0.2) or sit so high that the knee check fails
(seed 42 at 0.1: Shinjuku-Offload 50,455 ns at 600k RPS is not
5 x 20,766 ns).

``REPRO_BENCH_JOBS`` (int, default 1) fans sweep points across that
many worker processes, and ``REPRO_BENCH_CACHE_DIR`` (a path, default
unset) caches point results on disk so re-running a bench skips
already-measured points.  Results are bit-identical in every mode.
These benches check the figures' shapes; timing is measured by
``perfbench/`` (see ``BENCHMARK.json``).

``REPRO_SANITIZE`` (truthy, default unset) runs every point on the
observation-only sanitizing simulator (see
``repro.analysis.sanitizer``): clock-monotonicity, queue-accounting,
and request-conservation invariants are checked live, per-stream RNG
draws are counted, and the regenerated figures stay bit-identical.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

import pytest

from repro.experiments.executor import SweepExecutor, make_executor
from repro.experiments.harness import (
    SANITIZE_ENV,
    RunConfig,
    sanitize_enabled,
)


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.6"))


def bench_sanitize() -> bool:
    return sanitize_enabled()


@pytest.fixture(scope="session", autouse=True)
def sanitize() -> bool:
    """Whether this bench session runs sanitized (``REPRO_SANITIZE``).

    When enabled, the env var is normalized to ``"1"`` so executor
    worker processes inherit a canonical value; the harness reads it
    directly in whichever process runs each point.
    """
    enabled = bench_sanitize()
    if enabled:
        os.environ[SANITIZE_ENV] = "1"
    return enabled


def bench_jobs() -> int:
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def bench_cache_dir() -> Optional[str]:
    return os.environ.get("REPRO_BENCH_CACHE_DIR") or None


@pytest.fixture(scope="session")
def run_config() -> RunConfig:
    """The base per-point run configuration for benches."""
    return RunConfig(seed=42)


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def executor() -> SweepExecutor:
    """The sweep executor every bench shares."""
    return make_executor(jobs=bench_jobs(), cache_dir=bench_cache_dir())


def emit(text: str) -> None:
    """Print bench results so they are visible even under capture.

    Regenerated figure/table series are the whole point of a bench run,
    so they go to the real stdout (bypassing pytest's capture of
    passing tests) as well as to the captured stream (so failures show
    them in context).
    """
    print()
    print(text)
    if sys.stdout is not sys.__stdout__:
        print(file=sys.__stdout__)
        print(text, file=sys.__stdout__)
        sys.__stdout__.flush()
