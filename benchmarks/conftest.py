"""Shared configuration for the benchmark suite.

Every ``bench_fig*.py`` regenerates one paper figure at full scale and
prints the same series the paper plots.  ``REPRO_BENCH_SCALE`` (a float
env var, default 0.6) scales simulation horizons: 1.0 gives the
smoothest curves, smaller values run faster with more sampling noise.

``REPRO_BENCH_JOBS`` (int, default 1) fans sweep points across that
many worker processes, and ``REPRO_BENCH_CACHE_DIR`` (a path, default
unset) caches point results on disk so re-running a bench skips
already-measured points.  ``REPRO_BENCH_PROGRESS`` (truthy, default
unset) streams per-point progress events through the suite's executor,
measuring the observability layer under the bench clock.  Results are
bit-identical in every mode.

Benches that share a suite with ``repro bench`` (currently the fig2
sweep) record through :func:`repro.bench.recorder.record_suite` with
exactly these env-derived knobs, so a pytest bench run and a CLI
``repro bench`` run append records to the same ``BENCH_<name>.json``
artifact (``$REPRO_BENCH_DIR`` or ``./benchmarks/artifacts``) with the
same environment fingerprint and metrics digest.

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

from repro.analysis.sanitizer import SANITIZE_ENV, sanitize_enabled
from repro.experiments.executor import SweepExecutor, make_executor
from repro.experiments.harness import RunConfig


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


def bench_progress() -> bool:
    """``REPRO_BENCH_PROGRESS`` (truthy): stream progress events while
    suites run, measuring the observability layer's overhead."""
    return os.environ.get("REPRO_BENCH_PROGRESS", "") not in ("", "0")


def bench_options() -> "BenchOptions":
    """The recorder knobs this pytest session runs under.

    One definition for both entry points: ``repro bench`` builds its
    :class:`~repro.bench.recorder.BenchOptions` from CLI flags, the
    pytest benches from the ``REPRO_BENCH_*`` env vars — identical
    values produce identical artifact records (modulo wall clock).
    """
    from repro.bench.recorder import BenchOptions
    return BenchOptions(scale=bench_scale(), seed=42, jobs=bench_jobs(),
                        cache_dir=bench_cache_dir(),
                        progress=bench_progress())


def record_bench(name: str):
    """Run suite *name* through the shared recorder and append its
    record to the suite's ``BENCH_<name>.json`` artifact."""
    from repro.bench.recorder import record_suite
    return record_suite(name, bench_options())


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
