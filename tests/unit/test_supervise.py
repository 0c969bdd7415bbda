"""Unit tests for supervised execution (retry, taxonomy, cache resume).

Chaos here is injected through flaky system factories that misbehave
on their first attempt only — a sentinel file created with
``O_CREAT | O_EXCL`` makes "first" exact across processes — so retry
paths run for real while the suite stays fast.  The heavier kill/hang
scenarios live in ``tests/integration/test_supervision_chaos.py``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal
from dataclasses import dataclass

import pytest

from repro.errors import (
    ExperimentError,
    PointExecutionError,
    SweepFailure,
    SweepPointError,
)
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    ResultCache,
    SweepExecutor,
    make_executor,
    metrics_digest,
    spec_cache_key,
)
from repro.experiments.harness import RunConfig
from repro.faults.plan import FaultPlan, LinkFaults
from repro.experiments.progress import (
    COMPLETED,
    FAILED,
    STARTED,
    ProgressLedger,
    multiplex,
)
from repro.experiments.report import render_executor_stats
from repro.experiments.supervise import (
    DEFAULT_BACKOFF_BASE_S,
    DEFAULT_MAX_RETRIES,
    backoff_delay,
)
from repro.systems.rpcvalet import RpcValetConfig, RpcValetSystem
from repro.units import ms, us
from repro.workload.distributions import Fixed

INNER = ConfiguredFactory(RpcValetSystem, RpcValetConfig(workers=2))


def _first_time(sentinel: str) -> bool:
    """True exactly once per *sentinel* path, across any processes; the
    sentinel then holds the pid of the process that created it."""
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    return True


@dataclass(frozen=True)
class FlakyFactory:
    """A factory whose first construction (ever) raises; retries work.

    Delegates to a real system factory afterwards, so the retried
    point's metrics are exactly what an undisturbed run produces.
    """

    sentinel: str
    inner: ConfiguredFactory

    def __call__(self, sim, rngs, metrics):
        if _first_time(self.sentinel):
            raise RuntimeError("injected first-attempt failure")
        return self.inner(sim, rngs, metrics)


@dataclass(frozen=True)
class DoomedFactory:
    """A factory that fails every attempt, forever."""

    def __call__(self, sim, rngs, metrics):
        raise RuntimeError("injected permanent failure")


@dataclass(frozen=True)
class PidRecordingFactory:
    """Records every build: one line per build in a file named after
    the building process's pid."""

    directory: str
    inner: ConfiguredFactory

    def __call__(self, sim, rngs, metrics):
        with open(os.path.join(self.directory, str(os.getpid())),
                  "a") as builds:
            builds.write("build\n")
        return self.inner(sim, rngs, metrics)


def _spec(factory=INNER, rate: float = 100e3, label: str = "sut",
          seed: int = 1) -> PointSpec:
    config = RunConfig(seed=seed, horizon_ns=ms(2.0), warmup_ns=ms(0.5))
    return PointSpec(factory=factory, rate_rps=rate,
                     distribution=Fixed(us(2.0)), config=config, label=label)


def _fast(executor: SweepExecutor) -> SweepExecutor:
    """Disable real backoff sleeps (the schedule itself is still built)."""
    executor._sleep = lambda seconds: None
    return executor


class TestBackoffDelay:
    def test_schedule_is_bounded_exponential(self):
        assert backoff_delay(1, base_s=0.1, factor=2.0, max_s=10.0) == 0.1
        assert backoff_delay(2, base_s=0.1, factor=2.0, max_s=10.0) == 0.2
        assert backoff_delay(3, base_s=0.1, factor=2.0, max_s=10.0) == 0.4
        assert backoff_delay(9, base_s=0.1, factor=2.0, max_s=10.0) == 10.0

    def test_defaults_start_at_base(self):
        assert backoff_delay(1) == DEFAULT_BACKOFF_BASE_S

    def test_is_deterministic(self):
        assert backoff_delay(4) == backoff_delay(4)

    def test_rejects_nonpositive_attempt(self):
        with pytest.raises(ExperimentError):
            backoff_delay(0)


class TestConstruction:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ExperimentError):
            make_executor(point_timeout_s=0.0)
        with pytest.raises(ExperimentError):
            make_executor(max_retries=-1)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ExperimentError, match="jobs"):
            make_executor(jobs=jobs)

    def test_make_executor_passes_every_knob_through(self, tmp_path):
        executor = make_executor(jobs=3, cache_dir=tmp_path,
                                 point_timeout_s=5.0, max_retries=0)
        assert type(executor) is SweepExecutor
        assert executor.jobs == 3
        assert executor.cache is not None
        assert executor.point_timeout_s == 5.0
        assert executor.max_retries == 0
        assert make_executor().max_retries == DEFAULT_MAX_RETRIES


class TestCleanRuns:
    def test_bit_identical_to_serial(self):
        specs = [_spec(rate=rate) for rate in (100e3, 200e3, 300e3)]
        baseline = make_executor().run_points(specs)
        supervised = _fast(make_executor(jobs=2))
        assert metrics_digest(supervised.run_points(specs)) \
            == metrics_digest(baseline)
        assert supervised.stats.points_run == 3
        assert supervised.stats.points_retried == 0
        assert supervised.stats.points_failed == 0

    def test_results_in_spec_order_regardless_of_completion(self):
        # Heavier points land later; ordering must follow the spec list.
        specs = [_spec(rate=rate) for rate in (300e3, 100e3, 200e3)]
        baseline = make_executor().run_points(specs)
        shuffled = _fast(make_executor(jobs=3)).run_points(specs)
        for expected, got in zip(baseline, shuffled):
            assert expected == got


class TestAttemptPlacement:
    @pytest.mark.parametrize("jobs,point_timeout_s,workers", [
        (1, None, 0),
        (1, 60.0, 1),
        (2, None, 2),
    ], ids=["jobs1", "jobs1-deadline", "jobs2"])
    def test_attempts_run_where_the_knobs_say(self, tmp_path, jobs,
                                              point_timeout_s, workers):
        """In this process at ``jobs == 1`` without a deadline; else in
        ``min(jobs, points)`` forked workers, each reused after every
        success, never in this process."""
        factory = PidRecordingFactory(directory=str(tmp_path), inner=INNER)
        specs = [_spec(factory=factory, rate=rate)
                 for rate in (100e3, 200e3, 300e3)]
        executor = _fast(make_executor(jobs=jobs,
                                       point_timeout_s=point_timeout_s))
        executor.run_points(specs)
        pids = {int(name) for name in os.listdir(tmp_path)}
        assert executor.stats.workers_started == workers
        line = render_executor_stats(executor.stats, jobs=jobs)
        assert [part for part in line.rstrip("]").split()
                if part.startswith("workers=")] \
            == ([f"workers={workers}"] if workers else [])
        if workers == 0:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids
            assert len(pids) == workers


class TestLaunchOrder:
    @pytest.mark.parametrize("jobs,point_timeout_s", [
        (1, None), (1, 60.0), (2, None),
    ], ids=["jobs1", "jobs1-deadline", "jobs2"])
    def test_costliest_points_launch_first(self, tmp_path, jobs,
                                           point_timeout_s):
        """``started`` follows descending rate x horizon, ties in
        submission order; results, completions, ledger keys and cache
        entries still follow the submitted indices, so a cached re-run
        runs nothing."""
        long = RunConfig(seed=1, horizon_ns=ms(4.0), warmup_ns=ms(0.5))
        specs = [_spec(rate=100e3), _spec(rate=300e3),
                 dataclasses.replace(_spec(rate=100e3, label="long"),
                                     config=long),
                 _spec(rate=200e3), _spec(rate=300e3, label="twin", seed=2)]
        # Costs 200, 600, 400, 400, 600: two ties, each kept in order.
        expected_order = [1, 4, 2, 3, 0]
        baseline = make_executor().run_points(specs)
        events = []
        ledger = ProgressLedger.in_cache_dir(tmp_path)
        executor = _fast(make_executor(
            jobs=jobs, point_timeout_s=point_timeout_s, cache_dir=tmp_path,
            on_event=multiplex(ledger, events.append)))
        results = executor.run_points(specs)
        ledger.write_done()
        ledger.close()
        assert [e.index for e in events if e.kind == STARTED] \
            == expected_order
        assert results == baseline
        completed = {e.index: e.metrics for e in events
                     if e.kind == COMPLETED}
        assert completed == dict(enumerate(baseline))
        assert {(e.batch, e.index) for e in events
                if e.kind == COMPLETED} \
            == {(0, i) for i in range(len(specs))}
        assert [(e.index, e.metrics)
                for e in ProgressLedger.read_events(ledger.path)
                if e.kind == COMPLETED] \
            == [(e.index, e.metrics) for e in events if e.kind == COMPLETED]
        rerun = make_executor(cache_dir=tmp_path)
        assert rerun.run_points(specs) == baseline
        assert rerun.stats.points_cached == len(specs)
        assert rerun.stats.points_run == 0


class TestWorkerLifecycle:
    def test_failed_worker_is_retired(self, tmp_path):
        """The worker whose attempt raised runs nothing more: the other
        points and the retry all run in other forks."""
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        sentinel = tmp_path / "s"
        flaky = FlakyFactory(sentinel=str(sentinel), inner=INNER)
        # The flaky point is the costliest, so it launches first and
        # its worker would otherwise go on to take the other two.
        rates = (100e3, 200e3, 300e3)
        specs = [_spec(factory=PidRecordingFactory(str(pid_dir), inner),
                       rate=rate)
                 for inner, rate in zip((INNER, INNER, flaky), rates)]
        executor = _fast(make_executor(jobs=1, point_timeout_s=60.0,
                                       max_retries=1))
        results = executor.run_points(specs)
        assert results == make_executor().run_points(
            [_spec(rate=rate) for rate in rates])
        assert executor.stats.points_retried == 1
        failed_pid = sentinel.read_text()
        assert (pid_dir / failed_pid).read_text() == "build\n"
        assert sum(len((pid_dir / pid).read_text().split())
                   for pid in os.listdir(pid_dir)) == 4

    def test_worker_killed_while_idle_costs_no_retry(self):
        """A worker SIGKILLed between points is replaced; no point is
        charged an attempt for it."""
        import multiprocessing
        others = {child.pid for child in multiprocessing.active_children()}

        def kill_on_first_completion(event):
            if event.kind == COMPLETED and not killed:
                [worker] = [child for child in
                            multiprocessing.active_children()
                            if child.pid not in others]
                os.kill(worker.pid, signal.SIGKILL)
                worker.join()
                killed.append(worker.pid)

        killed = []
        specs = [_spec(rate=rate) for rate in (100e3, 200e3, 300e3)]
        executor = _fast(make_executor(jobs=1, point_timeout_s=60.0,
                                       max_retries=0,
                                       on_event=kill_on_first_completion))
        results = executor.run_points(specs)
        assert len(killed) == 1
        assert results == make_executor().run_points(specs)
        assert executor.stats.points_retried == 0
        assert executor.stats.workers_started == 2


class TestRetry:
    def test_first_attempt_failure_retries_to_exact_result(self, tmp_path):
        flaky = FlakyFactory(sentinel=str(tmp_path / "s"), inner=INNER)
        specs = [_spec(factory=flaky), _spec(rate=200e3)]
        baseline = make_executor().run_points(
            [_spec(), _spec(rate=200e3)])
        supervised = _fast(make_executor(jobs=2, max_retries=2))
        results = supervised.run_points(specs)
        assert metrics_digest(results) == metrics_digest(baseline)
        assert supervised.stats.points_retried == 1
        assert supervised.stats.points_failed == 0

    def test_permanent_failure_is_recorded_not_fatal_to_others(self):
        events = []
        specs = [_spec(factory=DoomedFactory(), label="doomed"),
                 _spec(rate=200e3)]
        supervised = _fast(make_executor(
            jobs=2, max_retries=1, on_event=events.append))
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points(specs)
        assert supervised.stats.points_failed == 1
        assert supervised.stats.points_run == 1  # the healthy point landed
        assert supervised.stats.points_retried == 1
        [failure] = excinfo.value.failures
        assert isinstance(failure, SweepPointError)
        assert failure.kind == "exception"
        assert failure.label == "doomed"
        assert failure.attempts == 2  # first try + one retry
        assert "doomed" in str(excinfo.value)
        failed = [e for e in events if e.kind == FAILED]
        assert len(failed) == 1 and failed[0].attempts == 2

    def test_zero_retries_fails_on_first_attempt(self):
        supervised = _fast(make_executor(jobs=1, max_retries=0))
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points([_spec(factory=DoomedFactory())])
        assert supervised.stats.points_retried == 0
        assert excinfo.value.failures[0].attempts == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_exception_carries_type_and_traceback(self, jobs):
        supervised = _fast(make_executor(jobs=jobs, max_retries=0))
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points([_spec(factory=DoomedFactory())])
        [failure] = excinfo.value.failures
        assert isinstance(failure, PointExecutionError)
        assert "RuntimeError" in str(failure)
        assert "injected permanent failure" in str(failure)
        assert "injected permanent failure" in failure.worker_traceback

    def test_failure_describes_point_identity(self):
        supervised = _fast(make_executor(jobs=1, max_retries=0))
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points([_spec(factory=DoomedFactory(),
                                         label="doomed", rate=250e3)])
        description = excinfo.value.failures[0].describe()
        assert "[exception]" in description
        assert "doomed" in description and "250000" in description
        assert "1 attempt" in description


class TestResume:
    """An interrupted sweep resumes from the result cache alone."""

    def test_rerun_over_the_cache_runs_only_the_remainder(self, tmp_path):
        specs = [_spec(rate=rate) for rate in (100e3, 200e3, 300e3)]
        baseline = make_executor().run_points(specs)
        make_executor(cache_dir=tmp_path).run_points(specs[:2])
        resumed = _fast(make_executor(jobs=1, cache_dir=tmp_path))
        results = resumed.run_points(specs)
        assert metrics_digest(results) == metrics_digest(baseline)
        assert resumed.stats.points_cached == 2
        assert resumed.stats.points_run == 1

    @pytest.mark.parametrize("change", [
        {"seed": 7},
        {"config": RunConfig(seed=1, horizon_ns=ms(3.0), warmup_ns=ms(0.5))},
        {"config": RunConfig(seed=1, horizon_ns=ms(2.0), warmup_ns=ms(0.4))},
        {"config": RunConfig(seed=1, horizon_ns=ms(2.0), warmup_ns=ms(0.5),
                             faults=FaultPlan(
                                 link=LinkFaults(loss_prob=0.1)))},
        {"factory": ConfiguredFactory(RpcValetSystem,
                                      RpcValetConfig(workers=3))},
        {"rate_rps": math.nextafter(100e3, math.inf)},
    ], ids=["seed", "horizon", "warmup", "faults", "factory", "rate_ulp"])
    def test_resume_never_serves_another_run(self, tmp_path, change):
        """Same label, different run: the point is a miss, and the
        re-run measures exactly what a fresh run does."""
        make_executor(cache_dir=tmp_path).run_points([_spec()])
        seed = change.pop("seed", None)
        other = dataclasses.replace(
            _spec() if seed is None else _spec(seed=seed), **change)
        resumed = _fast(make_executor(jobs=1, cache_dir=tmp_path))
        assert resumed.run_points([other]) \
            == make_executor().run_points([other])
        assert resumed.stats.points_cached == 0
        assert resumed.stats.points_run == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_completed_event_follows_the_cache_write(self, tmp_path, jobs):
        """A point's ``completed`` event goes out only once its result is
        in the cache, so a sweep interrupted after any event resumes
        every point that event reported."""
        specs = [_spec(rate=rate) for rate in (100e3, 200e3)]
        cache = ResultCache(tmp_path)
        cached_at_completion = {}

        def on_event(event):
            if event.kind == COMPLETED:
                cached_at_completion[event.index] = \
                    cache.get(spec_cache_key(specs[event.index]))

        executor = _fast(make_executor(jobs=jobs, cache_dir=tmp_path,
                                       on_event=on_event))
        results = executor.run_points(specs)
        assert cached_at_completion == dict(enumerate(results))


class TestFailureContract:
    """One contract at every ``jobs`` value: the failing point becomes a
    typed error chaining its cause, the others complete and are cached,
    then SweepFailure is raised."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_rate_spares_the_other_points(self, jobs, tmp_path):
        events = []
        rates = (100e3, -1.0, 200e3)  # a negative rate raises in the point
        specs = [_spec(rate=rate) for rate in rates]
        executor = _fast(make_executor(jobs=jobs, cache_dir=tmp_path,
                                       max_retries=1,
                                       on_event=events.append))
        with pytest.raises(SweepFailure) as excinfo:
            executor.run_points(specs)
        [failure] = excinfo.value.failures
        assert isinstance(failure, PointExecutionError)
        assert failure.rate_rps == -1.0
        assert isinstance(failure.cause, ExperimentError)
        assert "rate must be positive" in str(failure.cause)
        assert failure.__cause__ is failure.cause
        assert excinfo.value.__cause__ is failure
        # The healthy points completed and were cached.
        assert executor.stats.points_run == 2
        cache = ResultCache(tmp_path)
        healthy = [specs[0], specs[2]]
        expected = make_executor().run_points(healthy)
        assert [cache.get(spec_cache_key(spec)) for spec in healthy] \
            == expected
        [failed] = [e for e in events if e.kind == FAILED]
        assert failed.index == 1
        assert failed.attempts == executor.max_retries + 1
