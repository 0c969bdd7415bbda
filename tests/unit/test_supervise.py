"""Unit tests for supervised execution (retry, taxonomy, resume).

Chaos here is injected through flaky system factories that misbehave
on their first attempt only — a sentinel file created with
``O_CREAT | O_EXCL`` makes "first" exact across processes — so retry
paths run for real while the suite stays fast.  The heavier kill/hang
scenarios live in ``tests/integration/test_supervision_chaos.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.bench.recorder import metrics_digest
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
    spec_cache_key,
)
from repro.experiments.harness import RunConfig
from repro.experiments.progress import FAILED, LedgerReplay, point_key
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
    """True exactly once per *sentinel* path, across any processes."""
    try:
        os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return True
    except FileExistsError:
        return False


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
    """Records the pid of every process that builds the system."""

    directory: str
    inner: ConfiguredFactory

    def __call__(self, sim, rngs, metrics):
        with open(os.path.join(self.directory, str(os.getpid())), "w"):
            pass
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
        replay = LedgerReplay()
        executor = make_executor(jobs=3, cache_dir=tmp_path,
                                 point_timeout_s=5.0, max_retries=0,
                                 resume_from=replay)
        assert type(executor) is SweepExecutor
        assert executor.jobs == 3
        assert executor.cache is not None
        assert executor.point_timeout_s == 5.0
        assert executor.max_retries == 0
        assert executor.resume_from is replay
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
    @pytest.mark.parametrize("jobs,point_timeout_s,in_process", [
        (1, None, True),
        (1, 60.0, False),
        (2, None, False),
    ], ids=["jobs1", "jobs1-deadline", "jobs2"])
    def test_attempts_run_where_the_knobs_say(self, tmp_path, jobs,
                                              point_timeout_s, in_process):
        """In this process at ``jobs == 1`` without a deadline, else one
        forked worker per attempt."""
        factory = PidRecordingFactory(directory=str(tmp_path), inner=INNER)
        specs = [_spec(factory=factory, rate=rate)
                 for rate in (100e3, 200e3)]
        executor = _fast(make_executor(jobs=jobs,
                                       point_timeout_s=point_timeout_s))
        executor.run_points(specs)
        pids = {int(name) for name in os.listdir(tmp_path)}
        if in_process:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids
            assert len(pids) == len(specs)


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
    def test_resume_serves_settled_points_without_simulating(self):
        specs = [_spec(rate=rate) for rate in (100e3, 200e3)]
        baseline = make_executor().run_points(specs)
        replay = LedgerReplay(completed={
            point_key(spec.label, spec.rate_rps): metrics
            for spec, metrics in zip(specs, baseline)})
        supervised = _fast(make_executor(jobs=1, resume_from=replay))
        results = supervised.run_points(specs)
        assert metrics_digest(results) == metrics_digest(baseline)
        assert supervised.stats.points_resumed == 2
        assert supervised.stats.points_run == 0
        assert supervised.stats.events_executed == 0

    def test_resume_repairs_the_cache(self, tmp_path):
        specs = [_spec()]
        baseline = make_executor().run_points(specs)
        replay = LedgerReplay(completed={
            point_key(specs[0].label, specs[0].rate_rps): baseline[0]})
        supervised = _fast(make_executor(jobs=1, cache_dir=tmp_path,
                                         resume_from=replay))
        supervised.run_points(specs)
        # The ledger hit was written back: a fresh cache over the same
        # directory now serves it without the ledger.
        assert ResultCache(tmp_path).get(spec_cache_key(specs[0])) \
            == baseline[0]

    def test_resume_misses_unknown_points(self):
        supervised = _fast(make_executor(
            jobs=1, resume_from=LedgerReplay()))
        results = supervised.run_points([_spec()])
        assert len(results) == 1
        assert supervised.stats.points_resumed == 0
        assert supervised.stats.points_run == 1


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
