"""Harness chaos: kill, stall, and corrupt a supervised sweep for real.

Each scenario injects a genuine fault into a live supervised sweep —
a worker SIGKILLed mid-point, a worker sleeping past its wall-clock
deadline, cache entries truncated between runs, a sweep interrupted
before its done sentinel — and asserts the robustness contract from
``experiments/supervise.py``: the sweep completes, the casualty costs
at most one retried point, and the final metrics are bit-for-bit
identical to an undisturbed serial run.

Faults fire on the first attempt only: a sentinel file created with
``O_CREAT | O_EXCL`` is exact across worker processes, so the retry
succeeds deterministically and the digest comparison is meaningful.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.bench.recorder import metrics_digest
from repro.errors import SweepFailure
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    ResultCache,
    SweepExecutor,
    make_executor,
    spec_cache_key,
)
from repro.experiments.harness import RunConfig
from repro.experiments.progress import (
    ProgressLedger,
    SWEEP_DONE,
    ledger_path,
)
from repro.experiments.supervise import supervision_context
from repro.systems.rpcvalet import RpcValetConfig, RpcValetSystem
from repro.units import ms, us
from repro.workload.distributions import Fixed

INNER = ConfiguredFactory(RpcValetSystem, RpcValetConfig(workers=2))
RATES = (100e3, 200e3, 300e3, 400e3)


def _first_time(sentinel: str) -> bool:
    try:
        os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return True
    except FileExistsError:
        return False


@dataclass(frozen=True)
class ChaosFactory:
    """Delegates to a real factory after misbehaving exactly once.

    ``mode`` picks the misbehavior: ``kill`` SIGKILLs the worker
    process mid-point (the watchdog must see the pipe drop), ``hang``
    sleeps far past any reasonable per-point deadline (the watchdog
    must kill it), ``raise`` fails cleanly.
    """

    sentinel: str
    mode: str
    inner: ConfiguredFactory = INNER

    def __call__(self, sim, rngs, metrics):
        if _first_time(self.sentinel):
            if self.mode == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif self.mode == "hang":
                time.sleep(300.0)
            else:
                raise RuntimeError("injected chaos")
        return self.inner(sim, rngs, metrics)


def _spec(factory=INNER, rate: float = 100e3, seed: int = 1) -> PointSpec:
    config = RunConfig(seed=seed, horizon_ns=ms(2.0), warmup_ns=ms(0.5))
    return PointSpec(factory=factory, rate_rps=rate,
                     distribution=Fixed(us(2.0)), config=config, label="sut")


def _baseline_digest() -> str:
    return metrics_digest(make_executor().run_points(
        [_spec(rate=rate) for rate in RATES]))


def _chaos_specs(tmp_path, mode: str, victim: int = 1):
    """The RATES sweep with chaos armed on one point."""
    chaos = ChaosFactory(sentinel=str(tmp_path / "chaos.sentinel"),
                         mode=mode)
    return [_spec(factory=chaos if i == victim else INNER, rate=rate)
            for i, rate in enumerate(RATES)]


def _fork_only():
    """Kill/hang chaos needs forked (hence killable) workers."""
    if supervision_context().get_start_method() != "fork":
        pytest.skip("supervised fork workers unavailable on this platform")


class TestKilledWorker:
    def test_sigkill_mid_sweep_retries_to_identical_digest(self, tmp_path):
        _fork_only()
        supervised = make_executor(jobs=2, max_retries=2)
        results = supervised.run_points(_chaos_specs(tmp_path, "kill"))
        assert metrics_digest(results) == _baseline_digest()
        assert supervised.stats.points_retried == 1
        assert supervised.stats.points_failed == 0

    def test_sigkill_with_no_retries_is_classified_a_crash(self, tmp_path):
        _fork_only()
        # jobs=2: points run in killable workers, not in this process.
        supervised = make_executor(jobs=2, max_retries=0)
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points(_chaos_specs(tmp_path, "kill"))
        # The rest all landed.
        assert supervised.stats.points_run == len(RATES) - 1
        [failure] = excinfo.value.failures
        assert failure.kind == "crash"
        assert "signal 9" in str(failure)


class TestHungWorker:
    def test_deadline_kills_and_retries_to_identical_digest(self, tmp_path):
        _fork_only()
        supervised = make_executor(jobs=2, max_retries=2,
                                   point_timeout_s=3.0)
        start = time.monotonic()
        results = supervised.run_points(_chaos_specs(tmp_path, "hang"))
        elapsed = time.monotonic() - start
        assert metrics_digest(results) == _baseline_digest()
        assert supervised.stats.points_retried == 1
        # The 300 s sleep was cut down by the watchdog, not waited out.
        assert elapsed < 60.0
        assert supervised.stats.points_failed == 0

    def test_timeout_without_retries_is_classified_a_timeout(self, tmp_path):
        _fork_only()
        supervised = make_executor(jobs=1, max_retries=0,
                                   point_timeout_s=1.5)
        with pytest.raises(SweepFailure) as excinfo:
            supervised.run_points(_chaos_specs(tmp_path, "hang"))
        assert supervised.stats.points_run == len(RATES) - 1
        [failure] = excinfo.value.failures
        assert failure.kind == "timeout"
        assert "deadline" in str(failure)


class TestCorruptedCache:
    def test_rerun_over_damaged_cache_recovers_every_point(self, tmp_path):
        cache_dir = tmp_path / "cache"
        specs = [_spec(rate=rate) for rate in RATES]
        first = make_executor(jobs=1, cache_dir=cache_dir)
        baseline = metrics_digest(first.run_points(specs))
        cache = ResultCache(cache_dir)
        # Truncate one entry, zero another: both must quarantine.
        cache.path_for(spec_cache_key(specs[0])).write_text("{\"sch")
        cache.path_for(spec_cache_key(specs[2])).write_bytes(b"")
        again = make_executor(jobs=2, cache_dir=cache_dir)
        assert metrics_digest(again.run_points(specs)) == baseline
        assert again.stats.points_quarantined == 2
        assert again.stats.points_run == 2
        assert again.stats.points_cached == 2
        # Third run: fully cached, nothing simulated.
        third = make_executor(jobs=1, cache_dir=cache_dir)
        assert metrics_digest(third.run_points(specs)) == baseline
        assert third.stats.events_executed == 0


class TestInterruptedSweepResume:
    def _interrupt_after(self, tmp_path, settle: int):
        """A sweep that died after settling *settle* points: a ledger
        with those completions and no done sentinel."""
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        ledger = ProgressLedger.in_cache_dir(cache_dir)
        partial = make_executor(on_event=ledger)
        partial.run_points([_spec(rate=rate) for rate in RATES[:settle]])
        ledger.close()  # no write_done(): the run was interrupted
        return cache_dir

    def test_resume_runs_only_the_remainder(self, tmp_path):
        cache_dir = self._interrupt_after(tmp_path, settle=2)
        replay = ProgressLedger.replay(ledger_path(cache_dir))
        assert not replay.finished  # the interruption is visible
        assert len(replay.completed) == 2
        resumed = make_executor(jobs=1, resume_from=replay)
        specs = [_spec(rate=rate) for rate in RATES]
        results = resumed.run_points(specs)
        assert metrics_digest(results) == _baseline_digest()
        assert resumed.stats.points_resumed == 2
        assert resumed.stats.points_run == len(RATES) - 2

    def test_resume_with_cache_repairs_missing_entries(self, tmp_path):
        cache_dir = self._interrupt_after(tmp_path, settle=3)
        replay = ProgressLedger.replay(ledger_path(cache_dir))
        # The interrupted run never cached (ledger only); resuming with
        # a cache writes the replayed points into it.
        resumed = make_executor(jobs=1, cache_dir=cache_dir,
                                resume_from=replay)
        specs = [_spec(rate=rate) for rate in RATES]
        assert metrics_digest(resumed.run_points(specs)) \
            == _baseline_digest()
        cache = ResultCache(cache_dir)
        for spec in specs:
            assert cache.get(spec_cache_key(spec)) is not None

    def test_chaotic_run_streams_a_resumable_ledger(self, tmp_path):
        """Kill chaos + ledger: the stream a real --resume would read."""
        _fork_only()
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        ledger = ProgressLedger.in_cache_dir(cache_dir)
        supervised = make_executor(jobs=2, max_retries=2, on_event=ledger)
        results = supervised.run_points(_chaos_specs(tmp_path, "kill"))
        ledger.write_done()
        assert metrics_digest(results) == _baseline_digest()
        replay = ProgressLedger.replay(ledger_path(cache_dir))
        assert replay.finished
        assert len(replay.completed) == len(RATES)
        assert replay.failed == {}
        # Replaying a finished ledger resumes every point instantly.
        resumed = make_executor(jobs=1, resume_from=replay)
        again = resumed.run_points(
            [_spec(rate=rate) for rate in RATES])
        assert metrics_digest(again) == _baseline_digest()
        assert resumed.stats.events_executed == 0


#: The committed full-scale fig2 golden (see test_progress_digest.py).
FIG2_DIGEST = ("6cf80a3c0fedef8715b493f77836c658"
               "819ecf6c218ea670038a054db6f00dbc")

fullscale = pytest.mark.skipif(
    os.environ.get("REPRO_FIG2_DIGEST", "") in ("", "0"),
    reason="full-scale fig2 chaos digests (set REPRO_FIG2_DIGEST=1)")


def _fig2_supervised(executor: SweepExecutor) -> str:
    """Run the canonical full-scale fig2 sweep; return its digest."""
    from repro.experiments.figures import figure2
    figure = figure2(config=RunConfig(seed=42), scale=1.0,
                     executor=executor)
    return metrics_digest([point.metrics for sweep in figure.sweeps
                           for point in sweep.points])


def _signal_first_worker(signum) -> "object":
    """A daemon thread that signals the first live worker child once."""
    import threading

    def hunt():
        import multiprocessing
        while True:
            children = multiprocessing.active_children()
            if children:
                try:
                    os.kill(children[0].pid, signum)
                except (OSError, TypeError):
                    pass
                return
            time.sleep(0.002)

    thread = threading.Thread(target=hunt, daemon=True)
    thread.start()
    return thread


@fullscale
class TestFullScaleFig2Chaos:
    """The acceptance bar: chaos on the real fig2 sweep, golden digest."""

    def test_survives_a_sigkilled_worker(self):
        _fork_only()
        executor = make_executor(jobs=2, max_retries=3)
        _signal_first_worker(signal.SIGKILL)
        assert _fig2_supervised(executor) == FIG2_DIGEST
        assert executor.stats.points_retried >= 1
        assert executor.stats.points_failed == 0

    def test_survives_a_hung_worker_past_its_deadline(self):
        _fork_only()
        # SIGSTOP freezes a worker mid-point: a true hang.  The
        # watchdog must kill it at the 5 s deadline and retry.
        executor = make_executor(jobs=2, max_retries=3,
                                 point_timeout_s=5.0)
        _signal_first_worker(signal.SIGSTOP)
        assert _fig2_supervised(executor) == FIG2_DIGEST
        assert executor.stats.points_retried >= 1
        assert executor.stats.points_failed == 0

    def test_survives_a_corrupted_cache_entry(self, tmp_path):
        first = make_executor(jobs=2, cache_dir=tmp_path)
        assert _fig2_supervised(first) == FIG2_DIGEST
        entries = sorted(tmp_path.glob("*/*.json"))
        entries[0].write_bytes(entries[0].read_bytes()[:30])
        again = make_executor(jobs=2, cache_dir=tmp_path)
        assert _fig2_supervised(again) == FIG2_DIGEST
        assert again.stats.points_quarantined == 1
        assert again.stats.points_run == 1

    def test_interrupted_sweep_resumes_to_the_golden_digest(self, tmp_path):
        from repro.experiments.progress import multiplex

        class Interrupt(BaseException):
            """Stands in for the operator's ctrl-C."""

        settled = []

        def bomb(event):
            if event.terminal:
                settled.append(event)
                if len(settled) == 5:
                    raise Interrupt()

        ledger = ProgressLedger.in_cache_dir(tmp_path)
        first = make_executor(jobs=1, on_event=multiplex(ledger, bomb))
        with pytest.raises(Interrupt):
            _fig2_supervised(first)
        ledger.close()  # interrupted: no done sentinel
        replay = ProgressLedger.replay(ledger_path(tmp_path))
        assert not replay.finished
        assert len(replay.completed) == 5
        resumed = make_executor(jobs=2, resume_from=replay)
        assert _fig2_supervised(resumed) == FIG2_DIGEST
        assert resumed.stats.points_resumed == 5
        assert resumed.stats.points_run == 18 - 5


class TestEventStreamUnderChaos:
    def test_every_point_settles_exactly_once(self, tmp_path):
        _fork_only()
        events = []
        supervised = make_executor(jobs=2, max_retries=2,
                                   on_event=events.append)
        supervised.run_points(_chaos_specs(tmp_path, "raise"))
        terminal = [e for e in events if e.terminal]
        assert len(terminal) == len(RATES)
        assert sorted(e.index for e in terminal) == [0, 1, 2, 3]
        assert all(e.kind != SWEEP_DONE for e in events)
