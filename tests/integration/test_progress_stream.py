"""Integration tests for streaming sweep progress.

The contract under test: every executor emits at least one typed event
per point, completions carry partial :class:`RunMetrics` consumable
*before* the sweep finishes, the event stream crosses process
boundaries (parallel workers, parent-side emission), and attaching
subscribers never changes a single measured bit.
"""

import os

import pytest

from repro.bench.recorder import metrics_digest
from repro.config import ShinjukuConfig
from repro.errors import ExperimentError, SweepFailure
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    make_executor,
)
from repro.experiments.figures import figure2
from repro.experiments.harness import RunConfig, load_sweep
from repro.experiments.progress import (
    CACHE_HIT,
    COMPLETED,
    FAILED,
    STARTED,
    ProgressLedger,
    SweepProgress,
    multiplex,
)
from repro.units import us
from repro.workload.distributions import Fixed

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))

RATES = [50e3, 100e3, 150e3, 200e3]


def _config():
    return RunConfig(seed=42, horizon_ns=1.5e8, warmup_ns=3e7)


def _specs(label="shinjuku"):
    factory = ConfiguredFactory.by_name("shinjuku", ShinjukuConfig(workers=2))
    return [PointSpec(factory=factory, rate_rps=rate,
                      distribution=Fixed(us(2.0)), config=_config(),
                      label=label)
            for rate in RATES]


class TestExecutorEventStream:
    @pytest.mark.parametrize("jobs", [1, JOBS])
    def test_every_point_emits_started_and_completed(self, jobs):
        events = []
        executor = make_executor(jobs=jobs, on_event=events.append)
        results = executor.run_points(_specs())
        assert len(results) == len(RATES)
        started = {e.index for e in events if e.kind == STARTED}
        completed = {e.index for e in events if e.kind == COMPLETED}
        assert started == completed == set(range(len(RATES)))
        # Completions carry the point's full partial RunMetrics.
        for event in events:
            if event.kind == COMPLETED:
                assert event.metrics is results[event.index]
        # Sequence numbers are strictly increasing.
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_partial_results_consumable_mid_sweep(self):
        """A subscriber sees completed points while others are pending."""
        progress = SweepProgress()
        snapshots = []

        def snapshot(event):
            progress(event)
            if event.kind == COMPLETED:
                snapshots.append((progress.settled,
                                  len(progress.partial_curve("shinjuku"))))

        executor = make_executor(jobs=1, on_event=snapshot)
        executor.run_points(_specs())
        # Mid-sweep states existed: some completions observed while the
        # sweep still had unsettled points.
        assert [settled for settled, _curve in snapshots] == [1, 2, 3, 4]
        assert [curve for _settled, curve in snapshots] == [1, 2, 3, 4]

    def test_cache_hits_emit_events(self, tmp_path):
        executor = make_executor(jobs=1, cache_dir=str(tmp_path))
        executor.run_points(_specs())
        events = []
        rerun = make_executor(jobs=1, cache_dir=str(tmp_path),
                              on_event=events.append)
        rerun.run_points(_specs())
        assert [e.kind for e in events] == [CACHE_HIT] * len(RATES)
        assert all(e.metrics is not None for e in events)

    def test_failed_event_emitted_then_raises(self):
        def exploding_factory(sim, rngs, metrics):
            raise RuntimeError("rigged to fail")

        spec = PointSpec(factory=exploding_factory, rate_rps=100e3,
                         distribution=Fixed(us(2.0)), config=_config(),
                         label="doomed")
        events = []
        executor = make_executor(jobs=1, max_retries=0,
                                 on_event=events.append)
        with pytest.raises(SweepFailure) as excinfo:
            executor.run_points([spec])
        assert isinstance(excinfo.value.failures[0].cause, RuntimeError)
        assert [e.kind for e in events] == [STARTED, FAILED]
        assert "rigged to fail" in events[1].error

    def test_parallel_failed_event_from_worker(self):
        """A failure inside a worker process still emits parent-side."""
        factory = ConfiguredFactory.by_name(
            "shinjuku", ShinjukuConfig(workers=2))
        bad_config = RunConfig(seed=42, horizon_ns=1.5e8, warmup_ns=3e7)
        specs = [PointSpec(factory=factory, rate_rps=rate,
                           distribution=Fixed(us(2.0)), config=bad_config,
                           label="shinjuku")
                 for rate in (-1.0, 100e3)]  # negative rate raises
        events = []
        executor = make_executor(jobs=JOBS, on_event=events.append)
        with pytest.raises(ExperimentError):
            executor.run_points(specs)
        assert any(e.kind == FAILED for e in events)

    def test_subscriber_does_not_change_results(self):
        plain = make_executor(jobs=1).run_points(_specs())
        noisy = []
        observed = make_executor(
            jobs=1, on_event=multiplex(noisy.append,
                                       SweepProgress())).run_points(_specs())
        assert metrics_digest(plain) == metrics_digest(observed)
        assert noisy  # the stream actually fired

    def test_per_call_subscriber_composes_with_persistent(self):
        persistent, per_call = [], []
        executor = make_executor(jobs=1, on_event=persistent.append)
        executor.run_points(_specs(), on_event=per_call.append)
        assert [e.seq for e in persistent] == [e.seq for e in per_call]

    def test_batches_get_distinct_numbers(self):
        events = []
        executor = make_executor(jobs=1, on_event=events.append)
        executor.run_points(_specs(label="first"))
        executor.run_points(_specs(label="second"))
        assert {e.batch for e in events if e.label == "first"} == {0}
        assert {e.batch for e in events if e.label == "second"} == {1}


class TestHarnessInlineStream:
    def test_load_sweep_without_executor_emits_events(self):
        factory = ConfiguredFactory.by_name(
            "shinjuku", ShinjukuConfig(workers=2))
        progress = SweepProgress()
        result = load_sweep(factory, RATES, Fixed(us(2.0)), _config(),
                            system_name="shinjuku", on_event=progress)
        assert len(result.points) == len(RATES)
        assert progress.settled == len(RATES)
        assert len(progress.partial_curve("shinjuku")) == len(RATES)

    def test_executor_less_sweeps_never_share_a_key(self):
        """Two executor-less sweeps feeding one subscriber keep every
        ``(batch, index)`` key distinct, so neither hides the other."""
        factory = ConfiguredFactory.by_name(
            "shinjuku", ShinjukuConfig(workers=2))
        events = []
        progress = SweepProgress()
        subscriber = multiplex(events.append, progress)
        for name in ("first", "second"):
            load_sweep(factory, RATES, Fixed(us(2.0)), _config(),
                       system_name=name, on_event=subscriber)
        keys = {name: {(e.batch, e.index) for e in events if e.label == name}
                for name in ("first", "second")}
        assert len(keys["first"]) == len(keys["second"]) == len(RATES)
        assert not keys["first"] & keys["second"]
        assert progress.expected == progress.settled == 2 * len(RATES)

    def test_inline_matches_executor_results(self):
        factory = ConfiguredFactory.by_name(
            "shinjuku", ShinjukuConfig(workers=2))
        inline = load_sweep(factory, RATES, Fixed(us(2.0)), _config(),
                            system_name="shinjuku",
                            on_event=SweepProgress())
        executed = load_sweep(factory, RATES, Fixed(us(2.0)), _config(),
                              system_name="shinjuku",
                              executor=make_executor(jobs=1,
                                                     on_event=SweepProgress()))
        assert metrics_digest([p.metrics for p in inline.points]) == \
            metrics_digest([p.metrics for p in executed.points])


class TestFigureStream:
    def test_figure2_streams_and_ledger_replays(self, tmp_path):
        progress = SweepProgress()
        ledger = ProgressLedger.in_cache_dir(tmp_path)
        executor = make_executor(jobs=JOBS, cache_dir=str(tmp_path),
                                 on_event=multiplex(progress, ledger))
        figure = figure2(config=RunConfig(seed=42), scale=0.02,
                         executor=executor)
        ledger.write_done()
        total_points = sum(len(sweep.points) for sweep in figure.sweeps)
        assert progress.settled == progress.expected == total_points
        # At least one event per point reached the stream.
        assert progress.events_seen >= total_points
        curves = progress.partial_curves()
        assert set(curves) == {"Shinjuku", "Shinjuku-Offload"}
        assert all(len(curve) == 9 for curve in curves.values())
        # A watcher process reconstructs the same state from the ledger.
        replayed = SweepProgress().replay(
            ProgressLedger.read_events(ledger.path))
        assert replayed.done
        assert replayed.partial_curves() == curves
        # Identical scoreboard, plus the sentinel line only the ledger saw.
        assert replayed.render() == progress.render() + "\nsweep complete"

    def test_figure2_digest_unchanged_by_progress(self):
        plain = figure2(config=RunConfig(seed=42), scale=0.02)
        streamed = figure2(config=RunConfig(seed=42), scale=0.02,
                           executor=make_executor(
                               jobs=1, on_event=SweepProgress()))
        digest = lambda fig: metrics_digest(
            [p.metrics for sweep in fig.sweeps for p in sweep.points])
        assert digest(plain) == digest(streamed)
