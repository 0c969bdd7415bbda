"""Unit tests for the progress-event layer (events, ledger, views)."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.progress import (
    CACHE_HIT,
    COMPLETED,
    FAILED,
    STARTED,
    SWEEP_DONE,
    ConsoleProgress,
    PointEvent,
    ProgressLedger,
    SweepProgress,
    event_from_jsonable,
    event_to_jsonable,
    ledger_path,
    multiplex,
    sweep_done_event,
)
from repro.metrics.summary import LatencySummary, RunMetrics, \
    ThroughputSummary


def _metrics(achieved=95_000.0, p99_ns=12_345.0):
    return RunMetrics(
        latency=LatencySummary(count=100, mean_ns=5_000.0, p50_ns=4_000.0,
                               p90_ns=9_000.0, p99_ns=p99_ns,
                               p999_ns=p99_ns * 2, max_ns=p99_ns * 3),
        throughput=ThroughputSummary(offered_rps=100e3, achieved_rps=achieved,
                                     generated=1000, completed=950,
                                     dropped=50, window_ns=8e6),
        preemptions=3, mean_slowdown=1.7, worker_wait_fraction=0.25)


def _event(kind=COMPLETED, seq=1, batch=0, index=0, total=9,
           label="Shinjuku", rate=100e3, metrics=None, error=None):
    return PointEvent(kind=kind, seq=seq, batch=batch, index=index,
                      total=total, label=label, rate_rps=rate,
                      metrics=metrics, error=error)


class TestPointEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError):
            _event(kind="telepathy")

    def test_terminal_kinds(self):
        assert _event(kind=COMPLETED).terminal
        assert _event(kind=CACHE_HIT).terminal
        assert _event(kind=FAILED).terminal
        assert not _event(kind=STARTED).terminal

    def test_json_round_trip_with_metrics(self):
        event = _event(metrics=_metrics())
        back = event_from_jsonable(
            json.loads(json.dumps(event_to_jsonable(event))))
        assert back == event

    def test_json_round_trip_without_metrics(self):
        event = _event(kind=FAILED, error="boom")
        back = event_from_jsonable(event_to_jsonable(event))
        assert back == event
        assert back.metrics is None and back.error == "boom"

    def test_attempts_round_trip(self):
        event = PointEvent(kind=FAILED, seq=1, batch=0, index=0, total=9,
                           label="Shinjuku", rate_rps=100e3, error="boom",
                           attempts=3)
        back = event_from_jsonable(
            json.loads(json.dumps(event_to_jsonable(event))))
        assert back == event and back.attempts == 3

    def test_attempts_default_for_old_ledger_lines(self):
        # Pre-supervision ledgers have no attempts field; they must
        # still deserialize (as "not tracked").
        image = event_to_jsonable(_event(metrics=_metrics()))
        del image["attempts"]
        assert event_from_jsonable(image).attempts == 0


class TestProgressLedger:
    def test_write_read_round_trip(self, tmp_path):
        ledger = ProgressLedger.in_cache_dir(tmp_path)
        ledger(_event(kind=STARTED, seq=1))
        ledger(_event(kind=COMPLETED, seq=2, metrics=_metrics()))
        ledger.write_done()
        events = ProgressLedger.read_events(ledger.path)
        assert [e.kind for e in events] == [STARTED, COMPLETED, SWEEP_DONE]
        assert events[1].metrics == _metrics()
        assert events[2].seq == 3  # sentinel continues the sequence

    def test_missing_file_reads_empty(self, tmp_path):
        assert ProgressLedger.read_events(tmp_path / "nope.jsonl") == []

    def test_torn_final_line_skipped(self, tmp_path):
        ledger = ProgressLedger.in_cache_dir(tmp_path)
        ledger(_event(seq=1, metrics=_metrics()))
        ledger.close()
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "completed", "seq": 2, "trunc')
        events = ProgressLedger.read_events(ledger.path)
        assert len(events) == 1

    def test_ledger_path_helper(self, tmp_path):
        assert ledger_path(None) is None
        assert ledger_path(tmp_path).name == "progress.jsonl"

    def test_opening_over_an_existing_ledger_starts_it_empty(self,
                                                             tmp_path):
        first = ProgressLedger.in_cache_dir(tmp_path)
        first(_event(kind=STARTED, seq=1))
        first(_event(kind=COMPLETED, seq=2, metrics=_metrics()))
        first.close()  # an interrupted sweep: no done sentinel
        second = ProgressLedger.in_cache_dir(tmp_path)
        assert ProgressLedger.read_events(second.path) == []
        second(_event(kind=STARTED, seq=1, index=1))
        second.write_done()
        events = ProgressLedger.read_events(second.path)
        assert [e.kind for e in events] == [STARTED, SWEEP_DONE]
        assert events[0].index == 1


class TestSweepProgress:
    def test_counts_and_completion(self):
        progress = SweepProgress()
        for index in range(3):
            progress(_event(kind=STARTED, seq=index + 1, index=index,
                            total=3))
        assert progress.expected == 3 and progress.settled == 0
        assert not progress.complete
        progress(_event(kind=COMPLETED, seq=4, index=0, total=3,
                        metrics=_metrics()))
        progress(_event(kind=CACHE_HIT, seq=5, index=1, total=3,
                        metrics=_metrics()))
        progress(_event(kind=FAILED, seq=6, index=2, total=3,
                        error="boom"))
        assert progress.settled == 3 and progress.complete
        assert progress.count(COMPLETED) == 1
        assert progress.count(CACHE_HIT) == 1
        assert progress.count(FAILED) == 1

    def test_partial_curves_sorted_by_rate(self):
        progress = SweepProgress()
        progress(_event(seq=1, index=1, rate=200e3,
                        metrics=_metrics(achieved=190e3, p99_ns=20_000.0)))
        progress(_event(seq=2, index=0, rate=100e3,
                        metrics=_metrics(achieved=99e3, p99_ns=10_000.0)))
        curve = progress.partial_curve("Shinjuku")
        assert [row[0] for row in curve] == [100e3, 200e3]
        assert curve[0][1] == 99e3 and curve[0][2] == 10.0
        assert progress.partial_curves() == {"Shinjuku": curve}

    def test_done_sentinel(self):
        progress = SweepProgress()
        progress(sweep_done_event(seq=7))
        assert progress.done and progress.complete
        assert "complete" in progress.render()

    def test_render_mid_sweep(self):
        progress = SweepProgress()
        progress(_event(kind=STARTED, seq=1, index=0, total=2))
        progress(_event(kind=COMPLETED, seq=2, index=1, total=2,
                        metrics=_metrics()))
        rendered = progress.render()
        assert "1/2 points settled" in rendered
        assert "Shinjuku" in rendered and "curve:" in rendered

    def test_render_empty(self):
        assert "no events yet" in SweepProgress().render()

    def test_multiple_batches_do_not_collide(self):
        progress = SweepProgress()
        progress(_event(seq=1, batch=0, index=0, total=1, label="A",
                        metrics=_metrics()))
        progress(_event(seq=2, batch=1, index=0, total=1, label="B",
                        metrics=_metrics()))
        assert progress.expected == 2 and progress.settled == 2
        assert progress.labels() == ["A", "B"]


class TestConsoleProgress:
    def test_prints_each_event(self):
        lines = []
        console = ConsoleProgress(write=lines.append)
        console(_event(kind=STARTED, seq=1, total=2))
        console(_event(kind=COMPLETED, seq=2, total=2, metrics=_metrics()))
        console(_event(kind=CACHE_HIT, seq=3, index=1, total=2,
                       metrics=_metrics()))
        console(_event(kind=FAILED, seq=4, index=1, total=2, error="boom"))
        console(sweep_done_event(seq=5))
        assert len(lines) == 5
        assert "start" in lines[0]
        assert "done" in lines[1] and "p99" in lines[1]
        assert "cached" in lines[2]
        assert "FAILED" in lines[3] and "boom" in lines[3]
        assert "complete" in lines[4]


class TestMultiplex:
    def test_fans_out_and_skips_none(self):
        seen_a, seen_b = [], []
        fan = multiplex(seen_a.append, None, seen_b.append)
        event = _event()
        fan(event)
        assert seen_a == [event] and seen_b == [event]


class TestWatchCommand:
    def test_watch_once_renders_scoreboard(self, tmp_path, capsys):
        from repro.cli import main
        ledger = ProgressLedger.in_cache_dir(tmp_path)
        ledger(_event(seq=1, metrics=_metrics(), total=2))
        ledger.write_done()
        assert main(["watch", "--cache-dir", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "points settled" in out and "curve:" in out

    def test_watch_exits_on_done_sentinel(self, tmp_path, capsys):
        from repro.cli import main
        ledger = ProgressLedger.in_cache_dir(tmp_path)
        ledger(_event(seq=1, metrics=_metrics(), total=1))
        ledger.write_done()
        # Without --once this returns promptly because done is set.
        assert main(["watch", "--cache-dir", str(tmp_path),
                     "--interval", "0.01"]) == 0
        assert "sweep complete" in capsys.readouterr().out

    def test_watch_once_renders_an_interrupted_ledger(self, tmp_path,
                                                      capsys):
        """A sweep cut before its done sentinel still shows its settled
        points and partial curve, and is not reported complete."""
        from repro.cli import main
        ledger = ProgressLedger.in_cache_dir(tmp_path)
        ledger(_event(seq=1, index=0, metrics=_metrics(), total=2))
        ledger(_event(kind=STARTED, seq=2, index=1, total=2))
        ledger.close()
        assert main(["watch", "--cache-dir", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "1/2 points settled" in out and "1 in flight" in out
        assert "curve: 100k:95.0k/12.3us" in out
        assert "sweep complete" not in out

    def test_watch_rejects_bad_interval(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["watch", "--cache-dir", str(tmp_path),
                     "--interval", "0"]) == 2
