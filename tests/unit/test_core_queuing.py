"""Unit tests for the outstanding-request tracker (§3.4.5)."""

import pytest

from repro.core.queuing import OutstandingTracker
from repro.errors import ConfigError, SchedulingError


class TestCredits:
    def test_initial_state(self):
        tracker = OutstandingTracker(n_workers=4, target=2)
        assert tracker.total == 0
        assert tracker.workers_below_target() == [0, 1, 2, 3]

    def test_credit_debit_cycle(self):
        tracker = OutstandingTracker(n_workers=2, target=2)
        tracker.credit(0)
        tracker.credit(0)
        assert tracker.outstanding(0) == 2
        assert not tracker.has_capacity(0)
        tracker.debit(0)
        assert tracker.has_capacity(0)

    def test_credit_beyond_target_rejected(self):
        tracker = OutstandingTracker(n_workers=1, target=1)
        tracker.credit(0)
        with pytest.raises(SchedulingError):
            tracker.credit(0)

    def test_debit_below_zero_rejected(self):
        tracker = OutstandingTracker(n_workers=1, target=1)
        with pytest.raises(SchedulingError):
            tracker.debit(0)

    def test_max_total_statistic(self):
        tracker = OutstandingTracker(n_workers=2, target=3)
        for _ in range(3):
            tracker.credit(0)
        tracker.credit(1)
        tracker.debit(0)
        assert tracker.max_total == 4

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            OutstandingTracker(n_workers=0)
        with pytest.raises(ConfigError):
            OutstandingTracker(n_workers=1, target=0)


class TestSelection:
    def test_selects_least_outstanding(self):
        tracker = OutstandingTracker(n_workers=3, target=5)
        tracker.credit(0)
        tracker.credit(0)
        tracker.credit(1)
        assert tracker.select() == 2

    def test_none_when_all_full(self):
        tracker = OutstandingTracker(n_workers=2, target=1)
        tracker.credit(0)
        tracker.credit(1)
        assert tracker.select() is None

    def test_full_tracker_returns_none_without_scanning(self, monkeypatch):
        """At ``n_workers * target`` outstanding nobody can take more:
        select() answers None in O(1) and leaves the round-robin
        pointer where it was."""
        tracker = OutstandingTracker(n_workers=3, target=2)
        for wid in (1, 2, 0, 1, 2, 0):
            tracker.credit(wid)
        tracker._rr_next = 2

        class NoScan(dict):
            def __getitem__(self, key):
                raise AssertionError("select() scanned a full tracker")

        monkeypatch.setattr(tracker, "_outstanding",
                            NoScan(tracker._outstanding))
        assert tracker.select() is None
        assert tracker._rr_next == 2

    def test_down_worker_still_scanned_past(self):
        """Below full, a downed worker's spare credit does not stop the
        scan: it is skipped and a live worker is found."""
        tracker = OutstandingTracker(n_workers=3, target=1)
        tracker.credit(0)
        tracker.mark_down(1)
        assert tracker.select() == 2
        tracker.credit(2)
        # Only the downed worker has room left: nothing to select.
        assert tracker.select() is None

    def test_round_robin_among_ties(self):
        tracker = OutstandingTracker(n_workers=3, target=10)
        picks = []
        for _ in range(6):
            wid = tracker.select()
            picks.append(wid)
            tracker.credit(wid)
        # All equal loads: strict rotation.
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_selection_skips_full_workers(self):
        tracker = OutstandingTracker(n_workers=3, target=1)
        tracker.credit(0)
        tracker.credit(2)
        assert tracker.select() == 1

    def test_target_one_means_idle_only(self):
        """target=1 reduces to vanilla Shinjuku: dispatch only to a
        worker with nothing outstanding."""
        tracker = OutstandingTracker(n_workers=2, target=1)
        tracker.credit(0)
        assert tracker.select() == 1
        tracker.credit(1)
        assert tracker.select() is None
