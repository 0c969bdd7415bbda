"""``metrics_digest``: the fingerprint every golden test compares.

The digest is SHA-256 over the JSON of the result cache's
:func:`~repro.experiments.executor.metrics_to_jsonable` image, so it
covers every measured bit.  Goldens across the suite (the fig2
``6cf80a3c0fedef87`` among them) are taken in this exact byte form;
the pin below fails if the form drifts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import pytest

from repro.experiments.executor import (
    metrics_digest,
    metrics_from_jsonable,
    metrics_to_jsonable,
)
from repro.metrics.summary import (
    LatencySummary,
    RunMetrics,
    ThroughputSummary,
)

BUSY = RunMetrics(
    latency=LatencySummary(count=1000, mean_ns=2345.5, p50_ns=2000.0,
                           p90_ns=3100.25, p99_ns=9876.125,
                           p999_ns=15000.0, max_ns=20000.0),
    throughput=ThroughputSummary(offered_rps=200e3, achieved_rps=199876.5,
                                 generated=1001, completed=1000, dropped=1,
                                 window_ns=5e6),
    preemptions=7, mean_slowdown=1.2345678901234567,
    worker_wait_fraction=0.1)

IDLE = RunMetrics(
    latency=None,
    throughput=ThroughputSummary(offered_rps=0.0, achieved_rps=0.0,
                                 generated=0, completed=0, dropped=0,
                                 window_ns=5e6),
    preemptions=0, mean_slowdown=0.0, worker_wait_fraction=1.0)

#: ``metrics_digest([BUSY, IDLE])``.
PINNED = "622cf72b6bdea5b81bb64faeea6669bdfbb7a3df3bbfdfe96ccd235b151d6b58"


class TestMetricsDigest:
    def test_byte_form_is_pinned(self):
        assert metrics_digest([BUSY, IDLE]) == PINNED

    def test_empty_sequence_digests_the_empty_list(self):
        assert metrics_digest([]) == hashlib.sha256(b"[]").hexdigest()

    def test_order_matters(self):
        assert metrics_digest([IDLE, BUSY]) != PINNED

    def test_accepts_any_iterable(self):
        assert metrics_digest(m for m in (BUSY, IDLE)) == PINNED

    def test_cache_image_round_trip_keeps_digest(self):
        restored = [metrics_from_jsonable(metrics_to_jsonable(m))
                    for m in (BUSY, IDLE)]
        assert restored == [BUSY, IDLE]
        assert metrics_digest(restored) == PINNED

    @pytest.mark.parametrize("change", [
        lambda m: dataclasses.replace(
            m, latency=dataclasses.replace(m.latency, p99_ns=9876.0)),
        lambda m: dataclasses.replace(
            m, throughput=dataclasses.replace(m.throughput, dropped=2)),
        lambda m: dataclasses.replace(m, preemptions=8),
        lambda m: dataclasses.replace(m, worker_wait_fraction=0.2),
        lambda m: dataclasses.replace(m, latency=None),
    ], ids=["latency", "throughput", "preemptions", "wait-fraction",
            "no-latency"])
    def test_every_field_moves_the_digest(self, change):
        assert metrics_digest([change(BUSY), IDLE]) != PINNED

    def test_last_float_bit_moves_the_digest(self):
        nudged = dataclasses.replace(
            BUSY, mean_slowdown=math.nextafter(BUSY.mean_slowdown, 2.0))
        assert metrics_digest([nudged, IDLE]) != PINNED
