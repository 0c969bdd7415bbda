"""Property tests for the mergeable-collector algebra.

The streaming-metrics contract: ``merge(a, b)`` must be exactly
equivalent to one collector having observed both streams, for any
split and in any order.  These properties pin that for reservoirs
(statistics of the sample multiset) and the full scoped
:class:`MetricsCollector` (sharded recording folds up bit-identically
to monolithic recording).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.experiments.executor import metrics_to_jsonable
from repro.metrics.collector import MetricsCollector
from repro.metrics.reservoir import LatencyReservoir
from repro.runtime.request import Request
from repro.sim.engine import Simulator
from repro.units import ms, us

samples = st.lists(st.floats(min_value=0.0, max_value=1e9,
                             allow_nan=False, allow_infinity=False),
                   max_size=200)
nonempty_samples = st.lists(st.floats(min_value=0.0, max_value=1e9,
                                      allow_nan=False,
                                      allow_infinity=False),
                            min_size=1, max_size=200)


def _reservoir(data):
    res = LatencyReservoir()
    res.extend(data)
    return res


def _reservoir_stats(res):
    if res.empty:
        return ("empty", len(res))
    return (len(res), res.mean(), res.minimum(), res.maximum(),
            [res.percentile(p) for p in (0, 25, 50, 75, 90, 99, 99.9, 100)])


class TestReservoirMergeAlgebra:
    @given(samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        left = _reservoir(a).merged(_reservoir(b))
        right = _reservoir(b).merged(_reservoir(a))
        assert _reservoir_stats(left) == _reservoir_stats(right)

    @given(samples, samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        left = _reservoir(a).merged(_reservoir(b)).merged(_reservoir(c))
        right = _reservoir(a).merged(_reservoir(b).merged(_reservoir(c)))
        assert _reservoir_stats(left) == _reservoir_stats(right)

    @given(nonempty_samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_monolithic(self, a, b):
        merged = _reservoir(a).merged(_reservoir(b))
        monolithic = _reservoir(a + b)
        assert _reservoir_stats(merged) == _reservoir_stats(monolithic)

    @given(nonempty_samples)
    @settings(max_examples=60, deadline=None)
    def test_empty_is_identity(self, a):
        reference = _reservoir_stats(_reservoir(a))
        assert _reservoir_stats(
            _reservoir(a).merged(LatencyReservoir())) == reference
        assert _reservoir_stats(
            LatencyReservoir().merged(_reservoir(a))) == reference

    @given(nonempty_samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_from_equals_merged(self, a, b):
        in_place = _reservoir(a)
        in_place.merge_from(_reservoir(b))
        assert _reservoir_stats(in_place) == _reservoir_stats(
            _reservoir(a).merged(_reservoir(b)))


# One simulated observation: arrival time, latency added on top, how it
# ended, and how often it was preempted on the way.
observations = st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=8e6, allow_nan=False,
              allow_infinity=False),                      # arrival_ns
    st.floats(min_value=1.0, max_value=1e5, allow_nan=False,
              allow_infinity=False),                      # latency_ns
    st.sampled_from(["complete", "overflow", "fault"]),   # outcome
    st.integers(min_value=0, max_value=3)),               # preemptions
    min_size=1, max_size=60)


def _feed(collector, share):
    """Record *share* into *collector* the way systems do."""
    for arrival_ns, latency_ns, outcome, preemptions in share:
        request = Request(service_ns=us(1.0), arrival_ns=arrival_ns)
        collector.record_arrival(request)
        if outcome == "complete":
            request.preemptions = preemptions
            request.complete(arrival_ns + latency_ns)
            collector.record_completion(request)
        else:
            collector.record_drop(request, reason=outcome)


def _digest(collector, sim):
    """The full serialized RunMetrics image — the bit-identity witness."""
    metrics = collector.summarize(offered_rps=100e3)
    assert sim is collector.sim
    return json.dumps(metrics_to_jsonable(metrics), sort_keys=True)


def _advance(sim, until_ns=ms(10.0)):
    sim.timeout(until_ns)
    sim.run()


class TestScopedCollectorShardEquivalence:
    """merge(shards) ≡ monolithic, for random splits of one stream."""

    @given(observations,
           st.integers(min_value=1, max_value=4),
           st.lists(st.integers(min_value=0, max_value=3), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_scoped_rollup_matches_monolithic(self, stream, shards,
                                              assignment):
        sim = Simulator()
        _advance(sim)
        monolithic = MetricsCollector(sim, warmup_ns=ms(1.0))
        _feed(monolithic, stream)

        root = MetricsCollector(sim, warmup_ns=ms(1.0))
        children = [root.scoped(f"shard{i}") for i in range(shards)]
        shares = [[] for _ in range(shards)]
        for index, observation in enumerate(stream):
            pick = (assignment[index % len(assignment)]
                    if assignment else index) % shards
            shares[pick].append(observation)
        for child, share in zip(children, shares):
            _feed(child, share)

        assert _digest(root, sim) == _digest(monolithic, sim)
        # Folded counters agree too, not just the summary.
        assert root.generated == monolithic.generated
        assert root.completed_all == monolithic.completed_all
        assert root.dropped == monolithic.dropped
        assert root.dropped_by_reason == monolithic.dropped_by_reason
        assert root.preemptions == monolithic.preemptions

    @given(observations, observations)
    @settings(max_examples=40, deadline=None)
    def test_collector_merge_equals_monolithic(self, a, b):
        sim = Simulator()
        _advance(sim)
        monolithic = MetricsCollector(sim, warmup_ns=ms(1.0))
        _feed(monolithic, a + b)

        first = MetricsCollector(sim, warmup_ns=ms(1.0))
        second = MetricsCollector(sim, warmup_ns=ms(1.0))
        _feed(first, a)
        _feed(second, b)

        assert _digest(first.merged(second), sim) == \
            _digest(monolithic, sim)

    @given(observations, observations)
    @settings(max_examples=40, deadline=None)
    def test_collector_merge_commutative(self, a, b):
        sim = Simulator()
        _advance(sim)
        first = MetricsCollector(sim, warmup_ns=ms(1.0))
        second = MetricsCollector(sim, warmup_ns=ms(1.0))
        _feed(first, a)
        _feed(second, b)
        assert _digest(first.merged(second), sim) == \
            _digest(second.merged(first), sim)

    @given(observations)
    @settings(max_examples=30, deadline=None)
    def test_empty_collector_is_identity(self, a):
        sim = Simulator()
        _advance(sim)
        loaded = MetricsCollector(sim, warmup_ns=ms(1.0))
        _feed(loaded, a)
        empty = MetricsCollector(sim, warmup_ns=ms(1.0))
        reference = MetricsCollector(sim, warmup_ns=ms(1.0))
        _feed(reference, a)
        assert _digest(loaded.merged(empty), sim) == \
            _digest(reference, sim)

    def test_mismatched_warmups_refused(self):
        sim = Simulator()
        with pytest.raises(ExperimentError):
            MetricsCollector(sim, warmup_ns=0.0).merge_from(
                MetricsCollector(sim, warmup_ns=ms(1.0)))
