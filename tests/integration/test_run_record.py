"""One record of a run: the flat collector and the request stamps agree.

A run keeps what happened in two places only: the one
:class:`~repro.metrics.collector.MetricsCollector` that the generator
and the system report to, and the stage stamps each
:class:`~repro.runtime.request.Request` carries.  For every registered
system this file runs one small point, keeps every request the
generator sent, and checks that

* each request's stamps follow the path it took (client, NIC, queue,
  core, response) in time order;
* the collector's counters and latency samples are exactly what the
  requests themselves say happened;
* ``summarize()`` reports those same counters;
* under a bounded queue, each drop is stamped once and counted once
  under its reason.
"""

from __future__ import annotations

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import parse_fault_spec
from repro.metrics.collector import MetricsCollector
from repro.runtime.request import RequestState
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.systems import registry
from repro.units import ms, us
from repro.workload.arrivals import PoissonArrivals
from repro.workload.distributions import Bimodal
from repro.workload.generator import OpenLoopLoadGenerator

HORIZON = ms(0.8)
WARMUP = ms(0.1)
#: Long enough requests that the preemptive systems do preempt some.
DIST = Bimodal(us(1.0), us(40.0), 0.05)
RATE = 300e3
SEED = 11

ALL_NAMES = [entry.name for entry in registry.list_systems()]

#: Stages a completed request passes, in path order; a system stamps
#: the subset its path has.
PATH_ORDER = ("nic_rx", "networker_done", "queued", "dispatched",
              "first_run")


def _run(name, rate=RATE, spec=None):
    """Run one point on *name*; return (collector, every request sent)."""
    sim = Simulator()
    rngs = RngRegistry(SEED)
    collector = MetricsCollector(sim, warmup_ns=WARMUP)
    system = registry.build(name, sim, rngs, collector)
    if spec is not None:
        FaultInjector(sim, rngs, parse_fault_spec(spec),
                      metrics=collector).attach(system)
    sent = []

    def ingress(request):
        sent.append(request)
        system.ingress(request)

    system.start()
    OpenLoopLoadGenerator(sim, ingress, PoissonArrivals(rate), rngs,
                          collector, horizon_ns=HORIZON,
                          distribution=DIST).start()
    # Run past the horizon so the backlog drains and every request ends.
    sim.run(until=HORIZON + ms(2.0), max_events=20_000_000)
    return collector, sent


@pytest.fixture(scope="module", params=ALL_NAMES)
def clean_run(request):
    return request.param, _run(request.param)


def _measured(requests):
    return [r for r in requests if r.arrival_ns >= WARMUP]


def test_stamps_follow_the_path_in_time_order(clean_run):
    _name, (_collector, sent) = clean_run
    completed = [r for r in sent if r.state is RequestState.COMPLETED]
    assert completed
    for request in completed:
        stamps = request.stamps
        assert "nic_rx" in stamps and "first_run" in stamps
        times = [request.arrival_ns]
        times += [stamps[stage] for stage in PATH_ORDER if stage in stamps]
        times.append(request.completion_ns)
        assert times == sorted(times), (request, stamps)


def test_collector_counts_what_the_requests_report(clean_run):
    _name, (collector, sent) = clean_run
    completed = [r for r in sent if r.state is RequestState.COMPLETED]
    measured = _measured(completed)
    assert collector.generated_all == len(sent)
    assert collector.generated == len(_measured(sent))
    assert collector.completed_all == len(completed)
    assert collector.completed == len(measured)
    assert collector.completed_in_window == sum(
        1 for r in completed if r.completion_ns >= WARMUP)
    # Samples land in completion order; the multiset is what counts.
    assert sorted(collector.latency.samples()) == sorted(
        r.latency_ns for r in measured)
    assert collector.preemptions == sum(r.preemptions for r in measured)
    assert collector.dropped == 0 and collector.dropped_by_reason == {}


def test_summary_reports_the_collector_counters(clean_run):
    _name, (collector, sent) = clean_run
    metrics = collector.summarize(offered_rps=RATE)
    assert metrics.throughput.generated == collector.generated
    assert metrics.throughput.completed == collector.completed
    assert metrics.throughput.dropped == collector.dropped == 0
    assert metrics.latency.count == len(collector.latency)
    assert metrics.latency.max_ns == max(
        r.latency_ns for r in _measured(sent)
        if r.state is RequestState.COMPLETED)
    assert metrics.preemptions == collector.preemptions
    assert metrics.faults is None


@pytest.mark.parametrize("name", ALL_NAMES)
def test_each_drop_is_stamped_and_counted_once(name):
    collector, sent = _run(name, rate=2e6, spec="queue-cap=1")
    dropped = [r for r in sent if "dropped" in r.stamps]
    assert dropped, "a one-slot queue at 2 MRPS must overflow"
    for request in dropped:
        assert request.state is RequestState.DROPPED
        assert request.completion_ns is None
    measured = _measured(dropped)
    assert collector.dropped == len(measured)
    assert sum(collector.dropped_by_reason.values()) == collector.dropped
    # Every request sent either completed or was dropped, never both.
    completed = [r for r in sent if r.state is RequestState.COMPLETED]
    assert len(completed) + len(dropped) == len(sent)
    assert collector.completed_all == len(completed)
