"""Unit tests for the fault-injection layer.

Plan construction/validation, the ``--faults`` spec grammar, the
feedback bounds-check, drop-reason accounting, crashed-worker tracker
exclusion, the stream-namespace invariant, and the ``fault-stream``
lint rule.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.analysis.lint import lint_source
from repro.core.feedback import CoreStatusBoard, FeedbackChannel, WorkerStatus
from repro.core.queuing import OutstandingTracker
from repro.errors import ConfigError, FeedbackError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    FeedbackFaults,
    LinkFaults,
    QueueFaults,
    RecoveryPlan,
    WorkerFaults,
    parse_fault_spec,
)
from repro.metrics.collector import MetricsCollector
from repro.runtime.request import Request
from repro.runtime.taskqueue import TaskQueue
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.units import us


class TestFaultPlan:
    def test_default_plan_is_null(self):
        plan = FaultPlan()
        assert plan.is_null
        assert not plan.link.active
        assert not plan.feedback.active
        assert not plan.workers.active
        assert not plan.queues.active
        assert not plan.recovery.active

    @pytest.mark.parametrize("plan", [
        FaultPlan(link=LinkFaults(loss_prob=0.1)),
        FaultPlan(link=LinkFaults(corrupt_prob=0.1)),
        FaultPlan(link=LinkFaults(reorder_prob=0.1)),
        FaultPlan(feedback=FeedbackFaults(loss_prob=0.1)),
        FaultPlan(feedback=FeedbackFaults(staleness_ns=us(5.0))),
        FaultPlan(workers=WorkerFaults(crashes=((0, us(10.0)),))),
        FaultPlan(workers=WorkerFaults(stalls=((0, us(1.0), us(2.0)),))),
        FaultPlan(queues=QueueFaults(capacity=4)),
        FaultPlan(recovery=RecoveryPlan(timeout_ns=us(100.0))),
        FaultPlan(recovery=RecoveryPlan(max_retries=2)),
        FaultPlan(recovery=RecoveryPlan(staleness_threshold_ns=us(50.0))),
    ])
    def test_any_activation_breaks_null(self, plan):
        assert not plan.is_null

    @pytest.mark.parametrize("build", [
        lambda: LinkFaults(loss_prob=1.5),
        lambda: LinkFaults(loss_prob=-0.1),
        lambda: LinkFaults(loss_prob=0.6, corrupt_prob=0.6),
        lambda: LinkFaults(reorder_delay_ns=-1.0),
        lambda: FeedbackFaults(loss_prob=2.0),
        lambda: FeedbackFaults(staleness_ns=-1.0),
        lambda: WorkerFaults(crashes=((-1, 0.0),)),
        lambda: WorkerFaults(crashes=((0, -5.0),)),
        lambda: WorkerFaults(stalls=((0, 0.0, 0.0),)),
        lambda: WorkerFaults(stragglers=((0, -1.0, 10.0),)),
        lambda: WorkerFaults(straggler_factor=0.5),
        lambda: QueueFaults(capacity=0),
        lambda: RecoveryPlan(timeout_ns=-1.0),
        lambda: RecoveryPlan(max_retries=-1),
        lambda: RecoveryPlan(retry_backoff_ns=0.0),
        lambda: RecoveryPlan(backoff_multiplier=0.9),
        lambda: RecoveryPlan(staleness_threshold_ns=-1.0),
    ])
    def test_invalid_values_rejected(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_plan_is_frozen(self):
        plan = FaultPlan()
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.link = LinkFaults(loss_prob=0.5)

    def test_plan_pickles_and_reprs_stably(self):
        plan = parse_fault_spec(
            "link-loss=0.02,crash=1@150,timeout-us=200,retries=2")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert repr(clone) == repr(plan)


class TestParseFaultSpec:
    def test_full_grammar(self):
        plan = parse_fault_spec(
            "link-loss=0.01,link-corrupt=0.02,link-reorder=0.03,"
            "reorder-delay-us=5,link-scope=tor,"
            "feedback-loss=0.1,feedback-stale-us=3,"
            "crash=0@100,crash=2@250,stall=1@50+20,straggle=3@10+40,"
            "straggle-factor=8,queue-cap=16,"
            "timeout-us=200,retries=3,backoff-us=10,backoff-mult=1.5,"
            "stale-after-us=75")
        assert plan.link == LinkFaults(loss_prob=0.01, corrupt_prob=0.02,
                                       reorder_prob=0.03,
                                       reorder_delay_ns=us(5.0), scope="tor")
        assert plan.feedback == FeedbackFaults(loss_prob=0.1,
                                               staleness_ns=us(3.0))
        assert plan.workers.crashes == ((0, us(100.0)), (2, us(250.0)))
        assert plan.workers.stalls == ((1, us(50.0), us(20.0)),)
        assert plan.workers.stragglers == ((3, us(10.0), us(40.0)),)
        assert plan.workers.straggler_factor == 8.0
        assert plan.queues == QueueFaults(capacity=16)
        assert plan.recovery == RecoveryPlan(
            timeout_ns=us(200.0), max_retries=3, retry_backoff_ns=us(10.0),
            backoff_multiplier=1.5, staleness_threshold_ns=us(75.0))

    def test_empty_items_are_skipped(self):
        plan = parse_fault_spec("link-loss=0.1, ,")
        assert plan.link.loss_prob == 0.1

    @pytest.mark.parametrize("spec", [
        "link-loss",               # no '='
        "link-loss=",              # no value
        "link-loss=lots",          # not a number
        "retries=2.5",             # not an integer
        "crash=0",                 # missing @US
        "stall=1@50",              # missing +DUR
        "warp-core=0.5",           # unknown key
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            parse_fault_spec(spec)

    def test_parsed_validation_still_applies(self):
        with pytest.raises(ConfigError):
            parse_fault_spec("link-loss=0.7,link-corrupt=0.7")


class TestFeedbackBoundsCheck:
    def test_unknown_worker_raises_eagerly(self):
        sim = Simulator()
        board = CoreStatusBoard(sim, n_workers=2)
        channel = FeedbackChannel(sim, board, latency_ns=0.0)
        with pytest.raises(FeedbackError, match=r"unknown worker 5.*0\.\.1"):
            channel.send(WorkerStatus(worker_id=5))
        assert channel.sent == 0
        assert board.updates == 0

    def test_known_worker_delivers(self):
        sim = Simulator()
        board = CoreStatusBoard(sim, n_workers=2)
        channel = FeedbackChannel(sim, board, latency_ns=0.0)
        channel.send(WorkerStatus(worker_id=1, busy=True))
        assert channel.sent == 1
        assert board.get(1).busy


class TestFeedbackChannelFaults:
    """Loss and staleness on the feedback plane, driven directly.

    No registered system wires a :class:`FeedbackChannel` by default,
    so the channel-side hooks are exercised here at unit level.
    """

    def _channel(self, plan):
        sim = Simulator()
        rngs = RngRegistry(seed=3)
        injector = FaultInjector(sim, rngs, plan)
        sim.fault_injector = injector
        board = CoreStatusBoard(sim, n_workers=2)
        channel = FeedbackChannel(sim, board, latency_ns=0.0)
        return sim, injector, board, channel

    def test_certain_loss_never_reaches_board(self):
        plan = FaultPlan(feedback=FeedbackFaults(loss_prob=1.0))
        sim, injector, board, channel = self._channel(plan)
        for _ in range(5):
            channel.send(WorkerStatus(worker_id=0, busy=True))
        sim.run(until=us(1.0))
        assert channel.sent == 5
        assert channel.lost == 5
        assert board.updates == 0
        assert injector.counters.feedback_lost == 5

    def test_staleness_delays_board_visibility(self):
        plan = FaultPlan(feedback=FeedbackFaults(staleness_ns=us(5.0)))
        sim, injector, board, channel = self._channel(plan)
        channel.send(WorkerStatus(worker_id=1, busy=True))
        sim.run(until=us(4.0))
        assert not board.get(1).busy      # still in flight: stale view
        sim.run(until=us(6.0))
        assert board.get(1).busy
        assert channel.lost == 0
        assert injector.counters.feedback_stale == 1

    def test_clean_channel_applies_immediately(self):
        sim, injector, board, channel = self._channel(FaultPlan())
        channel.send(WorkerStatus(worker_id=0, busy=True))
        assert board.get(0).busy
        assert injector.counters.feedback_lost == 0


class TestDropReasons:
    def _request(self, arrival_ns):
        return Request(service_ns=us(1.0), arrival_ns=arrival_ns)

    def test_reasons_tallied_in_measurement_window(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_ns=us(10.0))
        metrics.record_drop(self._request(us(20.0)))
        metrics.record_drop(self._request(us(30.0)), reason="fault")
        metrics.record_drop(self._request(us(40.0)), reason="timeout")
        metrics.record_drop(self._request(us(50.0)), reason="timeout")
        assert metrics.dropped == 4
        assert metrics.dropped_by_reason == {
            "overflow": 1, "fault": 1, "timeout": 2}

    def test_warmup_drops_not_tallied(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_ns=us(10.0))
        metrics.record_drop(self._request(us(5.0)), reason="fault")
        assert metrics.dropped == 0
        assert metrics.dropped_by_reason == {}

    def test_faultfree_summary_has_no_fault_block(self):
        sim = Simulator()
        metrics = MetricsCollector(sim)
        assert metrics.summarize(offered_rps=1.0).faults is None


class TestTrackerDown:
    def test_down_worker_leaves_rotation(self):
        tracker = OutstandingTracker(n_workers=3, target=2)
        tracker.mark_down(1)
        assert tracker.is_down(1)
        assert not tracker.has_capacity(1)
        assert 1 not in tracker.workers_below_target()
        picks = {tracker.select() for _ in range(6)}
        assert 1 not in picks
        assert picks <= {0, 2}

    def test_all_down_selects_nothing(self):
        tracker = OutstandingTracker(n_workers=2)
        tracker.mark_down(0)
        tracker.mark_down(1)
        assert tracker.select() is None
        assert tracker.workers_below_target() == []


class TestQueueCapacityRestriction:
    def test_restrict_only_tightens(self):
        sim = Simulator()
        queue = TaskQueue(sim, capacity=8)
        queue.restrict_capacity(3)
        assert queue.capacity == 3
        queue.restrict_capacity(5)
        assert queue.capacity == 3

    def test_restrict_bounds_unbounded_queue(self):
        sim = Simulator()
        queue = TaskQueue(sim)
        assert queue.capacity is None
        queue.restrict_capacity(2)
        assert queue.capacity == 2

    def test_restrict_rejects_nonpositive(self):
        sim = Simulator()
        queue = TaskQueue(sim)
        with pytest.raises(SimulationError):
            queue.restrict_capacity(0)


class TestStreamNamespace:
    """Fault RNG streams exist only when their fault class is active."""

    def test_null_ish_plan_creates_no_streams(self):
        sim = Simulator()
        rngs = RngRegistry(seed=1)
        FaultInjector(sim, rngs, FaultPlan(queues=QueueFaults(capacity=4)))
        assert not [name for name in rngs._streams if "faults" in name]

    def test_active_classes_create_their_streams(self):
        sim = Simulator()
        rngs = RngRegistry(seed=1)
        plan = FaultPlan(link=LinkFaults(loss_prob=0.1),
                         feedback=FeedbackFaults(loss_prob=0.1))
        FaultInjector(sim, rngs, plan)
        assert sorted(n for n in rngs._streams if n.startswith("faults.")) \
            == ["faults.feedback", "faults.link"]

    def test_crash_worker_id_validated_on_attach(self):
        from repro.systems import registry
        sim = Simulator()
        rngs = RngRegistry(seed=1)
        metrics = MetricsCollector(sim)
        system = registry.build("shinjuku", sim, rngs, metrics)
        plan = FaultPlan(workers=WorkerFaults(crashes=((99, us(10.0)),)))
        injector = FaultInjector(sim, rngs, plan)
        with pytest.raises(ConfigError, match="out of range"):
            injector.attach(system)


class TestFaultStreamLintRule:
    def test_foreign_stream_in_fault_module_flagged(self):
        findings = lint_source(
            "u = rngs.stream('service').random()\n",
            path="src/repro/faults/injector.py")
        assert [f.rule_id for f in findings] == ["fault-stream"]
        assert "'service'" in findings[0].message

    def test_faults_namespace_stream_allowed(self):
        findings = lint_source(
            "u = rngs.stream('faults.link').random()\n",
            path="src/repro/faults/injector.py")
        assert findings == []

    def test_rule_silent_outside_fault_modules(self):
        findings = lint_source(
            "u = rngs.stream('service').random()\n",
            path="src/repro/workload/generator.py")
        assert findings == []

    def test_dynamic_stream_names_not_flagged(self):
        findings = lint_source(
            "u = rngs.stream(name).random()\n",
            path="src/repro/faults/injector.py")
        assert findings == []
