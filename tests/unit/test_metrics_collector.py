"""Unit tests for the run collector and summaries."""

import pytest

from repro.errors import ExperimentError
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import LatencySummary, ThroughputSummary
from repro.metrics.reservoir import LatencyReservoir
from repro.runtime.request import Request
from repro.units import ms, us


def _request(arrival, service=us(1.0)):
    return Request(service_ns=service, arrival_ns=arrival)


class TestWarmupFiltering:
    def test_warmup_arrivals_excluded(self, sim):
        collector = MetricsCollector(sim, warmup_ns=ms(1.0))
        early = _request(arrival=us(500.0))
        late = _request(arrival=ms(1.5))
        collector.record_arrival(early)
        collector.record_arrival(late)
        assert collector.generated == 1
        assert collector.generated_all == 2

    def test_latency_samples_filtered_by_arrival(self, sim):
        collector = MetricsCollector(sim, warmup_ns=ms(1.0))
        early = _request(arrival=us(500.0))
        late = _request(arrival=ms(1.5))
        for req in (early, late):
            req.complete(req.arrival_ns + us(10.0))
            collector.record_completion(req)
        assert len(collector.latency) == 1
        assert collector.completed == 1
        assert collector.completed_all == 2

    def test_throughput_counts_all_in_window_completions(self, sim):
        """Under overload, warmup-arrivals completing inside the window
        still count toward achieved throughput."""
        collector = MetricsCollector(sim, warmup_ns=ms(1.0))
        early = _request(arrival=us(500.0))
        early.complete(ms(1.2))  # completes inside the window
        collector.record_completion(early)
        assert collector.completed_in_window == 1
        assert collector.completed == 0

    def test_negative_warmup_rejected(self, sim):
        with pytest.raises(ExperimentError):
            MetricsCollector(sim, warmup_ns=-1.0)


class TestSummaries:
    def test_summarize_computes_achieved_rate(self, sim):
        collector = MetricsCollector(sim, warmup_ns=0.0)
        for i in range(10):
            req = _request(arrival=i * us(10.0))
            collector.record_arrival(req)
            req.complete(req.arrival_ns + us(5.0))
            collector.record_completion(req)
        sim.timeout(ms(1.0))
        sim.run()  # advance clock to 1 ms
        metrics = collector.summarize(offered_rps=10_000.0)
        # 10 completions over 1 ms = 10k RPS.
        assert metrics.throughput.achieved_rps == pytest.approx(10_000.0)
        assert metrics.latency is not None
        assert metrics.latency.count == 10

    def test_preemption_aggregation(self, sim):
        collector = MetricsCollector(sim)
        req = _request(arrival=0.0)
        req.preemptions = 3
        req.complete(us(100.0))
        collector.record_completion(req)
        assert collector.preemptions == 3

    def test_drops_counted(self, sim):
        collector = MetricsCollector(sim, warmup_ns=ms(1.0))
        collector.record_drop(_request(arrival=ms(2.0)))
        collector.record_drop(_request(arrival=us(1.0)))  # warmup: ignored
        assert collector.dropped == 1

    def test_drops_keyed_by_reason(self, sim):
        collector = MetricsCollector(sim, warmup_ns=ms(1.0))
        for reason in ("overflow", "fault", "overflow", "timeout"):
            collector.record_drop(_request(arrival=ms(2.0)), reason)
        collector.record_drop(_request(arrival=us(1.0)), "fault")  # warmup
        assert collector.dropped == 4
        assert collector.dropped_by_reason == {
            "overflow": 2, "fault": 1, "timeout": 1}

    def test_fault_block_reads_drop_reasons(self, sim):
        from repro.faults.injector import FaultCounters
        collector = MetricsCollector(sim)
        assert collector.summarize(offered_rps=1000.0).faults is None
        collector.fault_counters = FaultCounters(link_drops=3)
        collector.record_drop(_request(arrival=0.0), "fault")
        collector.record_drop(_request(arrival=0.0), "timeout")
        faults = collector.summarize(offered_rps=1000.0).faults
        assert faults.link_drops == 3
        assert (faults.drops_overflow, faults.drops_fault,
                faults.drops_timeout) == (0, 1, 1)

    def test_no_samples_summary(self, sim):
        collector = MetricsCollector(sim)
        metrics = collector.summarize(offered_rps=1000.0)
        assert metrics.latency is None

    def test_completion_without_explicit_complete(self, sim):
        collector = MetricsCollector(sim)
        sim.timeout(us(50.0))
        sim.run()
        req = _request(arrival=0.0)
        collector.record_completion(req)  # completes at now
        assert req.completion_ns == us(50.0)


class TestLatencySummary:
    def test_from_reservoir(self):
        res = LatencyReservoir()
        res.extend(float(i) for i in range(1, 1001))
        summary = LatencySummary.from_reservoir(res)
        assert summary.count == 1000
        assert summary.p50_ns == 500.0
        assert summary.p99_ns == 990.0
        assert summary.p999_ns == 999.0
        assert summary.max_ns == 1000.0
        assert summary.tail_ns == summary.p99_ns

    def test_str_uses_microseconds(self):
        res = LatencyReservoir()
        res.add(2500.0)
        text = str(LatencySummary.from_reservoir(res))
        assert "2.5us" in text.replace(" ", "") or "2.5" in text


class TestThroughputSummary:
    def test_saturation_heuristic(self):
        healthy = ThroughputSummary(offered_rps=1e6, achieved_rps=0.99e6,
                                    generated=100, completed=99, dropped=0,
                                    window_ns=ms(1.0))
        saturated = ThroughputSummary(offered_rps=1e6, achieved_rps=0.5e6,
                                      generated=100, completed=50, dropped=0,
                                      window_ns=ms(1.0))
        assert not healthy.saturated
        assert saturated.saturated


class TestWorkerWaitFraction:
    def test_idle_workers_report_full_wait(self, sim, rngs):
        from repro.hw.cpu import CpuCore
        from repro.runtime.worker import WorkerCore
        collector = MetricsCollector(sim)
        thread = CpuCore(sim, "c0", 2.3).threads[0]
        worker = WorkerCore(sim, 0, thread)
        collector.attach_workers([worker])
        worker.begin_wait()
        sim.timeout(ms(1.0))
        sim.run()
        assert collector.worker_wait_fraction() == pytest.approx(1.0)

    def test_open_wait_is_read_without_being_closed(self, sim):
        """A worker still waiting at the horizon counts its open wait,
        and reading the fraction leaves the interval open."""
        from repro.hw.cpu import CpuCore
        from repro.runtime.worker import WorkerCore
        collector = MetricsCollector(sim)
        busy = WorkerCore(sim, 0, CpuCore(sim, "c0", 2.3).threads[0])
        idle = WorkerCore(sim, 1, CpuCore(sim, "c1", 2.3).threads[0])
        collector.attach_workers([busy, idle])
        idle.begin_wait()
        sim.timeout(ms(1.0))
        sim.run()
        assert collector.worker_wait_fraction() == pytest.approx(0.5)
        assert idle.wait_ns == 0.0
        assert idle._wait_started == 0.0

    def test_no_workers_is_zero(self, sim):
        assert MetricsCollector(sim).worker_wait_fraction() == 0.0
