"""System tests for the RPCValet-style NI-driven architecture."""

import pytest

from repro.experiments.harness import RunConfig, run_point
from repro.systems.rpcvalet import RpcValetConfig, RpcValetSystem
from repro.systems.rss_system import RssSystem, RssSystemConfig
from repro.units import ms, us
from repro.workload.distributions import Bimodal, Exponential, Fixed

FAST = RunConfig(seed=3, horizon_ns=ms(3.0), warmup_ns=ms(0.5))


def _factory(config):
    def make(sim, rngs, metrics):
        return RpcValetSystem(sim, rngs, metrics, config=config)
    return make


class TestBasicService:
    def test_serves_light_load(self):
        metrics = run_point(_factory(RpcValetConfig(workers=8)), 200e3,
                            Fixed(us(5.0)), FAST)
        assert metrics.throughput.achieved_rps == pytest.approx(200e3,
                                                                rel=0.1)

    def test_dispatch_overhead_is_nanoseconds(self):
        """The NI is integrated on the core: latency floor within ~1 us
        of the pure service + wire time."""
        metrics = run_point(_factory(RpcValetConfig(workers=4)), 50e3,
                            Fixed(us(1.0)), FAST)
        floor = us(1.0) + 2 * us(1.0)  # service + both client wires
        assert metrics.latency.p50_ns < floor + us(1.0)


class TestCentralizedQueueStrength:
    def test_no_load_imbalance(self):
        """§2.2-1: the global queue eliminates imbalance entirely —
        single-queue beats per-core queues on exponential work."""
        def rss_factory(sim, rngs, metrics):
            return RssSystem(sim, rngs, metrics,
                             config=RssSystemConfig(workers=4))

        load = 450e3
        dist = Exponential(us(5.0))
        valet = run_point(_factory(RpcValetConfig(workers=4)), load, dist,
                          FAST)
        rss = run_point(rss_factory, load, dist, FAST)
        assert valet.latency.p99_ns < rss.latency.p99_ns


class TestNoPreemptionWeakness:
    # A harsher dispersion than Figure 2: millisecond-scale stragglers
    # (the co-located-batch-work scenario of §2.2-2).  With only 0.5%
    # slow requests, the slow class sits *above* the 99th percentile,
    # so the p99 damage comes from fast requests stuck behind blocked
    # workers — visible once several workers can be slow-occupied.
    HARSH = Bimodal(us(1.0), us(1000.0), 0.005)

    def test_bimodal_tail_explodes(self):
        """§2.2-2: RPCValet 'demonstrate[s] high tail latency for
        highly-variable request service time distributions'."""
        metrics = run_point(_factory(RpcValetConfig(workers=4)), 400e3,
                            self.HARSH, FAST)
        assert metrics.preemptions == 0
        # Fast requests (1 us) see a p99 tens of microseconds deep.
        assert metrics.latency.p99_ns > us(40.0)

    def test_preemptive_centralized_beats_it_on_dispersion(self):
        from repro.config import PreemptionConfig, ShinjukuConfig
        from repro.systems.shinjuku import ShinjukuSystem

        def shinjuku_factory(sim, rngs, metrics):
            return ShinjukuSystem(
                sim, rngs, metrics,
                config=ShinjukuConfig(
                    workers=4,
                    preemption=PreemptionConfig(time_slice_ns=us(10.0))))

        load = 400e3
        valet = run_point(_factory(RpcValetConfig(workers=4)), load,
                          self.HARSH, FAST)
        shinjuku = run_point(shinjuku_factory, load, self.HARSH, FAST)
        assert shinjuku.latency.p99_ns < valet.latency.p99_ns


class TestCrashWhileIdle:
    def test_idle_crash_strands_no_request(self):
        """Worker 1 dies at 300 us with nothing to run.  Its blocked
        dequeue is withdrawn, so no later request is handed to the dead
        core and none needs failing over."""
        from repro.faults.plan import parse_fault_spec
        config = RunConfig(seed=42, faults=parse_fault_spec(
            "crash=1@300,timeout-us=150,retries=2")).scaled(0.1)
        metrics = run_point(_factory(RpcValetConfig()), 50e3,
                            Fixed(us(2.0)), config)
        assert metrics.faults.worker_crashes == 1
        assert metrics.faults.failovers == 0
        assert metrics.faults.drops_fault == 0
        assert metrics.throughput.completed == metrics.throughput.generated
