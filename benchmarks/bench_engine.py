"""Simulator-kernel microbenchmarks (real multi-round measurements).

Not a paper figure: these keep the substrate honest.  The DES engine's
event rate bounds how long every other bench takes, so a regression
here shows up before the figure benches crawl.
"""

import random

from repro.net.addressing import FiveTuple
from repro.net.checksum import toeplitz_hash
from repro.sim.engine import Simulator
from repro.sim.primitives import Store


def test_engine_event_throughput(benchmark):
    """Raw timeout scheduling + processing rate."""

    def run_10k_events():
        sim = Simulator()
        for i in range(10_000):
            sim.timeout(float(i % 97))
        sim.run()
        return sim.event_count

    count = benchmark(run_10k_events)
    assert count == 10_000


def test_process_switch_throughput(benchmark):
    """Generator-process ping-pong through a Store (the hot path of
    every worker/dispatcher loop)."""

    def run_pingpong():
        sim = Simulator()
        store = Store(sim)
        n = 2_000

        def producer(sim):
            for i in range(n):
                yield sim.timeout(1.0)
                store.put(i)

        def consumer(sim):
            for _ in range(n):
                yield store.get()

        sim.process(producer(sim))
        consumer_proc = sim.process(consumer(sim))
        sim.run()
        return consumer_proc.ok

    assert benchmark(run_pingpong)


def test_toeplitz_hash_rate(benchmark):
    """RSS hash cost per steering decision."""
    rng = random.Random(7)
    flows = [FiveTuple(rng.randrange(2**32), rng.randrange(2**32),
                       rng.randrange(2**16), rng.randrange(2**16), 17)
             for _ in range(256)]

    def hash_all():
        return [toeplitz_hash(flow) for flow in flows]

    hashes = benchmark(hash_all)
    assert len(set(hashes)) > 200  # well spread
