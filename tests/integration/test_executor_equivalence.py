"""Differential suite: in-process, worker, and cached execution agree.

Determinism is the contract that makes sweep parallelism safe: every
point runs in a fresh, independently seeded simulator, so *where* it
runs must not matter.  These tests enforce the contract bit-for-bit —
exact ``RunMetrics`` equality (same p99, same achieved_rps, same float
representation) between an executor at ``jobs=1`` (points in this
process) and one at ``jobs=N`` (points in forked workers) for every
served system, and between a fresh run and a cache-hit re-run.

``REPRO_TEST_JOBS`` (default 4) sets the worker-process count, so CI
can pin the parallelism it wants to stress.
"""

from __future__ import annotations

import os

import pytest

from repro.config import ShinjukuConfig, ShinjukuOffloadConfig
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    ResultCache,
    make_executor,
)
from repro.experiments.harness import RunConfig, load_sweep
from repro.experiments.progress import ProgressLedger
from repro.systems.elastic_rss import ElasticRssConfig, ElasticRssSystem
from repro.systems.ideal_offload import IdealOffloadSystem
from repro.systems.mica_system import MicaSystem, MicaSystemConfig
from repro.systems.rpcvalet import RpcValetConfig, RpcValetSystem
from repro.systems.rss_system import RssSystem, RssSystemConfig
from repro.systems.sharded_shinjuku import (
    ShardedShinjukuConfig,
    ShardedShinjukuSystem,
)
from repro.systems.shinjuku import ShinjukuSystem
from repro.systems.shinjuku_offload import ShinjukuOffloadSystem
from repro.systems.workstealing import WorkStealingConfig, WorkStealingSystem
from repro.units import ms, us
from repro.workload.distributions import Fixed

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "4"))

#: Short horizons: the differential property holds at any horizon, so
#: the suite buys coverage of every system with tiny windows.
TINY = RunConfig(seed=13, horizon_ns=ms(1.0), warmup_ns=ms(0.2))
RATES = [50e3, 150e3, 400e3]
DIST = Fixed(us(2.0))

#: Every served system, as a picklable factory small enough to sweep.
ALL_SYSTEM_FACTORIES = [
    ("shinjuku", ConfiguredFactory(ShinjukuSystem,
                                   ShinjukuConfig(workers=3))),
    ("shinjuku_offload", ConfiguredFactory(
        ShinjukuOffloadSystem,
        ShinjukuOffloadConfig(workers=4, outstanding_per_worker=4))),
    ("rss", ConfiguredFactory(RssSystem, RssSystemConfig(workers=4))),
    ("workstealing", ConfiguredFactory(WorkStealingSystem,
                                       WorkStealingConfig(workers=4))),
    ("mica", ConfiguredFactory(MicaSystem, MicaSystemConfig(workers=4))),
    ("rpcvalet", ConfiguredFactory(RpcValetSystem,
                                   RpcValetConfig(workers=4))),
    ("ideal_offload", ConfiguredFactory(IdealOffloadSystem)),
    ("sharded_shinjuku", ConfiguredFactory(
        ShardedShinjukuSystem, ShardedShinjukuConfig())),
    ("elastic_rss", ConfiguredFactory(ElasticRssSystem,
                                      ElasticRssConfig())),
]

IDS = [name for name, _factory in ALL_SYSTEM_FACTORIES]


def _sweep(factory, executor, rates=RATES):
    return load_sweep(factory, rates, DIST, TINY, system_name="sut",
                      executor=executor)


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("name,factory", ALL_SYSTEM_FACTORIES, ids=IDS)
    def test_bit_identical_metrics(self, name, factory):
        """Same seed -> the *same* RunMetrics, wherever the point ran."""
        serial = _sweep(factory, make_executor())
        parallel = _sweep(factory, make_executor(jobs=JOBS))
        for s_point, p_point in zip(serial.points, parallel.points):
            assert s_point.offered_rps == p_point.offered_rps
            # Frozen-dataclass equality is exact float equality across
            # every field: p99, achieved_rps, counts, wait fractions.
            assert s_point.metrics == p_point.metrics

    @pytest.mark.parametrize("name,factory", ALL_SYSTEM_FACTORIES, ids=IDS)
    def test_executor_none_matches_serial_executor(self, name, factory):
        """The executor layer changes nothing vs. the historical path."""
        plain = _sweep(factory, None, rates=RATES[:2])
        serial = _sweep(factory, make_executor(), rates=RATES[:2])
        assert [p.metrics for p in plain.points] == \
            [p.metrics for p in serial.points]


class TestAttemptModes:
    """``jobs=1`` runs attempts in this process unless a point deadline
    is set; then each attempt runs in a forked worker, one at a time.
    The two modes of the one executor must agree bit-for-bit."""

    @pytest.mark.parametrize("name,factory", ALL_SYSTEM_FACTORIES, ids=IDS)
    def test_deadline_forked_matches_in_process(self, name, factory):
        in_process = _sweep(factory, make_executor())
        forked = _sweep(factory, make_executor(point_timeout_s=60.0))
        assert [p.metrics for p in forked.points] == \
            [p.metrics for p in in_process.points]


class TestLedgerResume:
    @pytest.mark.parametrize("name,factory", ALL_SYSTEM_FACTORIES, ids=IDS)
    def test_resume_from_ledger_matches_fresh_run(self, tmp_path,
                                                  name, factory):
        """Every system's metrics survive the progress ledger's JSON
        round trip: a resumed sweep re-runs nothing and changes no bit."""
        ledger = ProgressLedger(tmp_path / "progress.jsonl")
        fresh = _sweep(factory, make_executor(on_event=ledger))
        ledger.write_done()
        ledger.close()
        replay = ProgressLedger.replay(tmp_path / "progress.jsonl")
        resumer = make_executor(resume_from=replay)
        resumed = _sweep(factory, resumer)
        assert resumer.stats.points_resumed == len(RATES)
        assert resumer.stats.points_run == 0
        assert resumer.stats.events_executed == 0
        assert [p.metrics for p in resumed.points] == \
            [p.metrics for p in fresh.points]


class TestAcceptance:
    def test_eight_point_offload_sweep_parallel_and_cached(self, tmp_path):
        """The PR's acceptance bar, verbatim: >= 8 points over
        shinjuku_offload with jobs=4 match serial exactly, and a cached
        re-run executes zero simulator events."""
        factory = ConfiguredFactory(
            ShinjukuOffloadSystem,
            ShinjukuOffloadConfig(workers=4, outstanding_per_worker=4))
        rates = [100e3, 200e3, 300e3, 400e3, 500e3, 600e3, 700e3, 800e3]

        serial = _sweep(factory, make_executor(), rates=rates)
        cache = ResultCache(tmp_path / "cache")
        parallel = make_executor(jobs=4, cache_dir=cache.root)
        fanned = _sweep(factory, parallel, rates=rates)
        assert [p.metrics for p in serial.points] == \
            [p.metrics for p in fanned.points]
        assert parallel.stats.points_run == len(rates)
        assert parallel.stats.events_executed > 0

        rerun_executor = make_executor(jobs=4, cache_dir=cache.root)
        rerun = _sweep(factory, rerun_executor, rates=rates)
        assert [p.metrics for p in rerun.points] == \
            [p.metrics for p in serial.points]
        assert rerun_executor.stats.points_cached == len(rates)
        assert rerun_executor.stats.points_run == 0
        assert rerun_executor.stats.events_executed == 0


class TestCacheHits:
    @pytest.mark.parametrize(
        "name,factory", ALL_SYSTEM_FACTORIES[:3], ids=IDS[:3])
    def test_cache_hit_returns_identical_metrics(self, tmp_path,
                                                 name, factory):
        cache = ResultCache(tmp_path)
        first_executor = make_executor(cache_dir=cache.root)
        first = _sweep(factory, first_executor)
        assert first_executor.stats.points_run == len(RATES)

        second_executor = make_executor(cache_dir=cache.root)
        second = _sweep(factory, second_executor)
        assert second_executor.stats.points_cached == len(RATES)
        assert second_executor.stats.events_executed == 0
        assert [p.metrics for p in first.points] == \
            [p.metrics for p in second.points]

    def test_serial_fill_parallel_read(self, tmp_path):
        """Cache entries written serially serve a parallel re-run."""
        factory = ALL_SYSTEM_FACTORIES[0][1]
        cache = ResultCache(tmp_path)
        filled = _sweep(factory, make_executor(cache_dir=cache.root))
        reader = make_executor(jobs=JOBS, cache_dir=cache.root)
        reread = _sweep(factory, reader)
        assert reader.stats.events_executed == 0
        assert [p.metrics for p in filled.points] == \
            [p.metrics for p in reread.points]

    def test_cache_dir_colliding_with_file_is_clean_error(self, tmp_path):
        from repro.errors import ExperimentError
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        with pytest.raises(ExperimentError):
            ResultCache(blocker)

    def test_corrupt_entry_is_remeasured(self, tmp_path):
        """A damaged cache file reads as a miss, never as bad data."""
        factory = ALL_SYSTEM_FACTORIES[0][1]
        cache = ResultCache(tmp_path)
        baseline = _sweep(factory, make_executor(cache_dir=cache.root),
                          rates=RATES[:2])
        victim = next(cache.root.glob("*/*.json"))
        victim.write_text("GARBAGE{{{")
        executor = make_executor(cache_dir=cache.root)
        rerun = _sweep(factory, executor, rates=RATES[:2])
        assert executor.stats.points_run == 1
        assert executor.stats.points_cached == 1
        assert [p.metrics for p in rerun.points] == \
            [p.metrics for p in baseline.points]

    def test_different_seed_misses(self, tmp_path):
        factory = ALL_SYSTEM_FACTORIES[0][1]
        cache = ResultCache(tmp_path)
        executor = make_executor(cache_dir=cache.root)
        executor.run_points(
            [PointSpec(factory, 100e3, DIST, TINY, label="sut")])
        other = RunConfig(seed=TINY.seed + 1, horizon_ns=TINY.horizon_ns,
                          warmup_ns=TINY.warmup_ns)
        executor.run_points(
            [PointSpec(factory, 100e3, DIST, other, label="sut")])
        assert executor.stats.points_run == 2
        assert executor.stats.points_cached == 0


class TestOpaqueFactories:
    def test_closure_factory_still_runs_in_parallel_executor(self):
        """Closures can't be pickled: forked workers inherit them (and
        spawn-only platforms run them in-process); either way they must
        produce correct results, never crash."""
        def closure_factory(sim, rngs, metrics):
            return RpcValetSystem(sim, rngs, metrics,
                                  config=RpcValetConfig(workers=2))

        serial = _sweep(closure_factory, make_executor(), rates=RATES[:2])
        parallel = _sweep(closure_factory, make_executor(jobs=JOBS),
                          rates=RATES[:2])
        assert [p.metrics for p in serial.points] == \
            [p.metrics for p in parallel.points]

    def test_closure_factory_never_cached(self, tmp_path):
        def closure_factory(sim, rngs, metrics):
            return RpcValetSystem(sim, rngs, metrics,
                                  config=RpcValetConfig(workers=2))

        cache = ResultCache(tmp_path)
        executor = make_executor(cache_dir=cache.root)
        spec = PointSpec(closure_factory, 100e3, DIST, TINY, label="sut")
        executor.run_points([spec])
        executor.run_points([spec])
        assert executor.stats.points_run == 2
        assert executor.stats.points_cached == 0
        assert len(cache) == 0
