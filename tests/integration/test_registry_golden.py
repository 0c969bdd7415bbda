"""The registry refactor changes nothing: golden-fixture differential.

``tests/data/registry_golden.json`` was generated by the
*pre-registry* code — every system hand-constructed from its class,
before the wiring moved into ``systems/parts.py`` and construction
moved behind the registry.  These tests rebuild every one of those
points through the registry (by-name factories) and demand exact
``RunMetrics`` equality, across the serial, parallel, and cached
execution paths alike.

Floats round-trip exactly: the fixture stores ``float.hex()`` rates
and the same JSON image :class:`ResultCache` uses on disk.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.config import ShinjukuConfig, ShinjukuOffloadConfig
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    ResultCache,
    make_executor,
    metrics_to_jsonable,
)
from repro.experiments.harness import RunConfig
from repro.systems.elastic_rss import ElasticRssConfig
from repro.systems.mica_system import MicaSystemConfig
from repro.systems.rpcvalet import RpcValetConfig
from repro.systems.rss_system import RssSystemConfig
from repro.systems.sharded_shinjuku import ShardedShinjukuConfig
from repro.systems.workstealing import WorkStealingConfig
from repro.units import us
from repro.workload.distributions import Fixed

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "4"))

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "registry_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

CONFIG = RunConfig(seed=GOLDEN["seed"],
                   horizon_ns=float.fromhex(GOLDEN["horizon_ns"]),
                   warmup_ns=float.fromhex(GOLDEN["warmup_ns"]))
DIST = Fixed(us(2.0))

#: The exact configs the pre-refactor generator used, now resolved by
#: registry name instead of imported class.
GOLDEN_CONFIGS = {
    "shinjuku": ShinjukuConfig(workers=3),
    "shinjuku-offload": ShinjukuOffloadConfig(workers=4,
                                              outstanding_per_worker=4),
    "rss": RssSystemConfig(workers=4),
    "workstealing": WorkStealingConfig(workers=4),
    "mica": MicaSystemConfig(workers=4),
    "rpcvalet": RpcValetConfig(workers=4),
    "ideal-offload": None,
    "sharded-shinjuku": ShardedShinjukuConfig(),
    "elastic-rss": ElasticRssConfig(),
}

ALL_NAMES = sorted(GOLDEN["systems"])


def _golden_specs(name):
    factory = ConfiguredFactory.by_name(name, GOLDEN_CONFIGS[name])
    return [
        (PointSpec(factory=factory,
                   rate_rps=float.fromhex(point["rate_rps"]),
                   distribution=DIST, config=CONFIG, label=name),
         point["metrics"])
        for point in GOLDEN["systems"][name]]


def test_fixture_covers_every_registered_system():
    from repro.systems import registry
    assert ALL_NAMES == [e.name for e in registry.list_systems()]
    assert repr(DIST) == GOLDEN["distribution"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_registry_build_matches_pre_refactor_serial(name):
    """Serial path: registry-built metrics == pre-refactor metrics."""
    executor = make_executor()
    for spec, want in _golden_specs(name):
        got = metrics_to_jsonable(executor.run_point(spec))
        assert got == want, f"{name} @ {spec.rate_rps} diverged"


def test_registry_build_matches_pre_refactor_parallel():
    """All 18 golden points fanned across worker processes at once."""
    pairs = [pair for name in ALL_NAMES for pair in _golden_specs(name)]
    executor = make_executor(jobs=JOBS)
    results = executor.run_points([spec for spec, _want in pairs])
    for (spec, want), metrics in zip(pairs, results):
        got = metrics_to_jsonable(metrics)
        assert got == want, f"{spec.label} @ {spec.rate_rps} diverged"


def test_registry_build_matches_pre_refactor_cached(tmp_path):
    """A cache round-trip preserves the golden metrics exactly."""
    pairs = [pair for name in ALL_NAMES for pair in _golden_specs(name)]
    specs = [spec for spec, _want in pairs]
    cache = ResultCache(tmp_path / "cache")
    filler = make_executor(cache_dir=cache.root)
    filler.run_points(specs)
    assert filler.stats.points_run == len(specs)

    reader = make_executor(cache_dir=cache.root)
    results = reader.run_points(specs)
    assert reader.stats.points_cached == len(specs)
    assert reader.stats.events_executed == 0
    for (spec, want), metrics in zip(pairs, results):
        got = metrics_to_jsonable(metrics)
        assert got == want, f"{spec.label} @ {spec.rate_rps} diverged"
