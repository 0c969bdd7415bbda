"""Golden differential with the sanitizer force-enabled.

The hot-path work (pooled events, the one ``run()`` loop, inlined
primitives) is only acceptable if a sanitized run — the same loop with
``SanitizedSimulator``'s observer checking invariants after every
event — still reproduces the pre-refactor golden fixture bit for bit.
Unlike the CI-env-driven golden suite, these tests force
``REPRO_SANITIZE=1`` themselves, so they prove the contract in any
environment, and they verify the sanitizer really engaged (it is no
differential if neither side ran the checks).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.sanitizer import SanitizedSimulator
from repro.config import ShinjukuConfig, ShinjukuOffloadConfig
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    make_executor,
    metrics_digest,
    metrics_to_jsonable,
)
from repro.experiments.harness import SANITIZE_ENV, RunConfig
from repro.systems.elastic_rss import ElasticRssConfig
from repro.systems.mica_system import MicaSystemConfig
from repro.systems.rpcvalet import RpcValetConfig
from repro.systems.rss_system import RssSystemConfig
from repro.systems.sharded_shinjuku import ShardedShinjukuConfig
from repro.systems.workstealing import WorkStealingConfig
from repro.units import us
from repro.workload.distributions import Fixed

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "registry_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

CONFIG = RunConfig(seed=GOLDEN["seed"],
                   horizon_ns=float.fromhex(GOLDEN["horizon_ns"]),
                   warmup_ns=float.fromhex(GOLDEN["warmup_ns"]))
DIST = Fixed(us(2.0))

#: Same configs the fixture generator used (see test_registry_golden).
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


def _all_golden_pairs():
    pairs = []
    for name in ALL_NAMES:
        factory = ConfiguredFactory.by_name(name, GOLDEN_CONFIGS[name])
        for point in GOLDEN["systems"][name]:
            spec = PointSpec(factory=factory,
                             rate_rps=float.fromhex(point["rate_rps"]),
                             distribution=DIST, config=CONFIG, label=name)
            pairs.append((spec, point["metrics"]))
    return pairs


@pytest.fixture()
def forced_sanitize(monkeypatch):
    """Force REPRO_SANITIZE=1 and count sanitizer engagements."""
    monkeypatch.setenv(SANITIZE_ENV, "1")
    finalized = []
    original = SanitizedSimulator.finalize

    def counting_finalize(self):
        report = original(self)
        finalized.append(report)
        return report

    monkeypatch.setattr(SanitizedSimulator, "finalize", counting_finalize)
    return finalized


def test_fixture_has_the_full_18_point_matrix():
    pairs = _all_golden_pairs()
    assert len(pairs) == 18
    assert len(ALL_NAMES) == 9


def test_all_points_bit_identical_under_forced_sanitize(forced_sanitize):
    """Every golden point, sanitized, equals the pre-refactor metrics."""
    pairs = _all_golden_pairs()
    executor = make_executor()
    results = executor.run_points([spec for spec, _want in pairs])
    for (spec, want), metrics in zip(pairs, results):
        got = metrics_to_jsonable(metrics)
        assert got == want, f"{spec.label} @ {spec.rate_rps} diverged"
    # The differential is meaningless unless the sanitizer really ran:
    # one finalized report per point, each with live RNG accounting.
    assert len(forced_sanitize) == len(pairs)
    assert all(report.events > 0 and report.draws
               for report in forced_sanitize)


def test_sanitized_and_fast_loop_agree_point_by_point(monkeypatch):
    """The observed (sanitized) loop and the plain loop are the same
    simulation: identical metrics JSON for a spot-checked system."""
    from repro.experiments.harness import run_point_with_events
    name = "shinjuku-offload"
    factory = ConfiguredFactory.by_name(name, GOLDEN_CONFIGS[name])
    rate = float.fromhex(GOLDEN["systems"][name][0]["rate_rps"])
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    fast, fast_events = run_point_with_events(
        factory, rate, DIST, CONFIG, sanitize=False)
    sanitized, sanitized_events = run_point_with_events(
        factory, rate, DIST, CONFIG, sanitize=True)
    assert metrics_to_jsonable(fast) == metrics_to_jsonable(sanitized)
    assert fast_events == sanitized_events


def test_golden_point_invariant_to_wheel_granularity(forced_sanitize,
                                                     monkeypatch):
    """A golden point, sanitized, with the timer wheel forced hot.

    Shrinking the wheel granularity moves schedule entries from the
    near heap into the wheel buckets (and back through cascade/refill),
    i.e. exercises a completely different container path for the same
    simulation.  The metrics image and digest must not notice: heap
    order and wheel order are the same total order, including the
    tie-break keys baked into each entry.
    """
    import repro.sim.wheel as wheel_mod
    from repro.experiments.harness import run_point_with_events

    name = "shinjuku"
    factory = ConfiguredFactory.by_name(name, GOLDEN_CONFIGS[name])
    point = GOLDEN["systems"][name][0]
    rate = float.fromhex(point["rate_rps"])

    default_metrics, default_events = run_point_with_events(
        factory, rate, DIST, CONFIG)
    assert metrics_to_jsonable(default_metrics) == point["metrics"]

    wheel_pushes = []
    original_push = wheel_mod.TimerWheel.push

    def counting_push(self, entry):
        wheel_pushes.append(entry[0])
        return original_push(self, entry)

    monkeypatch.setattr(wheel_mod.TimerWheel, "push", counting_push)
    # Power of two required (exact float division in bucket indexing).
    monkeypatch.setattr(wheel_mod, "GRANULARITY", 2048.0)
    wheel_metrics, wheel_events = run_point_with_events(
        factory, rate, DIST, CONFIG)
    assert wheel_pushes, "granularity squeeze never reached the wheel"
    assert metrics_to_jsonable(wheel_metrics) == point["metrics"]
    assert wheel_events == default_events
    assert metrics_digest([wheel_metrics]) \
        == metrics_digest([default_metrics])

    # And the plain loop agrees with the observed sanitized loop under
    # the squeezed wheel too.
    fast_metrics, fast_events = run_point_with_events(
        factory, rate, DIST, CONFIG, sanitize=False)
    assert metrics_to_jsonable(fast_metrics) == point["metrics"]
    assert fast_events == wheel_events
    # Both sanitized runs really engaged the sanitizer.
    assert len(forced_sanitize) == 2
