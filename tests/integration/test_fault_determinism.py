"""Fault injection is deterministic and cache-sound.

Same seed + same :class:`FaultPlan` must produce bit-identical
``RunMetrics`` across the serial, parallel, and cached execution
paths; a null plan (or no plan) must change nothing relative to the
pre-fault golden fixture; and the result-cache key must distinguish
plans so a faulty run can never be served from a clean run's entry.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    ResultCache,
    make_executor,
    metrics_from_jsonable,
    metrics_to_jsonable,
    spec_cache_key,
)
from repro.experiments.harness import RunConfig
from repro.faults.plan import FaultPlan, parse_fault_spec
from repro.units import ms, us
from repro.workload.distributions import Fixed

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "4"))

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "registry_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

CLEAN = RunConfig(seed=11, horizon_ns=ms(0.6), warmup_ns=ms(0.1))
DIST = Fixed(us(2.0))
RATE = 180e3

#: A plan touching every fault class plus the full recovery surface.
CHAOS_SPEC = ("link-loss=0.05,link-corrupt=0.02,link-reorder=0.05,"
              "feedback-loss=0.2,crash=1@300,stall=0@150+100,"
              "timeout-us=150,retries=2,backoff-us=10,stale-after-us=50")


def _spec(name, faults, config=CLEAN, rate=RATE):
    if faults is not None:
        config = RunConfig(seed=config.seed, horizon_ns=config.horizon_ns,
                           warmup_ns=config.warmup_ns, faults=faults)
    return PointSpec(factory=ConfiguredFactory.by_name(name), rate_rps=rate,
                     distribution=DIST, config=config, label=name)


@pytest.mark.parametrize("name", ["shinjuku-offload", "shinjuku", "rss"])
def test_same_plan_same_seed_bit_identical_serial(name):
    plan = parse_fault_spec(CHAOS_SPEC)
    executor = make_executor()
    first = metrics_to_jsonable(executor.run_point(_spec(name, plan)))
    second = metrics_to_jsonable(executor.run_point(_spec(name, plan)))
    assert first == second
    assert first["faults"] is not None


def test_serial_parallel_and_cache_agree_under_faults(tmp_path):
    plan = parse_fault_spec(CHAOS_SPEC)
    names = ["shinjuku-offload", "shinjuku", "rss", "workstealing"]
    specs = [_spec(name, plan) for name in names]

    serial = [metrics_to_jsonable(m)
              for m in make_executor().run_points(specs)]
    parallel = [metrics_to_jsonable(m)
                for m in make_executor(jobs=JOBS).run_points(specs)]
    assert serial == parallel

    cache = ResultCache(tmp_path / "cache")
    filler = make_executor(cache_dir=cache.root)
    filler.run_points(specs)
    assert filler.stats.points_run == len(specs)
    reader = make_executor(cache_dir=cache.root)
    cached = [metrics_to_jsonable(m) for m in reader.run_points(specs)]
    assert reader.stats.points_cached == len(specs)
    assert reader.stats.events_executed == 0
    assert cached == serial


def test_fault_summary_survives_cache_round_trip():
    plan = parse_fault_spec("link-loss=0.1,retries=1")
    metrics = make_executor().run_point(_spec("shinjuku-offload", plan))
    assert metrics.faults is not None
    clone = metrics_from_jsonable(metrics_to_jsonable(metrics))
    assert clone == metrics
    assert clone.faults == metrics.faults


def test_null_plan_equals_no_plan():
    """An all-defaults FaultPlan wires nothing and perturbs nothing."""
    executor = make_executor()
    clean = metrics_to_jsonable(executor.run_point(
        _spec("shinjuku-offload", None)))
    null = metrics_to_jsonable(executor.run_point(
        _spec("shinjuku-offload", FaultPlan())))
    assert clean == null
    assert "faults" not in clean


def test_null_plan_keeps_golden_fixture_bit_identical():
    """Every pre-fault golden point survives `faults=FaultPlan()`."""
    config = RunConfig(seed=GOLDEN["seed"],
                       horizon_ns=float.fromhex(GOLDEN["horizon_ns"]),
                       warmup_ns=float.fromhex(GOLDEN["warmup_ns"]),
                       faults=FaultPlan())
    assert repr(DIST) == GOLDEN["distribution"]
    executor = make_executor()
    from repro.config import ShinjukuOffloadConfig
    points = GOLDEN["systems"]["shinjuku-offload"]
    factory = ConfiguredFactory.by_name(
        "shinjuku-offload",
        ShinjukuOffloadConfig(workers=4, outstanding_per_worker=4))
    for point in points:
        spec = PointSpec(factory=factory,
                         rate_rps=float.fromhex(point["rate_rps"]),
                         distribution=DIST, config=config,
                         label="shinjuku-offload")
        got = metrics_to_jsonable(executor.run_point(spec))
        assert got == point["metrics"]


def test_cache_key_distinguishes_plans():
    clean = _spec("shinjuku", None)
    null = _spec("shinjuku", FaultPlan())
    faulty = _spec("shinjuku", parse_fault_spec("link-loss=0.1"))
    faultier = _spec("shinjuku", parse_fault_spec("link-loss=0.2"))
    keys = [spec_cache_key(s) for s in (clean, null, faulty, faultier)]
    assert all(keys)
    assert len(set(keys)) == 4


def test_plans_ride_into_parallel_workers():
    """FaultPlan pickles through the process pool and still injects."""
    plan = parse_fault_spec("link-loss=0.1,retries=1")
    spec = _spec("shinjuku-offload", plan)
    serial = metrics_to_jsonable(make_executor().run_point(spec))
    parallel = metrics_to_jsonable(
        make_executor(jobs=2).run_points([spec, spec])[0])
    assert serial == parallel
    assert serial["faults"]["link_drops"] + \
        serial["faults"]["link_corruptions"] > 0
