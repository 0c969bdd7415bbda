"""Cache-integrity tests: corruption is quarantined, never trusted.

The :class:`~repro.experiments.executor.ResultCache` stores a
SHA-256 checksum beside every entry and verifies it on read.  These
tests damage entries the ways real filesystems do — truncation, bit
flips, zero-length files, torn JSON — and assert the contract: the
corrupt bytes move to ``<root>/quarantine/``, the lookup misses, the
executor transparently recomputes the point, and the recomputed
metrics are bit-identical to the originals (the digest never moves).
"""

from __future__ import annotations

import json

from repro.experiments.executor import (
    CACHE_SCHEMA,
    ConfiguredFactory,
    PointSpec,
    ResultCache,
    make_executor,
    metrics_digest,
    spec_cache_key,
)
from repro.experiments.harness import RunConfig
from repro.systems.rpcvalet import RpcValetConfig, RpcValetSystem
from repro.units import ms, us
from repro.workload.distributions import Fixed

FACTORY = ConfiguredFactory(RpcValetSystem, RpcValetConfig(workers=2))


def _spec(rate: float = 100e3, seed: int = 1) -> PointSpec:
    config = RunConfig(seed=seed, horizon_ns=ms(2.0), warmup_ns=ms(0.5))
    return PointSpec(factory=FACTORY, rate_rps=rate,
                     distribution=Fixed(us(2.0)), config=config, label="sut")


def _populate(cache_dir, rates=(100e3, 200e3)):
    """Run a tiny sweep into a fresh cache; return (specs, metrics)."""
    executor = make_executor(cache_dir=cache_dir)
    specs = [_spec(rate=rate) for rate in rates]
    return specs, executor.run_points(specs)


class TestCorruptionKinds:
    def _assert_recovered(self, tmp_path, damage):
        """Damage the first entry with *damage*; assert the contract."""
        specs, baseline = _populate(tmp_path)
        target = ResultCache(tmp_path).path_for(spec_cache_key(specs[0]))
        damage(target)
        executor = make_executor(cache_dir=tmp_path)
        cache = executor.cache
        again = executor.run_points(specs)
        assert metrics_digest(again) == metrics_digest(baseline)
        assert executor.stats.points_quarantined == 1
        assert executor.stats.points_run == 1  # only the damaged point
        assert executor.stats.points_cached == 1
        assert len(cache.quarantine_log) == 1
        record = cache.quarantine_log[0]
        assert record.key == spec_cache_key(specs[0])
        assert record.path is not None and record.path.exists()
        assert record.path.parent == cache.quarantine_dir
        # The recompute rewrote a healthy entry in place.
        assert cache.get(record.key) is not None

    def test_truncated_entry(self, tmp_path):
        self._assert_recovered(
            tmp_path,
            lambda path: path.write_bytes(path.read_bytes()[:25]))

    def test_zero_length_entry(self, tmp_path):
        self._assert_recovered(tmp_path, lambda path: path.write_bytes(b""))

    def test_bit_flipped_entry(self, tmp_path):
        def flip(path):
            blob = bytearray(path.read_bytes())
            # Flip a bit inside the metrics payload, past the header so
            # the JSON still parses and only the checksum can catch it.
            digit_at = max(i for i, b in enumerate(blob)
                           if chr(b).isdigit())
            blob[digit_at] ^= 0x01
            path.write_bytes(bytes(blob))
            json.loads(blob)  # still well-formed JSON: checksum's job
        self._assert_recovered(tmp_path, flip)

    def test_garbage_bytes_entry(self, tmp_path):
        self._assert_recovered(
            tmp_path, lambda path: path.write_bytes(b"\x00\xff" * 40))

    def test_wrong_schema_type_entry(self, tmp_path):
        self._assert_recovered(
            tmp_path,
            lambda path: path.write_text(json.dumps({"schema": "banana"})))


class TestOldSchemaEntries:
    def test_old_schema_is_a_plain_miss_not_corruption(self, tmp_path):
        """An honest old-format entry re-runs without being quarantined."""
        specs, baseline = _populate(tmp_path, rates=(100e3,))
        cache = ResultCache(tmp_path)
        key = spec_cache_key(specs[0])
        path = cache.path_for(key)
        entry = json.loads(path.read_text())
        path.write_text(json.dumps({"schema": CACHE_SCHEMA - 1,
                                    "metrics": entry["metrics"]}))
        assert cache.get(key) is None
        assert cache.quarantine_log == []
        assert path.exists()  # left in place, not moved aside


class TestQuarantineMechanics:
    def test_quarantined_files_do_not_count_as_entries(self, tmp_path):
        specs, _ = _populate(tmp_path)
        cache = ResultCache(tmp_path)
        assert len(cache) == 2
        cache.path_for(spec_cache_key(specs[0])).write_bytes(b"")
        assert cache.get(spec_cache_key(specs[0])) is None
        assert len(cache) == 1
        assert list(cache.quarantine_dir.glob("*.corrupt"))

    def test_repeated_corruption_never_collides(self, tmp_path):
        specs, baseline = _populate(tmp_path, rates=(100e3,))
        key = spec_cache_key(specs[0])
        cache = ResultCache(tmp_path)
        for _ in range(3):
            cache.path_for(key).parent.mkdir(exist_ok=True)
            cache.path_for(key).write_bytes(b"junk")
            assert cache.get(key) is None
        names = sorted(p.name for p in cache.quarantine_dir.iterdir())
        assert names == [f"{key}.corrupt", f"{key}.corrupt.1",
                         f"{key}.corrupt.2"]

    def test_healthy_roundtrip_untouched(self, tmp_path):
        specs, baseline = _populate(tmp_path)
        cache = ResultCache(tmp_path)
        for spec, metrics in zip(specs, baseline):
            assert cache.get(spec_cache_key(spec)) == metrics
        assert cache.quarantine_log == []
        assert not cache.quarantine_dir.exists()
