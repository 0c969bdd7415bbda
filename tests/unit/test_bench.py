"""Regression tests for the ``repro bench`` recording harness.

Three contracts guard the perf trajectory:

1. every artifact ``repro bench`` writes is schema-valid JSON
   (:func:`~repro.bench.recorder.validate_artifact` finds nothing);
2. records are deterministic modulo the :data:`TIMING_FIELDS` — two
   runs of the same suite differ only in wall-clock numbers, never in
   counters, fingerprints, or the metrics digest;
3. ``--compare`` flags a synthetic >=20% events/sec slowdown and any
   metrics-digest drift between comparable runs.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import (
    DEFAULT_THRESHOLD,
    compare_last,
    compare_records,
    render_comparison,
)
from repro.bench.recorder import (
    ARTIFACT_SCHEMA,
    BenchOptions,
    TIMING_FIELDS,
    artifact_filename,
    load_artifact,
    measure_suite,
    record_suite,
    save_artifact,
    validate_artifact,
)
from repro.cli import main

#: Small enough for a unit test, large enough to execute real events.
_OPTIONS = BenchOptions(scale=0.02)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Two recordings of the engine suite into one artifact."""
    directory = tmp_path_factory.mktemp("bench")
    first = record_suite("engine", _OPTIONS, artifact_dir=directory)
    second = record_suite("engine", _OPTIONS, artifact_dir=directory)
    return first, second


class TestArtifactSchema:
    def test_recorded_artifact_is_schema_valid(self, recorded):
        _first, second = recorded
        on_disk = json.loads(second.path.read_text(encoding="utf-8"))
        assert validate_artifact(on_disk) == []
        assert on_disk["schema"] == ARTIFACT_SCHEMA
        assert on_disk["name"] == "engine"
        assert len(on_disk["runs"]) == 2

    def test_cli_bench_writes_valid_artifact(self, tmp_path, capsys):
        assert main(["bench", "engine", "--scale", "0.02",
                     "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "events/sec" in out and "digest" in out
        path = tmp_path / artifact_filename("engine")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert validate_artifact(data) == []

    def test_validator_rejects_corruption(self, recorded):
        _first, second = recorded
        good = json.loads(second.path.read_text(encoding="utf-8"))
        bad_schema = dict(good, schema=ARTIFACT_SCHEMA + 1)
        assert validate_artifact(bad_schema)
        bad_run = json.loads(json.dumps(good))
        del bad_run["runs"][0]["metrics_digest"]
        assert any("metrics_digest" in p for p in validate_artifact(bad_run))
        bad_digest = json.loads(json.dumps(good))
        bad_digest["runs"][0]["metrics_digest"] = "zz"
        assert any("sha256" in p for p in validate_artifact(bad_digest))


class TestDeterminismModuloTiming:
    def test_back_to_back_records_differ_only_in_timing(self, recorded):
        first, second = recorded
        a = first.record.to_jsonable()
        b = second.record.to_jsonable()
        for field in TIMING_FIELDS:
            a.pop(field), b.pop(field)
        assert a == b

    def test_digest_is_identical_across_runs(self, recorded):
        first, second = recorded
        assert first.record.metrics_digest == second.record.metrics_digest

    def test_measure_without_recording_matches(self, recorded):
        record, _payload = measure_suite("engine", _OPTIONS)
        _first, second = recorded
        assert record.metrics_digest == second.record.metrics_digest
        assert record.events == second.record.events
        assert record.points == second.record.points


class TestCompareFlagsSlowdown:
    @staticmethod
    def _slowed(record, factor):
        """A synthetic follow-up record, slower by *factor*."""
        slow = record.to_jsonable()
        slow["events_per_sec"] = record.events_per_sec * (1.0 - factor)
        slow["points_per_sec"] = record.points_per_sec * (1.0 - factor)
        slow["wall_s"] = record.wall_s / (1.0 - factor)
        return slow

    def test_synthetic_25_percent_slowdown_is_flagged(self, recorded):
        first, _second = recorded
        comparison = compare_records(first.record.to_jsonable(),
                                     self._slowed(first.record, 0.25))
        assert comparison.comparable
        assert comparison.regression and not comparison.ok
        assert "REGRESSION" in render_comparison(comparison)

    def test_slowdown_inside_threshold_passes(self, recorded):
        first, _second = recorded
        comparison = compare_records(first.record.to_jsonable(),
                                     self._slowed(first.record, 0.1))
        assert comparison.ok and not comparison.regression
        assert comparison.threshold == DEFAULT_THRESHOLD

    def test_digest_drift_is_flagged_even_when_faster(self, recorded):
        first, _second = recorded
        drifted = first.record.to_jsonable()
        drifted["events_per_sec"] *= 2.0
        drifted["metrics_digest"] = "0" * 64
        comparison = compare_records(first.record.to_jsonable(), drifted)
        assert comparison.drift and not comparison.ok
        assert "DRIFT" in render_comparison(comparison)

    def test_incomparable_runs_get_no_verdict(self, recorded):
        first, _second = recorded
        other = first.record.to_jsonable()
        other["environment"] = dict(other["environment"], scale=0.5)
        comparison = compare_records(first.record.to_jsonable(), other)
        assert not comparison.comparable
        assert "scale" in comparison.differences
        assert not comparison.regression  # no verdict without comparability
        assert "no verdict" in render_comparison(comparison)

    def test_cli_compare_exits_nonzero_on_slowdown(self, recorded,
                                                   tmp_path, capsys):
        first, _second = recorded
        # Seed an artifact whose baseline is impossibly fast, then let
        # the CLI record a real run on top: guaranteed >20% "slowdown".
        fast = first.record.to_jsonable()
        fast["events_per_sec"] = first.record.events_per_sec * 1e6
        path = tmp_path / artifact_filename("engine")
        save_artifact(path, {"schema": ARTIFACT_SCHEMA, "name": "engine",
                             "runs": [fast]})
        assert main(["bench", "engine", "--scale", "0.02",
                     "--dir", str(tmp_path), "--compare"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_compare_passes_on_identical_work(self, recorded,
                                                  tmp_path, capsys):
        assert main(["bench", "engine", "--scale", "0.02",
                     "--dir", str(tmp_path)]) == 0
        assert main(["bench", "engine", "--scale", "0.02",
                     "--dir", str(tmp_path), "--threshold", "0.99",
                     "--compare"]) == 0
        assert "ok: bit-identical metrics" in capsys.readouterr().out

    def test_compare_last_needs_two_runs(self, tmp_path):
        run = record_suite("engine", _OPTIONS, artifact_dir=tmp_path)
        assert compare_last(run.artifact) is None
        again = record_suite("engine", _OPTIONS, artifact_dir=tmp_path)
        comparison = compare_last(again.artifact)
        assert comparison is not None and comparison.comparable


class TestBaselineSelectionAndFingerprint:
    def test_compare_last_skips_incomparable_smoke_run(self, recorded):
        """A one-off smoke run at different knobs between two proper
        runs must not eat the comparison: the scan walks back to the
        most recent comparable baseline."""
        first, second = recorded
        smoke = first.record.to_jsonable()
        smoke["environment"] = dict(smoke["environment"], scale=0.5)
        artifact = {"schema": ARTIFACT_SCHEMA, "name": "engine",
                    "runs": [first.record.to_jsonable(), smoke,
                             second.record.to_jsonable()]}
        comparison = compare_last(artifact)
        assert comparison is not None and comparison.comparable
        assert not comparison.drift

    def test_compare_last_reports_knobs_when_nothing_matches(self,
                                                             recorded):
        first, second = recorded
        smoke = first.record.to_jsonable()
        smoke["environment"] = dict(smoke["environment"], scale=0.5)
        artifact = {"schema": ARTIFACT_SCHEMA, "name": "engine",
                    "runs": [smoke, second.record.to_jsonable()]}
        comparison = compare_last(artifact)
        assert comparison is not None and not comparison.comparable
        assert "scale" in comparison.differences

    def test_legacy_record_defaults_fastpath_off(self, recorded):
        """Pre-fast-path artifacts carry no ``fastpath`` env key; they
        compare as exact ("off") runs, not as incomparable."""
        first, _second = recorded
        legacy = first.record.to_jsonable()
        legacy["environment"] = {k: v
                                 for k, v in legacy["environment"].items()
                                 if k != "fastpath"}
        comparison = compare_records(legacy, first.record.to_jsonable())
        assert comparison.comparable

    def test_legacy_fastpath_record_is_incomparable(self, recorded):
        """Records taken with the removed approximate mode did other
        simulated work: no verdict, and never read as digest drift."""
        first, _second = recorded
        fast = first.record.to_jsonable()
        fast["environment"] = dict(fast["environment"], fastpath="auto")
        fast["metrics_digest"] = "0" * 64
        comparison = compare_records(first.record.to_jsonable(), fast)
        assert not comparison.comparable
        assert comparison.differences["fastpath"] == ("off", "auto")
        assert not comparison.regression
        assert not comparison.drift
        assert "not comparable" in render_comparison(comparison)

    def test_host_mismatch_is_caveat_not_bar(self, recorded):
        first, _second = recorded
        moved = first.record.to_jsonable()
        moved["environment"] = dict(moved["environment"],
                                    python="9.9.9", machine="riscv128")
        comparison = compare_records(first.record.to_jsonable(), moved)
        assert comparison.comparable  # same work: verdict stands
        assert set(comparison.host_differences) == {"python", "machine"}
        assert "caveat" in render_comparison(comparison)


class TestArtifactIo:
    def test_load_artifact_rejects_invalid(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("not json", encoding="utf-8")
        assert load_artifact(path) is None
        path.write_text(json.dumps({"schema": 99, "name": "x",
                                    "runs": []}), encoding="utf-8")
        assert load_artifact(path) is None

    def test_append_replaces_mismatched_artifact(self, tmp_path):
        path = tmp_path / artifact_filename("engine")
        save_artifact(path, {"schema": ARTIFACT_SCHEMA, "name": "other",
                             "runs": []})
        run = record_suite("engine", _OPTIONS, artifact_dir=tmp_path)
        assert run.artifact["name"] == "engine"
        assert len(run.artifact["runs"]) == 1
