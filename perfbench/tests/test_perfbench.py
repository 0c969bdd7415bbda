"""The benchmark's own tests: span arithmetic, profile attribution,
a tiny-scale smoke run of every workload, and the correctness gate.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import trace
from perfbench.workloads import WORKLOADS, expected_points

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Horizons shrunk 20x: every workload finishes in seconds.
TINY = "0.05"


def span(id_, parent, start, end, name="s", layer="harness", pid=1,
         profile=None):
    out = {"id": id_, "parent": parent, "start": start, "end": end,
           "name": name, "layer": layer, "pid": pid,
           "cpu_start": 0.0, "cpu_end": 0.0}
    if profile is not None:
        out["profile"] = profile
    return out


class TestSelfTime:
    def test_nested_tree(self):
        spans = [span("r", None, 0.0, 10.0),
                 span("a", "r", 1.0, 4.0),
                 span("b", "r", 5.0, 9.0),
                 span("c", "b", 6.0, 7.0)]
        own = trace.self_times(spans)
        assert own == pytest.approx({"r": 3.0, "a": 3.0, "b": 3.0, "c": 1.0})

    def test_forked_worker_children_overlap(self):
        # Two pool workers (pids 2 and 3) run points under the parent's
        # sweep span at the same time; only the union is subtracted.
        spans = [span("1-1", None, 0.0, 10.0, name="sweep", pid=1),
                 span("2-1", "1-1", 1.0, 6.0, name="point", pid=2),
                 span("3-1", "1-1", 2.0, 8.0, name="point", pid=3),
                 span("1-2", "1-1", 8.5, 9.0, name="cache_put", pid=1)]
        own = trace.self_times(spans)
        assert own["1-1"] == pytest.approx(10.0 - 7.0 - 0.5)
        assert own["2-1"] == pytest.approx(5.0)
        assert own["3-1"] == pytest.approx(6.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("p", None, 0.0, 2.0), span("c", "p", 1.5, 3.0)]
        assert trace.self_times(spans)["p"] == pytest.approx(1.5)

    def test_profile_splits_a_point(self):
        spans = [span("r", None, 0.0, 10.0),
                 span("pt", "r", 0.0, 8.0, profile={"sim": 3.0, "core": 1.0}),
                 span("sm", "pt", 6.0, 8.0, name="summarize",
                      layer="metrics")]
        layers = trace.layer_self_times(spans)
        # The point's 6 s of self time split 3:1; summarize keeps its 2 s.
        assert layers["sim"] == pytest.approx(4.5)
        assert layers["core"] == pytest.approx(1.5)
        assert layers["metrics"] == pytest.approx(2.0)
        assert layers["harness"] == pytest.approx(2.0)
        assert sum(layers.values()) == pytest.approx(10.0)


class TestProfileAttribution:
    def test_layers_by_module(self):
        assert trace.layer_of_file("/x/src/repro/sim/engine.py") == "sim"
        assert trace.layer_of_file(
            "/x/src/repro/experiments/executor.py") == "harness"
        assert trace.layer_of_file("/x/src/repro/units.py") == "other"
        assert trace.layer_of_file(trace.__file__) == "trace"
        assert trace.layer_of_file("/usr/lib/python3/heapq.py") is None

    def test_builtins_charge_their_callers(self):
        engine = ("/s/repro/sim/engine.py", 1, "run")
        parts = ("/s/repro/systems/parts.py", 9, "loop")
        push = ("~", 0, "<built-in method _heapq.heappush>")
        stats = {
            engine: (1, 1, 2.0, 9.0, {}),
            parts: (1, 1, 1.0, 3.0, {engine: (1, 1, 1.0, 3.0)}),
            push: (4, 4, 4.0, 4.0, {engine: (3, 3, 3.0, 3.0),
                                    parts: (1, 1, 1.0, 1.0)}),
        }
        layers = trace.profile_by_layer(stats)
        assert layers == pytest.approx({"sim": 5.0, "systems": 2.0})


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0.1",
         "--setup-launches", "1", "--scale-factor", TINY, *args],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("traced", ["0", "1"])
def test_smoke_prints_every_metric(workload, traced):
    proc = bench("--workload", workload, "--seed", "7", "--trace", traced)
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    wanted = SPEC["per_layer" if traced == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    values = {name: m["value"] for name, m in out["metrics"].items()}
    if traced == "0":
        assert all(v > 0 for v in values.values())
    else:
        assert values["sim.events"] > 0 and values["failed_frac"] == 0
        assert values["harness.points"] == sum(
            expected_points(f) for f in WORKLOADS[workload].figures)
        # Forked workers' point spans reach the parent.
        assert values["harness.worker_busy_frac"] > 0.2
        assert 0.5 < values["trace.profile_coverage"] <= 1.0 + 1e-9
        if WORKLOADS[workload].jobs == 1:
            # Serial: the layers' self times partition the traced wall.
            layers = sum(v for k, v in values.items() if k.endswith(".self_s"))
            assert layers == pytest.approx(values["trace.wall_s"], rel=1e-3)
        if workload == "fig6-fixed1us":
            assert values["core.preemption_arms"] == 0
        if WORKLOADS[workload].cold_cache:
            assert values["harness.cache_put_s"] > 0
            assert values["harness.ledger_s"] > 0


def test_perturbed_reference_fails_the_run(tmp_path):
    from perfbench.session import one_rep
    from perfbench.workloads import Run
    workload = WORKLOADS["fig6-fixed1us"]
    run = Run(workload, tmp_path)
    rep = one_rep(run, workload, 7, workload.scale * float(TINY))
    points = dict(rep.digests)
    key = sorted(points)[3]
    points[key] = "0" * 64
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({workload.name: {
        "figures": rep.figure_digests, "points": points}}))

    proc = bench("--workload", workload.name, "--seed", "7", "--trace", "1",
                 "--reference", str(reference))
    assert proc.returncode != 0
    out = result(proc)
    assert out["correct"] is False
    assert out["failed"] >= 1
    assert out["metrics"]["failed_frac"]["value"] > 0
    assert key in proc.stderr

    # The unperturbed reference passes.
    points[key] = rep.digests[key]
    reference.write_text(json.dumps({workload.name: {
        "figures": rep.figure_digests, "points": points}}))
    proc = bench("--workload", workload.name, "--seed", "7", "--trace", "0",
                 "--reference", str(reference))
    assert proc.returncode == 0, proc.stderr


def test_reference_pins_the_fig2_golden():
    from perfbench.make_reference import FIG2_GOLDEN
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert reference["fig2-bimodal"]["figures"]["fig2"] == FIG2_GOLDEN
    for name, workload in WORKLOADS.items():
        assert len(reference[name]["points"]) == sum(
            expected_points(f) for f in workload.figures)


def test_missing_program_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2-bimodal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
