"""Unit tests for the structured tracer."""

from repro.sim.trace import Tracer


class TestTracer:
    def test_records_time_and_fields(self, sim):
        tracer = Tracer(sim)
        sim.defer(10.0, lambda: tracer.emit("worker", "start", req=1))
        sim.run()
        records = list(tracer)
        assert len(records) == 1
        assert records[0].time == 10.0
        assert records[0].component == "worker"
        assert records[0].action == "start"
        assert records[0].fields == {"req": 1}

    def test_records_keep_emit_order_and_times(self, sim):
        tracer = Tracer(sim)
        for t in (30.0, 10.0, 20.0):
            sim.defer(t, lambda t=t: tracer.emit("c", "tick", at=t))
        sim.run()
        assert [(r.time, r.fields["at"]) for r in tracer] == [
            (10.0, 10.0), (20.0, 20.0), (30.0, 30.0)]
        assert len(tracer) == 3

    def test_field_filter_excludes_records_without_the_field(self, sim):
        tracer = Tracer(sim)
        tracer.emit("worker", "start", req=1)
        tracer.emit("worker", "idle")
        tracer.emit("worker", "start", req=2, core=0)
        assert [r.fields for r in tracer.records("worker", req=2)] == [
            {"req": 2, "core": 0}]
        assert tracer.records(core=1) == []

    def test_filtering(self, sim):
        tracer = Tracer(sim)
        tracer.emit("worker", "start", req=1)
        tracer.emit("worker", "finish", req=1)
        tracer.emit("dispatcher", "assign", req=2)
        assert len(tracer.records(component="worker")) == 2
        assert len(tracer.records(action="assign")) == 1
        assert len(tracer.records(component="worker", req=1)) == 2
        assert tracer.records(component="worker", req=99) == []

    def test_actions_helper(self, sim):
        tracer = Tracer(sim)
        tracer.emit("w", "a")
        tracer.emit("w", "b")
        assert tracer.actions(component="w") == ["a", "b"]

    def test_clear(self, sim):
        tracer = Tracer(sim)
        tracer.emit("w", "a")
        tracer.clear()
        assert len(tracer) == 0

    def test_dump_is_readable(self, sim):
        tracer = Tracer(sim)
        tracer.emit("worker", "start", req=5)
        dump = tracer.dump()
        assert "worker.start" in dump
        assert "req=5" in dump

