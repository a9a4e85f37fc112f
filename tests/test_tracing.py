"""Tests for request tracing (`repro.telemetry.tracing`).

Covers span identity and round-trip, the ActiveSpan lifecycle (timing,
annotation, error status, idempotent end), the ring-buffered tracer
(capacity eviction accounting, disabled no-op path, the on_record hook
that keeps /metrics and the trace in agreement), the Chrome-trace
export and engine stitching math (the documented linear cycle-to-wall
mapping), the terminal waterfall, and span propagation from a worker
process over the heartbeat queue into a parent-side tracer.
"""

from __future__ import annotations

import queue as queue_module

import pytest

from repro.common.config import MachineConfig, SimulationConfig
from repro.experiments.runner import ExperimentRunner, RunJob, execute, process_trace
from repro.obs.export import chrome_trace
from repro.prefetch.strategies import PREF
from repro.telemetry.fleet import Probe, TelemetryConfig
from repro.telemetry.heartbeat import FleetMonitor
from repro.telemetry.tracing import (
    SERVICE_PID,
    ActiveSpan,
    Span,
    SpanTracer,
    new_span_id,
    new_trace_id,
    render_waterfall,
    spans_chrome_events,
    stitch_chrome_trace,
)


class TestSpanIdentity:
    def test_id_shapes(self):
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8
        assert new_trace_id() != new_trace_id()
        int(new_trace_id(), 16)  # hex

    def test_round_trip(self):
        span = Span(
            name="execute", trace_id="t" * 16, parent_id="p" * 8,
            start=123.5, duration=0.25, status="error",
            attributes={"run_id": "abc", "batch": 3},
        )
        again = Span.from_dict(span.to_dict())
        assert again == span

    def test_from_dict_ignores_unknown_keys(self):
        span = Span.from_dict(
            {"name": "submit", "trace_id": "t" * 16, "exporter": "otel-ish"}
        )
        assert span.name == "submit"
        assert span.span_id  # defaulted

    def test_from_dict_missing_required_raises(self):
        with pytest.raises(TypeError):
            Span.from_dict({"name": "orphan"})


class TestActiveSpan:
    def test_lifecycle_records_once(self):
        tracer = SpanTracer()
        active = tracer.begin("submit", "t" * 16, run_id="r1")
        active.annotate(result="new").end()
        active.end(status="error")  # idempotent: first end wins
        (span,) = tracer.spans()
        assert span.name == "submit"
        assert span.status == "ok"
        assert span.attributes == {"run_id": "r1", "result": "new"}
        assert span.duration >= 0
        assert tracer.recorded == 1

    def test_context_manager_sets_error_status(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.begin("request.parse", "t" * 16):
                raise RuntimeError("bad json")
        (span,) = tracer.spans()
        assert span.status == "error"

    def test_parent_chain(self):
        tracer = SpanTracer()
        parent = tracer.begin("request.parse", "t" * 16)
        child = tracer.begin("request.validate", "t" * 16, parent_id=parent.span_id)
        child.end()
        parent.end()
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["request.validate"].parent_id == parent.span_id
        assert by_name["request.parse"].parent_id is None


class TestSpanTracer:
    def test_disabled_tracer_is_inert(self):
        tracer = SpanTracer(enabled=False)
        active = tracer.begin("execute", "t" * 16)
        assert active.span_id == ""
        assert active.annotate(x=1) is active
        active.end()
        tracer.record(Span(name="x", trace_id="t" * 16))
        tracer.record_dict({"name": "y", "trace_id": "t" * 16})
        assert tracer.spans() == []
        assert tracer.recorded == 0

    def test_disabled_begin_returns_shared_instance(self):
        tracer = SpanTracer(enabled=False)
        assert tracer.begin("a", "t") is tracer.begin("b", "t")

    def test_ring_capacity_evicts_oldest_and_counts(self):
        tracer = SpanTracer(capacity=3)
        for i in range(5):
            tracer.record(Span(name=f"s{i}", trace_id="t" * 16))
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]
        assert len(tracer) == 3
        assert tracer.recorded == 5
        assert tracer.dropped == 2

    def test_spans_filters_by_trace(self):
        tracer = SpanTracer()
        tracer.record(Span(name="a", trace_id="t1"))
        tracer.record(Span(name="b", trace_id="t2"))
        assert [s.name for s in tracer.spans("t2")] == ["b"]

    def test_record_skips_empty_trace_id(self):
        tracer = SpanTracer()
        tracer.record(Span(name="a", trace_id=""))
        assert tracer.recorded == 0

    def test_record_dict_tolerates_garbage(self):
        tracer = SpanTracer()
        tracer.record_dict({"unexpected": True})
        tracer.record_dict({"name": "ok", "trace_id": "t" * 16})
        assert [s.name for s in tracer.spans()] == ["ok"]

    def test_on_record_hook_fires_and_swallows_exceptions(self):
        tracer = SpanTracer()
        seen: list[tuple[str, float]] = []

        def hook(span: Span) -> None:
            seen.append((span.name, span.duration))
            raise ValueError("histogram exploded")

        tracer.on_record = hook
        tracer.begin("queue.wait", "t" * 16).end()
        tracer.record(Span(name="execute", trace_id="t" * 16, duration=0.5))
        assert [name for name, _ in seen] == ["queue.wait", "execute"]
        assert len(tracer) == 2  # the hook's exception never lost a span


class TestChromeExport:
    def _spans(self):
        return [
            Span(name="submit", trace_id="t" * 16, span_id="a" * 8,
                 start=100.0, duration=0.001),
            Span(name="execute", trace_id="t" * 16, span_id="b" * 8,
                 parent_id="a" * 8, start=100.001, duration=2.0,
                 attributes={"batch": 1}),
        ]

    def test_service_events_schema(self):
        events = spans_chrome_events(self._spans(), t0=100.0)
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {"service", "request"}
        xs = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["submit", "execute"]
        assert xs[0]["ts"] == 0.0
        assert xs[0]["dur"] == 1000.0  # 1 ms in us
        assert xs[1]["ts"] == 1000.0  # relative to t0, us
        assert all(e["pid"] == SERVICE_PID for e in xs)
        assert xs[1]["args"]["parent_id"] == "a" * 8
        assert xs[1]["args"]["batch"] == 1

    def test_stitch_without_engine(self):
        doc = stitch_chrome_trace(self._spans(), label="Water/PREF@4c")
        other = doc["otherData"]
        assert other["timestamp_unit"] == "microseconds"
        assert other["service_spans"] == 2
        assert other["trace_id"] == "t" * 16
        assert "engine" not in other

    def test_stitch_maps_engine_cycles_onto_anchor_window(self):
        """The documented affine mapping, checked against hand math."""
        spans = self._spans() + [
            Span(name="worker.run", trace_id="t" * 16, start=100.002,
                 duration=1.5),
            Span(name="engine.simulate", trace_id="t" * 16, start=100.01,
                 duration=1.0),
        ]
        engine = {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                 "args": {"name": "cpu"}},
                {"name": "bus", "ph": "X", "ts": 0, "dur": 500,
                 "pid": 2, "tid": 0},
                {"name": "fill", "ph": "i", "ts": 1000, "pid": 0, "tid": 0,
                 "s": "t"},
            ],
            "otherData": {"exec_cycles": 1000, "timestamp_unit": "cycles"},
        }
        doc = stitch_chrome_trace(spans, engine, label="x")
        info = doc["otherData"]["engine"]
        # engine.simulate (most precise anchor) wins over worker.run.
        assert info["anchor"] == "engine.simulate"
        assert info["exec_cycles"] == 1000
        # 1.0s over 1000 cycles -> 1000 us/cycle.
        assert info["us_per_cycle"] == pytest.approx(1000.0)
        mapped = {e["name"]: e for e in doc["traceEvents"] if e["ph"] != "M"
                  and e.get("cat") != "service"}
        offset = (100.01 - 100.0) * 1e6  # anchor start relative to t0
        assert mapped["bus"]["ts"] == pytest.approx(offset)
        assert mapped["bus"]["dur"] == pytest.approx(500 * 1000.0)
        assert mapped["fill"]["ts"] == pytest.approx(offset + 1000 * 1000.0)
        # Metadata events cross unscaled.
        assert any(e["ph"] == "M" and e["pid"] == 0 for e in doc["traceEvents"])

    def test_stitch_falls_back_to_execute_anchor(self):
        doc = stitch_chrome_trace(
            self._spans(),
            {"traceEvents": [], "otherData": {"exec_cycles": 100}},
        )
        assert doc["otherData"]["engine"]["anchor"] == "execute"

    def test_real_engine_trace_stitches(self):
        """Integration: a real observed run's export maps cleanly."""
        runner = ExperimentRunner(
            num_cpus=2, scale=0.02, sim_config=SimulationConfig(observe=True)
        )
        result = runner.run("Water", PREF, MachineConfig(num_cpus=2))
        engine = chrome_trace(result.obs, label="Water/PREF")
        spans = [
            Span(name="execute", trace_id="t" * 16, start=10.0, duration=0.5)
        ]
        doc = stitch_chrome_trace(spans, engine, label="Water/PREF")
        info = doc["otherData"]["engine"]
        assert info["exec_cycles"] == result.exec_cycles
        xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert {e["pid"] for e in xs} >= {SERVICE_PID, 2}  # service + bus
        last = max(
            e["ts"] + e.get("dur", 0)
            for e in doc["traceEvents"]
            if e.get("ph") in ("X", "i") and e.get("cat") != "service"
        )
        # The engine timeline ends within its anchor's 0.5s window.
        assert last <= 0.5 * 1e6 + 1.0


class TestWaterfall:
    def test_renders_rows_and_breakdown(self):
        spans = [
            Span(name="queue.wait", trace_id="t" * 16, start=1.0, duration=0.1),
            Span(name="execute", trace_id="t" * 16, start=1.1, duration=0.8,
                 status="error"),
            Span(name="result.serve", trace_id="t" * 16, start=2.0,
                 duration=0.05),
        ]
        doc = stitch_chrome_trace(spans, label="demo")
        text = render_waterfall(doc)
        assert "trace " + "t" * 16 in text
        assert "queue.wait" in text and "execute" in text
        assert "!" in text  # error marker
        assert "breakdown:" in text
        assert "queue-wait" in text and "serve" in text

    def test_empty_doc(self):
        text = render_waterfall({"traceEvents": [], "otherData": {}})
        assert "no service spans" in text


def _probed_execution(beat_queue, trace_ctx=None) -> str:
    """Execute one small job under a probe; returns its label."""
    job = RunJob("Water", PREF, MachineConfig(num_cpus=2), num_cpus=2, scale=0.02)
    probe = Probe(0, job.label, queue=beat_queue, trace_ctx=trace_ctx)
    execute(job, SimulationConfig(), process_trace(job), probe)
    return job.label


class TestWorkerSpanPropagation:
    def test_worker_ships_spans_over_queue_into_sink(self):
        """worker.run + engine.simulate cross the heartbeat queue."""
        trace_id = new_trace_id()
        parent = new_span_id()
        beat_queue: queue_module.SimpleQueue = queue_module.SimpleQueue()
        label = _probed_execution(beat_queue, trace_ctx=(trace_id, parent))
        tracer = SpanTracer()
        monitor = FleetMonitor(beat_queue, {0: label}, span_sink=tracer.record_dict)
        monitor.tick()
        spans = {s.name: s for s in tracer.spans(trace_id)}
        assert set(spans) == {"worker.run", "engine.simulate"}
        worker = spans["worker.run"]
        engine = spans["engine.simulate"]
        assert worker.parent_id == parent
        assert engine.parent_id == worker.span_id
        assert engine.attributes["exec_cycles"] > 0
        assert worker.duration >= engine.duration > 0

    def test_no_trace_ctx_ships_no_spans(self):
        beat_queue: queue_module.SimpleQueue = queue_module.SimpleQueue()
        label = _probed_execution(beat_queue)
        tracer = SpanTracer()
        monitor = FleetMonitor(beat_queue, {0: label}, span_sink=tracer.record_dict)
        monitor.tick()
        assert tracer.spans() == []

    def test_trace_context_lookup(self):
        telemetry = TelemetryConfig(trace_contexts={"a" * 64: ("t" * 16, "p" * 8)})
        assert telemetry.trace_context("a" * 64) == ("t" * 16, "p" * 8)
        assert telemetry.trace_context("b" * 64) is None
        assert TelemetryConfig().trace_context("anything") is None
