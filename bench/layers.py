"""Per-layer spans, recorded from outside the program.

A traced run patches the layers' public functions at the sites where
the pipeline looks them up -- module attributes such as
``repro.experiments.runner.simulate`` and methods of public classes
such as ``ResultDiskCache.load`` -- with wrappers that record one span
per call into a :class:`repro.telemetry.tracing.SpanTracer`.  The
program's files are untouched and uninstalling restores every original
object, so the traced and untraced runs execute the same code.

A span's *self time* is its duration minus the durations of the spans
it directly encloses on the same thread; a layer's self time is the sum
over its spans (the layer is the span name's first dotted part).  With
one root span around a measured phase, the self times of all spans sum
to that phase's wall time.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.telemetry.tracing import Span, SpanTracer, new_trace_id, spans_chrome_events

#: Spans kept for the Chrome trace; totals and counters cover every span.
SPAN_CAPACITY = 20_000

After = Callable[["LayerTracer", Span, tuple, Any], None]


class _Open:
    __slots__ = ("name", "active", "children")

    def __init__(self, name: str, active: Any) -> None:
        self.name = name
        self.active = active
        self.children = 0.0


class LayerTracer:
    """Span recorder with per-name totals; disabled, every call is a no-op.

    Attributes:
        totals: ``{span name: [calls, total seconds, self seconds]}``.
        counters: work counts taken at the same call boundaries.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans = SpanTracer(capacity=SPAN_CAPACITY, enabled=enabled)
        self.trace_id = new_trace_id()
        self.totals: dict[str, list[float]] = {}
        self.counters: Counter[str] = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tids: dict[int, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -------------------------------------------------------------- spans

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._tids.setdefault(ident, len(self._tids))

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Any]:
        """Record ``name`` around the block (nothing when disabled)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        active = self.spans.begin(
            name,
            self.trace_id,
            parent_id=parent.active.span_id if parent is not None else None,
            tid=self._tid(),
            **attributes,
        )
        opened = _Open(name, active)
        stack.append(opened)
        status = "ok"
        try:
            yield active
        except BaseException:
            status = "error"
            raise
        finally:
            stack.pop()
            span = active.end(status=status)
            self_s = span.duration - opened.children
            span.attributes["self_s"] = round(self_s, 9)
            if parent is not None:
                parent.children += span.duration
            with self._lock:
                row = self.totals.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += span.duration
                row[2] += self_s

    def parent_name(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1].name if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # ----------------------------------------------------------- wrapping

    def wrap(self, owner: Any, attr: str, name: str, after: After | None = None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper (classmethods kept)."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name) as active:
                result = func(*args, **kwargs)
            if after is not None:
                after(tracer, active.span, args, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every program site for the block, then restore them."""
        if self.enabled:
            for site in program_sites():
                self.wrap(*site)
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(self._patches):
                setattr(owner, attr, raw)
            self._patches.clear()

    # ---------------------------------------------------------- reporting

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        """Self seconds of one span name, or of a whole layer."""
        return sum(
            row[2]
            for span_name, row in self.totals.items()
            if span_name == name or span_name.split(".", 1)[0] == name
        )

    def layers(self) -> dict[str, dict[str, Any]]:
        """``{layer: {self_s, calls, spans: {name: {calls, total_s, self_s}}}}``."""
        out: dict[str, dict[str, Any]] = {}
        for name, (calls, total, own) in sorted(self.totals.items()):
            layer = out.setdefault(name.split(".", 1)[0], {"self_s": 0.0, "calls": 0, "spans": {}})
            layer["self_s"] += own
            layer["calls"] += int(calls)
            layer["spans"][name] = {"calls": int(calls), "total_s": total, "self_s": own}
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics measurable from the wrapped call sites."""
        c = self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        insert_s = self.self_s("prefetch.insert")
        load_calls = self.calls("diskcache.load")
        simulations = self.calls("sim.simulate") + self.calls("telemetry.job")
        lookups = self.calls("runner.clean_trace") + self.calls("telemetry.job")
        return {
            "workloads.generate_s": self.self_s("workloads.generate"),
            "workloads.generate_calls": self.calls("workloads.generate"),
            "prefetch.insert_s": insert_s,
            "prefetch.insert_calls": self.calls("prefetch.insert"),
            "prefetch.inserted": c["prefetch.inserted"],
            "prefetch.insert_us_per_event": ratio(insert_s * 1e6, c["prefetch.events_in"]),
            "sim.simulate_s": self.self_s("sim"),
            "sim.events": c["sim.fast_events"] + c["sim.observed_events"],
            "sim.events_per_s": ratio(c["sim.fast_events"], c["sim.fast_run_s"]),
            "sim.observed_events_per_s": ratio(c["sim.observed_events"], c["sim.observed_run_s"]),
            "obs.reconcile_s": self.self_s("obs.reconcile"),
            "obs.export_s": self.self_s("obs.export"),
            "analysis.attribute_s": self.self_s("analysis.attribute"),
            "analysis.advise_s": self.self_s("analysis.advise"),
            "metrics.to_dict_s": self.self_s("metrics.to_dict"),
            "metrics.from_dict_s": self.self_s("metrics.from_dict"),
            "metrics.from_dict_calls": self.calls("metrics.from_dict"),
            "diskcache.load_s": self.self_s("diskcache.load"),
            "diskcache.load_calls": load_calls,
            "diskcache.hit_ratio": ratio(c["diskcache.hits"], load_calls),
            "diskcache.store_s": self.self_s("diskcache.store"),
            "diskcache.store_calls": self.calls("diskcache.store"),
            "diskcache.content_key_s": self.self_s("diskcache.content_key"),
            "runner.self_s": self.self_s("runner"),
            "runner.memo_hits": max(0, c["runner.requests"] - c["runner.disk_hits"] - simulations),
            "runner.trace_cache_hit_ratio": ratio(
                lookups - self.calls("workloads.generate"), lookups
            ),
            "telemetry.ledger_append_s": self.self_s("telemetry.ledger_append"),
            "telemetry.ledger_appends": self.calls("telemetry.ledger_append"),
            "telemetry.tsdb_snapshot_s": self.self_s("telemetry.tsdb_snapshot"),
        }

    def state(self) -> dict[str, Any]:
        """JSON-safe totals, counters and retained spans (crosses processes)."""
        return {
            "totals": self.totals,
            "counters": dict(self.counters),
            "spans": [span.to_dict() for span in self.spans.spans()],
        }

    def absorb(self, state: dict[str, Any]) -> None:
        """Add another process's totals and counters to this tracer's."""
        for name, (calls, total, own) in state["totals"].items():
            row = self.totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        self.counters.update(state["counters"])


# ------------------------------------------------------------ program sites


def _after_insert(tracer: LayerTracer, span: Span, args: tuple, result: Any) -> None:
    tracer.count("prefetch.inserted", result[1].inserted)
    tracer.count("prefetch.events_in", sum(len(cpu.events) for cpu in args[0]))


def _after_engine_run(tracer: LayerTracer, span: Span, args: tuple, result: Any) -> None:
    engine = args[0]
    path = "observed" if engine.sim_config.observe else "fast"
    tracer.count(f"sim.{path}_events", sum(proc.pc for proc in engine.procs))
    tracer.count(f"sim.{path}_run_s", span.duration)


def _after_load(tracer: LayerTracer, span: Span, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.count("diskcache.hits")
        if (tracer.parent_name() or "").startswith("runner."):
            tracer.count("runner.disk_hits")


def _after_run_many(tracer: LayerTracer, span: Span, args: tuple, result: Any) -> None:
    tracer.count("runner.requests", len(result))


def _after_run(tracer: LayerTracer, span: Span, args: tuple, result: Any) -> None:
    if tracer.parent_name() != "runner.run_many":
        tracer.count("runner.requests")


def program_sites() -> list[tuple[Any, str, str, After | None]]:
    """Every wrapped call site: ``(owner, attribute, span name, after)``."""
    import repro.analysis as analysis
    from repro.analysis import dynamic
    from repro.experiments import runner
    from repro.metrics.results import RunMetrics
    from repro.obs import export
    from repro.obs.sampler import ObsReport
    from repro.perf.diskcache import ResultDiskCache
    from repro.service import contracts
    from repro.sim.engine import SimulationEngine
    from repro.telemetry import drift, fleet
    from repro.telemetry.ledger import RunLedger
    from repro.telemetry.timeseries import TimeSeriesStore

    return [
        (runner, "generate_workload", "workloads.generate", None),
        (fleet, "generate_workload", "workloads.generate", None),
        (runner, "insert_prefetches", "prefetch.insert", _after_insert),
        (fleet, "insert_prefetches", "prefetch.insert", _after_insert),
        (runner, "simulate", "sim.simulate", None),
        (SimulationEngine, "run", "sim.run", _after_engine_run),
        (RunMetrics, "to_dict", "metrics.to_dict", None),
        (RunMetrics, "from_dict", "metrics.from_dict", None),
        (ResultDiskCache, "load", "diskcache.load", _after_load),
        (ResultDiskCache, "store", "diskcache.store", None),
        (runner, "content_key", "diskcache.content_key", None),
        (contracts, "content_key", "diskcache.content_key", None),
        (runner.ExperimentRunner, "run_many", "runner.run_many", _after_run_many),
        (runner.ExperimentRunner, "run", "runner.run", _after_run),
        (runner.ExperimentRunner, "clean_trace", "runner.clean_trace", None),
        (runner, "run_telemetered_job", "telemetry.job", None),
        (RunLedger, "append", "telemetry.ledger_append", None),
        (TimeSeriesStore, "append_snapshot", "telemetry.tsdb_snapshot", None),
        (drift, "evaluate", "drift.evaluate", None),
        (ObsReport, "reconcile", "obs.reconcile", None),
        (export, "write_chrome_trace", "obs.export", None),
        (dynamic, "attribute_lines", "analysis.attribute", None),
        (dynamic, "cross_reference", "analysis.cross_reference", None),
        (analysis, "advise", "analysis.advise", None),
    ]


# ------------------------------------------------------------------ export


def chrome_trace(groups: list[tuple[str, list[Span]]], other: dict[str, Any]) -> dict[str, Any]:
    """One Chrome trace document: a process track per ``(label, spans)`` group.

    Events come from :func:`repro.telemetry.tracing.spans_chrome_events`
    on one shared time origin; each group gets its own pid and each
    span's recorded ``tid`` attribute becomes its thread row, so spans
    from different threads never overlap on one track.
    """
    t0 = min((s.start for _, spans in groups for s in spans), default=0.0)
    events: list[dict[str, Any]] = []
    for pid, (label, spans) in enumerate(groups, start=1):
        for event in spans_chrome_events(spans, t0):
            event["pid"] = pid
            if event["ph"] == "M":
                event["args"] = {"name": label}
            else:
                event["tid"] = event["args"].pop("tid", 0)
                event["cat"] = event["name"].split(".", 1)[0]
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def write_json(path: Path, doc: dict[str, Any]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
