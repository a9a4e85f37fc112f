"""End-to-end request tracing: one causal timeline per service run.

The paper's whole method is cycle accounting, and PRs 3-5 applied that
discipline *inside* a run.  This module applies it to everything above
the engine: a submitted scenario crosses the HTTP parser, dedup, the
asyncio queue, batch assembly, a thread executor and a worker process
before :class:`~repro.sim.engine.SimulationEngine` ever runs, and each
hop gets a span here.

Dependency-free by design (stdlib only, like the rest of the repo):

* :class:`Span` -- one finished stage: ``trace_id`` / ``span_id`` /
  ``parent_id``, a wall-clock anchor (``time.time()``, comparable
  across processes on one host), a monotonically measured ``duration``
  (``time.perf_counter()`` delta, immune to clock steps), a status and
  free-form attributes.
* :class:`SpanTracer` -- thread-safe ring-buffered collector.  Spans
  open as :class:`ActiveSpan` context managers and record on close;
  finished spans (e.g. a worker's ``worker.run``/``engine.simulate``,
  built in the parent from the run's
  :class:`~repro.experiments.runner.Execution`) deposit via
  :meth:`SpanTracer.record`.  A disabled tracer hands out a shared
  no-op span, so call sites never branch and the untraced path stays
  allocation-free.
* :func:`stitch_chrome_trace` -- renders the service spans as Chrome
  trace events and, when given a run's intra-run engine export
  (:func:`repro.obs.export.chrome_trace`), linearly maps its cycle
  timestamps onto the execute span's wall-clock window, producing one
  Perfetto-loadable JSON from HTTP request down to per-cycle bus
  accounting.
* :func:`check_chrome_events` -- the one Chrome-event schema check,
  shared by the service and export tests and CI's timeline step.
* :func:`render_waterfall` -- terminal waterfall of a stitched trace
  with the queue-wait / execute / serve breakdown (``repro trace``).

Stitching semantics (the documented rounding): service timestamps are
microseconds relative to the trace's earliest span, rounded to 3
decimals; engine events keep their relative order exactly and are
scaled by ``anchor_seconds / exec_cycles`` so the engine timeline spans
precisely its anchor span's measured wall time.  Cross-process span
starts use the wall clock, so sub-millisecond skew between processes
on one host is possible and tolerated; durations are always monotonic.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "SERVICE_PID",
    "ActiveSpan",
    "Span",
    "SpanTracer",
    "check_chrome_events",
    "new_span_id",
    "new_trace_id",
    "render_waterfall",
    "spans_chrome_events",
    "stitch_chrome_trace",
]

#: Chrome-trace process id of the service track.  The engine export owns
#: pids 0-2 (cpu/mshr/bus, see :mod:`repro.obs.tracer`); the service
#: track sits well clear so stitched traces never collide.
SERVICE_PID = 10

#: Default ring capacity: spans kept in memory per tracer.
DEFAULT_SPAN_CAPACITY = 4096


def new_trace_id() -> str:
    """A fresh 64-bit trace id (16 hex chars)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 32-bit span id (8 hex chars)."""
    return os.urandom(4).hex()


@dataclass
class Span:
    """One finished stage of a traced request.

    Attributes:
        name: stage name from the catalogue (``request.parse``,
            ``submit``, ``queue.wait``, ``batch.assemble``,
            ``executor.dispatch``, ``execute``, ``worker.run``,
            ``engine.simulate``, ``result.serve``, ...).
        trace_id: the run's (or request's) trace this span belongs to.
        span_id / parent_id: causal identity; ``parent_id`` is the
            preceding stage's span id (None for a root span).
        start: wall-clock anchor, ``time.time()`` seconds.
        duration: measured seconds (monotonic delta; 0 for instants).
        status: ``"ok"`` or ``"error"``.
        attributes: free-form JSON-safe detail (dedup result, batch
            size, cache state, pid, ...).
    """

    name: str
    trace_id: str
    span_id: str = field(default_factory=new_span_id)
    parent_id: str | None = None
    start: float = 0.0
    duration: float = 0.0
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; :meth:`from_dict` reads it back."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


class ActiveSpan:
    """An open span: context manager, annotatable, ended exactly once.

    ``duration`` is measured with ``time.perf_counter()`` so a stepped
    wall clock cannot produce negative or inflated stage times; the
    wall-clock ``start`` is only the timeline anchor.
    """

    def __init__(self, tracer: "SpanTracer | None", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._t0 = time.perf_counter()
        self._ended = False

    @property
    def span_id(self) -> str:
        return self.span.span_id

    @property
    def trace_id(self) -> str:
        return self.span.trace_id

    def annotate(self, **attributes: Any) -> "ActiveSpan":
        """Attach attributes to the span (chainable)."""
        self.span.attributes.update(attributes)
        return self

    def end(self, status: str | None = None) -> Span:
        """Close the span (idempotent) and record it; returns it."""
        if not self._ended:
            self._ended = True
            self.span.duration = time.perf_counter() - self._t0
            if status is not None:
                self.span.status = status
            if self._tracer is not None:
                self._tracer.record(self.span)
        return self.span

    def __enter__(self) -> "ActiveSpan":
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        self.end(status="error" if exc_type is not None else None)


class _NullSpan(ActiveSpan):
    """Shared no-op span handed out by a disabled tracer.

    Keeps every call site branch-free: ``annotate``/``end`` do nothing,
    ids are empty strings, and nothing is ever recorded.
    """

    def __init__(self) -> None:
        super().__init__(None, Span(name="", trace_id="", span_id=""))
        self._ended = True

    def annotate(self, **attributes: Any) -> "ActiveSpan":
        return self

    def end(self, status: str | None = None) -> Span:
        return self.span


_NULL_SPAN = _NullSpan()


class SpanTracer:
    """Thread-safe ring-buffered span collector.

    Args:
        capacity: most spans retained (oldest evicted first); evictions
            are counted in :attr:`dropped`, never silent.
        enabled: a disabled tracer records nothing and hands out the
            shared no-op span, so the untraced path costs one attribute
            check per stage.

    Attributes:
        on_record: optional callback fired (outside the lock) for every
            recorded span -- the service hooks its per-stage latency
            histogram here so ``/metrics`` and the trace always agree.
    """

    def __init__(
        self, capacity: int = DEFAULT_SPAN_CAPACITY, enabled: bool = True
    ) -> None:
        self.enabled = enabled
        self.capacity = max(1, capacity)
        self.on_record: Callable[[Span], None] | None = None
        self._ring: deque[Span] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._recorded = 0

    # -------------------------------------------------------------- recording

    def begin(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None = None,
        **attributes: Any,
    ) -> ActiveSpan:
        """Open a span; close it with ``end()`` or as a context manager."""
        if not self.enabled:
            return _NULL_SPAN
        return ActiveSpan(
            self,
            Span(
                name=name,
                trace_id=trace_id,
                parent_id=parent_id,
                start=time.time(),
                attributes=dict(attributes),
            ),
        )

    def record(self, span: Span) -> None:
        """Deposit one finished span (no-op when disabled)."""
        if not self.enabled or not span.trace_id:
            return
        with self._lock:
            self._ring.append(span)
            self._recorded += 1
        if self.on_record is not None:
            try:
                self.on_record(span)
            except Exception:
                pass  # observability must never fail the caller

    # ---------------------------------------------------------------- queries

    def spans(self, trace_id: str | None = None) -> list[Span]:
        """Retained spans, oldest first, optionally for one trace."""
        with self._lock:
            out = list(self._ring)
        if trace_id is not None:
            out = [s for s in out if s.trace_id == trace_id]
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def recorded(self) -> int:
        """Total spans ever recorded (including since-evicted ones)."""
        with self._lock:
            return self._recorded

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring by capacity pressure."""
        with self._lock:
            return self._recorded - len(self._ring)


# ---------------------------------------------------------------- export


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def spans_chrome_events(spans: Iterable[Span], t0: float) -> list[dict[str, Any]]:
    """Service spans as Chrome ``"X"`` events on the service track.

    ``ts`` is microseconds relative to ``t0`` (the trace's earliest
    span start), rounded to 3 decimals -- nanosecond resolution, far
    below wall-clock accuracy.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": SERVICE_PID,
            "tid": 0,
            "args": {"name": "service"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": SERVICE_PID,
            "tid": 0,
            "args": {"name": "request"},
        },
    ]
    for span in spans:
        args: dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "status": span.status,
        }
        if span.parent_id:
            args["parent_id"] = span.parent_id
        args.update(span.attributes)
        events.append(
            {
                "name": span.name,
                "cat": "service",
                "ph": "X",
                "ts": max(0.0, _us(span.start - t0)),
                "dur": _us(span.duration),
                "pid": SERVICE_PID,
                "tid": 0,
                "args": args,
            }
        )
    return events


def _event_problem(event: dict[str, Any]) -> str | None:
    phase = event.get("ph")
    if phase not in ("M", "X", "i"):
        return f"unknown phase {phase!r}"
    if phase == "M":
        if event.get("name") not in ("process_name", "thread_name"):
            return "metadata event is neither process_name nor thread_name"
        if "name" not in event.get("args", {}):
            return "metadata event without args.name"
        return None
    missing = [key for key in ("name", "ph", "ts", "pid", "tid") if key not in event]
    if missing:
        return f"missing {', '.join(missing)}"
    if phase == "X" and not event.get("dur", -1) >= 0:
        return "complete event without a non-negative dur"
    if phase == "i" and event.get("s") != "t":
        return "instant event not thread-scoped (s != 't')"
    return None


def check_chrome_events(events: Any) -> None:
    """Schema-check a Chrome trace's ``traceEvents`` list.

    Every event is ``M`` metadata (``process_name``/``thread_name`` with
    ``args.name``), an ``X`` complete event or an ``i`` instant; ``X``
    and ``i`` carry name/ph/ts/pid/tid, complete events have
    ``dur >= 0`` and instants are thread-scoped (``s == "t"``).  Holds
    for both the engine export and :func:`stitch_chrome_trace`.  Raises
    :class:`ValueError` naming the first bad event.
    """
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents missing or empty")
    for event in events:
        problem = _event_problem(event)
        if problem is not None:
            raise ValueError(f"bad trace event ({problem}): {event}")


#: Stage names eligible to anchor the engine sub-trace, most precise
#: first: the worker's simulate span, then its whole run, then the
#: scheduler-side execute span.
_ANCHOR_NAMES = ("engine.simulate", "worker.run", "execute")


def _pick_anchor(spans: list[Span]) -> Span | None:
    for name in _ANCHOR_NAMES:
        candidates = [s for s in spans if s.name == name and s.duration > 0]
        if candidates:
            return max(candidates, key=lambda s: s.duration)
    return None


def stitch_chrome_trace(
    spans: Iterable[Span],
    engine_trace: dict[str, Any] | None = None,
    label: str = "repro",
) -> dict[str, Any]:
    """One Perfetto-loadable document: service spans + engine timeline.

    The engine export's timestamps are simulated cycles starting at 0;
    they are mapped linearly onto the anchor span's wall-clock window
    (``us_per_cycle = anchor_seconds * 1e6 / exec_cycles``), so the
    engine track starts where its ``execute``/``worker.run`` span
    starts and ends where it ends.  Relative cycle accounting inside
    the engine track is exact -- only the affine placement is derived.
    """
    span_list = sorted(spans, key=lambda s: (s.start, s.name))
    t0 = min((s.start for s in span_list), default=0.0)
    events = spans_chrome_events(span_list, t0)
    other: dict[str, Any] = {
        "label": label,
        "timestamp_unit": "microseconds",
        "service_spans": len(span_list),
        "trace_id": span_list[0].trace_id if span_list else None,
    }
    if engine_trace is not None:
        anchor = _pick_anchor(span_list)
        engine_other = engine_trace.get("otherData", {})
        exec_cycles = int(engine_other.get("exec_cycles") or 0)
        if anchor is not None and exec_cycles > 0:
            scale = anchor.duration * 1e6 / exec_cycles
            offset = max(0.0, (anchor.start - t0) * 1e6)
        else:
            scale = 1.0
            offset = 0.0
        for event in engine_trace.get("traceEvents", ()):
            if event.get("ph") == "M":
                events.append(event)
                continue
            mapped = dict(event)
            mapped["ts"] = round(offset + event.get("ts", 0) * scale, 3)
            if "dur" in event:
                mapped["dur"] = round(event["dur"] * scale, 3)
            events.append(mapped)
        other["engine"] = {
            "exec_cycles": exec_cycles,
            "anchor": anchor.name if anchor is not None else None,
            "anchor_seconds": round(anchor.duration, 6) if anchor is not None else None,
            "us_per_cycle": round(scale, 9),
            "source": engine_other,
        }
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


# ------------------------------------------------------------- waterfall


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def render_waterfall(doc: dict[str, Any], width: int = 40) -> str:
    """Terminal waterfall of a stitched trace document.

    Rows are the service spans in start order, each with a
    proportionally placed bar; the footer breaks the timeline into the
    queue-wait / execute / serve buckets operators actually ask about.
    """
    rows = [
        e
        for e in doc.get("traceEvents", ())
        if e.get("cat") == "service" and e.get("ph") == "X"
    ]
    other = doc.get("otherData", {})
    lines = [
        f"trace {other.get('trace_id') or '?'} -- {other.get('label') or 'repro'} "
        f"({len(rows)} service spans)"
    ]
    if not rows:
        lines.append("  (no service spans recorded)")
        return "\n".join(lines)
    rows.sort(key=lambda e: (e.get("ts", 0), e.get("name", "")))
    t_end = max(e.get("ts", 0) + e.get("dur", 0) for e in rows)
    span_width = max(1.0, t_end)
    name_width = max(len(e.get("name", "")) for e in rows)
    for event in rows:
        ts = event.get("ts", 0)
        dur = event.get("dur", 0)
        lead = int(width * ts / span_width)
        bar = max(1, int(width * dur / span_width))
        bar = min(bar, width - min(lead, width - 1))
        marker = "!" if event.get("args", {}).get("status") == "error" else ""
        lines.append(
            f"  {event.get('name', '?'):<{name_width}}  "
            f"{' ' * lead}{'#' * bar:<{width - lead}} "
            f"{_fmt_seconds(dur / 1e6)}{marker}"
        )
    buckets = {
        "queue-wait": ("queue.wait",),
        "execute": ("execute",),
        "serve": ("result.serve",),
    }
    total = t_end / 1e6
    parts = []
    for bucket, names in buckets.items():
        took = sum(e.get("dur", 0) for e in rows if e.get("name") in names) / 1e6
        share = f" ({100 * took / total:.0f}%)" if total > 0 else ""
        parts.append(f"{bucket} {_fmt_seconds(took)}{share}")
    lines.append(f"  breakdown: {', '.join(parts)} over {_fmt_seconds(total)}")
    engine = other.get("engine")
    if engine and engine.get("exec_cycles"):
        lines.append(
            f"  engine: {engine['exec_cycles']:,} cycles under "
            f"{engine.get('anchor')} ({engine.get('us_per_cycle')} us/cycle)"
        )
    return "\n".join(lines)
