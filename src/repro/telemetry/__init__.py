"""Fleet-level experiment telemetry.

Where :mod:`repro.obs` looks *inside one simulation* (event taps,
timelines, windowed counters), this package looks *across runs*: what
the experiment fleet is doing right now and what it has done before.

* :mod:`~repro.telemetry.ledger` -- append-only JSONL run ledger: one
  structured record per simulation (identity, outcome, cache status,
  wall time, result summary) plus a query API.
* :mod:`~repro.telemetry.heartbeat` -- live worker heartbeats and the
  parent-side fleet monitor (progress + ETA, heartbeat-silence stall
  flags).
* :mod:`~repro.telemetry.registry` -- dependency-free counters, gauges
  and histograms with Prometheus-text and JSON export.
* :mod:`~repro.telemetry.drift` -- paper-drift detection: replay the
  key Tullsen & Eggers comparisons against tolerance bands.
* :mod:`~repro.telemetry.fleet` -- :class:`TelemetryConfig` (the knob
  bundle ``ExperimentRunner.run_many`` accepts, ``job_timeout`` -- the
  one deadline for a pool worker -- included) and the per-job probe.
* :mod:`~repro.telemetry.tracing` -- end-to-end request tracing:
  dependency-free spans (trace/span/parent ids), a ring-buffered
  collector, and Chrome-trace stitching of service stages over the
  intra-run engine timeline.
* :mod:`~repro.telemetry.timeseries` -- append-only JSONL time-series
  store: periodic registry + ledger snapshots with delta-aware counter
  reads across restarts, windowed histogram re-aggregation, and
  downsampling for sparklines/dashboards.
* :mod:`~repro.telemetry.slo` -- declarative SLO rules (TOML/JSON)
  with threshold and burn-rate evaluation over any stored series; the
  continuous serve-loop evaluator and the ``repro slo check``
  regression sentinel share it.

Telemetry is strictly opt-in: a runner without a
:class:`~repro.telemetry.fleet.TelemetryConfig` takes its original
code paths and produces bit-identical results.
"""

from repro.telemetry.drift import (
    FULL_FRAME,
    QUICK_FRAME,
    Band,
    DriftCheck,
    DriftFrame,
    DriftReport,
    evaluate,
    run_drift,
    summaries_from_ledger,
)
from repro.telemetry.fleet import FleetError, JobFailure, TelemetryConfig
from repro.telemetry.heartbeat import (
    EngineSampler,
    FleetMonitor,
    Heartbeat,
    HeartbeatSender,
    JobProgress,
)
from repro.telemetry.ledger import (
    DEFAULT_LEDGER_DIR,
    LEDGER_SCHEMA_VERSION,
    LedgerEntry,
    RunLedger,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.telemetry.slo import (
    SloReport,
    SloResult,
    SloRule,
    default_rules,
    evaluate_slo,
    load_rules,
)
from repro.telemetry.timeseries import (
    DEFAULT_TSDB_DIR,
    TSDB_SCHEMA_VERSION,
    TimeSeriesStore,
    downsample,
    ledger_families,
    seed_bench_history,
)
from repro.telemetry.tracing import (
    ActiveSpan,
    Span,
    SpanTracer,
    new_span_id,
    new_trace_id,
    render_waterfall,
    stitch_chrome_trace,
)

__all__ = [
    "ActiveSpan",
    "Band",
    "Counter",
    "DEFAULT_LEDGER_DIR",
    "DEFAULT_TSDB_DIR",
    "DriftCheck",
    "DriftFrame",
    "DriftReport",
    "EngineSampler",
    "FULL_FRAME",
    "FleetError",
    "FleetMonitor",
    "Gauge",
    "Heartbeat",
    "HeartbeatSender",
    "Histogram",
    "JobFailure",
    "JobProgress",
    "LEDGER_SCHEMA_VERSION",
    "LedgerEntry",
    "MetricsRegistry",
    "QUICK_FRAME",
    "RunLedger",
    "SloReport",
    "SloResult",
    "SloRule",
    "Span",
    "SpanTracer",
    "TSDB_SCHEMA_VERSION",
    "TelemetryConfig",
    "TimeSeriesStore",
    "default_rules",
    "downsample",
    "evaluate",
    "evaluate_slo",
    "ledger_families",
    "load_rules",
    "new_span_id",
    "new_trace_id",
    "quantile_from_buckets",
    "render_waterfall",
    "run_drift",
    "seed_bench_history",
    "stitch_chrome_trace",
    "summaries_from_ledger",
]
