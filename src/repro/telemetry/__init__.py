"""Fleet-level experiment telemetry.

Where :mod:`repro.obs` looks *inside one simulation* (event taps,
timelines, windowed counters), this package looks *across runs*: what
the experiment fleet is doing right now and what it has done before.

* :mod:`~repro.telemetry.jsonl` -- the append-only JSONL store: the one
  single-write appender and torn-line-tolerant reader behind the run
  ledger and the time-series store.
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

Telemetry never changes a result: ``run_many`` without a
:class:`~repro.telemetry.fleet.TelemetryConfig` runs a disabled one on
the same path (no ledger, heartbeats, monitor or deadline), and its
results are bit-identical to a telemetered batch's.
"""
