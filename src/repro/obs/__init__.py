"""Cycle-level observability: event taps, timeline tracing, telemetry.

The paper's central result is a *dynamic* phenomenon -- prefetching
helps until the shared bus saturates, then hurts -- but aggregate
metrics cannot show *when* the bus saturates or whose prefetch stream
pushed it over.  This subsystem is the missing lens:

* :class:`~repro.obs.taps.EngineObserver` -- the flag-gated tap hub
  (enabled via ``SimulationConfig.observe``) that the engine and bus
  call wherever cycles are accounted; observed runs are bit-identical
  to unobserved ones.
* :class:`~repro.obs.tracer.TimelineTracer` -- a bounded ring buffer of
  typed spans and instants (bus occupancy slices, MSHR allocate-to-fill
  lifetimes, prefetch issue/merge/drop, coherence downgrades and
  invalidations, lock/barrier waits).
* :class:`~repro.obs.sampler.WindowedSampler` /
  :class:`~repro.obs.sampler.ObsReport` -- lossless per-window time
  series whose sums reconcile exactly with the end-of-run
  ``BusStats`` / ``CpuMetrics`` aggregates.
* :func:`~repro.obs.export.chrome_trace` -- Chrome trace-event JSON
  (Perfetto-loadable) export of the recorded timeline.
* :class:`~repro.obs.lineprof.LineProfiler` /
  :class:`~repro.obs.lineprof.LineProfile` -- per-cache-line heat
  attribution (misses by cause, stalls, bus slices, invalidation
  ping-pong, prefetch efficacy), enabled via
  ``SimulationConfig.observe_lines`` (a ``perf c2c`` analogue; see
  :mod:`repro.analysis.dynamic` for the structure-level report).

``python -m repro timeline`` drives a full run and emits both views;
``python -m repro c2c`` renders the per-line report;
:mod:`repro.experiments.saturation` builds the saturation-dynamics
experiment on top.
"""
