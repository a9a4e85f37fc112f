"""Fleet plumbing: telemetry configuration, per-job probes and batch bookkeeping.

:class:`TelemetryConfig` is the one knob bundle a caller hands to
:meth:`repro.experiments.runner.ExperimentRunner.run_many`.  Without
one the runner uses a disabled config (``enabled=False``), on which
every hook is a no-op -- no heartbeat queue, monitor or sampler
threads, ``multiprocessing.Manager``, ledger or timeout -- so plain and
telemetered batches take the same execution path and return identical
results.  The config carries the ledger, progress rendering,
heartbeat and stall-flag tuning, the per-job timeout and the metrics
registry, and records every batch outcome (disk hit, fresh run,
failure) into them.  A traced point's ``worker.run`` and
``engine.simulate`` spans are built there too, in the parent, from the
readings its :class:`~repro.experiments.runner.Execution` carries home.

:class:`Probe` is what one telemetered execution runs under inside
:func:`repro.experiments.runner.execute`: a heartbeat sampler on the
running engine.  It is picklable, so the same probe rides to pool
workers.  :class:`FleetBatch` is the parent side of one batch: the
heartbeat queue, the :class:`FleetMonitor` and the progress line.

This module never imports the runner (the runner imports *us*); jobs
are the runner's :class:`~repro.experiments.runner.RunJob` objects,
used only through their identity fields.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.common.errors import ReproError
from repro.sim.engine import ENGINE_VERSION
from repro.telemetry.heartbeat import (
    DEFAULT_BEAT_INTERVAL,
    DEFAULT_STALL_TIMEOUT,
    EngineSampler,
    FleetMonitor,
    Heartbeat,
    HeartbeatSender,
    render_fleet_progress,
)
from repro.telemetry.ledger import LedgerEntry, RunLedger
from repro.telemetry.registry import MetricsRegistry

# Kept as module attributes for bench/layers.py, which wraps these names.
from repro.prefetch.insertion import insert_prefetches  # noqa: F401
from repro.workloads.registry import generate_workload  # noqa: F401

__all__ = [
    "FleetBatch",
    "FleetError",
    "JobFailure",
    "Probe",
    "TelemetryConfig",
    "export_cache_stats",
]


def export_cache_stats(registry: MetricsRegistry, stats: dict[str, int]) -> None:
    """Export a :meth:`ResultDiskCache.stats` snapshot as registry gauges.

    Shapes the cache's behaviour for ``/metrics`` scrapers:
    ``repro_cache_entries`` / ``repro_cache_bytes`` for the on-disk
    footprint and ``repro_cache_session_ops{op=...}`` for the
    per-session hit/miss/store/eviction counters.  Idempotent -- gauge
    families are created once and re-set on every call.
    """
    registry.gauge("repro_cache_entries", "Result disk-cache entries on disk").set(
        stats.get("entries", 0)
    )
    registry.gauge("repro_cache_bytes", "Result disk-cache bytes on disk").set(
        stats.get("bytes", 0)
    )
    ops = registry.gauge(
        "repro_cache_session_ops",
        "Disk-cache operations this session by kind",
        ("op",),
    )
    for op in ("hits", "misses", "stores", "evictions"):
        ops.set(stats.get(op, 0), op=op)


class FleetError(ReproError):
    """A batch finished with failed grid points.

    Carries the structured :class:`JobFailure` list so callers (CLI,
    tests) can report per-point causes instead of one opaque traceback,
    and ``results``: the batch in job order, None where a point failed.
    """

    def __init__(
        self, message: str, failures: list["JobFailure"], results: list[Any]
    ) -> None:
        super().__init__(message)
        self.failures = failures
        self.results = results


@dataclass(frozen=True)
class JobFailure:
    """One grid point that did not produce a result.

    Attributes:
        config_key: the point's content key (its identity in a batch).
        label: human-readable grid-point label.
        kind: ``"error"`` (the job raised, or its worker process died)
            or ``"timeout"`` (no result within ``job_timeout``).
        message: one-line cause.
    """

    config_key: str
    label: str
    kind: str
    message: str


@dataclass
class Probe:
    """The instrumentation one telemetered execution runs under.

    Picklable: pool workers receive a copy.  Attributes:
        index: the job's position in its batch (heartbeat routing).
        label: grid-point label carried by the heartbeats.
        queue: heartbeat queue (a manager proxy across processes);
            None sends no heartbeats.
        heartbeat_interval: seconds between heartbeats.
        execution: what the probed execution produced, filled in by
            :func:`repro.experiments.runner.execute`.
    """

    index: int
    label: str
    queue: Any = None
    heartbeat_interval: float = DEFAULT_BEAT_INTERVAL
    execution: Any = None

    def beat(self, phase: str) -> None:
        """Send one heartbeat naming this process (best-effort).

        Its pid is what :meth:`FleetBatch.kill` reads, so a worker sends
        one before any stage that could hang.
        """
        if self.queue is not None:
            HeartbeatSender(self.queue).emit(Heartbeat(self.index, self.label, os.getpid(), phase))

    @contextmanager
    def watch(self, engine: Any, total_events: int) -> Iterator[None]:
        """Run the block (the engine's run) under the heartbeat sampler."""
        if self.queue is None:
            yield
            return
        sender = HeartbeatSender(self.queue, self.heartbeat_interval)
        with EngineSampler(
            engine, sender, self.index, self.label, total_events, self.heartbeat_interval
        ):
            yield


@dataclass
class TelemetryConfig:
    """Everything a telemetered batch needs, in one bundle.

    The config itself never crosses a process boundary -- workers get
    only a :class:`Probe` -- so it may hold live objects (registry,
    ledger).

    Attributes:
        enabled: False makes every hook a no-op, in the style of
            ``SpanTracer(enabled=False)``; ``run_many`` without a
            config uses such a disabled one.
        ledger: run ledger to append to (None records nothing).
        progress: render the live fleet progress line to stderr.
        heartbeat_interval: seconds between worker heartbeats.
        stall_timeout: heartbeat silence before a job is flagged
            ``stalled`` (a report only; nothing is killed).
        job_timeout: the one deadline for a pool worker: seconds each
            pending job's result is awaited (None waits indefinitely).
            On expiry the job's worker is killed and the point recorded
            as a ``timeout`` failure.  Serial batches ignore it.
        registry: metrics registry updated with run/cache/event counts
            (a fresh one by default; share one across batches to
            aggregate a session).
        monitor_hook: called with the live
            :class:`~repro.telemetry.heartbeat.FleetMonitor` right after
            the batch builds it, so an embedding layer (the service
            scheduler) can read per-job heartbeat progress while the
            batch is in flight.  Exceptions from the hook are swallowed
            -- it is observability, never allowed to fail the batch.
            None (the default) changes nothing.
        trace_contexts: per-point trace propagation for end-to-end
            request tracing: ``{config_key: (trace_id, parent_span_id)}``.
            A fresh run of a point with a context gets ``worker.run`` /
            ``engine.simulate`` spans, built from its execution's
            readings (see :mod:`repro.telemetry.tracing`); points
            without one run untraced.  None (the default) traces nothing.
        span_sink: destination of those spans (each a
            :class:`~repro.telemetry.tracing.Span`); typically
            ``SpanTracer.record``.
    """

    enabled: bool = True
    ledger: RunLedger | None = None
    progress: bool = False
    heartbeat_interval: float = DEFAULT_BEAT_INTERVAL
    stall_timeout: float = DEFAULT_STALL_TIMEOUT
    job_timeout: float | None = None
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    monitor_hook: Callable[[Any], None] | None = None
    trace_contexts: dict[str, tuple[str, str | None]] | None = None
    span_sink: Callable[[Any], None] | None = None

    def trace_context(self, config_key: str) -> tuple[str, str | None] | None:
        """The ``(trace_id, parent_span_id)`` for a grid point, or None."""
        if self.trace_contexts is None:
            return None
        return self.trace_contexts.get(config_key)

    def metrics(self) -> dict[str, Any]:
        """The standard fleet metric families (created idempotently)."""
        return {
            "runs": self.registry.counter(
                "repro_runs_total", "Simulation runs by outcome", ("outcome",)
            ),
            "cache": self.registry.counter(
                "repro_cache_total", "Disk-cache lookups by result", ("result",)
            ),
            "events": self.registry.counter(
                "repro_events_total", "Trace events retired by fresh runs"
            ),
            "wall": self.registry.histogram(
                "repro_run_wall_seconds", "Wall time per fresh simulation run"
            ),
        }

    def batch(self, jobs: list[Any], parallel: bool) -> "FleetBatch":
        """The live telemetry around one batch's fresh executions."""
        return FleetBatch(self, jobs, parallel)

    # ------------------------------------------------------------ outcomes

    def record_hit(self, job: Any, result: Any, kind: str) -> None:
        """Count a resolved point: ``"memo"`` (runner memo) or ``"hit"`` (disk).

        Memo hits stay out of the ledger: they were ledgered when first
        simulated or disk-loaded.
        """
        if not self.enabled:
            return
        metrics = self.metrics()
        metrics["cache"].inc(result=kind)
        if kind == "hit":
            metrics["runs"].inc(outcome="ok")
            self._ledger(job, "ok", "hit", result=result)

    def record_run(self, job: Any, execution: Any, cache: str) -> None:
        """Record one fresh execution; ``cache`` is ``"miss"`` or ``"off"``.

        A traced point's ``worker.run`` span (the whole execution) and
        its ``engine.simulate`` child (the engine's share, which ends
        with it) go to :attr:`span_sink`.
        """
        if not self.enabled:
            return
        metrics = self.metrics()
        metrics["runs"].inc(outcome="ok")
        metrics["cache"].inc(result=cache)
        metrics["events"].inc(execution.events)
        metrics["wall"].observe(execution.wall_seconds)
        self._ledger(job, "ok", cache, result=execution.metrics, execution=execution)
        trace_ctx = self.trace_context(job.config_key)
        if trace_ctx is not None and self.span_sink is not None:
            from repro.telemetry.tracing import Span

            trace_id, parent_id = trace_ctx
            wall = execution.wall_seconds
            worker = Span(
                name="worker.run",
                trace_id=trace_id,
                parent_id=parent_id,
                start=execution.started_at,
                duration=wall,
                attributes={
                    "label": job.label,
                    "pid": execution.worker_pid,
                    "events": execution.events,
                },
            )
            self.span_sink(worker)
            self.span_sink(
                Span(
                    name="engine.simulate",
                    trace_id=trace_id,
                    parent_id=worker.span_id,
                    start=execution.started_at + wall - execution.simulate_seconds,
                    duration=execution.simulate_seconds,
                    attributes={
                        "label": job.label,
                        "total_events": execution.events,
                        "exec_cycles": execution.metrics.exec_cycles,
                    },
                )
            )

    def record_failure(self, job: Any, failure: JobFailure) -> None:
        """Record one failed grid point."""
        if not self.enabled:
            return
        self.metrics()["runs"].inc(outcome=failure.kind)
        self._ledger(job, failure.kind, "off", error=failure.message)

    def _ledger(
        self,
        job: Any,
        outcome: str,
        cache: str,
        result: Any = None,
        execution: Any = None,
        error: str | None = None,
    ) -> None:
        if self.ledger is None:
            return
        wall = execution.wall_seconds if execution is not None else 0.0
        events = execution.events if execution is not None else 0
        trace_ctx = self.trace_context(job.config_key)
        self.ledger.append(
            LedgerEntry(
                config_key=job.config_key,
                workload=job.workload,
                restructured=job.restructured,
                strategy=job.strategy.name,
                machine=job.machine.describe(),
                num_cpus=job.num_cpus,
                seed=job.seed,
                scale=job.scale,
                engine_version=ENGINE_VERSION,
                outcome=outcome,
                cache=cache,
                wall_seconds=round(wall, 6),
                events=events,
                events_per_sec=round(events / wall, 3) if wall > 0 else 0.0,
                worker_pid=execution.worker_pid if execution is not None else os.getpid(),
                error=error,
                summary=result.describe() if result is not None else {},
                trace_id=trace_ctx[0] if trace_ctx is not None else None,
            )
        )


class FleetBatch:
    """The parent side of one batch's fresh executions.

    Enabled, entering it builds the heartbeat queue (a manager queue
    when the batch fans over a process pool), the :class:`FleetMonitor`
    and the progress line.  Disabled, it
    builds nothing, :meth:`probe` returns None and every other method is
    a no-op.
    """

    def __init__(self, telemetry: TelemetryConfig, jobs: list[Any], parallel: bool) -> None:
        self.telemetry = telemetry
        self.jobs = jobs
        self.parallel = parallel
        self.monitor: FleetMonitor | None = None
        self._queue: Any = None
        self._manager: Any = None

    @property
    def timeout(self) -> float | None:
        """Per-job result deadline (None when disabled)."""
        return self.telemetry.job_timeout if self.telemetry.enabled else None

    def __enter__(self) -> "FleetBatch":
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self
        if self.parallel:
            import multiprocessing

            self._manager = multiprocessing.Manager()
            self._queue = self._manager.Queue()
        else:
            self._queue = queue_module.SimpleQueue()
        self.monitor = FleetMonitor(
            self._queue,
            {j: job.label for j, job in enumerate(self.jobs)},
            keys={j: job.config_key for j, job in enumerate(self.jobs)},
            stall_timeout=telemetry.stall_timeout,
            render=render_fleet_progress if telemetry.progress else None,
        )
        if telemetry.monitor_hook is not None:
            try:
                telemetry.monitor_hook(self.monitor)
            except Exception:
                pass  # the hook is observability; it never fails the batch
        self.monitor.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.monitor is None:
            return
        try:
            self.monitor.__exit__(*exc_info)
        finally:
            if self._manager is not None:
                self._manager.shutdown()
            if self.telemetry.progress:
                sys.stderr.write("\n")
                sys.stderr.flush()

    def probe(self, j: int) -> Probe | None:
        """The probe job ``j`` executes under (None when disabled)."""
        if self.monitor is None:
            return None
        job = self.jobs[j]
        return Probe(
            index=j,
            label=job.label,
            queue=self._queue,
            heartbeat_interval=self.telemetry.heartbeat_interval,
        )

    def done(self, j: int) -> None:
        """Mark job ``j`` finished, whatever its outcome."""
        if self.monitor is not None:
            self.monitor.mark_done(j)

    def kill(self, j: int) -> None:
        """SIGKILL job ``j``'s worker (known from its heartbeats), if any.

        A pool worker's first beat (``generate``) goes out before any
        stage of the job, so a started job always names its worker.
        Drains the heartbeat queue first, so a beat the monitor thread
        has not read yet still names the worker.
        """
        if self.monitor is None:
            return
        self.monitor.tick()
        pid = self.monitor.jobs[j].pid
        if pid:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
