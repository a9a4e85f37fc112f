"""Asyncio run scheduler: dedup by content key, batch, execute, track.

The scheduler is the service's middle layer.  Submissions arrive as
frozen :class:`~repro.service.contracts.ScenarioSpec` objects; each is
folded by ``config_key`` against the store -- a million identical
submissions cost one simulation and N-1 increments of a dedup counter
-- and genuinely new work is queued.  A single worker coroutine drains
the queue, groups each batch by runner frame (num_cpus, seed, scale)
and drives :meth:`~repro.experiments.runner.ExperimentRunner.run_many`
once per frame in a thread-pool executor with fleet telemetry on: every
simulation is ledgered, counted in the shared metrics registry,
disk-cached, and streams heartbeats that :meth:`progress` surfaces per
run while it is in flight.

Execution is deliberately single-flight at the batch level (one
executor thread): parallelism lives *inside* ``run_many`` via its
process pool (``max_workers``), where it is safe and bit-reproducible.
Failures never wedge the queue -- a
:class:`~repro.telemetry.fleet.FleetError` is unpacked per grid point
by ``config_key``, failed runs surface ``failed`` with the structured
``[kind] message`` detail, and surviving points complete with the
results the error carries.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.common.config import SimulationConfig
from repro.common.errors import ReproError
from repro.experiments.runner import ExperimentRunner
from repro.metrics.results import RunMetrics
from repro.perf.diskcache import ResultDiskCache
from repro.service.contracts import RunMetadata, RunStatus, RunStore, ScenarioSpec, utc_now
from repro.service.store import InMemoryRunStore
from repro.telemetry.fleet import FleetError, JobFailure, TelemetryConfig
from repro.telemetry.ledger import RunLedger
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import (
    ActiveSpan,
    SpanTracer,
    new_trace_id,
    stitch_chrome_trace,
)

__all__ = ["RunScheduler", "c2c_report", "engine_trace"]

#: Frame key: the ExperimentRunner constructor arguments a spec pins.
_Frame = tuple[int, int, float]

#: The service's observed re-runs use the engine's default windows.
_OBSERVED = SimulationConfig()


def c2c_report(spec: ScenarioSpec) -> dict[str, Any]:
    """The ``?view=c2c`` document: ``spec``'s per-cache-line attribution."""
    from repro.analysis.dynamic import c2c_to_dict
    from repro.experiments.lineattr import profile_lines

    result, heats = profile_lines(spec.job(), _OBSERVED.observe_window)
    return c2c_to_dict(result.obs.lines, heats, label=spec.label)


def engine_trace(spec: ScenarioSpec) -> dict[str, Any]:
    """``spec``'s engine timeline as a Chrome-trace document."""
    from repro.experiments.lineattr import record_timeline
    from repro.obs.export import chrome_trace

    result = record_timeline(
        spec.job(), _OBSERVED.observe_window, _OBSERVED.observe_trace_capacity
    )
    return chrome_trace(result.obs, label=spec.label)


class RunScheduler:
    """Dedup-by-content-key job queue over the experiment runner.

    Args:
        store: run-state persistence (defaults to a fresh in-memory
            store; the service passes a ledger-hydrated one).
        registry: metrics registry shared with the HTTP layer's
            ``/metrics`` endpoint (fleet counters land here too).
        ledger: run ledger appended to by the telemetered runner.
        cache_dir: result disk cache directory (None disables).
        max_workers: process-pool width inside ``run_many``.
        job_timeout: per-run result deadline passed to the fleet layer.
        max_batch: most queued runs folded into one executor batch.
        sim_config: engine options applied to every run.
        tracer: end-to-end span tracer (see
            :mod:`repro.telemetry.tracing`).  None installs a disabled
            tracer: every stage call becomes a no-op and the untraced
            path stays byte-identical.
    """

    def __init__(
        self,
        store: RunStore | None = None,
        registry: MetricsRegistry | None = None,
        ledger: RunLedger | None = None,
        cache_dir: str | None = None,
        max_workers: int = 0,
        job_timeout: float | None = None,
        max_batch: int = 32,
        sim_config: SimulationConfig | None = None,
        tracer: SpanTracer | None = None,
    ) -> None:
        self.store: Any = store if store is not None else InMemoryRunStore()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ledger = ledger
        self.cache_dir = cache_dir
        self.max_workers = max_workers
        self.job_timeout = job_timeout
        self.max_batch = max(1, max_batch)
        self.sim_config = sim_config if sim_config is not None else SimulationConfig()
        self.tracer = tracer if tracer is not None else SpanTracer(enabled=False)
        #: One result cache shared by every runner, so its session
        #: counters stay monotone when the frame's runner is replaced.
        self._disk_cache = ResultDiskCache(cache_dir) if cache_dir else None
        #: The runner of the frame the last batch ran on.  Only the
        #: executor thread replaces it, so the memory a frame's traces
        #: and memo hold is freed when the service moves on to another.
        self._frame_runner: tuple[_Frame, ExperimentRunner] | None = None
        #: Decodes cached results for the event loop's result reads;
        #: it runs nothing, so it holds no trace.
        self._reader = ExperimentRunner(disk_cache=self._disk_cache, sim_config=self.sim_config)
        self._results: dict[str, RunMetrics] = {}
        self._c2c: dict[str, dict[str, Any]] = {}
        self._engine_traces: dict[str, dict[str, Any]] = {}
        self._queue_spans: dict[str, ActiveSpan] = {}
        self._busy = False
        self._queue: asyncio.Queue[str] = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-sim"
        )
        self._worker: asyncio.Task | None = None
        self._monitor: Any = None  # live FleetMonitor of the in-flight batch
        self._submissions = self.registry.counter(
            "repro_service_submissions_total",
            "Run submissions by dedup result",
            ("result",),
        )
        self._queue_depth = self.registry.gauge(
            "repro_service_queue_depth", "Runs queued but not yet executing"
        )
        self._runs_gauge = self.registry.gauge(
            "repro_service_runs", "Known runs by lifecycle status", ("status",)
        )
        self._refresh_run_gauge()

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Start the worker coroutine (idempotent)."""
        if self._worker is None or self._worker.done():
            self._worker = asyncio.create_task(self._drain(), name="repro-scheduler")

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait for the queue to empty and in-flight batches to finish.

        Graceful-shutdown support: polls until nothing is queued and no
        batch is executing, bounded by ``timeout`` seconds (None waits
        indefinitely).  Returns True when fully drained, False on
        timeout with work still pending.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._queue.qsize() > 0 or self._busy:
            if deadline is not None and time.monotonic() > deadline:
                return False
            await asyncio.sleep(0.05)
        return True

    async def close(self) -> None:
        """Cancel the worker and release the executor."""
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None
        self._executor.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------- submission

    async def submit(
        self, spec: ScenarioSpec, trace_id: str | None = None
    ) -> tuple[RunMetadata, bool]:
        """Submit one scenario; returns ``(metadata, deduped)``.

        Dedup semantics: a queued, running, or completed-with-result run
        for the same ``config_key`` absorbs the submission.  A failed
        run -- or a ledger-hydrated "completed" run whose result is no
        longer materialized anywhere -- is re-queued.

        With tracing on, a new run adopts ``trace_id`` (or mints one)
        as its end-to-end trace; every submission -- including deduped
        ones -- records a ``submit`` span with the dedup decision onto
        the run's trace.
        """
        existing = self.store.by_key(spec.config_key)
        if existing is not None:
            existing.submissions += 1
            if self.tracer.enabled and existing.trace_id is None:
                # Pre-tracing or hydrated run: give it a trace so the
                # decision spans below have somewhere to land.
                existing.trace_id = trace_id or new_trace_id()
            if existing.status in (RunStatus.QUEUED, RunStatus.RUNNING):
                self._submissions.inc(result="dedup")
                self._submit_span(existing, "dedup")
                return existing, True
            if existing.status is RunStatus.COMPLETED and self.result(existing.run_id) is not None:
                self._submissions.inc(result="dedup")
                self._submit_span(existing, "dedup")
                return existing, True
            # Failed, or completed but the result evaporated: run again.
            existing.status = RunStatus.QUEUED
            existing.error = None
            existing.started_at = None
            existing.finished_at = None
            existing.source = "api"
            self._submissions.inc(result="requeued")
            parent = self._submit_span(existing, "requeued")
            await self._enqueue(existing, parent)
            return existing, False
        meta = self.store.put(RunMetadata(spec=spec))
        if self.tracer.enabled:
            meta.trace_id = trace_id or new_trace_id()
        self._submissions.inc(result="new")
        parent = self._submit_span(meta, "new")
        await self._enqueue(meta, parent)
        return meta, False

    def _submit_span(self, meta: RunMetadata, decision: str) -> str | None:
        """Record the dedup-decision span; returns its id (chain parent)."""
        if not self.tracer.enabled or meta.trace_id is None:
            return None
        span = self.tracer.begin(
            "submit",
            meta.trace_id,
            run_id=meta.run_id,
            result=decision,
            submissions=meta.submissions,
        ).end()
        return span.span_id

    async def _enqueue(self, meta: RunMetadata, parent_span_id: str | None = None) -> None:
        if self.tracer.enabled and meta.trace_id is not None:
            # Left open until batch pickup marks the run RUNNING.
            self._queue_spans[meta.run_id] = self.tracer.begin(
                "queue.wait", meta.trace_id, parent_id=parent_span_id, run_id=meta.run_id
            )
        await self._queue.put(meta.run_id)
        self._queue_depth.set(self._queue.qsize())
        self._refresh_run_gauge()

    # --------------------------------------------------------------- worker

    async def _drain(self) -> None:
        while True:
            run_ids = [await self._queue.get()]
            while len(run_ids) < self.max_batch:
                try:
                    run_ids.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self._queue_depth.set(self._queue.qsize())
            metas = []
            seen: set[str] = set()
            for run_id in run_ids:
                meta = self.store.get(run_id)
                if meta is None or meta.status is not RunStatus.QUEUED:
                    continue  # resolved or superseded while queued
                if meta.run_id in seen:
                    continue
                seen.add(meta.run_id)
                metas.append(meta)
            if metas:
                self._busy = True
                try:
                    await self._run_batch(metas)
                finally:
                    self._busy = False
            self._refresh_run_gauge()

    async def _run_batch(self, metas: list[RunMetadata]) -> None:
        """Execute one batch, one ``run_many`` call per runner frame."""
        batch_wall = time.time()
        batch_perf = time.perf_counter()
        by_frame: dict[_Frame, list[RunMetadata]] = {}
        for meta in metas:
            spec = meta.spec
            by_frame.setdefault((spec.num_cpus, spec.seed, spec.scale), []).append(meta)
        loop = asyncio.get_running_loop()
        for frame, group in by_frame.items():
            now = utc_now()
            exec_spans: dict[str, ActiveSpan] = {}
            trace_ctxs: dict[str, tuple[str, str | None]] = {}
            for meta in group:
                meta.status = RunStatus.RUNNING
                meta.started_at = now
                if self.tracer.enabled and meta.trace_id is not None:
                    # Queue wait ends at batch pickup; assembly covers
                    # frame grouping; the execute span then covers
                    # dispatch + simulation + the outcome bookkeeping,
                    # and parents the worker's own spans across the
                    # process boundary.
                    queued = self._queue_spans.pop(meta.run_id, None)
                    parent = None
                    if queued is not None:
                        parent = queued.annotate(batch=len(metas)).end().span_id
                    parent = self._record_interval(
                        "batch.assemble",
                        meta,
                        batch_wall,
                        time.perf_counter() - batch_perf,
                        parent_id=parent,
                        group=len(group),
                    ) or parent
                    span = self.tracer.begin(
                        "execute",
                        meta.trace_id,
                        parent_id=parent,
                        run_id=meta.run_id,
                        batch=len(group),
                    )
                    exec_spans[meta.run_id] = span
                    trace_ctxs[meta.config_key] = (meta.trace_id, span.span_id)
            self._refresh_run_gauge()
            outcomes = await loop.run_in_executor(
                self._executor,
                self._execute_group,
                frame,
                [m.spec for m in group],
                trace_ctxs,
                (time.time(), time.perf_counter()),
            )
            done = utc_now()
            for meta in group:
                state, detail = outcomes[meta.run_id]
                meta.finished_at = done
                if state is RunStatus.COMPLETED:
                    meta.status = RunStatus.COMPLETED
                    meta.error = None
                    self._results[meta.run_id] = detail
                else:
                    meta.status = RunStatus.FAILED
                    meta.error = detail
                span = exec_spans.pop(meta.run_id, None)
                if span is not None:
                    span.annotate(status_out=meta.status.value).end(
                        status="ok" if state is RunStatus.COMPLETED else "error"
                    )
            self._monitor = None
            self._refresh_run_gauge()

    def _record_interval(
        self,
        name: str,
        meta: RunMetadata,
        start_wall: float,
        duration: float,
        parent_id: str | None = None,
        **attributes: Any,
    ) -> str | None:
        """Record an already-measured stage span; returns its id."""
        if not self.tracer.enabled or meta.trace_id is None:
            return None
        from repro.telemetry.tracing import Span

        span = Span(
            name=name,
            trace_id=meta.trace_id,
            parent_id=parent_id,
            start=start_wall,
            duration=duration,
            attributes={"run_id": meta.run_id, **attributes},
        )
        self.tracer.record(span)
        return span.span_id

    def _execute_group(
        self,
        frame: _Frame,
        specs: list[ScenarioSpec],
        trace_ctxs: dict[str, tuple[str, str | None]] | None = None,
        dispatch_epoch: tuple[float, float] | None = None,
    ) -> dict[str, tuple[RunStatus, Any]]:
        """Run one frame's specs synchronously (executor thread).

        Grid points are identified by ``config_key`` throughout, so
        specs whose labels collide (identical but for the protocol, say)
        share one ``run_many`` call.  Returns ``{run_id: (COMPLETED,
        RunMetrics) | (FAILED, detail)}``.
        """
        if trace_ctxs and dispatch_epoch is not None and self.tracer.enabled:
            # Executor-dispatch latency: event-loop handoff to this
            # thread actually starting (nonzero when a prior batch
            # still holds the single simulation slot).
            from repro.telemetry.tracing import Span

            wall, perf = dispatch_epoch
            waited = time.perf_counter() - perf
            for spec in specs:
                ctx = trace_ctxs.get(spec.config_key)
                if ctx is None:
                    continue
                self.tracer.record(
                    Span(
                        name="executor.dispatch",
                        trace_id=ctx[0],
                        parent_id=ctx[1],
                        start=wall,
                        duration=waited,
                        attributes={"run_id": spec.run_id},
                    )
                )
        runner = self._runner(frame)
        jobs = [
            (spec.workload, spec.strategy_obj(), spec.machine(), spec.restructured)
            for spec in specs
        ]
        telemetry = TelemetryConfig(
            ledger=self.ledger,
            progress=False,
            job_timeout=self.job_timeout,
            registry=self.registry,
            monitor_hook=self._capture_monitor,
            trace_contexts=trace_ctxs if trace_ctxs else None,
            span_sink=self.tracer.record if self.tracer.enabled else None,
        )
        failed: dict[str, JobFailure] = {}
        try:
            results = runner.run_many(jobs, telemetry=telemetry)
        except FleetError as exc:
            results = exc.results
            failed = {f.config_key: f for f in exc.failures}
        except Exception as exc:  # defensive: never wedge the queue
            detail = f"[error] {exc}" if str(exc) else f"[error] {type(exc).__name__}"
            return {spec.run_id: (RunStatus.FAILED, detail) for spec in specs}
        outcomes: dict[str, tuple[RunStatus, Any]] = {}
        for spec, result in zip(specs, results):
            if result is None:
                failure = failed[spec.config_key]
                outcomes[spec.run_id] = (RunStatus.FAILED, f"[{failure.kind}] {failure.message}")
            else:
                outcomes[spec.run_id] = (RunStatus.COMPLETED, result)
        return outcomes

    def _capture_monitor(self, monitor: Any) -> None:
        # Called from the executor thread when run_many builds its
        # FleetMonitor; a bare reference swap is thread-safe to read
        # from the event loop for progress snapshots.
        self._monitor = monitor

    def _runner(self, frame: _Frame) -> ExperimentRunner:
        """The runner of ``frame``; it replaces the previous frame's."""
        if self._frame_runner is not None and self._frame_runner[0] == frame:
            return self._frame_runner[1]
        num_cpus, seed, scale = frame
        runner = ExperimentRunner(
            num_cpus=num_cpus,
            seed=seed,
            scale=scale,
            max_workers=self.max_workers,
            disk_cache=self._disk_cache,
            sim_config=self.sim_config,
        )
        self._frame_runner = (frame, runner)
        return runner

    # --------------------------------------------------------------- queries

    def result(self, run_id: str) -> RunMetrics | None:
        """The completed run's metrics, from memory or the disk cache."""
        cached = self._results.get(run_id)
        if cached is not None:
            return cached
        meta = self.store.get(run_id)
        if meta is None or meta.status is not RunStatus.COMPLETED or self.cache_dir is None:
            return None
        result = self._reader.cached(meta.config_key)
        if result is not None:
            self._results[run_id] = result
        return result

    def progress(self, run_id: str) -> dict[str, Any] | None:
        """Live heartbeat progress for a running run, or None.

        Sourced from the in-flight batch's
        :class:`~repro.telemetry.heartbeat.FleetMonitor` via the
        telemetry monitor hook; keys: phase, cycles, events,
        total_events, fraction, stalled.
        """
        meta = self.store.get(run_id)
        monitor = self._monitor
        if meta is None or monitor is None or meta.status is not RunStatus.RUNNING:
            return None
        for job in monitor.jobs.values():
            if job.key == meta.config_key:
                return {
                    "phase": job.phase,
                    "cycles": job.cycles,
                    "events": job.events,
                    "total_events": job.total_events,
                    "fraction": round(job.fraction, 4),
                    "stalled": job.stalled,
                }
        return None

    async def c2c(self, run_id: str) -> dict[str, Any]:
        """The per-cache-line attribution report for a completed run.

        Computed on demand (an observed re-simulation in the executor,
        serialized behind any queued batches) and memoised per run id.
        """
        cached = self._c2c.get(run_id)
        if cached is not None:
            return cached
        meta = self.store.get(run_id)
        if meta is None:
            raise KeyError(run_id)
        if meta.status is not RunStatus.COMPLETED:
            raise ReproError(
                f"run {run_id} is {meta.status.value}; the c2c view needs a completed run"
            )
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(self._executor, c2c_report, meta.spec)
        self._c2c[run_id] = report
        return report

    async def trace_document(self, run_id: str, engine: bool = True) -> dict[str, Any]:
        """The run's stitched Chrome-trace document (``GET .../trace``).

        Service spans come from the tracer's ring; with ``engine`` and
        a completed run, the intra-run engine timeline is computed on
        demand -- an *observed* re-simulation in the executor, exactly
        the :meth:`c2c` pattern (observed runs are bit-identical to the
        original, so the cycle timeline IS the run's timeline) -- and
        memoised per run id.
        """
        meta = self.store.get(run_id)
        if meta is None:
            raise KeyError(run_id)
        if not self.tracer.enabled:
            raise ReproError(
                "tracing is disabled; start the service with tracing on "
                "(repro serve --trace) to record request timelines"
            )
        if meta.trace_id is None:
            raise ReproError(
                f"run {run_id} has no trace (submitted before tracing was enabled)"
            )
        spans = self.tracer.spans(meta.trace_id)
        timeline = None
        if engine and meta.status is RunStatus.COMPLETED:
            timeline = self._engine_traces.get(run_id)
            if timeline is None:
                loop = asyncio.get_running_loop()
                timeline = await loop.run_in_executor(self._executor, engine_trace, meta.spec)
                self._engine_traces[run_id] = timeline
        doc = stitch_chrome_trace(spans, timeline, label=meta.label)
        doc["otherData"]["run_id"] = run_id
        doc["otherData"]["trace_id"] = meta.trace_id
        doc["otherData"]["status"] = meta.status.value
        doc["otherData"]["spans_dropped"] = self.tracer.dropped
        return doc

    def cache_stats(self) -> dict[str, int] | None:
        """The shared disk cache's statistics, or None without one.

        Session counters (hits/misses/stores/evictions) cover every
        frame's runs; the on-disk footprint (entries/bytes) is read in
        one directory walk, so callers on the event loop run this in a
        thread.
        """
        return self._disk_cache.stats() if self._disk_cache is not None else None

    def queue_depth(self) -> int:
        """Runs queued but not yet executing."""
        return self._queue.qsize()

    def _refresh_run_gauge(self) -> None:
        counts = getattr(self.store, "counts", None)
        if counts is None:
            return
        for status in RunStatus:
            self._runs_gauge.set(0, status=status.value)
        for status_value, count in counts().items():
            self._runs_gauge.set(count, status=status_value)
