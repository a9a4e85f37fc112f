"""Stdlib-asyncio HTTP front door over the run scheduler.

No framework, no dependencies: ``asyncio.start_server`` plus a
hand-rolled HTTP/1.1 request parser is all the service needs for a
JSON API this small, and it keeps the repo's zero-install contract.
Connections are one-request (``Connection: close``), which sidesteps
keep-alive state machines entirely -- sweep clients submit in one POST,
not one connection per grid point.

Routes (all JSON unless noted):

* ``POST /runs`` -- submit one scenario (the spec object itself) or a
  sweep (``{"sweep": {...}}`` where any spec field may be a list; the
  grid is the cartesian product).  Returns 202 with one run reference
  per grid point; duplicates by content key fold into existing runs and
  carry ``"deduped": true``.
* ``GET /runs`` -- list references, filterable by
  ``?status=&workload=&strategy=``.
* ``GET /runs/{run_id}`` -- full metadata, plus live heartbeat
  ``progress`` while running.
* ``GET /runs/{run_id}/result`` -- the RunMetrics document;
  ``?view=c2c`` serves the per-cache-line attribution report instead.
* ``GET /runs/{run_id}/trace`` -- the stitched Chrome-trace JSON of a
  traced run (service spans + engine timeline; ``?engine=0`` skips the
  engine sub-trace).  Requires ``ServiceConfig.trace``.
* ``GET /metrics`` -- Prometheus text exposition (fleet counters, cache
  gauges, service request/dedup/queue-depth series, request and
  per-stage latency histograms).
* ``GET /metrics/history`` -- the time-series store: no query gives the
  store index (names, kinds, label sets, snapshot counts);
  ``?name=<family>[&seconds=N]`` gives raw points plus, for counters,
  the restart-corrected cumulative view.
* ``GET /slo`` -- fresh SLO evaluation over the store (rule verdicts,
  values, burn rates).
* ``GET /dashboard`` -- zero-dependency HTML dashboard (sparklines, SLO
  status, recent runs with trace links) with the machine-readable
  document embedded as JSON.
* ``GET /healthz`` -- liveness probe.

When a time-series directory is configured (the default), a background
sampler snapshots the full registry plus ledger-derived throughput into
``ServiceConfig.tsdb_dir`` every ``snapshot_interval`` seconds,
evaluates the SLO rules against the store (exported as the
``repro_slo_ok`` gauge and logged on breach transitions), and graceful
shutdown appends one final flush snapshot after the drain -- so the
store's last word agrees with the last ``/metrics`` scrape.

With tracing on, every ``POST /runs`` response carries an
``X-Repro-Trace-Id`` header (the request's trace; a single-point POST's
run adopts it, so its timeline includes request parse/validate) and
each run reference carries the run's ``trace_id``.

Shutdown is graceful: SIGTERM/SIGINT stop the listener, drain in-flight
runs (bounded by ``drain_timeout``), then exit 0 -- the ledger is
already flushed per append and retained spans live until exit.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any
from urllib.parse import SplitResult, parse_qs, urlsplit

from repro.common.errors import ConfigurationError, ReproError
from repro.service.contracts import ScenarioSpec
from repro.service.scheduler import RunScheduler
from repro.service.store import LedgerRunStore
from repro.telemetry.fleet import export_cache_stats
from repro.telemetry.ledger import RunLedger
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.slo import SloReport, default_rules, evaluate_slo, load_rules
from repro.telemetry.timeseries import TimeSeriesStore
from repro.telemetry.tracing import SpanTracer, new_trace_id

__all__ = ["ReproService", "ServiceConfig", "serve", "serve_in_thread"]

#: Largest accepted request body; a full sweep grid is a few KB, so this
#: is purely a guard against garbage input tying up the reader.
MAX_BODY_BYTES = 1 << 20

#: Most grid points one sweep POST may expand to.
MAX_SWEEP_POINTS = 4096

#: Most header lines one request may send; more is answered 431.
MAX_HEADER_LINES = 100

#: Seconds a client has to send its whole request (request line, headers
#: and body).  A silent client, or one that stops short of its
#: ``Content-Length``, is answered 408 and disconnected.
REQUEST_READ_TIMEOUT_S = 10.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _RefusedRequest(Exception):
    """A request the reader refuses, answered ``status`` with the message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> str:
    try:
        return (await reader.readline()).decode("latin-1")
    except ValueError:  # longer than the stream's line limit (64 KiB)
        raise _RefusedRequest(431, "request line or header line too long") from None


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, SplitResult, bytes]:
    """Read one request: ``(method, split target, body)``.

    At most :data:`MAX_HEADER_LINES` header lines and a body of at most
    :data:`MAX_BODY_BYTES`; raises :class:`_RefusedRequest` otherwise.
    """
    request_line = (await _read_line(reader)).strip()
    if not request_line:
        raise _RefusedRequest(400, "empty request")
    parts = request_line.split()
    if len(parts) != 3:
        raise _RefusedRequest(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts
    try:
        url = urlsplit(target)
    except ValueError:  # e.g. an unclosed "[" read as an IPv6 host
        raise _RefusedRequest(400, f"malformed request target: {target!r}") from None
    content_length = 0
    for _ in range(MAX_HEADER_LINES + 1):
        line = await _read_line(reader)
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = -1
            if content_length < 0:
                raise _RefusedRequest(400, "bad Content-Length")
    else:
        raise _RefusedRequest(431, f"more than {MAX_HEADER_LINES} header lines")
    if content_length > MAX_BODY_BYTES:
        raise _RefusedRequest(413, "request body too large")
    try:
        body = await reader.readexactly(content_length) if content_length else b""
    except asyncio.IncompleteReadError:
        raise _RefusedRequest(400, "request body shorter than Content-Length") from None
    return method, url, body


@dataclass
class ServiceConfig:
    """Service wiring: where to listen and which layers to attach.

    Attributes:
        host / port: bind address (port 0 picks a free port).
        cache_dir: result disk cache directory (None disables caching,
            which also disables result re-serving across restarts).
        ledger_dir: run ledger directory (None disables the ledger
            and, with it, history hydration).
        hydrate: replay the ledger into the run store on startup.
        max_workers: process-pool width for each simulation batch.
        job_timeout: per-run result deadline in seconds (None: none).
        max_batch: most queued runs folded into one batch.
        trace: enable end-to-end request tracing
            (:mod:`repro.telemetry.tracing`).  Off by default: untraced
            responses and ledger lines stay byte-identical to pre-
            tracing builds.
        trace_capacity: spans retained in the tracer's ring buffer.
        drain_timeout: graceful-shutdown bound in seconds -- how long
            SIGTERM/SIGINT waits for queued and in-flight runs.
        tsdb_dir: time-series store directory (None, the default,
            disables snapshots, SLO evaluation, ``/metrics/history``,
            ``/slo`` and ``/dashboard``; ``repro serve`` passes
            ``results/tsdb`` unless invoked with ``--tsdb ''``).
        snapshot_interval: seconds between registry snapshots and SLO
            evaluations.
        slo_rules: SLO rules file (TOML ``[[slo]]`` tables or JSON);
            None uses :func:`repro.telemetry.slo.default_rules` seeded
            from ``BENCH_history.json`` in the working directory.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    cache_dir: str | None = "results/service/cache"
    ledger_dir: str | None = "results/service/ledger"
    hydrate: bool = True
    max_workers: int = 0
    job_timeout: float | None = None
    max_batch: int = 32
    trace: bool = False
    trace_capacity: int = 4096
    drain_timeout: float = 30.0
    tsdb_dir: str | None = None
    snapshot_interval: float = 15.0
    slo_rules: str | None = None


def _expand_sweep(grid: dict[str, Any]) -> list[dict[str, Any]]:
    """Cartesian-expand a sweep grid into per-point spec dicts."""
    if not isinstance(grid, dict) or not grid:
        raise ConfigurationError("sweep must be a non-empty object of spec fields")
    axes: list[tuple[str, list[Any]]] = []
    for field_name, value in grid.items():
        values = value if isinstance(value, list) else [value]
        if not values:
            raise ConfigurationError(f"sweep axis {field_name!r} is an empty list")
        axes.append((field_name, values))
    points = 1
    for _, values in axes:
        points *= len(values)
    if points > MAX_SWEEP_POINTS:
        raise ConfigurationError(
            f"sweep expands to {points} points; the limit is {MAX_SWEEP_POINTS}"
        )
    names = [name for name, _ in axes]
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(values for _, values in axes))
    ]


class ReproService:
    """The HTTP server: owns the scheduler, store, ledger and registry."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.registry = MetricsRegistry()
        self.ledger = (
            None if self.config.ledger_dir is None else RunLedger(self.config.ledger_dir)
        )
        self.store = LedgerRunStore(self.ledger, hydrate=self.config.hydrate)
        self.tracer = SpanTracer(
            capacity=self.config.trace_capacity, enabled=self.config.trace
        )
        self.scheduler = RunScheduler(
            store=self.store,
            registry=self.registry,
            ledger=self.ledger,
            cache_dir=self.config.cache_dir,
            max_workers=self.config.max_workers,
            job_timeout=self.config.job_timeout,
            max_batch=self.config.max_batch,
            tracer=self.tracer,
        )
        self._requests = self.registry.counter(
            "repro_service_requests_total",
            "HTTP requests by method, route and status",
            ("method", "route", "status"),
        )
        self._request_seconds = self.registry.histogram(
            "repro_service_request_seconds",
            "HTTP request latency by route",
            ("route",),
        )
        if self.config.trace:
            stage_seconds = self.registry.histogram(
                "repro_service_stage_seconds",
                "Traced service-stage latency by span name",
                ("stage",),
            )
            # Every recorded span -- including worker spans shipped
            # across the process boundary -- lands in the histogram,
            # so /metrics stage sums and the trace always agree.
            self.tracer.on_record = lambda span: stage_seconds.observe(
                span.duration, stage=span.name
            )
        self.tsdb: TimeSeriesStore | None = None
        self.slo_rules = []
        self.slo_report: SloReport | None = None
        self._slo_ok = None
        if self.config.tsdb_dir is not None:
            self.tsdb = TimeSeriesStore(self.config.tsdb_dir)
            if self.config.slo_rules is not None:
                self.slo_rules = load_rules(self.config.slo_rules)
            else:
                from repro.perf.history import load_history

                self.slo_rules = default_rules(load_history())
            self._slo_ok = self.registry.gauge(
                "repro_slo_ok",
                "1 when the SLO rule currently holds (or is skipped for lack "
                "of data), 0 on breach",
                ("rule",),
            )
        self._sampler: asyncio.Task | None = None
        self._snapshot: asyncio.Future | None = None
        self._server: asyncio.AbstractServer | None = None
        self.loop: Any = None  # set by serve_in_thread for test harnesses

    # -------------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self.config.port

    async def start(self) -> None:
        """Bind the listen socket and start the scheduler worker."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.tsdb is not None:
            self._sampler = asyncio.ensure_future(self._sample_loop())

    async def close(self) -> None:
        """Stop accepting, drain the scheduler, release the executor."""
        await self._stop_sampler()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()

    async def shutdown(self, drain_timeout: float | None = None) -> bool:
        """Graceful stop: close the listener, drain in-flight runs, close.

        Stops accepting immediately, then waits up to ``drain_timeout``
        seconds (default: the config's) for queued and executing runs
        to reach a terminal state -- their ledger entries and spans are
        recorded in the process -- before releasing the scheduler.
        Returns True when everything drained, False on timeout.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._stop_sampler()
        timeout = drain_timeout if drain_timeout is not None else self.config.drain_timeout
        drained = await self.scheduler.drain(timeout=timeout)
        await self.scheduler.close()
        # Flush snapshot: the store's final word.  Taken after the drain
        # so every ledger append and request counter is in it -- the
        # last /metrics scrape a client took before SIGTERM reconciles
        # against this line (modulo that scrape's own request, which by
        # construction lands only here).
        if self.tsdb is not None:
            self._snapshot_once()
        return drained

    # ------------------------------------------------------------- sampling

    async def _sample_loop(self) -> None:
        """Periodic snapshot + SLO evaluation (the serve-loop sentinel).

        A snapshot folds in a summary of the whole ledger, so it runs in
        a thread.  It is shielded: a stop waits for it to land (see
        :meth:`_stop_sampler`), so the shutdown's flush stays the last line.
        """
        assert self.tsdb is not None
        while True:
            await asyncio.sleep(self.config.snapshot_interval)
            stats = await self._cache_stats()
            self._snapshot = asyncio.ensure_future(
                asyncio.to_thread(self._append_snapshot, stats)
            )
            await asyncio.shield(self._snapshot)
            self._evaluate_slo()

    async def _stop_sampler(self) -> None:
        if self._sampler is not None:
            self._sampler.cancel()
            try:
                await self._sampler
            except asyncio.CancelledError:
                pass
            self._sampler = None
        if self._snapshot is not None:
            await asyncio.wait([self._snapshot])
            self._snapshot = None

    def _snapshot_once(self) -> dict[str, Any] | None:
        """Append one snapshot of registry + cache gauges + ledger."""
        if self.tsdb is None:
            return None
        return self._append_snapshot(self.scheduler.cache_stats())

    def _append_snapshot(self, stats: dict[str, int] | None) -> dict[str, Any] | None:
        """Append one snapshot with the cache ``stats`` already read."""
        # Fold live cache stats into the registry first, exactly as a
        # /metrics scrape would -- snapshots and scrapes must agree.
        if stats is not None:
            export_cache_stats(self.registry, stats)
        return self.tsdb.append_snapshot(registry=self.registry, ledger=self.ledger)

    async def _cache_stats(self) -> dict[str, int] | None:
        """The scheduler's cache stats, read in a thread: the footprint is
        a walk of the whole cache directory, which would block the event
        loop (not the simulation executor either, where it would queue
        behind batches)."""
        return await asyncio.to_thread(self.scheduler.cache_stats)

    def _evaluate_slo(self) -> SloReport | None:
        """Judge the rules against the store; export + log verdicts."""
        if self.tsdb is None or not self.slo_rules:
            return None
        previous = self.slo_report
        report = evaluate_slo(self.tsdb, self.slo_rules)
        self.slo_report = report
        if self._slo_ok is not None:
            for result in report.results:
                self._slo_ok.set(0.0 if not result.ok else 1.0, rule=result.rule.name)
        previously_bad = {
            result.rule.name for result in (previous.breaches if previous else [])
        }
        for result in report.breaches:
            if result.rule.name not in previously_bad:
                print(
                    f"repro service: SLO BREACH {result.rule.name}: "
                    f"{result.detail or result.rule.series}"
                )
        return report

    async def run_forever(self) -> None:
        """Start and serve until cancelled."""
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------- HTTP

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body, content_type, extra_headers = await self._handle_request(reader)
        except Exception as exc:  # absolute backstop: never kill the loop
            status = 500
            body = json.dumps({"error": str(exc) or type(exc).__name__}).encode()
            content_type = "application/json"
            extra_headers = {}
        try:
            reason = _REASONS.get(status, "Unknown")
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
            for name, value in extra_headers.items():
                head += f"{name}: {value}\r\n"
            head += "Connection: close\r\n\r\n"
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # client went away; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, bytes, str, dict[str, str]]:
        try:
            method, url, raw_body = await asyncio.wait_for(
                _read_request(reader), REQUEST_READ_TIMEOUT_S
            )
        except _RefusedRequest as exc:
            return exc.status, _error_body(str(exc)), "application/json", {}
        except asyncio.TimeoutError:
            return 408, _error_body("request not received in time"), "application/json", {}

        path = url.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        started = time.perf_counter()
        result = await self._route(method, path, query, raw_body)
        status, payload, content_type = result[:3]
        headers: dict[str, str] = result[3] if len(result) > 3 else {}
        route = _route_label(path)
        self._request_seconds.observe(time.perf_counter() - started, route=route)
        self._requests.inc(method=method, route=route, status=str(status))
        return status, payload, content_type, headers

    async def _route(
        self, method: str, path: str, query: dict[str, str], raw_body: bytes
    ) -> tuple:
        """Dispatch; handlers return 3-tuples or 4-tuples (with headers)."""
        try:
            if path == "/healthz" and method == "GET":
                return 200, _json_body({"status": "ok", "runs": len(self.store)}), "application/json"
            if path == "/metrics" and method == "GET":
                return await self._get_metrics()
            if path == "/metrics/history" and method == "GET":
                return self._get_history(query)
            if path == "/slo" and method == "GET":
                return self._get_slo()
            if path == "/dashboard" and method == "GET":
                return self._get_dashboard(query)
            if path == "/runs" and method == "POST":
                return await self._post_runs(raw_body)
            if path == "/runs" and method == "GET":
                return self._list_runs(query)
            if path.startswith("/runs/"):
                rest = path[len("/runs/"):]
                if rest.endswith("/result"):
                    run_id = rest[: -len("/result")]
                    if method != "GET":
                        return 405, _error_body("use GET"), "application/json"
                    return await self._get_result(run_id, query)
                if rest.endswith("/trace"):
                    run_id = rest[: -len("/trace")]
                    if method != "GET":
                        return 405, _error_body("use GET"), "application/json"
                    return await self._get_trace(run_id, query)
                if method != "GET":
                    return 405, _error_body("use GET"), "application/json"
                return self._get_run(rest)
            return 404, _error_body(f"no route for {method} {path}"), "application/json"
        except ConfigurationError as exc:
            return 400, _error_body(str(exc)), "application/json"
        except ReproError as exc:
            return 409, _error_body(str(exc)), "application/json"

    # ----------------------------------------------------------------- routes

    async def _post_runs(self, raw_body: bytes) -> tuple:
        # The request trace: parse/validate spans land here.  A
        # single-point POST's run adopts this id, so its timeline
        # reaches back to the HTTP boundary; each sweep point gets its
        # own trace (one timeline per run), all headed by this id in
        # the X-Repro-Trace-Id response header.
        request_trace = new_trace_id() if self.tracer.enabled else None
        with self.tracer.begin(
            "request.parse", request_trace or "", bytes_in=len(raw_body)
        ) as parse_span:
            try:
                body = json.loads(raw_body.decode("utf-8")) if raw_body else None
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigurationError(f"request body is not valid JSON: {exc}")
            except RecursionError:
                # The decoder recurses once per nesting level.
                raise ConfigurationError("request body is nested too deeply")
            if not isinstance(body, dict):
                raise ConfigurationError("request body must be a JSON object")
            if "sweep" in body:
                extras = sorted(set(body) - {"sweep"})
                if extras:
                    raise ConfigurationError(
                        f"a sweep submission takes only the 'sweep' key, got also: {', '.join(extras)}"
                    )
                point_dicts = _expand_sweep(body["sweep"])
            else:
                point_dicts = [body]
        # Validate the whole grid before queueing any of it: a sweep
        # with one bad point is rejected atomically.
        with self.tracer.begin(
            "request.validate",
            request_trace or "",
            parent_id=parse_span.span_id or None,
            points=len(point_dicts),
        ):
            specs = [ScenarioSpec.from_dict(point) for point in point_dicts]
        refs = []
        for i, spec in enumerate(specs):
            trace_id = request_trace if len(specs) == 1 else None
            meta, deduped = await self.scheduler.submit(spec, trace_id=trace_id)
            ref = meta.to_ref().to_dict()
            ref["deduped"] = deduped
            refs.append(ref)
        doc: dict[str, Any] = {"count": len(refs), "runs": refs}
        if len(refs) == 1:
            doc.update(refs[0])
        headers = {"X-Repro-Trace-Id": request_trace} if request_trace else {}
        return 202, _json_body(doc), "application/json", headers

    def _list_runs(self, query: dict[str, str]) -> tuple[int, bytes, str]:
        try:
            metas = self.store.list(
                status=query.get("status"),
                workload=query.get("workload"),
                strategy=query.get("strategy"),
            )
        except ValueError:
            raise ConfigurationError(
                f"unknown status {query.get('status')!r}; expected queued, "
                "running, completed or failed"
            )
        counts = self.store.counts() if hasattr(self.store, "counts") else {}
        return (
            200,
            _json_body(
                {
                    "count": len(metas),
                    "queue_depth": self.scheduler.queue_depth(),
                    "status_counts": counts,
                    "runs": [meta.to_ref().to_dict() for meta in metas],
                }
            ),
            "application/json",
        )

    def _get_run(self, run_id: str) -> tuple[int, bytes, str]:
        meta = self.store.get(run_id)
        if meta is None:
            return 404, _error_body(f"unknown run {run_id!r}"), "application/json"
        doc = meta.to_dict()
        doc["progress"] = self.scheduler.progress(run_id)
        return 200, _json_body(doc), "application/json"

    async def _get_trace(self, run_id: str, query: dict[str, str]) -> tuple:
        engine = query.get("engine", "1") not in ("0", "false", "no")
        try:
            doc = await self.scheduler.trace_document(run_id, engine=engine)
        except KeyError:
            return 404, _error_body(f"unknown run {run_id!r}"), "application/json"
        return 200, _json_body(doc), "application/json"

    async def _get_result(
        self, run_id: str, query: dict[str, str]
    ) -> tuple[int, bytes, str]:
        meta = self.store.get(run_id)
        if meta is None:
            return 404, _error_body(f"unknown run {run_id!r}"), "application/json"
        serve_span = None
        if self.tracer.enabled and meta.trace_id is not None:
            serve_span = self.tracer.begin(
                "result.serve", meta.trace_id, run_id=run_id
            )
        try:
            return await self._get_result_body(meta, run_id, query)
        finally:
            if serve_span is not None:
                serve_span.end()

    async def _get_result_body(
        self, meta: Any, run_id: str, query: dict[str, str]
    ) -> tuple[int, bytes, str]:
        view = query.get("view", "metrics")
        if view not in ("metrics", "c2c"):
            raise ConfigurationError(f"unknown view {view!r}; expected metrics or c2c")
        if not meta.status.terminal:
            raise ReproError(
                f"run {run_id} is {meta.status.value}; poll GET /runs/{run_id} until terminal"
            )
        if meta.status.value == "failed":
            return (
                409,
                _json_body({"run_id": run_id, "status": "failed", "error": meta.error}),
                "application/json",
            )
        if view == "c2c":
            report = await self.scheduler.c2c(run_id)
            return 200, _json_body({"run_id": run_id, "view": "c2c", "report": report}), "application/json"
        result = self.scheduler.result(run_id)
        if result is None:
            return (
                404,
                _error_body(
                    f"run {run_id} completed but its result is no longer "
                    "materialized (cache evicted?); resubmit the spec to recompute"
                ),
                "application/json",
            )
        return (
            200,
            _json_body(
                {
                    "run_id": run_id,
                    "config_key": meta.config_key,
                    "label": meta.label,
                    "metrics": result.to_dict(),
                }
            ),
            "application/json",
        )

    async def _get_metrics(self) -> tuple[int, bytes, str]:
        stats = await self._cache_stats()
        if stats is not None:
            export_cache_stats(self.registry, stats)
        text = self.registry.render_prometheus()
        return 200, text.encode("utf-8"), "text/plain; version=0.0.4"

    def _require_tsdb(self) -> TimeSeriesStore:
        if self.tsdb is None:
            raise ReproError(
                "time-series store disabled (start the service with a tsdb_dir)"
            )
        return self.tsdb

    def _get_history(self, query: dict[str, str]) -> tuple[int, bytes, str]:
        store = self._require_tsdb()
        name = query.get("name")
        if name is None:
            return 200, _json_body(store.index()), "application/json"
        try:
            seconds = float(query.get("seconds", "0"))
        except ValueError:
            raise ConfigurationError("seconds must be a number")
        last = store.last_snapshot()
        now = last["ts"] if last else 0.0
        start = now - seconds if seconds > 0 else None
        kind = store.names().get(name)
        if kind is None:
            return 404, _error_body(f"no snapshots carry series {name!r}"), "application/json"
        doc: dict[str, Any] = {
            "name": name,
            "kind": kind,
            "window_seconds": seconds if seconds > 0 else None,
            "points": [
                [ts, value] for ts, value in store.series(name, start=start, end=now)
            ],
        }
        if kind == "counter":
            doc["cumulative"] = [
                [ts, value]
                for ts, value in store.counter_series(name, start=start, end=now)
            ]
        return 200, _json_body(doc), "application/json"

    def _get_slo(self) -> tuple[int, bytes, str]:
        store = self._require_tsdb()
        report = evaluate_slo(store, self.slo_rules)
        self.slo_report = report
        doc = report.to_dict()
        doc["rules"] = [rule.to_dict() for rule in self.slo_rules]
        return 200, _json_body(doc), "application/json"

    def _get_dashboard(self, query: dict[str, str]) -> tuple[int, bytes, str]:
        from repro.service.dashboard import build_dashboard_doc, render_dashboard_html

        store = self._require_tsdb()
        try:
            seconds = float(query.get("seconds", "3600"))
        except ValueError:
            raise ConfigurationError("seconds must be a number")
        report = evaluate_slo(store, self.slo_rules) if self.slo_rules else None
        if report is not None:
            self.slo_report = report
        recent = [meta.to_ref().to_dict() for meta in self.store.list()[-20:]]
        doc = build_dashboard_doc(
            store,
            slo_report=report.to_dict() if report is not None else None,
            runs=recent,
            service={
                "runs_known": len(self.store),
                "queue_depth": self.scheduler.queue_depth(),
            },
            seconds=seconds,
        )
        html_page = render_dashboard_html(
            doc, refresh_seconds=max(5, int(self.config.snapshot_interval))
        )
        return 200, html_page.encode("utf-8"), "text/html; charset=utf-8"


def _route_label(path: str) -> str:
    """Collapse per-run paths to low-cardinality route labels."""
    if path.startswith("/runs/"):
        if path.endswith("/result"):
            return "/runs/{run_id}/result"
        if path.endswith("/trace"):
            return "/runs/{run_id}/trace"
        return "/runs/{run_id}"
    return path


def _json_body(doc: dict[str, Any]) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def _error_body(message: str) -> bytes:
    return _json_body({"error": message})


def serve(config: ServiceConfig | None = None) -> None:
    """Run the service in the current thread until signalled.

    SIGTERM and SIGINT both trigger a graceful shutdown: stop
    accepting, drain in-flight runs (bounded by the config's
    ``drain_timeout``), then return -- the process exits 0.
    """
    service = ReproService(config)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed: list[int] = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        try:
            await service.start()
            await stop.wait()
            drained = await service.shutdown()
            print(
                "repro service: shut down "
                f"({'drained' if drained else 'DRAIN TIMED OUT'}; "
                f"{len(service.store)} runs known)"
            )
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await service.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass  # fallback when the signal handler could not be installed


def serve_in_thread(
    config: ServiceConfig | None = None,
) -> tuple[ReproService, str, Any]:
    """Start a service on a daemon thread; returns (service, base_url, stop).

    The test harness's entry point: binds (port 0 resolves to a free
    port), serves from a private event loop, and returns a ``stop()``
    that shuts the loop down cleanly.
    """
    service = ReproService(config)
    started = threading.Event()
    loop_holder: dict[str, Any] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        loop_holder["loop"] = loop
        service.loop = loop  # tests drive coroutines (e.g. shutdown) on it
        asyncio.set_event_loop(loop)

        async def _start() -> None:
            await service.start()
            started.set()

        try:
            loop.run_until_complete(_start())
            loop.run_forever()
        finally:
            loop.run_until_complete(service.close())
            loop.close()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("service failed to start within 30s")
    base_url = f"http://{service.config.host}:{service.port}"

    def stop() -> None:
        loop = loop_holder.get("loop")
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)

    return service, base_url, stop
