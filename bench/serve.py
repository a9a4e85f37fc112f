"""The serve workload: closed-loop HTTP clients against ``repro serve``.

A ``repro serve`` subprocess (default flags; scratch cache, ledger and
time-series directories) receives passes of 25 requests from two
closed-loop clients for the run length.  A pass is 20 distinct
scenarios -- every workload x NP/PREF/PWS/ADAPT x a 4/8/16/32-cycle
bus, each workload getting every strategy and every bus once -- and 5
seeded resubmits of them; the first four passes cover the 80-scenario
grid between them.  Each request is ``POST /runs``, a poll of ``GET
/runs/{id}`` every 10 ms until the run is terminal, then ``GET
/runs/{id}/result``; its latency runs from the POST to the result.

Requests go in workload-major order with a seeded shuffle inside each
workload: the server's worker keeps the last three generated traces, so
a fully random order would mostly measure how often it regenerates them.

The server runs under :mod:`bench.launcher`, which reports the server
process's peak RSS and, traced, installs the benchmark's layer wrappers
there before it starts the service; so a traced run serves its
untraced base phase and its traced phase from two servers.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.experiments.runner import ExperimentRunner
from repro.metrics.results import RunMetrics
from repro.service.contracts import ScenarioSpec
from repro.telemetry.ledger import RunLedger
from repro.telemetry.tracing import Span
from repro.workloads.registry import ALL_WORKLOAD_NAMES

from bench import ROOT
from bench.harness import (
    Phase,
    Run,
    another_pass,
    measure_phases,
    normalized_start,
    scratch_dir,
)
from bench.layers import LayerTracer

#: Server start-ups timed per run; the last one serves the requests.
SETUP_REPEATS = 3

#: Closed-loop client threads (the reference host has 2 vCPUs).
CLIENTS = 2

#: Seconds between status polls of one run.
POLL_INTERVAL = 0.01

#: Service stages whose ``repro_service_stage_seconds`` sums are reported.
STAGES = {
    "request.parse": "service.request_parse_s",
    "submit": "service.submit_s",
    "queue.wait": "service.queue_wait_s",
    "batch.assemble": "service.batch_assemble_s",
    "execute": "service.execute_s",
    "result.serve": "service.result_serve_s",
}

_STAGE_SUM = re.compile(r'^repro_service_stage_seconds_sum\{stage="([^"]+)"\} (\S+)$')

# Requests go to the local server only, never through a configured proxy.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


@dataclass(frozen=True)
class ServeFrame:
    num_cpus: int
    scale: float
    workloads: tuple[str, ...]
    strategies: tuple[str, ...] = ("NP", "PREF", "PWS", "ADAPT")
    latencies: tuple[int, ...] = (4, 8, 16, 32)
    resubmits: int = 5
    checked_results: int = 5

    def requests(self, seed: int, index: int) -> list[dict[str, Any]]:
        """Pass ``index``: distinct specs plus seeded resubmits.

        The ``w``-th workload on the ``j``-th bus runs strategy
        ``(w + j + index) % len(strategies)``: with as many strategies as
        buses, every pass gives each workload every strategy and every
        bus, so passes cost alike, and the first ``len(strategies)``
        passes partition the full grid.  Later passes repeat that at the
        next trace seed, so no pass repeats an earlier one's specs.
        Workload-major, shuffled within each workload.
        """
        rng = random.Random(f"{seed}/{index}")
        blocks = [
            [
                {
                    "workload": workload,
                    "strategy": self.strategies[(w + j + index) % len(self.strategies)],
                    "transfer_cycles": cycles,
                    "num_cpus": self.num_cpus,
                    "scale": self.scale,
                    "seed": seed + index // len(self.strategies),
                }
                for j, cycles in enumerate(self.latencies)
            ]
            for w, workload in enumerate(self.workloads)
        ]
        again = rng.sample([spec for block in blocks for spec in block], self.resubmits)
        ordered = []
        for block in blocks:
            workload = block[0]["workload"]
            items = block + [dict(spec) for spec in again if spec["workload"] == workload]
            rng.shuffle(items)
            ordered += items
        return ordered


#: At scale 0.05, as in the other workloads, a pass takes ~4 s on the
#: reference host, so a run holds 50-75 requests: with two clients
#: queueing behind one server worker, a request's latency depends on
#: which other request it overlaps, and percentiles over fewer samples
#: (one pass at scale 0.15) spread 14-17 % from run to run.
FRAME = ServeFrame(num_cpus=12, scale=0.05, workloads=tuple(ALL_WORKLOAD_NAMES))


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _http(method: str, url: str, body: dict[str, Any] | None = None) -> tuple[int, Any]:
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with _OPENER.open(request, timeout=60) as response:
            status, raw = response.status, response.read()
            kind = response.headers.get("Content-Type", "")
    except urllib.error.HTTPError as exc:
        status, raw, kind = exc.code, exc.read(), exc.headers.get("Content-Type", "")
    text = raw.decode("utf-8", "replace")
    return status, json.loads(text) if kind.startswith("application/json") else text


class _Server:
    """One ``repro serve`` under the launcher, in its own scratch directory."""

    def __init__(self, work: Path, traced: bool) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.state_path = work / "state.json"
        self.base = f"http://127.0.0.1:{_free_port()}"
        cmd = [
            sys.executable, "-m", "bench.launcher", str(self.state_path), "1" if traced else "0",
            "--host", "127.0.0.1", "--port", self.base.rsplit(":", 1)[1],
            "--cache", str(work / "cache"), "--ledger-dir", str(work / "ledger"),
            "--tsdb", str(work / "tsdb"),
        ] + (["--trace"] if traced else [])
        self._log = (work / "server.log").open("w", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=self._log, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: {self.log_tail()}")
            try:
                if _http("GET", f"{self.base}/healthz")[0] == 200:
                    return
            except (urllib.error.URLError, ConnectionError):
                pass
            time.sleep(POLL_INTERVAL)
        raise RuntimeError(f"server not ready within {timeout:g}s")

    def log_tail(self) -> str:
        return (self.work / "server.log").read_text(encoding="utf-8", errors="replace")[-2000:]

    def stop(self) -> dict[str, Any]:
        """Graceful stop (SIGINT drains); returns the launcher's state file."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=60)
        self._log.close()
        try:
            return json.loads(self.state_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}


def _request(base: str, spec: dict[str, Any], tracer: LayerTracer) -> dict[str, Any]:
    """One closed-loop request: submit, poll to terminal, fetch the result.

    ``start`` and ``end`` are on the system-wide monotonic clock, the
    one the launcher records the server's batches on.
    """
    out: dict[str, Any] = {"polls": 0, "http": 0, "status": "error", "metrics": None}
    out["start"] = time.monotonic()
    try:
        with tracer.span("bench.request", label=f"{spec['workload']}/{spec['strategy']}"):
            with tracer.span("bench.http", route="POST /runs"):
                code, doc = _http("POST", f"{base}/runs", spec)
            out["http"] += 1
            if code != 202:
                raise RuntimeError(f"POST /runs -> {code}: {doc}")
            out["run_id"], out["deduped"] = doc["run_id"], doc["deduped"]
            while True:
                with tracer.span("bench.http", route="GET /runs/{id}"):
                    code, meta = _http("GET", f"{base}/runs/{out['run_id']}")
                out["http"] += 1
                out["polls"] += 1
                if code == 200 and meta["status"] in ("completed", "failed"):
                    out["status"] = meta["status"]
                    break
                time.sleep(POLL_INTERVAL)
            if out["status"] == "completed":
                with tracer.span("bench.http", route="GET /runs/{id}/result"):
                    code, doc = _http("GET", f"{base}/runs/{out['run_id']}/result")
                out["http"] += 1
                out["metrics"] = doc.get("metrics") if code == 200 else None
                if out["metrics"] is None:
                    out["status"] = f"result {code}"
    except Exception as exc:  # a failed request is counted, never fatal
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["end"] = time.monotonic()
    return out


def _drive(base: str, requests: list[dict[str, Any]], tracer: LayerTracer) -> list[dict[str, Any]]:
    """Closed-loop clients pulling the next request from one shared list."""
    outcomes: list[dict[str, Any]] = [{} for _ in requests]
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            outcomes[i] = _request(base, requests[i], tracer)

    threads = [threading.Thread(target=client, name=f"client{n}") for n in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=900)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serve clients did not finish within 900s")
    return outcomes


def _stage_sums(metrics_text: str) -> dict[str, float]:
    sums = {}
    for line in metrics_text.splitlines():
        match = _STAGE_SUM.match(line)
        if match:
            sums[match.group(1)] = float(match.group(2))
    return sums


def _normalized(start: float, end: float, batches: list[list[float]]) -> float:
    """Seconds from ``start`` to ``end`` with the server's batch time normalized.

    Inside the window, each batch's execution is rescaled by its speed
    factor and its reference units are removed (see :mod:`bench.clock`).
    Everything else -- HTTP round trips and the clients' poll sleeps,
    whose length the host's speed does not govern -- stays host time.
    """
    seconds = end - start
    for batch_start, batch_end, factor, units_end in batches:
        seconds += _overlap(start, end, batch_start, batch_end) * (factor - 1)
        seconds -= _overlap(start, end, batch_end, units_end)
    return seconds


def _overlap(start: float, end: float, other_start: float, other_end: float) -> float:
    return max(0.0, min(end, other_end) - max(start, other_start))


def _normalized_start(seconds: float, state: dict[str, Any]) -> float:
    """Start-up to ``/healthz`` in reference-host seconds (see :mod:`bench.clock`)."""
    units = state.get("startup_units")
    return normalized_start(seconds, units) if units else seconds


def serve(
    run: Run,
    seconds: float,
    tracer: LayerTracer,
    frame: ServeFrame = FRAME,
    expected_digest: str | None = None,
) -> Phase:
    """Whole passes of requests against a fresh server for ``seconds``.

    See :func:`another_pass`; the clients finish a pass before the next
    one starts.
    """
    # Served results are checked against in-process runs rather than a
    # pinned digest.
    del expected_digest
    with scratch_dir("serve-") as work, ExitStack() as stack:
        numbers = itertools.count()

        def start(traced: bool) -> tuple[_Server, float]:
            t0 = time.perf_counter()
            server = _Server(work / f"server{next(numbers)}", traced=traced)
            stack.callback(server.stop)
            server.wait_ready()
            return server, time.perf_counter() - t0

        # Untraced, the server that serves the requests is the last of
        # several timed start-ups; traced, set-up time is not reported.
        starts = []
        for _ in range(0 if tracer.enabled else SETUP_REPEATS - 1):
            server, seconds_to_ready = start(False)
            starts.append(_normalized_start(seconds_to_ready, server.stop()))

        def measure(seconds: float, tracer: LayerTracer) -> tuple[Phase, tuple]:
            # A traced phase needs a server started with the wrappers in.
            server, seconds_to_ready = start(tracer.enabled)
            requests: list[dict[str, Any]] = []
            outcomes: list[dict[str, Any]] = []
            t0 = time.monotonic()
            with tracer.span("bench.measure"):
                started, passes = time.perf_counter(), 0
                while another_pass(started, passes, seconds):
                    batch = frame.requests(run.seed, passes)
                    outcomes += _drive(server.base, batch, tracer)
                    requests += batch
                    passes += 1
            t1 = time.monotonic()
            metrics_text = _http("GET", f"{server.base}/metrics")[1] if tracer.enabled else ""
            simulated = RunLedger(server.work / "ledger").summarize()["simulated_runs"]
            state = server.stop()

            batches = state.get("batches") or []
            completed = [o for o in outcomes if o.get("status") == "completed"]
            run.deliver(len(requests), len(requests) - len(completed))
            for o in outcomes:
                if "error" in o or o.get("status") != "completed":
                    failed = run.details.setdefault("failed_requests", [])
                    failed.append(o.get("error") or o.get("status"))
            # The simulated figures cover the first pass, which every run makes.
            first_pass = {
                ScenarioSpec.from_dict(spec).run_id: o
                for spec, o in zip(requests, outcomes[: len(frame.requests(run.seed, 0))])
            }
            results = [
                RunMetrics.from_dict(o["metrics"]) for o in first_pass.values() if o["metrics"]
            ]
            phase = Phase(
                setup_s=statistics.median(starts + [_normalized_start(seconds_to_ready, state)]),
                wall_s=_normalized(t0, t1, batches),
                raw_wall_s=t1 - t0,
                results=len(completed),
                latencies_ms=[_normalized(o["start"], o["end"], batches) * 1e3 for o in outcomes],
                exec_cycles=sum(r.exec_cycles for r in results),
                bus_utilization_mean=(
                    statistics.fmean(r.bus_utilization for r in results) if results else 0.0
                ),
                peak_rss_mb=state.get("peak_rss_mb", 0.0),
            )
            return phase, (requests, outcomes, state, metrics_text, simulated)

        phase, kept = measure_phases(seconds, tracer, measure)
    requests, outcomes, state, metrics_text, simulated = kept
    batches = state.get("batches") or []
    completed = [o for o in outcomes if o.get("status") == "completed"]

    expected_ids = [ScenarioSpec.from_dict(spec).run_id for spec in requests]
    run.check(
        "run ids are content keys",
        all(o.get("run_id") == want for o, want in zip(outcomes, expected_ids)),
    )
    first: dict[str, dict[str, Any]] = {}
    resubmitted = []
    for want, outcome in zip(expected_ids, outcomes):
        if want in first:
            resubmitted.append(outcome.get("run_id") == first[want].get("run_id"))
        else:
            first[want] = outcome
    run.check(
        "resubmits return the original run id", all(resubmitted), f"{len(resubmitted)} resubmits"
    )
    deduped = sum(1 for o in outcomes if o.get("deduped"))
    run.check("dedup count", deduped == len(resubmitted), f"{deduped} deduped")
    run.check("ledger simulated runs", simulated == len(first), f"{simulated} of {len(first)}")
    # Untimed: a served result is bit-identical to an in-process run.
    firsts = list(first.items())
    by_id = dict(zip(expected_ids, requests))
    count = min(frame.checked_results, len(firsts))
    picks = random.Random(run.seed).sample(range(len(firsts)), count)
    # One runner per trace seed serves the checks: the specs share its
    # frame, and it generates each workload's trace once.
    direct_runners: dict[int, ExperimentRunner] = {}
    for i in sorted(picks):
        run_id, outcome = firsts[i]
        spec = ScenarioSpec.from_dict(by_id[run_id])
        if spec.seed not in direct_runners:
            direct_runners[spec.seed] = ExperimentRunner(
                num_cpus=frame.num_cpus, seed=spec.seed, scale=frame.scale
            )
        direct = direct_runners[spec.seed].run(spec.workload, spec.strategy_obj(), spec.machine())
        run.check(
            f"served {spec.label} equals in-process run",
            outcome.get("metrics") == direct.to_dict(),
        )
    run.check("server reported its peak RSS and batches", "peak_rss_mb" in state and bool(batches))

    if tracer.enabled:
        server_layers = state.get("layers", {"totals": {}, "counters": {}, "spans": []})
        tracer.absorb(server_layers)
        phase.trace_groups = [
            ("repro serve: layers", [Span.from_dict(s) for s in server_layers["spans"]]),
            ("repro serve: service", [Span.from_dict(s) for s in state.get("service_spans", [])]),
        ]
        stages = _stage_sums(metrics_text)
        phase.layers = {name: stages.get(stage, 0.0) for stage, name in STAGES.items()}
        phase.layers.update(
            {
                "service.http_requests": sum(o.get("http", 0) for o in outcomes),
                "service.polls_per_result": sum(o.get("polls", 0) for o in outcomes)
                / max(1, len(completed)),
                "service.dedup_ratio": deduped / len(requests),
                "service.failed_runs": len(requests) - len(completed),
                "telemetry.spans_recorded": state.get("spans_recorded", 0),
            }
        )
    return phase
