"""End-to-end service smoke: one ``repro serve`` boot, every contract, in CI.

``python -m repro.service.smoke --out results/service_smoke``

Boots one real ``repro serve --trace --tsdb`` subprocess on a free port
(1-second snapshots, a healthy ``--slo-rules`` file) and drives it over
actual HTTP in five phases.  The order is forced: the stage histograms
are cumulative, so the traced point must be the only run when its spans
meet ``/metrics``; and dedup is keyed by content, so the traced point
lies outside the sweep.

1. **Traced point** -- one single-point POST.  The ``X-Repro-Trace-Id``
   header, run ref, run document and ledger line agree on the trace id;
   ``GET /runs/{id}/trace`` passes the Chrome schema check with the
   service track (pid 10), an engine track (pid 0) and every expected
   stage; the ``worker.run`` span agrees with the ledger's
   ``wall_seconds`` and the ``/metrics`` stage sums with the spans.
2. **Sweep** -- a 2x2 sweep (NP/PREF x 4c/8c bus) polled to completion.
   The identical resubmission is deduped without a new simulation (the
   ledger's ``simulated_runs`` is unchanged), the PREF@8c result is
   bit-identical to a direct in-process ``ExperimentRunner.run``, its
   ``?view=c2c`` document equals the in-process
   :func:`~repro.service.scheduler.c2c_report` of the same spec, and
   the listing and ``/metrics`` families check out.
3. **Observability** -- the sampler's snapshots, the
   ``/metrics/history`` index and a monotone counter series, ``/slo``
   with the rules file loaded, and ``/dashboard``'s embedded document.
4. **Shutdown** -- a final ``/metrics`` scrape, then SIGTERM with a
   graceful exit 0.  The shutdown flush snapshot reconciles both ways
   with that scrape and with the ledger (:func:`_reconcile_flush`).
5. **Sentinel** -- ``repro slo check`` against the recorded store: the
   healthy rules exit 0, an impossible objective exits 1 with BREACHED.

Everything lands under ``--out``: ``transcript.json`` (every step and
request/response), ``trace.json`` (the stitched trace, loadable in
Perfetto), ``dashboard.html`` and ``tsdb/``, plus the server's cache and
ledger.  A red run is diagnosable from the artifacts alone.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any

from repro.experiments.runner import ExperimentRunner
from repro.service.contracts import ScenarioSpec
from repro.service.scheduler import c2c_report
from repro.telemetry.ledger import RunLedger
from repro.telemetry.timeseries import TimeSeriesStore
from repro.telemetry.tracing import SERVICE_PID, check_chrome_events

#: Phase 1's point, submitted alone so its trace reaches back to HTTP
#: parse.  PWS is outside the sweep, so the sweep's first submission is
#: never a dedup.
TRACED_POINT = {
    "workload": "Water",
    "strategy": "PWS",
    "num_cpus": 4,
    "scale": 0.05,
    "transfer_cycles": 8,
}

#: Phase 2's sweep: small enough for CI (4 CPUs, 5% scale), wide enough
#: to exercise batching across strategies and machine points.
SWEEP = {
    "sweep": {
        "workload": "Water",
        "strategy": ["NP", "PREF"],
        "transfer_cycles": [4, 8],
        "num_cpus": 4,
        "scale": 0.05,
    }
}

#: Keys every run reference must carry.
REF_SCHEMA = {"run_id", "config_key", "label", "status", "created_at", "deduped"}

#: Keys every run metadata document must carry.
RUN_SCHEMA = {
    "run_id", "config_key", "label", "status", "spec", "created_at",
    "started_at", "finished_at", "error", "submissions", "source", "progress",
}

#: Metric families the scrape must expose.
METRIC_FAMILIES = (
    "repro_service_requests_total",
    "repro_service_submissions_total",
    "repro_service_queue_depth",
    "repro_runs_total",
    "repro_cache_entries",
)

#: Service stages the stitched trace must contain for a single-point POST.
EXPECTED_STAGES = {
    "request.parse",
    "request.validate",
    "submit",
    "queue.wait",
    "batch.assemble",
    "execute",
    "executor.dispatch",
    "worker.run",
    "engine.simulate",
}

#: Slack for wall-clock reconciliation, in seconds.  Spans and the
#: ledger measure the same interval from different vantage points
#: (worker process vs parent), so scheduling overhead -- not rounding --
#: bounds the disagreement.
WALL_SLACK = 1.0

#: Keys the embedded dashboard JSON document must carry.
DASHBOARD_SCHEMA = {
    "schema", "generated_at", "window_seconds", "tsdb", "series", "slo",
    "recent_runs", "service",
}

#: Series the final scrape's own request bumps only after its response
#: is written, so the shutdown flush carries them one higher.
SCRAPE_OWN_SERIES = (
    'repro_service_requests_total{method="GET",route="/metrics",status="200"}',
    'repro_service_request_seconds_count{route="/metrics"}',
)

#: A healthy rules file: satisfied by any completed smoke.
HEALTHY_RULES = """\
[[slo]]
name = "runs-ledgered"
series = "repro_ledger_entries"
op = ">="
threshold = 1.0
description = "the smoke left ledger entries behind"

[[slo]]
name = "request-latency-p95"
series = "repro_service_request_seconds"
aggregate = "p95"
op = "<="
threshold = 60.0
description = "far above any healthy request"
"""

#: A deliberately impossible objective: the regression sentinel must trip.
IMPOSSIBLE_RULES = """\
[[slo]]
name = "impossible-run-count"
series = "repro_ledger_entries"
op = ">="
threshold = 1000000.0
on_missing = "breach"
description = "synthetic breach: a million ledgered runs"
"""


class SmokeFailure(AssertionError):
    """One contract check did not hold."""


class Transcript:
    """Ordered record of every step; written as the CI artifact."""

    def __init__(self) -> None:
        self.steps: list[dict[str, Any]] = []

    def record(self, step: str, **detail: Any) -> None:
        self.steps.append({"step": step, **detail})

    def write(self, path: Path, ok: bool) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"ok": ok, "steps": self.steps}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def _require(condition: Any, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _request(
    transcript: Transcript,
    method: str,
    url: str,
    body: dict[str, Any] | None = None,
    expect: int = 200,
) -> tuple[Any, dict[str, str]]:
    """One HTTP exchange, recorded; returns (decoded body, headers).

    JSON responses are decoded; anything else comes back as text.
    """
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            status, raw, headers = resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        status, raw, headers = exc.code, exc.read(), dict(exc.headers)
    decoded: Any = raw.decode("utf-8", "replace")
    if headers.get("Content-Type", "").startswith("application/json"):
        decoded = json.loads(decoded)
    transcript.record(
        "http", method=method, url=url, request=body, status=status,
        trace_header=headers.get("X-Repro-Trace-Id"),
        response=decoded if not isinstance(decoded, str) or len(decoded) < 20000
        else decoded[:20000],
    )
    _require(status == expect, f"{method} {url}: expected HTTP {expect}, got {status}: {decoded}")
    return decoded, headers


def _wait_ready(transcript: Transcript, base: str, proc: subprocess.Popen, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _require(proc.poll() is None, f"server exited early with code {proc.returncode}")
        try:
            _request(transcript, "GET", f"{base}/healthz")
            return
        except (urllib.error.URLError, ConnectionError, SmokeFailure):
            time.sleep(0.2)
    raise SmokeFailure(f"server not ready within {timeout}s")


def _poll_runs(transcript: Transcript, base: str, run_ids: list[str], timeout: float = 600.0) -> dict[str, dict]:
    """Poll every run to a terminal state, require ``completed``, and
    return the final documents by run id."""
    deadline = time.monotonic() + timeout
    final: dict[str, dict] = {}
    while len(final) < len(run_ids):
        _require(time.monotonic() < deadline,
                 f"runs not terminal within {timeout}s: {sorted(set(run_ids) - set(final))}")
        for run_id in run_ids:
            if run_id in final:
                continue
            doc, _ = _request(transcript, "GET", f"{base}/runs/{run_id}")
            missing = RUN_SCHEMA - set(doc)
            _require(not missing, f"run document missing keys: {sorted(missing)}")
            if doc["status"] in ("completed", "failed"):
                _require(doc["status"] == "completed", f"run {run_id} failed: {doc['error']}")
                final[run_id] = doc
        time.sleep(0.3)
    return final


def _stage_sums(metrics_text: str) -> dict[str, float]:
    """Parse ``repro_service_stage_seconds_sum{stage="..."}`` from /metrics."""
    sums: dict[str, float] = {}
    for line in metrics_text.splitlines():
        if line.startswith('repro_service_stage_seconds_sum{stage="'):
            label, _, value = line.partition("} ")
            sums[label.split('"')[1]] = float(value)
    return sums


def _scrape_values(metrics_text: str) -> dict[str, float]:
    """Every ``name{labels} value`` exposition line, keyed by the left side."""
    values: dict[str, float] = {}
    for line in metrics_text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            values[key] = float(value)
        except ValueError:
            continue
    return values


def _sample_key(name: str, labels: dict[str, str]) -> str:
    """The exposition line key for a snapshot sample (declaration-ordered
    labels survive the JSON round trip)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
    return f"{name}{{{inner}}}"


def _reconcile_flush(flush: dict[str, Any], scraped: dict[str, float]) -> int:
    """Reconcile the shutdown flush snapshot with the final scrape, both
    ways; returns the number of samples compared.

    Every counter and gauge sample and every histogram ``_count`` must
    appear on both sides with the same value, except the
    :data:`SCRAPE_OWN_SERIES`, which the flush carries one higher.
    ``_bucket``/``_sum`` lines ride on their ``_count``; the synthetic
    ``repro_ledger_*`` families reconcile against the ledger instead.
    """
    flushed: dict[str, float] = {}
    for name, family in flush["families"].items():
        if name.startswith("repro_ledger_"):
            continue
        histogram = family.get("type") == "histogram"
        for sample in family["samples"]:
            if histogram:
                flushed[_sample_key(f"{name}_count", sample["labels"])] = float(sample["count"])
            else:
                flushed[_sample_key(name, sample["labels"])] = float(sample["value"])
    _require(flushed, "flush snapshot carried no reconcilable samples")
    exposed = {
        key for key in scraped
        if not key.startswith("repro_ledger_")
        and not key.partition("{")[0].endswith(("_bucket", "_sum"))
    }
    only_flush = sorted(set(flushed) - exposed)
    _require(not only_flush, f"flush samples absent from the final scrape: {only_flush}")
    only_scrape = sorted(exposed - set(flushed))
    _require(not only_scrape, f"final-scrape samples absent from the flush: {only_scrape}")
    for key, value in sorted(flushed.items()):
        expected = scraped[key] + (1.0 if key in SCRAPE_OWN_SERIES else 0.0)
        _require(value == expected, f"flush/scrape mismatch for {key}: {value} != {expected}")
    return len(flushed)


def _traced_point(transcript: Transcript, base: str, out: Path) -> str:
    """Phase 1: one trace id everywhere, the stitched trace, and the
    spans reconciled against the ledger and /metrics."""
    submit, headers = _request(transcript, "POST", f"{base}/runs", TRACED_POINT, expect=202)
    trace_id = headers.get("X-Repro-Trace-Id")
    _require(trace_id, "POST /runs did not return X-Repro-Trace-Id")
    _require(submit.get("trace_id") == trace_id,
             f"ref trace_id {submit.get('trace_id')} != header {trace_id}")
    run_id = submit["run_id"]
    doc = _poll_runs(transcript, base, [run_id])[run_id]
    _require(doc.get("trace_id") == trace_id,
             f"run document trace_id {doc.get('trace_id')} != header {trace_id}")

    trace_doc, _ = _request(transcript, "GET", f"{base}/runs/{run_id}/trace")
    (out / "trace.json").write_text(
        json.dumps(trace_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    events = trace_doc.get("traceEvents")
    try:
        check_chrome_events(events)
    except ValueError as exc:
        raise SmokeFailure(f"stitched trace: {exc}") from None
    other = trace_doc.get("otherData", {})
    _require(other.get("timestamp_unit") == "microseconds",
             f"timestamp_unit: {other.get('timestamp_unit')!r}")
    for key in ("trace_id", "run_id", "label", "service_spans", "engine"):
        _require(key in other, f"otherData missing {key}")
    _require(other["trace_id"] == trace_id, "trace_id mismatch in trace doc")
    _require(other["run_id"] == run_id, "run_id mismatch in trace doc")
    _require(other["engine"]["exec_cycles"] > 0, f"engine metadata: {other['engine']}")
    phases = {e["ph"] for e in events}
    _require({"M", "X"} <= phases, f"phases seen: {sorted(phases)}")
    pids = {e["pid"] for e in events}
    _require(SERVICE_PID in pids, f"no service track (pid {SERVICE_PID}): {sorted(pids)}")
    _require(0 in pids, f"no engine cpu track (pid 0): {sorted(pids)}")
    stages = {e["name"]: e for e in events if e["ph"] == "X" and e["pid"] == SERVICE_PID}
    missing = EXPECTED_STAGES - set(stages)
    _require(not missing, f"stitched trace missing stages: {sorted(missing)}")

    entry = next((e for e in RunLedger(out / "ledger").entries()
                  if e.config_key == doc["config_key"] and e.outcome == "ok"), None)
    _require(entry is not None, "no ok ledger entry for the traced run")
    _require(entry.trace_id == trace_id,
             f"ledger trace_id {entry.trace_id} != header {trace_id}")
    span_s = {stage: stages[stage]["dur"] / 1e6 for stage in ("queue.wait", "execute", "worker.run")}
    _require(abs(span_s["worker.run"] - entry.wall_seconds) < WALL_SLACK,
             f"worker.run span {span_s['worker.run']:.3f}s vs ledger wall "
             f"{entry.wall_seconds:.3f}s (slack {WALL_SLACK}s)")
    _require(span_s["execute"] + WALL_SLACK >= span_s["worker.run"],
             f"execute span {span_s['execute']:.3f}s shorter than worker.run "
             f"{span_s['worker.run']:.3f}s")
    # Only the traced run has executed, so the cumulative stage
    # histograms hold exactly its spans.
    metrics_text, _ = _request(transcript, "GET", f"{base}/metrics")
    sums = _stage_sums(metrics_text)
    for stage, seconds in span_s.items():
        _require(stage in sums, f"/metrics missing stage histogram for {stage}")
        _require(abs(sums[stage] - seconds) < WALL_SLACK,
                 f"stage {stage}: /metrics sum {sums[stage]:.3f}s vs span {seconds:.3f}s")
    _require("repro_service_request_seconds" in metrics_text,
             "/metrics missing repro_service_request_seconds")
    transcript.record(
        "traced_point", trace_id=trace_id, run_id=run_id,
        span_seconds={k: round(v, 6) for k, v in span_s.items()},
        ledger_wall_seconds=entry.wall_seconds, metrics_stage_sums=sums,
    )
    return run_id


def _sweep(transcript: Transcript, base: str, out: Path) -> list[str]:
    """Phase 2: the sweep, its deduped resubmission, a bit-identical
    result and c2c view, the listing and the /metrics families."""
    submit, _ = _request(transcript, "POST", f"{base}/runs", SWEEP, expect=202)
    _require(submit["count"] == 4, f"sweep expanded to {submit['count']} runs, wanted 4")
    for ref in submit["runs"]:
        missing = REF_SCHEMA - set(ref)
        _require(not missing, f"run ref missing keys: {sorted(missing)}")
        _require(not ref["deduped"], f"first submission claims dedup: {ref}")
    run_ids = [ref["run_id"] for ref in submit["runs"]]
    _require(len(set(run_ids)) == 4, "sweep produced colliding run ids")
    _poll_runs(transcript, base, run_ids)

    ledger = RunLedger(out / "ledger")
    simulated_before = ledger.summarize()["simulated_runs"]
    resubmit, _ = _request(transcript, "POST", f"{base}/runs", SWEEP, expect=202)
    _require(sorted(r["run_id"] for r in resubmit["runs"]) == sorted(run_ids),
             "resubmission returned different run ids")
    for ref in resubmit["runs"]:
        _require(ref["deduped"], f"resubmission was not deduped: {ref}")
    simulated_after = ledger.summarize()["simulated_runs"]
    _require(simulated_after == simulated_before,
             f"dedup leaked a simulation: ledger simulated_runs "
             f"{simulated_before} -> {simulated_after}")
    transcript.record("dedup", simulated_runs=simulated_after,
                      resubmitted=len(resubmit["runs"]))

    spec = ScenarioSpec(workload="Water", strategy="PREF", num_cpus=4, scale=0.05,
                        transfer_cycles=8)
    _require(spec.run_id in run_ids, "reference spec's run id not among sweep runs")
    result, _ = _request(transcript, "GET", f"{base}/runs/{spec.run_id}/result")
    direct = ExperimentRunner(num_cpus=4, scale=0.05).run(
        spec.workload, spec.strategy_obj(), spec.machine()
    )
    _require(result["metrics"] == direct.to_dict(),
             "HTTP result differs from a direct simulate() of the same spec")
    transcript.record("bit_identical", run_id=spec.run_id, exec_cycles=direct.exec_cycles)
    view, _ = _request(transcript, "GET", f"{base}/runs/{spec.run_id}/result?view=c2c")
    _require(view["report"] == json.loads(json.dumps(c2c_report(spec))),
             "?view=c2c differs from the in-process line profile of the same spec")
    transcript.record("c2c_view", run_id=spec.run_id, lines=view["report"]["num_lines"])

    listing, _ = _request(transcript, "GET", f"{base}/runs?status=completed")
    _require(listing["count"] >= 5, f"expected >=5 completed runs, got {listing['count']}")
    metrics_text, _ = _request(transcript, "GET", f"{base}/metrics")
    for family in METRIC_FAMILIES:
        _require(family in metrics_text, f"/metrics missing family {family}")
    _require('repro_service_submissions_total{result="dedup"} 4' in metrics_text,
             "dedup counter does not show the 4 folded resubmissions")
    return run_ids


def _observability(transcript: Transcript, base: str, out: Path, run_ids: list[str]) -> None:
    """Phase 3: snapshots, history, /slo and the dashboard."""
    deadline = time.monotonic() + 45.0
    while True:
        index, _ = _request(transcript, "GET", f"{base}/metrics/history")
        if index["snapshots"] >= 2:
            break
        _require(time.monotonic() < deadline, "fewer than 2 snapshots within 45s")
        time.sleep(0.5)
    for name in ("repro_service_requests_total", "repro_ledger_entries"):
        _require(name in index["series"], f"{name} missing from the history index")
    series, _ = _request(transcript, "GET",
                         f"{base}/metrics/history?name=repro_service_requests_total")
    cumulative = [value for _ts, value in series["cumulative"]]
    _require(cumulative == sorted(cumulative) and cumulative[-1] > 0,
             f"counter history not monotone: {cumulative}")

    slo_doc, _ = _request(transcript, "GET", f"{base}/slo")
    _require(slo_doc["ok"] is True, f"healthy rules breached: {slo_doc}")
    rule_names = {r["name"] for r in slo_doc["rules"]}
    _require({"runs-ledgered", "request-latency-p95"} <= rule_names,
             f"--slo-rules file not loaded: {sorted(rule_names)}")

    html_text, _ = _request(transcript, "GET", f"{base}/dashboard")
    _require(isinstance(html_text, str) and "<html" in html_text,
             "dashboard did not return HTML")
    (out / "dashboard.html").write_text(html_text, encoding="utf-8")
    marker = 'id="dashboard-data">'
    _require(marker in html_text, "dashboard missing embedded JSON")
    start = html_text.index(marker) + len(marker)
    doc = json.loads(html_text[start:html_text.index("</script>", start)])
    missing = DASHBOARD_SCHEMA - set(doc)
    _require(not missing, f"dashboard document missing keys: {sorted(missing)}")
    _require(doc["tsdb"]["snapshots"] >= 2, f"dashboard tsdb: {doc['tsdb']}")
    recent = sorted(run["run_id"] for run in doc["recent_runs"])
    _require(recent == sorted(run_ids), f"recent runs {recent} != completed {sorted(run_ids)}")


def _shutdown(transcript: Transcript, base: str, out: Path, proc: subprocess.Popen) -> None:
    """Phase 4: final scrape, graceful SIGTERM, flush reconciliation.

    The warm-up scrape puts the /metrics request counter on the board,
    so the final scrape carries its own line (one behind, by
    construction).
    """
    _request(transcript, "GET", f"{base}/metrics")
    metrics_text, _ = _request(transcript, "GET", f"{base}/metrics")
    _require("repro_slo_ok" in metrics_text, "serve-loop evaluator never set repro_slo_ok")
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=90)
    transcript.record("graceful_shutdown", exit_code=code)
    _require(code == 0, f"SIGTERM exit code {code}, wanted graceful 0")

    flush = TimeSeriesStore(out / "tsdb").last_snapshot()
    _require(flush is not None, "no flush snapshot after shutdown")
    compared = _reconcile_flush(flush, _scrape_values(metrics_text))
    summary = RunLedger(out / "ledger").summarize()
    families = flush["families"]
    for family, key in (("repro_ledger_entries", "entries"),
                        ("repro_ledger_simulated_runs", "simulated_runs")):
        _require(families[family]["samples"][0]["value"] == summary[key],
                 f"{family} does not match the ledger")
    transcript.record("reconciled", samples_compared=compared,
                      ledger_entries=summary["entries"],
                      simulated_runs=summary["simulated_runs"])


def _sentinel(transcript: Transcript, env: dict[str, str], out: Path,
              rules: str, expect_code: int) -> None:
    """Phase 5, once per rules file: one ``repro slo check`` subprocess."""
    cmd = [sys.executable, "-m", "repro", "slo", "check",
           "--tsdb", str(out / "tsdb"), "--rules", str(out / rules)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    transcript.record("sentinel", cmd=cmd, exit_code=proc.returncode,
                      stdout=proc.stdout[-4000:], stderr=proc.stderr[-2000:])
    _require(proc.returncode == expect_code,
             f"slo check with {rules}: exit {proc.returncode}, wanted {expect_code}: "
             f"{proc.stdout}")
    if expect_code != 0:
        _require("BREACHED" in proc.stdout, f"no breach banner: {proc.stdout}")


def run_smoke(out_dir: str) -> int:
    out = Path(out_dir)
    stale = [name for name in ("cache", "ledger", "tsdb") if (out / name).exists()]
    _require(not stale, f"{out} already holds {stale} from an earlier run; "
                        "pass a fresh --out directory")
    out.mkdir(parents=True, exist_ok=True)
    (out / "healthy.toml").write_text(HEALTHY_RULES, encoding="utf-8")
    (out / "impossible.toml").write_text(IMPOSSIBLE_RULES, encoding="utf-8")
    transcript = Transcript()
    port = _free_port()
    base = f"http://127.0.0.1:{port}"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", str(port),
        "--cache", str(out / "cache"), "--ledger-dir", str(out / "ledger"),
        "--trace", "--drain-timeout", "60",
        "--tsdb", str(out / "tsdb"), "--snapshot-interval", "1",
        "--slo-rules", str(out / "healthy.toml"),
    ]
    transcript.record("spawn", cmd=cmd)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    ok = False
    try:
        _wait_ready(transcript, base, proc)
        traced_id = _traced_point(transcript, base, out)
        sweep_ids = _sweep(transcript, base, out)
        _observability(transcript, base, out, [traced_id, *sweep_ids])
        _shutdown(transcript, base, out, proc)
        _sentinel(transcript, env, out, "healthy.toml", expect_code=0)
        _sentinel(transcript, env, out, "impossible.toml", expect_code=1)
        ok = True
    finally:
        transcript.record("teardown", server_alive=proc.poll() is None)
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=15)
        if proc.stdout is not None:
            transcript.record("server_log", tail=proc.stdout.read()[-8000:])
        transcript.write(out / "transcript.json", ok)
    print(f"service smoke: ok ({len(transcript.steps)} steps, artifacts: {out})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro service end-to-end smoke")
    parser.add_argument(
        "--out", default="results/service_smoke",
        help="artifact directory (transcript.json, trace.json, dashboard.html, "
             "tsdb, plus the server's cache and ledger); must not hold an "
             "earlier run's state",
    )
    args = parser.parse_args(argv)
    try:
        return run_smoke(args.out)
    except SmokeFailure as exc:
        print(f"service smoke: FAILED -- {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
