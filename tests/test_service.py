"""Tests for the simulation service (`repro.service`).

Covers the frozen ScenarioSpec contract (canonicalization, validation,
key parity with the ExperimentRunner's disk-cache payload), the run
stores (in-memory + ledger hydration with the round-trip fidelity
check), the asyncio scheduler (concurrent-dedup: N identical submits
cost one simulation; failure surfacing), the HTTP API end to end over a
real socket, the mixed-schema ledger regression, cache-stat gauges, and
the `--json` CLI output modes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.common.config import MachineConfig
from repro.common.errors import ConfigurationError, ReproError
from repro.experiments.runner import ExperimentRunner
from repro.perf.diskcache import ResultDiskCache
from repro.prefetch.strategies import strategy_by_name
from repro.service.api import ReproService, ServiceConfig, serve_in_thread
from repro.service.contracts import (
    RUN_ID_LENGTH,
    RunMetadata,
    RunStatus,
    RunStore,
    ScenarioSpec,
)
from repro.service.scheduler import RunScheduler
from repro.service.store import InMemoryRunStore, LedgerRunStore, spec_from_ledger_entry
from repro.telemetry.fleet import TelemetryConfig, export_cache_stats
from repro.telemetry.ledger import LedgerEntry, RunLedger
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.timeseries import TimeSeriesStore

#: The CI-speed frame used throughout: tiny but a real simulation.
QUICK = dict(workload="Water", num_cpus=2, scale=0.02, transfer_cycles=4)

#: Three scenarios -- as spec fields and as the runner's job arguments
#: (workload, strategy, machine, restructured, num_cpus, seed, scale) --
#: with the config_key hex the disk cache and ledger have always used.
GOLDEN_KEYS = [
    pytest.param(
        dict(workload="Water", strategy="NP"),
        ("Water", strategy_by_name("NP"), MachineConfig(), False, 12, 42, 1.0),
        "d911f03dfa3f1c310b12c491f2dd55bd4a8e3217c695be9e79da05463efb6f71",
        id="water-np",
    ),
    pytest.param(
        dict(
            workload="Topopt",
            strategy="PWS",
            restructured=True,
            num_cpus=4,
            scale=0.05,
            transfer_cycles=4,
        ),
        (
            "Topopt",
            strategy_by_name("PWS"),
            MachineConfig(num_cpus=4).with_transfer_cycles(4),
            True,
            4,
            42,
            0.05,
        ),
        "770ab73d9475797b608c6df248d4024bd564cec4704cdd473167c457ac21ec85",
        id="topopt-pws-restructured",
    ),
    pytest.param(
        dict(
            workload="Mp3d",
            strategy="ADAPT",
            adapt_high=0.99,
            adapt_window=4096,
            protocol="msi",
            transfer_cycles=32,
            num_cpus=8,
            seed=7,
            scale=0.5,
        ),
        (
            "Mp3d",
            dataclasses.replace(
                strategy_by_name("ADAPT"), high_watermark=0.99, feedback_window=4096
            ),
            MachineConfig(num_cpus=8, protocol="msi").with_transfer_cycles(32),
            False,
            8,
            7,
            0.5,
        ),
        "9d46b70947bb4128a29fcb7de36f769645a45b5fb761005e4ae851341c5f5545",
        id="mp3d-adapt-msi",
    ),
]


# --------------------------------------------------------------------------
# ScenarioSpec contract
# --------------------------------------------------------------------------


class TestScenarioSpec:
    def test_canonicalizes_names(self):
        spec = ScenarioSpec(workload="water", strategy="pref")
        assert spec.workload == "Water"
        assert spec.strategy == "PREF"

    @pytest.mark.parametrize("fields, job_args, key", GOLDEN_KEYS)
    def test_config_key_is_golden(self, fields, job_args, key):
        """Existing disk-cache entries and ledger lines keep their keys."""
        assert ScenarioSpec(**fields).config_key == key

    @pytest.mark.parametrize("fields, job_args, key", GOLDEN_KEYS)
    def test_run_job_key_is_golden(self, fields, job_args, key):
        """The runner's job, built without a spec, hashes identically."""
        from repro.experiments.runner import RunJob

        job = RunJob(*job_args)
        assert job.config_key == key
        assert ScenarioSpec(**fields).job() == job

    def test_run_id_is_key_prefix(self):
        spec = ScenarioSpec(**QUICK)
        assert spec.run_id == spec.config_key[:RUN_ID_LENGTH]
        assert len(spec.config_key) == 64

    def test_label_matches_fleet_label(self):
        spec = ScenarioSpec(**QUICK, strategy="PREF", restructured=True)
        assert spec.label == "Water/PREF+restructured@4c"

    def test_distinct_fields_distinct_keys(self):
        base = ScenarioSpec(**QUICK)
        assert base.config_key != ScenarioSpec(**{**QUICK, "transfer_cycles": 8}).config_key
        assert base.config_key != ScenarioSpec(**{**QUICK, "seed": 43}).config_key
        assert base.config_key != ScenarioSpec(**{**QUICK, "strategy": "PWS"}).config_key

    def test_adaptive_knobs_change_key(self):
        plain = ScenarioSpec(**QUICK, strategy="ADAPT")
        tuned = ScenarioSpec(**QUICK, strategy="ADAPT", adapt_high=0.9, adapt_low=0.8)
        assert plain.config_key != tuned.config_key
        assert tuned.strategy_obj().high_watermark == 0.9

    def test_adaptive_knobs_rejected_on_open_loop(self):
        with pytest.raises(ConfigurationError, match="ADAPT"):
            ScenarioSpec(**QUICK, strategy="PREF", adapt_high=0.9)

    def test_derived_strategy_round_trips(self):
        spec = ScenarioSpec(**QUICK, strategy="PREF(d=400)")
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.config_key == spec.config_key
        assert again.strategy_obj().distance == 400

    def test_validation_is_eager(self):
        with pytest.raises(ReproError):
            ScenarioSpec(workload="NoSuchWorkload")
        with pytest.raises(ReproError):
            ScenarioSpec(**{**QUICK, "scale": -1.0})
        with pytest.raises(ReproError):
            ScenarioSpec(**{**QUICK, "transfer_cycles": 0})
        with pytest.raises(ReproError):
            ScenarioSpec(workload="Water", strategy="NOPE")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="transfre_cycles"):
            ScenarioSpec.from_dict({"workload": "Water", "transfre_cycles": 8})
        with pytest.raises(ConfigurationError, match="workload"):
            ScenarioSpec.from_dict({"strategy": "PREF"})

    def test_frozen(self):
        spec = ScenarioSpec(**QUICK)
        with pytest.raises(Exception):
            spec.workload = "Mp3d"


# --------------------------------------------------------------------------
# Stores
# --------------------------------------------------------------------------


class TestStores:
    def test_in_memory_store_satisfies_protocol(self):
        assert isinstance(InMemoryRunStore(), RunStore)

    def test_put_get_by_key_list(self):
        store = InMemoryRunStore()
        meta = store.put(RunMetadata(spec=ScenarioSpec(**QUICK)))
        assert store.get(meta.run_id) is meta
        assert store.by_key(meta.config_key) is meta
        assert store.list(workload="water") == [meta]
        assert store.list(status="queued") == [meta]
        assert store.list(status=RunStatus.COMPLETED) == []
        assert len(store) == 1

    def test_metadata_derives_identity(self):
        spec = ScenarioSpec(**QUICK)
        meta = RunMetadata(spec=spec)
        assert meta.run_id == spec.run_id
        assert meta.config_key == spec.config_key
        assert meta.status is RunStatus.QUEUED
        assert meta.created_at
        doc = meta.to_dict()
        assert RunMetadata.from_dict(doc).config_key == spec.config_key

    def test_ledger_hydration(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ok_spec = ScenarioSpec(**QUICK)
        bad_spec = ScenarioSpec(**{**QUICK, "strategy": "PWS"})
        for spec, outcome, error in (
            (ok_spec, "ok", None),
            (bad_spec, "error", "worker exploded"),
        ):
            ledger.append(
                LedgerEntry(
                    config_key=spec.config_key,
                    workload=spec.workload,
                    restructured=spec.restructured,
                    strategy=spec.strategy,
                    machine=spec.machine().describe(),
                    num_cpus=spec.num_cpus,
                    seed=spec.seed,
                    scale=spec.scale,
                    engine_version=spec.payload()["engine_version"],
                    outcome=outcome,
                    error=error,
                )
            )
        # One entry whose key cannot round-trip (foreign machine state).
        ledger.append(
            LedgerEntry(
                config_key="f" * 64,
                workload="Water",
                restructured=False,
                strategy="PREF",
                machine={},
                num_cpus=2,
                seed=1,
                scale=0.02,
                engine_version="0",
            )
        )
        store = LedgerRunStore(ledger)
        assert store.hydrated == 2
        assert store.skipped == 1
        resurrected = store.by_key(ok_spec.config_key)
        assert resurrected is not None
        assert resurrected.status is RunStatus.COMPLETED
        assert resurrected.source == "ledger"
        failed = store.by_key(bad_spec.config_key)
        assert failed.status is RunStatus.FAILED
        assert failed.error == "[error] worker exploded"

    def test_spec_from_entry_checks_round_trip(self):
        spec = ScenarioSpec(**QUICK)
        entry = LedgerEntry(
            config_key=spec.config_key,
            workload=spec.workload,
            restructured=False,
            strategy=spec.strategy,
            machine=spec.machine().describe(),
            num_cpus=spec.num_cpus,
            seed=spec.seed,
            scale=spec.scale,
            engine_version=spec.payload()["engine_version"],
        )
        assert spec_from_ledger_entry(entry) == spec
        entry.config_key = "0" * 64  # same fields, foreign key: reject
        assert spec_from_ledger_entry(entry) is None


# --------------------------------------------------------------------------
# Ledger mixed-schema regression (satellite)
# --------------------------------------------------------------------------


class TestMixedSchemaLedger:
    def test_trace_id_mixed_schema_round_trip(self, tmp_path):
        """Pre-tracing lines (no trace_id) and traced lines coexist.

        Readers must yield both, with trace_id None on old records; and
        an untraced entry must serialize WITHOUT the key at all, so
        ledgers written by an untraced fleet stay byte-identical to
        pre-tracing ones.
        """
        spec = ScenarioSpec(**QUICK)
        fields = dict(
            config_key=spec.config_key,
            workload=spec.workload,
            restructured=False,
            strategy=spec.strategy,
            machine=spec.machine().describe(),
            num_cpus=spec.num_cpus,
            seed=spec.seed,
            scale=spec.scale,
            engine_version="2",
        )
        untraced = LedgerEntry(**fields)
        traced = LedgerEntry(**fields, trace_id="ab" * 8)
        assert "trace_id" not in untraced.to_dict()
        assert traced.to_dict()["trace_id"] == "ab" * 8
        ledger = RunLedger(tmp_path)
        ledger.append(untraced)
        ledger.append(traced)
        loaded = list(ledger.entries())
        assert [e.trace_id for e in loaded] == [None, "ab" * 8]
        # Hydration tolerates the mix too.
        assert LedgerRunStore(ledger).hydrated >= 1

    def test_entries_skip_records_missing_config_key(self, tmp_path):
        """Pre-content-key lines must be skipped, never raise."""
        spec = ScenarioSpec(**QUICK)
        path = tmp_path / "runs.jsonl"
        good = LedgerEntry(
            config_key=spec.config_key,
            workload="Water",
            restructured=False,
            strategy="PREF",
            machine=spec.machine().describe(),
            num_cpus=2,
            seed=42,
            scale=0.02,
            engine_version="2",
            timestamp="2026-01-01T00:00:00+00:00",
        ).to_dict()
        pre_pr4 = {k: v for k, v in good.items() if k != "config_key"}
        null_key = dict(good, config_key=None)
        empty_key = dict(good, config_key="")
        with path.open("w", encoding="utf-8") as fh:
            for record in (pre_pr4, good, null_key, empty_key):
                fh.write(json.dumps(record) + "\n")
            fh.write('{"torn line\n')
        ledger = RunLedger(tmp_path)
        entries = list(ledger.entries())
        assert len(entries) == 1
        assert entries[0].config_key == spec.config_key
        # query/summarize/hydration all sit on entries() and must agree.
        assert len(ledger.query(workload="Water")) == 1
        assert ledger.summarize()["entries"] == 1
        assert LedgerRunStore(ledger).hydrated == 1


# --------------------------------------------------------------------------
# Scheduler
# --------------------------------------------------------------------------


def _run(coro):
    return asyncio.run(coro)


class TestScheduler:
    def test_concurrent_identical_submissions_one_simulation(self, tmp_path):
        """N concurrent identical POSTs -> one simulation, N refs."""

        async def scenario():
            ledger = RunLedger(tmp_path / "ledger")
            scheduler = RunScheduler(
                ledger=ledger, cache_dir=str(tmp_path / "cache")
            )
            await scheduler.start()
            try:
                spec = ScenarioSpec(**QUICK)
                pairs = await asyncio.gather(
                    *(scheduler.submit(spec) for _ in range(8))
                )
                run_ids = {meta.run_id for meta, _ in pairs}
                assert run_ids == {spec.run_id}
                assert sum(1 for _, deduped in pairs if not deduped) == 1
                meta = pairs[0][0]
                while not meta.status.terminal:
                    await asyncio.sleep(0.05)
                assert meta.status is RunStatus.COMPLETED
                assert meta.submissions == 8
                result = scheduler.result(spec.run_id)
                assert result is not None
                dedup = scheduler.registry.counter(
                    "repro_service_submissions_total", "", ("result",)
                )
                assert dedup.value(result="new") == 1
                assert dedup.value(result="dedup") == 7
                return ledger
            finally:
                await scheduler.close()

        ledger = _run(scenario())
        assert ledger.summarize()["simulated_runs"] == 1

    def test_label_colliding_specs_share_a_batch_and_keep_their_identity(
        self, tmp_path, monkeypatch
    ):
        """Specs identical but for the protocol share a label.  Keyed by
        config_key they run in one batch, each with its own outcome."""
        from repro.experiments import runner as runner_module

        illinois = ScenarioSpec(**QUICK)
        msi = ScenarioSpec(**QUICK, protocol="msi")
        assert illinois.label == msi.label
        assert illinois.config_key != msi.config_key
        batches: list[int] = []
        real_run_many = ExperimentRunner.run_many

        def spy(self, jobs, telemetry=None):
            batches.append(len(jobs))
            return real_run_many(self, jobs, telemetry=telemetry)

        monkeypatch.setattr(ExperimentRunner, "run_many", spy)

        async def scenario(cache):
            scheduler = RunScheduler(cache_dir=str(tmp_path / cache))
            try:
                # Both are queued before the worker starts draining.
                metas = [(await scheduler.submit(spec))[0] for spec in (illinois, msi)]
                await scheduler.start()
                while not all(meta.status.terminal for meta in metas):
                    await asyncio.sleep(0.02)
                return metas, [scheduler.result(meta.run_id) for meta in metas]
            finally:
                await scheduler.close()

        metas, results = _run(scenario("ok"))
        assert batches == [2]
        assert [meta.status for meta in metas] == [RunStatus.COMPLETED] * 2
        for spec, meta, result in zip((illinois, msi), metas, results):
            assert meta.config_key == spec.config_key
            direct = ExperimentRunner(
                num_cpus=spec.num_cpus, seed=spec.seed, scale=spec.scale
            ).run(spec.workload, spec.strategy_obj(), spec.machine(), spec.restructured)
            assert result.to_dict() == direct.to_dict()

        real_execute = runner_module.execute

        def msi_fails(job, *args, **kwargs):
            if job.machine.protocol == "msi":
                raise RuntimeError("msi exploded")
            return real_execute(job, *args, **kwargs)

        monkeypatch.setattr(runner_module, "execute", msi_fails)
        metas, results = _run(scenario("one-fails"))
        assert batches == [2, 2]
        assert [meta.status for meta in metas] == [RunStatus.COMPLETED, RunStatus.FAILED]
        assert metas[1].error == "[error] msi exploded"
        assert results[0] is not None and results[1] is None

    def test_failed_run_surfaces_job_failure_detail(self, tmp_path, monkeypatch):
        from repro.telemetry.fleet import FleetError, JobFailure

        spec = ScenarioSpec(**QUICK)

        def boom(self, jobs, telemetry=None):
            raise FleetError(
                "1 of 1 grid points failed",
                [JobFailure(spec.config_key, spec.label, kind="error", message="kaput")],
            )

        monkeypatch.setattr(ExperimentRunner, "run_many", boom)

        async def scenario():
            scheduler = RunScheduler(cache_dir=str(tmp_path / "cache"))
            await scheduler.start()
            try:
                meta, deduped = await scheduler.submit(spec)
                assert not deduped
                while not meta.status.terminal:
                    await asyncio.sleep(0.02)
                assert meta.status is RunStatus.FAILED
                assert meta.error == "[error] kaput"
                assert scheduler.result(meta.run_id) is None
                # A failed run re-queues on resubmission.
                again, deduped = await scheduler.submit(spec)
                assert again is meta
                assert not deduped
                assert meta.status is RunStatus.QUEUED
            finally:
                await scheduler.close()

        _run(scenario())

    def test_result_served_from_disk_cache_after_restart(self, tmp_path):
        """A hydrated completed run re-serves its result by content key."""
        cache_dir = str(tmp_path / "cache")
        ledger = RunLedger(tmp_path / "ledger")
        spec = ScenarioSpec(**QUICK)

        async def first_life():
            scheduler = RunScheduler(ledger=ledger, cache_dir=cache_dir)
            await scheduler.start()
            try:
                meta, _ = await scheduler.submit(spec)
                while not meta.status.terminal:
                    await asyncio.sleep(0.05)
                assert meta.status is RunStatus.COMPLETED
                return scheduler.result(meta.run_id).to_dict()
            finally:
                await scheduler.close()

        first = _run(first_life())

        async def second_life():
            store = LedgerRunStore(ledger)
            scheduler = RunScheduler(store=store, ledger=ledger, cache_dir=cache_dir)
            try:
                meta = store.by_key(spec.config_key)
                assert meta is not None and meta.status is RunStatus.COMPLETED
                assert meta.source == "ledger"
                result = scheduler.result(meta.run_id)
                assert result is not None and result.to_dict() == first
                # ... and a resubmission dedups instead of re-simulating.
                again, deduped = await scheduler.submit(spec)
                assert deduped and again.run_id == meta.run_id
            finally:
                await scheduler.close()

        _run(second_life())


# --------------------------------------------------------------------------
# HTTP API end to end (real socket, stdlib client)
# --------------------------------------------------------------------------


def _http_full(method: str, url: str, body: dict | None = None):
    """Like _http but also returns the response headers."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw = resp.read().decode()
            status, headers = resp.status, dict(resp.headers.items())
            ctype = resp.headers.get("Content-Type", "")
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode()
        status, headers = exc.code, dict(exc.headers.items())
        ctype = exc.headers.get("Content-Type", "")
    if ctype.startswith("application/json"):
        return status, headers, json.loads(raw)
    return status, headers, raw


def _http(method: str, url: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw = resp.read().decode()
            status = resp.status
            ctype = resp.headers.get("Content-Type", "")
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode()
        status = exc.code
        ctype = exc.headers.get("Content-Type", "")
    if ctype.startswith("application/json"):
        return status, json.loads(raw)
    return status, raw


@pytest.fixture(scope="class")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    config = ServiceConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=str(root / "cache"),
        ledger_path=str(root / "ledger" / "runs.jsonl"),
    )
    svc, base, stop = serve_in_thread(config)
    try:
        yield svc, base
    finally:
        stop()


class TestHttpApi:
    def test_end_to_end(self, service):
        svc, base = service
        spec_body = dict(QUICK, strategy="PREF")

        status, doc = _http("POST", f"{base}/runs", spec_body)
        assert status == 202
        assert doc["count"] == 1 and not doc["deduped"]
        run_id = doc["run_id"]
        assert run_id == ScenarioSpec(**spec_body).run_id

        deadline = 120
        while True:
            status, run_doc = _http("GET", f"{base}/runs/{run_id}")
            assert status == 200
            if run_doc["status"] in ("completed", "failed"):
                break
            deadline -= 1
            assert deadline > 0, "run did not finish"
            import time

            time.sleep(0.2)
        assert run_doc["status"] == "completed"
        assert run_doc["spec"]["workload"] == "Water"

        status, result = _http("GET", f"{base}/runs/{run_id}/result")
        assert status == 200
        direct = ExperimentRunner(num_cpus=2, scale=0.02).run(
            "Water", strategy_by_name("PREF"),
            ScenarioSpec(**spec_body).machine(),
        )
        assert result["metrics"] == direct.to_dict()

        # Resubmission dedups.
        status, again = _http("POST", f"{base}/runs", spec_body)
        assert status == 202 and again["deduped"]
        assert again["run_id"] == run_id

        # List + filter.
        status, listing = _http("GET", f"{base}/runs?status=completed")
        assert status == 200
        assert any(r["run_id"] == run_id for r in listing["runs"])

        # Metrics scrape exposes service + cache families.
        status, text = _http("GET", f"{base}/metrics")
        assert status == 200
        assert "repro_service_requests_total" in text
        assert 'repro_service_submissions_total{result="dedup"}' in text
        assert "repro_cache_entries" in text

    def test_sweep_expansion(self, service):
        svc, base = service
        sweep = {
            "sweep": dict(
                QUICK, strategy=["NP", "PREF"], transfer_cycles=[4, 8]
            )
        }
        status, doc = _http("POST", f"{base}/runs", sweep)
        assert status == 202
        assert doc["count"] == 4
        assert len({r["run_id"] for r in doc["runs"]}) == 4

    def test_validation_errors_are_400(self, service):
        svc, base = service
        status, doc = _http("POST", f"{base}/runs", {"workload": "NoSuch"})
        assert status == 400 and "error" in doc
        status, doc = _http("POST", f"{base}/runs", dict(QUICK, bogus_field=1))
        assert status == 400 and "bogus_field" in doc["error"]

    def test_unknown_run_is_404(self, service):
        svc, base = service
        status, doc = _http("GET", f"{base}/runs/{'0' * 16}")
        assert status == 404
        status, doc = _http("GET", f"{base}/runs/{'0' * 16}/result")
        assert status == 404

    def test_unknown_route_is_404(self, service):
        svc, base = service
        status, doc = _http("GET", f"{base}/nope")
        assert status == 404


# --------------------------------------------------------------------------
# Tracing over HTTP (tentpole) + graceful shutdown (satellite)
# --------------------------------------------------------------------------


def _poll_completed(base: str, run_id: str, budget: int = 150) -> dict:
    import time

    while True:
        status, doc = _http("GET", f"{base}/runs/{run_id}")
        assert status == 200
        if doc["status"] in ("completed", "failed"):
            return doc
        budget -= 1
        assert budget > 0, "run did not finish"
        time.sleep(0.2)


@pytest.fixture(scope="class")
def traced_service(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    config = ServiceConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=str(root / "cache"),
        ledger_path=str(root / "ledger" / "runs.jsonl"),
        trace=True,
    )
    svc, base, stop = serve_in_thread(config)
    try:
        yield svc, base, root
    finally:
        stop()


class TestTracedHttpApi:
    def test_single_run_one_causal_timeline(self, traced_service):
        svc, base, root = traced_service
        spec_body = dict(QUICK, strategy="PREF")

        status, headers, doc = _http_full("POST", f"{base}/runs", spec_body)
        assert status == 202
        trace_id = headers.get("X-Repro-Trace-Id")
        assert trace_id and len(trace_id) == 16
        # A single-point POST's run adopts the request trace: the run's
        # timeline reaches all the way back to HTTP parse.
        assert doc["runs"][0]["trace_id"] == trace_id
        run_id = doc["run_id"]

        run_doc = _poll_completed(base, run_id)
        assert run_doc["status"] == "completed"
        assert run_doc["trace_id"] == trace_id

        status, trace_doc = _http("GET", f"{base}/runs/{run_id}/trace")
        assert status == 200
        other = trace_doc["otherData"]
        assert other["trace_id"] == trace_id
        assert other["run_id"] == run_id
        assert other["timestamp_unit"] == "microseconds"
        service_spans = {
            e["name"]: e
            for e in trace_doc["traceEvents"]
            if e.get("cat") == "service" and e["ph"] == "X"
        }
        assert {
            "request.parse", "request.validate", "submit", "queue.wait",
            "batch.assemble", "execute", "executor.dispatch", "worker.run",
            "engine.simulate",
        } <= set(service_spans)
        # Engine events are stitched in under the run's window.
        engine_pids = {
            e["pid"] for e in trace_doc["traceEvents"] if e.get("pid", 10) < 10
        }
        assert 0 in engine_pids  # cpu track
        assert other["engine"]["exec_cycles"] > 0
        assert other["engine"]["anchor"] == "engine.simulate"

        # Reconciliation: the ledger's wall time and the /metrics stage
        # histogram agree with the spans (same measurements, same hook).
        ledger = RunLedger(root / "ledger")
        entry = next(
            e for e in ledger.entries()
            if e.config_key == run_doc["config_key"] and e.outcome == "ok"
        )
        assert entry.trace_id == trace_id
        worker_s = service_spans["worker.run"]["dur"] / 1e6
        assert abs(worker_s - entry.wall_seconds) < 1.0
        status, metrics_text = _http("GET", f"{base}/metrics")
        assert status == 200
        assert "repro_service_stage_seconds" in metrics_text
        assert "repro_service_request_seconds" in metrics_text
        for line in metrics_text.splitlines():
            if line.startswith('repro_service_stage_seconds_sum{stage="worker.run"}'):
                assert abs(float(line.rpartition(" ")[2]) - worker_s) < 1.0
                break
        else:
            pytest.fail("no worker.run stage histogram in /metrics")

    def test_engine_can_be_excluded(self, traced_service):
        svc, base, _root = traced_service
        spec_body = dict(QUICK, strategy="PREF")
        status, _, doc = _http_full("POST", f"{base}/runs", spec_body)
        run_id = doc["run_id"]
        _poll_completed(base, run_id)
        status, trace_doc = _http("GET", f"{base}/runs/{run_id}/trace?engine=0")
        assert status == 200
        assert all(e.get("pid", 10) >= 10 for e in trace_doc["traceEvents"])
        assert "engine" not in trace_doc["otherData"]

    def test_sweep_points_get_fresh_traces(self, traced_service):
        svc, base, _root = traced_service
        sweep = {"sweep": dict(QUICK, strategy=["NP", "PREF"])}
        status, headers, doc = _http_full("POST", f"{base}/runs", sweep)
        assert status == 202
        request_trace = headers.get("X-Repro-Trace-Id")
        assert request_trace
        per_run = [r["trace_id"] for r in doc["runs"]]
        assert all(per_run)
        assert len(set(per_run)) == 2
        assert request_trace not in per_run

    def test_trace_unknown_run_is_404(self, traced_service):
        svc, base, _root = traced_service
        status, doc = _http("GET", f"{base}/runs/{'0' * 16}/trace")
        assert status == 404


class TestUntracedService:
    def test_untraced_responses_carry_no_trace_surface(self, service):
        """With tracing off the contract is byte-identical to pre-PR."""
        svc, base = service
        spec_body = dict(QUICK, strategy="NP")
        status, headers, doc = _http_full("POST", f"{base}/runs", spec_body)
        assert status == 202
        assert "X-Repro-Trace-Id" not in headers
        assert "trace_id" not in doc["runs"][0]
        run_doc = _poll_completed(base, doc["run_id"])
        assert "trace_id" not in run_doc
        # /trace is a 409 (known run, tracing off), not a 404/500.
        status, err = _http("GET", f"{base}/runs/{doc['run_id']}/trace")
        assert status == 409
        assert "--trace" in err["error"]
        status, metrics_text = _http("GET", f"{base}/metrics")
        assert "repro_service_stage_seconds" not in metrics_text
        # The request-latency histogram is independent of tracing.
        assert "repro_service_request_seconds" in metrics_text


class TestGracefulShutdown:
    def test_shutdown_drains_then_refuses(self, tmp_path):
        config = ServiceConfig(
            host="127.0.0.1", port=0, cache_dir=str(tmp_path / "cache"),
            ledger_path=None, drain_timeout=60.0,
        )
        svc, base, stop = serve_in_thread(config)
        try:
            status, doc = _http("POST", f"{base}/runs", dict(QUICK, strategy="PREF"))
            assert status == 202
            run_id = doc["run_id"]
            future = asyncio.run_coroutine_threadsafe(svc.shutdown(), svc.loop)
            assert future.result(timeout=90) is True  # drained
            # The in-flight run finished before the listener died.
            assert svc.store.get(run_id).status.value == "completed"
            with pytest.raises((urllib.error.URLError, ConnectionError)):
                _http("GET", f"{base}/healthz")
        finally:
            stop()

    def test_shutdown_is_idempotent(self, tmp_path):
        config = ServiceConfig(
            host="127.0.0.1", port=0, cache_dir=None, ledger_path=None
        )
        svc, base, stop = serve_in_thread(config)
        try:
            first = asyncio.run_coroutine_threadsafe(svc.shutdown(), svc.loop)
            assert first.result(timeout=30) is True
            second = asyncio.run_coroutine_threadsafe(svc.shutdown(), svc.loop)
            assert second.result(timeout=30) is True
        finally:
            stop()


# --------------------------------------------------------------------------
# Observability routes: /metrics/history, /slo, /dashboard (tentpole)
# --------------------------------------------------------------------------


@pytest.fixture(scope="class")
def obs_service(tmp_path_factory):
    """A service with the time-series store on and a fast sampler."""
    root = tmp_path_factory.mktemp("obs")
    config = ServiceConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=str(root / "cache"),
        ledger_path=str(root / "ledger" / "runs.jsonl"),
        tsdb_dir=str(root / "tsdb"),
        snapshot_interval=0.2,
    )
    svc, base, stop = serve_in_thread(config)
    try:
        yield svc, base, root
    finally:
        stop()


class TestObservabilityRoutes:
    def _wait_snapshots(self, base: str, minimum: int, budget: int = 100) -> dict:
        import time

        while True:
            status, index = _http("GET", f"{base}/metrics/history")
            assert status == 200
            if index["snapshots"] >= minimum:
                return index
            budget -= 1
            assert budget > 0, "sampler produced no snapshots"
            time.sleep(0.2)

    def test_history_index_and_named_series(self, obs_service):
        svc, base, _root = obs_service
        status, doc = _http("POST", f"{base}/runs", dict(QUICK, strategy="NP"))
        assert status == 202
        _poll_completed(base, doc["run_id"])
        index = self._wait_snapshots(base, minimum=2)
        assert index["series"]["repro_service_requests_total"]["kind"] == "counter"
        # Ledger-derived families ride along in every snapshot.
        assert "repro_ledger_entries" in index["series"]

        status, series = _http(
            "GET", f"{base}/metrics/history?name=repro_service_requests_total"
        )
        assert status == 200
        assert series["kind"] == "counter"
        # The restart-corrected view is monotone and never below raw.
        values = [value for _ts, value in series["cumulative"]]
        assert values == sorted(values) and values[-1] > 0
        assert len(series["points"]) == len(values)

        status, _err = _http("GET", f"{base}/metrics/history?name=nope_total")
        assert status == 404

    def test_slo_route_and_live_gauge(self, obs_service):
        svc, base, _root = obs_service
        self._wait_snapshots(base, minimum=1)
        status, doc = _http("GET", f"{base}/slo")
        assert status == 200
        assert set(doc) >= {"ok", "rules", "results", "breaches"}
        rule_names = [r["name"] for r in doc["rules"]]
        assert "request-latency-p95" in rule_names
        # The serve-loop evaluator mirrors verdicts into a gauge.
        status, text = _http("GET", f"{base}/metrics")
        assert "repro_slo_ok" in text

    def test_dashboard_embeds_schema_checked_json(self, obs_service):
        svc, base, _root = obs_service
        self._wait_snapshots(base, minimum=1)
        status, html = _http("GET", f"{base}/dashboard")
        assert status == 200 and isinstance(html, str)
        marker = 'id="dashboard-data">'
        start = html.index(marker) + len(marker)
        doc = json.loads(html[start:html.index("</script>", start)])
        assert doc["schema"] == 1
        assert doc["tsdb"]["snapshots"] >= 1
        assert {"slo", "recent_runs", "series", "service"} <= set(doc)
        names = {s["name"] for s in doc["series"]}
        assert "repro_service_requests_total" in names

    def test_disabled_tsdb_routes_are_409(self, service):
        svc, base = service
        for route in ("/metrics/history", "/slo", "/dashboard"):
            status, err = _http("GET", f"{base}{route}")
            assert status == 409, route
            assert "tsdb" in err["error"]

    def test_shutdown_flush_reconciles_with_final_scrape(self, tmp_path):
        """The flush snapshot is the final scrape plus only that scrape's
        own request (counters bump after the response is written)."""
        config = ServiceConfig(
            host="127.0.0.1",
            port=0,
            cache_dir=str(tmp_path / "cache"),
            ledger_path=str(tmp_path / "ledger" / "runs.jsonl"),
            tsdb_dir=str(tmp_path / "tsdb"),
            snapshot_interval=3600.0,  # only the shutdown flush writes
        )
        svc, base, stop = serve_in_thread(config)
        try:
            status, doc = _http("POST", f"{base}/runs", dict(QUICK, strategy="NP"))
            assert status == 202
            _poll_completed(base, doc["run_id"])
            _http("GET", f"{base}/metrics")  # so the final scrape has its line
            status, metrics_text = _http("GET", f"{base}/metrics")
            assert status == 200
            future = asyncio.run_coroutine_threadsafe(svc.shutdown(), svc.loop)
            assert future.result(timeout=90) is True
        finally:
            stop()

        store = TimeSeriesStore(tmp_path / "tsdb")
        flush = store.last_snapshot()
        assert flush is not None and flush["source"] == "service"
        families = flush["families"]

        def scraped(prefix: str) -> float:
            for line in metrics_text.splitlines():
                if line.startswith(prefix):
                    return float(line.rpartition(" ")[2])
            pytest.fail(f"no {prefix!r} line in the final scrape")

        def flushed(name: str, **labels: str) -> float:
            for sample in families[name]["samples"]:
                if sample["labels"] == labels:
                    return sample["value"]
            pytest.fail(f"no {name} {labels} sample in the flush snapshot")

        # The scrape's own request lands only in the flush.
        assert flushed(
            "repro_service_requests_total",
            method="GET", route="/metrics", status="200",
        ) == scraped(
            'repro_service_requests_total{method="GET",route="/metrics",status="200"}'
        ) + 1
        # Everything the scrape did not touch matches exactly.
        assert flushed(
            "repro_service_runs", status="completed"
        ) == scraped('repro_service_runs{status="completed"}')
        assert flushed(
            "repro_service_submissions_total", result="new"
        ) == scraped('repro_service_submissions_total{result="new"}')
        # Ledger families reconcile with the ledger itself.
        summary = RunLedger(tmp_path / "ledger").summarize()
        assert flushed("repro_ledger_entries") == summary["entries"] == 1
        assert flushed("repro_ledger_simulated_runs") == summary["simulated_runs"]


# --------------------------------------------------------------------------
# Cache gauges (satellite)
# --------------------------------------------------------------------------


class TestCacheGauges:
    def test_export_cache_stats(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "cache")
        cache.store("ab" * 32, {"m": 1}, {"i": 1})
        cache.load("ab" * 32)
        cache.load("cd" * 32)
        registry = MetricsRegistry()
        export_cache_stats(registry, cache.stats())
        text = registry.render_prometheus()
        assert "repro_cache_entries 1" in text
        assert 'repro_cache_session_ops{op="hits"} 1' in text
        assert 'repro_cache_session_ops{op="misses"} 1' in text
        assert 'repro_cache_session_ops{op="stores"} 1' in text
        # Re-export overwrites (gauge semantics), never double counts.
        export_cache_stats(registry, cache.stats())
        assert 'repro_cache_session_ops{op="hits"} 1' in registry.render_prometheus()


# --------------------------------------------------------------------------
# CLI --json modes (satellites)
# --------------------------------------------------------------------------


class TestCliJson:
    def test_ledger_json_missing_ledger(self, tmp_path, capsys):
        code = cli_main(["ledger", "--json", "--ledger-dir", str(tmp_path / "none")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exists"] is False

    def test_ledger_json_with_entries(self, tmp_path, capsys):
        spec = ScenarioSpec(**QUICK)
        ledger = RunLedger(tmp_path)
        ledger.append(
            LedgerEntry(
                config_key=spec.config_key,
                workload=spec.workload,
                restructured=False,
                strategy=spec.strategy,
                machine=spec.machine().describe(),
                num_cpus=spec.num_cpus,
                seed=spec.seed,
                scale=spec.scale,
                engine_version="2",
                wall_seconds=1.25,
                events=1000,
            )
        )
        code = cli_main(["ledger", "--json", "--ledger-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exists"] is True
        assert doc["summary"]["entries"] == 1
        assert doc["entries"][0]["config_key"] == spec.config_key

    def test_fleet_json_single_document(self, tmp_path, capsys):
        code = cli_main(
            [
                "fleet",
                "--workloads", "Water",
                "--strategies", "NP",
                "--latencies", "4",
                "--cpus", "2",
                "--scale", "0.02",
                "--json",
                "--cache", str(tmp_path / "cache"),
                "--ledger-dir", str(tmp_path / "ledger"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)  # exactly one JSON document on stdout
        assert doc["ok"] is True
        assert doc["grid"]["points"] == 1
        assert doc["runs_ok"] == 1
        assert doc["cache"]["entries"] == 1
        assert "repro_cache_entries" in doc["metrics"]
        assert "repro_runs_total" in doc["metrics"]
