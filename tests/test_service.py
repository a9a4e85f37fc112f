"""Tests for the simulation service (`repro.service`).

Covers the frozen ScenarioSpec contract (canonicalization, validation,
key parity with the ExperimentRunner's disk-cache payload), the run
stores (in-memory + ledger hydration with the round-trip fidelity
check), the asyncio scheduler (concurrent-dedup: N identical submits
cost one simulation; failure surfacing), the HTTP API end to end over a
real socket (with a fuzzed request reader), the mixed-schema ledger
regression, one real ``repro serve`` process (flags, SIGTERM and the
two-way flush reconciliation, whose checker has must-fail controls),
cache-stat gauges, and the `--json` CLI output modes.
"""

from __future__ import annotations

import asyncio
import dataclasses
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
from urllib.parse import urlsplit

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.common.config import MachineConfig
from repro.common.errors import ConfigurationError, ReproError
from repro.experiments.runner import ExperimentRunner
from repro.metrics.results import RunMetrics
from repro.perf.diskcache import ResultDiskCache
from repro.prefetch.strategies import strategy_by_name
from repro.service import api
from repro.service.api import ReproService, ServiceConfig, serve_in_thread
from repro.service.contracts import (
    MAX_CPU_SCALE,
    MAX_CPUS,
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
from repro.telemetry.tracing import SERVICE_PID, check_chrome_events
from tests.test_perf import ROW_DAMAGE, _compact, _damage_entry, _entry_lines

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

    def test_integer_scale_is_the_float_scenario(self):
        """``"scale": 1`` and ``1.0`` are one scenario: one key, shared
        with the disk-cache entries the CLI's float ``--scale`` writes."""
        as_int = ScenarioSpec.from_dict({"workload": "Water", "num_cpus": 2, "scale": 1})
        as_float = ScenarioSpec.from_dict({"workload": "Water", "num_cpus": 2, "scale": 1.0})
        assert as_int == as_float
        assert type(as_int.scale) is float
        assert as_int.config_key == as_float.config_key

    @pytest.mark.parametrize(
        "field",
        ["num_cpus", "seed", "scale", "transfer_cycles", "adapt_high", "adapt_low",
         "adapt_window"],
    )
    def test_booleans_rejected_in_numeric_fields(self, field):
        body = {"workload": "Water", "strategy": "ADAPT", field: True}
        with pytest.raises(ConfigurationError, match=field):
            ScenarioSpec.from_dict(body)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scale_rejected(self, value):
        with pytest.raises(ConfigurationError, match="scale"):
            ScenarioSpec.from_dict({"workload": "Water", "scale": value})

    @pytest.mark.parametrize(
        "body, match",
        [
            ({"num_cpus": 10**30}, "num_cpus"),
            ({"num_cpus": MAX_CPUS + 1, "scale": 0.05}, "num_cpus"),
            ({"num_cpus": 0}, "num_cpus"),
            ({"scale": 1e12}, "scale"),
            ({"num_cpus": 12, "scale": MAX_CPU_SCALE / 12 * 1.01}, "scale"),
            ({"strategy": "PREF" + "(d=1)" * 2000}, "strategy label"),
        ],
    )
    def test_oversized_frames_rejected(self, body, match):
        """A spec that would wedge the service's worker in generation
        (or the strategy parser) is a 400, not a run."""
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec.from_dict({"workload": "Water", **body})

    def test_largest_frames_accepted(self):
        ScenarioSpec.from_dict({"workload": "Water", "num_cpus": MAX_CPUS, "scale": 0.75})
        ScenarioSpec.from_dict({"workload": "Water", "num_cpus": 12, "scale": MAX_CPU_SCALE / 12})
        ScenarioSpec.from_dict({"workload": "Water", "strategy": "PREF(d=400)(d=200)"})


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(
        ["Water", "mp3d", "PREF", "ADAPT", "PREF(d=400)", "PWS(d=0)", "msi", "illinois"]
    )
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
_SPEC_FIELDS = [f.name for f in dataclasses.fields(ScenarioSpec)]


class TestScenarioSpecFuzz:
    """Untrusted request bodies: a spec or a ConfigurationError, nothing else."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.dictionaries(st.sampled_from(_SPEC_FIELDS) | st.text(max_size=8), _JSON_VALUES, max_size=6),
            st.fixed_dictionaries(
                {"workload": st.sampled_from(["Water", "topopt"])},
                optional={name: _JSON_VALUES for name in _SPEC_FIELDS if name != "workload"},
            ),
            _JSON_VALUES,
        )
    )
    def test_json_shaped_bodies(self, body):
        try:
            spec = ScenarioSpec.from_dict(body)
        except ConfigurationError:
            return
        assert spec.num_cpus * spec.scale <= MAX_CPU_SCALE
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


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
        runs: list[str] = []
        real_run = ExperimentRunner.run

        def counted_run(self, *args, **kwargs):
            runs.append(args[2].protocol)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(ExperimentRunner, "run", counted_run)
        metas, results = _run(scenario("one-fails"))
        assert batches == [2, 2]
        # The survivor comes off FleetError.results: no point runs twice.
        assert runs == ["illinois", "msi"]
        assert [meta.status for meta in metas] == [RunStatus.COMPLETED, RunStatus.FAILED]
        assert metas[1].error == "[error] msi exploded"
        assert results[0] is not None and results[1] is None

    def test_a_frame_switch_frees_the_last_frames_traces(self, tmp_path):
        """Runs on two (num_cpus, seed, scale) frames leave at most one
        frame's clean traces held, and the cache's session counters never
        fall when the frame's runner is replaced."""
        from repro.experiments.runner import TRACE_CACHE_SIZE

        def held_traces(scheduler):
            runners = [scheduler._reader]
            if scheduler._frame_runner is not None:
                runners.append(scheduler._frame_runner[1])
            return sum(len(runner._traces) for runner in runners)

        async def scenario():
            scheduler = RunScheduler(cache_dir=str(tmp_path / "cache"))
            await scheduler.start()
            snapshots = []
            try:
                for seed in (42, 43):
                    for workload in ("Water", "Mp3d", "LocusRoute"):
                        spec = ScenarioSpec(**dict(QUICK, workload=workload, seed=seed))
                        meta, _ = await scheduler.submit(spec)
                        while not meta.status.terminal:
                            await asyncio.sleep(0.02)
                        assert meta.status is RunStatus.COMPLETED
                        assert scheduler.result(meta.run_id) is not None
                        snapshots.append(scheduler.cache_stats())
                return held_traces(scheduler), snapshots
            finally:
                await scheduler.close()

        held, snapshots = _run(scenario())
        assert held <= TRACE_CACHE_SIZE
        for key in ("hits", "misses", "stores"):
            series = [snapshot[key] for snapshot in snapshots]
            assert series == sorted(series), (key, series)
        assert snapshots[-1]["stores"] == 6

    def test_failed_run_surfaces_job_failure_detail(self, tmp_path, monkeypatch):
        from repro.telemetry.fleet import FleetError, JobFailure

        spec = ScenarioSpec(**QUICK)

        def boom(self, jobs, telemetry=None):
            raise FleetError(
                "1 of 1 grid points failed",
                [JobFailure(spec.config_key, spec.label, kind="error", message="kaput")],
                [None],
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

    @pytest.mark.parametrize("damage", ROW_DAMAGE + ["pre_change"])
    def test_cached_result_of_another_schema_is_a_miss_and_rerun(self, tmp_path, damage):
        """A hydrated run whose cache entry does not decode to this
        version's RunMetrics has no result (not a crash); resubmitting
        re-simulates it and overwrites the entry."""
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
                return scheduler.result(meta.run_id).to_dict()
            finally:
                await scheduler.close()

        first = _run(first_life())
        path = ResultDiskCache(cache_dir)._path(spec.config_key)
        _damage_entry(path, damage)

        async def second_life():
            store = LedgerRunStore(ledger)
            scheduler = RunScheduler(store=store, ledger=ledger, cache_dir=cache_dir)
            await scheduler.start()
            try:
                meta = store.by_key(spec.config_key)
                assert meta is not None and meta.status is RunStatus.COMPLETED
                assert scheduler.result(meta.run_id) is None
                disk = scheduler._runner((spec.num_cpus, spec.seed, spec.scale)).disk_cache
                assert (disk.hits, disk.misses) == (0, 1)
                again, deduped = await scheduler.submit(spec)
                assert again is meta and not deduped
                while not meta.status.terminal:
                    await asyncio.sleep(0.05)
                assert meta.status is RunStatus.COMPLETED
                assert (disk.hits, disk.stores) == (0, 1)
                return scheduler.result(meta.run_id).to_dict()
            finally:
                await scheduler.close()

        assert _run(second_life()) == first
        assert _entry_lines(path)[0] == _compact(RunMetrics.from_dict(first).to_row())


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


#: Keys every run reference carries (``POST /runs``).
REF_KEYS = {"run_id", "config_key", "label", "status", "created_at", "deduped"}

#: Keys every run document carries (``GET /runs/{id}``).
RUN_KEYS = {
    "run_id", "config_key", "label", "status", "spec", "created_at",
    "started_at", "finished_at", "error", "submissions", "source", "progress",
}


@pytest.fixture(scope="class")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    config = ServiceConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=str(root / "cache"),
        ledger_dir=str(root / "ledger"),
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
        assert REF_KEYS <= set(doc["runs"][0])
        run_id = doc["run_id"]
        assert run_id == ScenarioSpec(**spec_body).run_id

        run_doc = _poll_completed(base, run_id)
        assert RUN_KEYS <= set(run_doc)
        assert run_doc["status"] == "completed"
        assert run_doc["spec"]["workload"] == "Water"

        status, result = _http("GET", f"{base}/runs/{run_id}/result")
        assert status == 200
        direct = ExperimentRunner(num_cpus=2, scale=0.02).run(
            "Water", strategy_by_name("PREF"),
            ScenarioSpec(**spec_body).machine(),
        )
        assert result["metrics"] == direct.to_dict()

        # Resubmission dedups, without running again: once the scheduler
        # is idle, the ledger holds the one simulated run.
        status, again = _http("POST", f"{base}/runs", spec_body)
        assert status == 202 and again["deduped"]
        assert again["run_id"] == run_id
        drained = asyncio.run_coroutine_threadsafe(svc.scheduler.drain(timeout=60), svc.loop)
        assert drained.result(timeout=90) is True
        summary = svc.ledger.summarize()
        assert (summary["entries"], summary["simulated_runs"]) == (1, 1)

        # List + filter.
        status, listing = _http("GET", f"{base}/runs?status=completed")
        assert status == 200
        assert any(r["run_id"] == run_id for r in listing["runs"])

        # Metrics scrape exposes service, fleet and cache families.
        status, text = _http("GET", f"{base}/metrics")
        assert status == 200
        for family in (
            "repro_service_requests_total", "repro_service_queue_depth",
            "repro_runs_total", "repro_cache_entries",
        ):
            assert f"\n{family}" in text, family
        scraped = _scrape_values(text)
        assert scraped['repro_service_submissions_total{result="dedup"}'] == 1.0
        assert scraped['repro_service_submissions_total{result="new"}'] == 1.0

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
        run_ids = {r["run_id"] for r in doc["runs"]}
        assert len(run_ids) == 4
        # The identical resubmission folds every point into its run.
        status, again = _http("POST", f"{base}/runs", sweep)
        assert status == 202
        assert {r["run_id"] for r in again["runs"]} == run_ids
        assert all(r["deduped"] for r in again["runs"])

    def test_validation_errors_are_400(self, service):
        svc, base = service
        status, doc = _http("POST", f"{base}/runs", {"workload": "NoSuch"})
        assert status == 400 and "error" in doc
        status, doc = _http("POST", f"{base}/runs", dict(QUICK, bogus_field=1))
        assert status == 400 and "bogus_field" in doc["error"]

    def test_deeply_nested_body_is_400_and_queues_nothing(self, service):
        """The JSON decoder recurses per nesting level; 100k levels (200 KB,
        under the body cap) must be a client error, not a server one."""
        svc, base = service
        before = len(svc.store)
        req = urllib.request.Request(
            f"{base}/runs", data=b"[" * 100_000 + b"]" * 100_000, method="POST"
        )
        req.add_header("Content-Type", "application/json")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(req, timeout=30)
        assert caught.value.code == 400
        assert "nested too deeply" in json.loads(caught.value.read())["error"]
        assert len(svc.store) == before
        assert svc.scheduler.queue_depth() == 0

    @pytest.mark.parametrize("length", ["-5", "-0x1", "five"])
    def test_bad_content_length_is_400_and_reads_no_body(self, service, length):
        """A negative length must not reach ``readexactly`` (which raises
        into the 500 backstop); the body after it is never parsed."""
        svc, base = service
        before = len(svc.store)
        host, port = urlsplit(base).hostname, urlsplit(base).port
        body = json.dumps(QUICK).encode()
        request = (
            f"POST /runs HTTP/1.1\r\nHost: {host}\r\nContent-Length: {length}\r\n\r\n"
        ).encode() + body
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        assert json.loads(payload)["error"] == "bad Content-Length"
        assert len(svc.store) == before
        assert svc.scheduler.queue_depth() == 0

    @staticmethod
    def _raw(base: str, request: bytes, *, close_write: bool = True) -> tuple[int, dict, float]:
        """Send raw bytes; returns the status, the JSON body and the
        seconds until the server closed the connection."""
        host, port = urlsplit(base).hostname, urlsplit(base).port
        with socket.create_connection((host, port), timeout=30) as sock:
            started = time.monotonic()
            sock.sendall(request)
            if close_write:
                sock.shutdown(socket.SHUT_WR)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
            elapsed = time.monotonic() - started
        head, _, payload = response.partition(b"\r\n\r\n")
        return int(head.split(b"\r\n")[0].split()[1]), json.loads(payload), elapsed

    def test_truncated_body_is_refused(self, service, monkeypatch):
        """A body short of its Content-Length: 400 when the client
        closes, 408 at the read deadline when it holds the connection."""
        monkeypatch.setattr(api, "REQUEST_READ_TIMEOUT_S", 0.5)
        svc, base = service
        before = len(svc.store)
        request = b"POST /runs HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + json.dumps(QUICK)[:10].encode()
        status, doc, _ = self._raw(base, request)
        assert status == 400 and doc["error"] == "request body shorter than Content-Length"
        status, doc, elapsed = self._raw(base, request, close_write=False)
        assert status == 408 and doc["error"] == "request not received in time"
        assert 0.4 < elapsed < 10
        assert len(svc.store) == before

    def test_silent_client_is_cut_off_while_healthz_answers(self, service, monkeypatch):
        monkeypatch.setattr(api, "REQUEST_READ_TIMEOUT_S", 1.0)
        svc, base = service
        host, port = urlsplit(base).hostname, urlsplit(base).port
        with socket.create_connection((host, port), timeout=30) as silent:
            started = time.monotonic()
            status, doc = _http("GET", f"{base}/healthz")
            assert status == 200 and doc["status"] == "ok"
            assert time.monotonic() - started < 1.0  # answered while the silent one waits
            response = b""
            while chunk := silent.recv(65536):
                response += chunk
            assert time.monotonic() - started >= 0.9
        assert response.split(b"\r\n")[0].split()[1] == b"408"

    def test_too_many_header_lines_is_431(self, service):
        svc, base = service
        headers = "".join(f"X-Filler-{i}: {i}\r\n" for i in range(api.MAX_HEADER_LINES + 1))
        status, doc, _ = self._raw(base, f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode())
        assert status == 431 and "header lines" in doc["error"]
        # The cap itself is allowed.
        headers = "".join(f"X-Filler-{i}: {i}\r\n" for i in range(api.MAX_HEADER_LINES))
        status, doc, _ = self._raw(base, f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode())
        assert status == 200 and doc["status"] == "ok"
        # A line past the stream's 64 KiB line limit is refused too (it
        # was a 500); small enough for the server to read it whole.
        long_line = "X-Long: " + "a" * 70_000
        status, doc, _ = self._raw(base, f"GET /healthz HTTP/1.1\r\n{long_line}\r\n\r\n".encode())
        assert status == 431 and "too long" in doc["error"]

    def test_malformed_target_is_400(self, service):
        """``urlsplit`` raises on an unclosed "[" (read as an IPv6 host);
        that was a 500 from the backstop."""
        svc, base = service
        status, doc, _ = self._raw(base, b"GET //[ HTTP/1.1\r\n\r\n")
        assert status == 400 and "malformed request target" in doc["error"]

    def test_integer_and_float_scale_dedup(self, service):
        svc, base = service
        status, first = _http("POST", f"{base}/runs", {"workload": "Water", "num_cpus": 2, "scale": 1})
        assert status == 202 and not first["deduped"]
        status, again = _http(
            "POST", f"{base}/runs", {"workload": "Water", "num_cpus": 2, "scale": 1.0}
        )
        assert status == 202 and again["deduped"]
        assert again["run_id"] == first["run_id"]

    def test_non_finite_scale_is_400_and_queues_nothing(self, service):
        """``json.loads`` accepts NaN; the spec must still reject it at
        the boundary, and a sweep holding one such point queues none."""
        svc, base = service
        before = len(svc.store)
        status, doc = _http("POST", f"{base}/runs", dict(QUICK, scale=float("nan")))
        assert status == 400 and "scale" in doc["error"]
        sweep = {"sweep": {"workload": "Water", "num_cpus": 2, "scale": [0.01, float("nan")]}}
        status, doc = _http("POST", f"{base}/runs", sweep)
        assert status == 400 and "scale" in doc["error"]
        assert len(svc.store) == before

    def test_c2c_view_matches_cli_export(self, service, tmp_path):
        """``?view=c2c`` serves the same line profile ``repro c2c --json``
        writes for the same point (the service's window is
        SimulationConfig's 8192 cycles; only the label differs)."""
        svc, base = service
        body = dict(
            workload="Pverify", strategy="PWS", num_cpus=4, scale=0.05, transfer_cycles=8
        )
        status, doc = _http("POST", f"{base}/runs", body)
        assert status == 202
        run_id = doc["run_id"]
        assert _poll_completed(base, run_id)["status"] == "completed"
        status, view = _http("GET", f"{base}/runs/{run_id}/result?view=c2c")
        assert status == 200 and view["view"] == "c2c"

        out = tmp_path / "c2c.json"
        args = ["c2c", "--workload", "pverify", "--strategy", "PWS", "--quick",
                "--window", "8192", "--json", str(out)]
        assert cli_main(args) == 0
        cli_doc = json.loads(out.read_text(encoding="utf-8"))
        report = view["report"]
        assert report.pop("label") != cli_doc.pop("label")
        assert report == cli_doc

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


_REQUEST_LINES = st.builds(
    "{} {}{} {}".format,
    st.sampled_from(["GET", "POST", "PUT", "get"]) | st.text(max_size=4),
    st.sampled_from([
        "/healthz", "/metrics", "/metrics/history", "/slo", "/dashboard", "/runs",
        "/runs/", f"/runs/{'0' * 16}", "/runs/x/result", "/runs/x/trace", "//[", "*",
    ]) | st.text(max_size=8),
    st.sampled_from([
        "", "?status=completed", "?status=bogus", "?name=repro_service_requests_total",
        "?view=c2c", "?seconds=x", "?seconds=-1", "?limit=-1", "?%ff=%ff", "?engine=0",
    ]) | st.text(max_size=8),
    st.sampled_from(["HTTP/1.1", "HTTP/1.0", ""]),
)
_REQUESTS = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda line, headers, length, body: b"".join([
            line.encode("utf-8", "surrogatepass"), b"\r\n",
            *(h + b"\r\n" for h in headers),
            b"" if length is None else b"Content-Length: " + length + b"\r\n",
            b"\r\n", body,
        ]),
        _REQUEST_LINES,
        st.lists(st.binary(max_size=20) | st.just(b"Host: x"), max_size=3),
        st.none() | st.sampled_from([b"0", b"2", b"9", b"-1", b"x", b"99999999999", b""]),
        st.binary(max_size=16)
        | st.sampled_from([b"{}", b"[]", b"5", b'{"workload": "NoSuch"}', b'{"sweep": 3}']),
    ),
)


@pytest.fixture(scope="class")
def fuzz_service(tmp_path_factory):
    """A service with every route live (tsdb on) for the reader fuzz."""
    root = tmp_path_factory.mktemp("fuzz")
    config = ServiceConfig(
        host="127.0.0.1", port=0, cache_dir=None, ledger_dir=None,
        tsdb_dir=str(root / "tsdb"), snapshot_interval=3600.0,
    )
    svc, base, stop = serve_in_thread(config)
    try:
        yield svc, base
    finally:
        stop()


class TestHttpReaderFuzz:
    """Arbitrary bytes on a raw socket: a 2xx or 4xx answer or a closed
    connection, never a 5xx, and the server keeps answering."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_REQUESTS)
    def test_arbitrary_bytes(self, fuzz_service, request):
        svc, base = fuzz_service
        host, port = urlsplit(base).hostname, urlsplit(base).port
        response = b""
        with socket.create_connection((host, port), timeout=30) as sock:
            try:
                sock.sendall(request)
                sock.shutdown(socket.SHUT_WR)
                while chunk := sock.recv(65536):
                    response += chunk
            except ConnectionResetError:
                pass
        if response:
            version, code = response.split(b"\r\n", 1)[0].split()[:2]
            assert version == b"HTTP/1.1"
            assert 200 <= int(code) < 300 or 400 <= int(code) < 500, response[:300]
        assert _http("GET", f"{base}/healthz")[0] == 200
        assert len(svc.store) == 0


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
        ledger_dir=str(root / "ledger"),
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
        check_chrome_events(trace_doc["traceEvents"])
        other = trace_doc["otherData"]
        assert other["trace_id"] == trace_id
        assert other["run_id"] == run_id
        assert other["timestamp_unit"] == "microseconds"
        service_spans = {
            e["name"]: e
            for e in trace_doc["traceEvents"]
            if e.get("cat") == "service" and e["ph"] == "X"
        }
        assert {e["pid"] for e in service_spans.values()} == {SERVICE_PID}
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
        # histograms agree with the spans (same measurements, same hook),
        # within a slack for the worker/parent vantage points.
        ledger = RunLedger(root / "ledger")
        entry = next(
            e for e in ledger.entries()
            if e.config_key == run_doc["config_key"] and e.outcome == "ok"
        )
        assert entry.trace_id == trace_id
        span_s = {
            stage: service_spans[stage]["dur"] / 1e6
            for stage in ("queue.wait", "execute", "worker.run")
        }
        assert span_s["execute"] >= span_s["worker.run"] - 1.0
        assert abs(span_s["worker.run"] - entry.wall_seconds) < 1.0
        status, metrics_text = _http("GET", f"{base}/metrics")
        assert status == 200
        assert "repro_service_request_seconds" in metrics_text
        scraped = _scrape_values(metrics_text)
        for stage, seconds in span_s.items():
            # This is the service's first run, so each histogram holds
            # exactly its span.
            assert scraped[f'repro_service_stage_seconds_count{{stage="{stage}"}}'] == 1.0
            assert abs(scraped[f'repro_service_stage_seconds_sum{{stage="{stage}"}}'] - seconds) < 1.0

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
            ledger_dir=None, drain_timeout=60.0,
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
            host="127.0.0.1", port=0, cache_dir=None, ledger_dir=None
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
        ledger_dir=str(root / "ledger"),
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
        status, doc = _http("POST", f"{base}/runs", dict(QUICK, strategy="NP"))
        assert status == 202
        _poll_completed(base, doc["run_id"])
        self._wait_snapshots(base, minimum=1)
        status, html = _http("GET", f"{base}/dashboard")
        assert status == 200 and isinstance(html, str)
        marker = 'id="dashboard-data">'
        start = html.index(marker) + len(marker)
        doc = json.loads(html[start:html.index("</script>", start)])
        assert set(doc) == {
            "schema", "generated_at", "window_seconds", "tsdb", "series", "slo",
            "recent_runs", "service",
        }
        assert doc["schema"] == 1
        assert doc["tsdb"]["snapshots"] >= 1
        names = {s["name"] for s in doc["series"]}
        assert "repro_service_requests_total" in names
        status, listing = _http("GET", f"{base}/runs?status=completed")
        completed = sorted(run["run_id"] for run in listing["runs"])
        assert completed and sorted(run["run_id"] for run in doc["recent_runs"]) == completed

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
            ledger_dir=str(tmp_path / "ledger"),
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

        flush = TimeSeriesStore(tmp_path / "tsdb").last_snapshot()
        assert flush is not None and flush["source"] == "service"
        assert _reconcile_flush(flush, _scrape_values(metrics_text)) > 0
        summary = RunLedger(tmp_path / "ledger").summarize()
        assert summary["entries"] == 1
        _assert_ledger_families(flush, summary)


# --------------------------------------------------------------------------
# The shutdown flush against the final scrape, and one real `repro serve`
# --------------------------------------------------------------------------

#: Series the final scrape's own request bumps only after its response
#: is written, so the shutdown flush carries them one higher.
SCRAPE_OWN_SERIES = (
    'repro_service_requests_total{method="GET",route="/metrics",status="200"}',
    'repro_service_request_seconds_count{route="/metrics"}',
)


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


def _reconcile_flush(flush: dict, scraped: dict[str, float]) -> int:
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
    assert flushed, "flush snapshot carried no reconcilable samples"
    exposed = {
        key for key in scraped
        if not key.startswith("repro_ledger_")
        and not key.partition("{")[0].endswith(("_bucket", "_sum"))
    }
    only_flush = sorted(set(flushed) - exposed)
    assert not only_flush, f"flush samples absent from the final scrape: {only_flush}"
    only_scrape = sorted(exposed - set(flushed))
    assert not only_scrape, f"final-scrape samples absent from the flush: {only_scrape}"
    for key, value in sorted(flushed.items()):
        expected = scraped[key] + (1.0 if key in SCRAPE_OWN_SERIES else 0.0)
        assert value == expected, f"flush/scrape mismatch for {key}: {value} != {expected}"
    return len(flushed)


def _assert_ledger_families(flush: dict, summary: dict) -> None:
    """The flush's synthetic ledger families equal the ledger's summary."""
    families = flush["families"]
    for family, key in (("repro_ledger_entries", "entries"),
                        ("repro_ledger_simulated_runs", "simulated_runs")):
        assert families[family]["samples"][0]["value"] == summary[key], family


#: A rules file whose names are not the built-in ones, so ``/slo``
#: shows which set the server loaded.
SERVE_RULES = """\
[[slo]]
name = "runs-ledgered"
series = "repro_ledger_entries"
op = ">="
threshold = 1.0

[[slo]]
name = "request-latency-ceiling"
series = "repro_service_request_seconds"
aggregate = "p95"
op = "<="
threshold = 60.0
"""


class TestServeProcess:
    """What only a real process shows: the CLI flags reach the service,
    SIGTERM exits 0, and the shutdown flush lands on disk."""

    def test_flags_sigterm_and_flush(self, tmp_path):
        (tmp_path / "rules.toml").write_text(SERVE_RULES, encoding="utf-8")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        base = f"http://127.0.0.1:{port}"
        env = dict(os.environ)
        src = str(Path(api.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", str(port),
                "--cache", str(tmp_path / "cache"), "--ledger-dir", str(tmp_path / "ledger"),
                "--trace", "--drain-timeout", "60",
                "--tsdb", str(tmp_path / "tsdb"), "--snapshot-interval", "1",
                "--slo-rules", str(tmp_path / "rules.toml"),
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            for _ in range(300):
                assert proc.poll() is None, proc.stdout.read()
                try:
                    if _http("GET", f"{base}/healthz")[0] == 200:
                        break
                except (urllib.error.URLError, ConnectionError):
                    time.sleep(0.1)
            else:
                pytest.fail("repro serve did not come up")

            status, slo_doc = _http("GET", f"{base}/slo")
            assert status == 200
            assert {rule["name"] for rule in slo_doc["rules"]} == {
                "runs-ledgered", "request-latency-ceiling",
            }

            status, headers, doc = _http_full("POST", f"{base}/runs", dict(QUICK, strategy="PWS"))
            assert status == 202 and headers.get("X-Repro-Trace-Id") == doc["trace_id"]
            assert _poll_completed(base, doc["run_id"])["status"] == "completed"

            # The 1 s sampler has judged the rules on the ledgered run, so
            # a later tick rewrites the same gauges.
            for _ in range(300):
                status, metrics_text = _http("GET", f"{base}/metrics")
                if _scrape_values(metrics_text).get('repro_slo_ok{rule="runs-ledgered"}') == 1.0:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("the serve loop never judged the rules file")
            status, metrics_text = _http("GET", f"{base}/metrics")
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=90) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
            proc.stdout.close()

        flush = TimeSeriesStore(tmp_path / "tsdb").last_snapshot()
        assert flush is not None and flush["source"] == "service"
        assert _reconcile_flush(flush, _scrape_values(metrics_text)) > 0
        summary = RunLedger(tmp_path / "ledger").summarize()
        assert summary["simulated_runs"] == 1
        _assert_ledger_families(flush, summary)


# --------------------------------------------------------------------------
# Checkers: must-fail controls (no server needed)
# --------------------------------------------------------------------------

#: A final scrape in the server's exposition format: a counter (the
#: scrape's own request line included), a gauge, two histograms and a
#: ledger family.
EXPOSITION = """\
# HELP repro_service_requests_total HTTP requests by route and status
# TYPE repro_service_requests_total counter
repro_service_requests_total{method="GET",route="/metrics",status="200"} 1
repro_service_requests_total{method="POST",route="/runs",status="202"} 2
# TYPE repro_service_queue_depth gauge
repro_service_queue_depth 0
# TYPE repro_service_request_seconds histogram
repro_service_request_seconds_bucket{route="/metrics",le="0.01"} 1
repro_service_request_seconds_bucket{route="/metrics",le="+Inf"} 1
repro_service_request_seconds_sum{route="/metrics"} 0.002
repro_service_request_seconds_count{route="/metrics"} 1
# TYPE repro_service_stage_seconds histogram
repro_service_stage_seconds_bucket{stage="execute",le="+Inf"} 2
repro_service_stage_seconds_sum{stage="execute"} 0.125
repro_service_stage_seconds_count{stage="execute"} 2
repro_service_stage_seconds_sum{stage="worker.run"} 0.0625
repro_service_stage_seconds_count{stage="worker.run"} 2
# TYPE repro_ledger_entries gauge
repro_ledger_entries 2
"""


def _flush_matching_exposition() -> dict:
    """The shutdown flush that reconciles with :data:`EXPOSITION`: equal
    everywhere except the scrape's own request (+1)."""

    def counter(kind, *samples):
        return {"type": kind, "samples": [{"labels": l, "value": v} for l, v in samples]}

    def histogram(*samples):
        return {"type": "histogram",
                "samples": [{"labels": l, "count": c, "sum": 0.0} for l, c in samples]}

    return {"families": {
        "repro_service_requests_total": counter(
            "counter",
            ({"method": "GET", "route": "/metrics", "status": "200"}, 2.0),
            ({"method": "POST", "route": "/runs", "status": "202"}, 2.0),
        ),
        "repro_service_queue_depth": counter("gauge", ({}, 0.0)),
        "repro_service_request_seconds": histogram(({"route": "/metrics"}, 2)),
        "repro_service_stage_seconds": histogram(
            ({"stage": "execute"}, 2), ({"stage": "worker.run"}, 2)
        ),
        "repro_ledger_entries": counter("gauge", ({}, 2.0)),
    }}


class TestSmokeCheckers:
    """The checkers the served-trace and serve-process tests lean on
    must reject what they exist to catch."""

    def test_check_chrome_events_accepts_a_wellformed_trace(self):
        check_chrome_events([
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "cpu"}},
            {"name": "run", "ph": "X", "ts": 0, "dur": 5, "pid": 0, "tid": 0},
            {"name": "pf", "ph": "i", "ts": 1, "pid": 0, "tid": 0, "s": "t"},
        ])

    @pytest.mark.parametrize("event, problem", [
        ({"name": "run", "ph": "B", "ts": 0, "pid": 0, "tid": 0}, "unknown phase"),
        ({"name": "run", "ph": "X", "ts": 0, "dur": 1, "tid": 0}, "missing pid"),
        ({"name": "run", "ph": "X", "ts": 0, "dur": -1, "pid": 0, "tid": 0}, "dur"),
        ({"name": "pf", "ph": "i", "ts": 0, "pid": 0, "tid": 0}, "thread-scoped"),
        ({"name": "counter", "ph": "M", "pid": 0, "args": {"name": "x"}}, "metadata"),
    ], ids=["unknown-phase", "no-pid", "negative-dur", "unscoped-instant", "bad-metadata"])
    def test_check_chrome_events_rejects(self, event, problem):
        with pytest.raises(ValueError, match=problem):
            check_chrome_events([event])

    def test_check_chrome_events_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            check_chrome_events([])

    def test_scrape_parsers_read_fixed_exposition(self):
        values = _scrape_values(EXPOSITION)
        assert values['repro_service_stage_seconds_sum{stage="execute"}'] == 0.125
        assert values['repro_service_requests_total{method="GET",route="/metrics",status="200"}'] == 1.0
        assert values["repro_service_queue_depth"] == 0.0
        assert values['repro_service_request_seconds_bucket{route="/metrics",le="+Inf"}'] == 1.0
        assert values["repro_ledger_entries"] == 2.0
        assert not any(key.startswith("#") for key in values)
        assert len(values) == 13

    def test_flush_reconciles_with_the_scrapes_own_request(self):
        assert _reconcile_flush(_flush_matching_exposition(), _scrape_values(EXPOSITION)) == 6

    def test_flush_rejects_a_perturbed_counter(self):
        flush = _flush_matching_exposition()
        flush["families"]["repro_service_requests_total"]["samples"][1]["value"] = 3.0
        with pytest.raises(AssertionError, match="mismatch"):
            _reconcile_flush(flush, _scrape_values(EXPOSITION))

    def test_flush_rejects_a_sample_the_scrape_lacks(self):
        flush = _flush_matching_exposition()
        flush["families"]["repro_service_queue_depth"]["samples"].append(
            {"labels": {"shard": "1"}, "value": 0.0}
        )
        with pytest.raises(AssertionError, match="absent from the final scrape"):
            _reconcile_flush(flush, _scrape_values(EXPOSITION))

    def test_flush_rejects_dropping_a_scraped_sample(self):
        flush = _flush_matching_exposition()
        del flush["families"]["repro_service_stage_seconds"]["samples"][1]
        with pytest.raises(AssertionError, match="absent from the flush"):
            _reconcile_flush(flush, _scrape_values(EXPOSITION))


# --------------------------------------------------------------------------
# Cache gauges (satellite)
# --------------------------------------------------------------------------


class TestCacheGauges:
    def test_a_scrape_walks_the_cache_off_the_event_loop(self, tmp_path, monkeypatch):
        """A slow cache-footprint walk holds up the scrape that asked for
        it, not the event loop: a health check sent meanwhile answers."""
        import threading
        import time

        real_entries = ResultDiskCache._entries

        def slow_entries(self):
            time.sleep(0.5)
            return real_entries(self)

        monkeypatch.setattr(ResultDiskCache, "_entries", slow_entries)
        config = ServiceConfig(host="127.0.0.1", port=0, cache_dir=str(tmp_path / "cache"))
        svc, base, stop = serve_in_thread(config)
        try:
            scrape: list = []
            scraper = threading.Thread(
                target=lambda: scrape.append(_http("GET", f"{base}/metrics"))
            )
            scraper.start()
            time.sleep(0.1)
            started = time.perf_counter()
            status, _ = _http("GET", f"{base}/healthz")
            took = time.perf_counter() - started
            scraper.join()
        finally:
            stop()
        assert status == 200
        assert took < 0.2, took
        assert scrape[0][0] == 200 and "repro_cache_entries 0" in scrape[0][1]

    def test_a_snapshot_summarizes_the_ledger_off_the_event_loop(self, tmp_path, monkeypatch):
        """The sampler's snapshot folds in ``ledger.summarize()``, a full
        parse of the ledger.  While one is held inside ``summarize``, a
        health check still answers; no timing is assumed."""
        import threading

        entered, release = threading.Event(), threading.Event()
        real_summarize = RunLedger.summarize

        def held_summarize(self):
            entered.set()
            release.wait()
            return real_summarize(self)

        monkeypatch.setattr(RunLedger, "summarize", held_summarize)
        config = ServiceConfig(
            host="127.0.0.1",
            port=0,
            cache_dir=str(tmp_path / "cache"),
            ledger_dir=str(tmp_path / "ledger"),
            tsdb_dir=str(tmp_path / "tsdb"),
            snapshot_interval=0.01,
        )
        svc, base, stop = serve_in_thread(config)
        try:
            assert entered.wait(timeout=60)
            status, body = _http("GET", f"{base}/healthz")
        finally:
            release.set()
            stop()
        assert status == 200, body

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

    def test_a_snapshot_walks_the_cache_directory_once(self, tmp_path, monkeypatch):
        """``stats()`` and the scheduler's snapshot over three runner
        frames each read the on-disk footprint in one directory walk."""
        from pathlib import PosixPath

        cache_dir = tmp_path / "cache"
        writer = ResultDiskCache(cache_dir)
        for i in range(3):
            writer.store(f"{i:02d}" * 32, {"m": i}, {"i": i})
        scheduler = RunScheduler(cache_dir=str(cache_dir))
        for seed in (1, 2, 3):
            scheduler._runner((2, seed, 0.02)).disk_cache.load("00" * 32)
        walks = []
        glob = PosixPath.glob

        def counted(self, pattern):
            walks.append(pattern)
            return glob(self, pattern)

        monkeypatch.setattr(PosixPath, "glob", counted)
        assert writer.stats() == {
            "hits": 0, "misses": 0, "stores": 3, "evictions": 0,
            "entries": 3, "bytes": writer.total_bytes(),
        }
        walks.clear()
        assert ResultDiskCache(cache_dir).stats()["entries"] == 3
        assert len(walks) == 1
        walks.clear()
        stats = scheduler.cache_stats()
        assert len(walks) == 1
        assert (stats["hits"], stats["misses"], stats["entries"]) == (3, 0, 3)
        assert stats["bytes"] == writer.total_bytes()


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
