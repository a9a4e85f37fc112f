"""Performance infrastructure: serialization, disk cache, parallel
runner, benchmark history floor -- and golden metrics pinning the engine fast path.

The hit-streak fast path in :mod:`repro.sim.engine` must be *bit-
identical* to the generic heap path.  The golden-metrics test freezes
complete result fingerprints for representative configurations; any
drift in event ordering or hit-path side effects shows up here before
it corrupts the paper tables.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus import bus as bus_module
from repro.bus.bus import BusStats
from repro.bus.transaction import TransactionKind
from repro.common.config import CacheConfig, MachineConfig
from repro.experiments.runner import ExperimentRunner, RunJob
from repro.common.codec import FieldTable, canonical_json, json_scalar, schema_tag
from repro.metrics import results as results_module
from repro.metrics.results import ROW_SCHEMA, CpuMetrics, MissCounts, RunMetrics
from repro.perf import diskcache as diskcache_module
from repro.perf.diskcache import ResultDiskCache, content_key
from repro.perf.history import FLOOR_RATIO, check_floor, floor_gate, load_history, newest
from repro.prefetch.insertion import insert_prefetches
from repro.prefetch.strategies import (
    ADAPT,
    ALL_STRATEGIES,
    EXCL,
    NP,
    PBUF,
    PREF,
    PWS,
    strategy_by_name,
)
from repro.sim import engine as engine_module
from repro.sim.engine import ENGINE_VERSION, simulate
from repro.telemetry.fleet import FleetError, TelemetryConfig
from repro.telemetry.ledger import RunLedger
from repro.workloads.registry import generate_workload
from tests.engines import GenericPathEngine


# ------------------------------------------------------- golden fast path


class TestFastPathGoldens:
    """Frozen metrics for the hit-streak fast path (4 CPUs, Water 0.2).

    Values were produced by the generic-path engine and must never
    change: the fast path's contract is bit-identical simulated
    behavior.  NP exercises pure demand streams, PWS adds prefetches +
    upgrades, EXCL adds exclusive-mode prefetches.
    """

    #: strategy -> (exec_cycles, demand_refs, cpu_misses, false_sharing,
    #:              bus_busy, bus_ops, prefetches_issued, upgrades)
    GOLDEN = {
        "NP": (30195, 14468, 452, 0, 3938, 613, 0, 138),
        "PWS": (19782, 14468, 111, 1, 3982, 622, 622, 142),
        "EXCL": (21513, 14468, 178, 0, 3969, 616, 371, 137),
    }

    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(num_cpus=4, seed=42, scale=0.2)

    @pytest.mark.parametrize("strategy", [NP, PWS, EXCL], ids=lambda s: s.name)
    def test_golden_metrics(self, runner, strategy):
        result = runner.run("Water", strategy, MachineConfig(num_cpus=4))
        mc = result.miss_counts
        observed = (
            result.exec_cycles,
            result.demand_refs,
            mc.cpu_misses,
            mc.false_sharing,
            result.bus.busy_cycles,
            result.bus.total_ops,
            result.prefetches_issued,
            result.upgrades,
        )
        assert observed == self.GOLDEN[strategy.name]


class TestSaturatedBusGolden:
    """Frozen digest of deep-queue runs: 12 CPUs on the 32-cycle bus.

    The 4-CPU goldens above keep the bus queue short, so they barely
    exercise arbitration order.  Here the bus runs at 93-100%
    utilization with 80-180 transactions queued, so any change to which
    transaction wins a grant -- tier order, round-robin position, FIFO
    within a CPU, ``next_arbitration_time`` -- moves the digest.  The
    points also cover the arbiter without demand priority, the
    contention-free bus, MSI, a victim cache and a 2-way cache (lazy
    frame allocation and LRU).  Captured before the per-(tier, CPU)
    queue arbiter replaced the linear scan; it must never change
    without an ``ENGINE_VERSION`` bump.  The points run on the fast
    path and on :class:`GenericPathEngine`, so the generic handlers
    are pinned at saturation scale too.
    """

    DIGEST = "2fbb4b7de5f530c8cf1675cd95feb1fb37c37984e67afdb61a4b451fe926ec3d"

    @staticmethod
    def points() -> list[tuple[str, str, MachineConfig]]:
        base = MachineConfig(num_cpus=12).with_transfer_cycles(32)
        bus, cache = base.bus, base.cache
        points = [
            (workload, strategy, base)
            for workload in ("Mp3d", "LocusRoute")
            for strategy in ("PREF", "PWS", "ADAPT")
        ]
        points += [
            ("Pverify", "PREF", dataclasses.replace(
                base, bus=dataclasses.replace(bus, demand_priority=False))),
            ("Pverify", "PREF", dataclasses.replace(
                base, bus=dataclasses.replace(bus, contention_free=True))),
            ("Mp3d", "PWS", dataclasses.replace(base, protocol="msi")),
            ("LocusRoute", "PREF", dataclasses.replace(
                base, cache=dataclasses.replace(cache, victim_cache_lines=4))),
            ("Mp3d", "PREF", dataclasses.replace(
                base, cache=CacheConfig(size_bytes=4096, associativity=2))),
            ("Water", "PREF", base),
        ]
        return points

    def test_saturated_grid_digest(self):
        assert self.digest() == self.DIGEST

    def test_saturated_grid_digest_on_generic_path(self, monkeypatch):
        # ``simulate`` builds its engine from the module global.
        monkeypatch.setattr(engine_module, "SimulationEngine", GenericPathEngine)
        assert self.digest() == self.DIGEST

    def digest(self) -> str:
        runner = ExperimentRunner(num_cpus=12, seed=42, scale=0.03)
        results = [
            dataclasses.replace(
                runner.run(workload, strategy_by_name(strategy), machine),
                obs=None,
                audit=None,
            ).to_dict()
            for workload, strategy, machine in self.points()
        ]
        blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------- serialization


def _one_result(**kwargs) -> RunMetrics:
    runner = ExperimentRunner(num_cpus=4, seed=7, scale=0.1)
    return runner.run(
        kwargs.pop("workload", "Mp3d"),
        kwargs.pop("strategy", PWS),
        kwargs.pop("machine", MachineConfig(num_cpus=4)),
    )


class TestSerialization:
    def test_miss_counts_round_trip(self):
        mc = MissCounts(1, 2, 3, 4, 5, 6, 7)
        assert MissCounts.from_dict(mc.to_dict()) == mc
        assert MissCounts.from_dict(mc.to_row()) == mc

    def test_bus_stats_round_trip(self):
        stats = BusStats(busy_cycles=99, demand_ops=5, prefetch_ops=2, total_wait_cycles=17)
        stats.ops_by_kind[TransactionKind.FILL] = 4
        stats.ops_by_kind[TransactionKind.UPGRADE] = 3
        restored = BusStats.from_dict(stats.to_dict())
        assert restored == stats
        # enum keys survive the name-keyed JSON rendering
        assert TransactionKind.UPGRADE in restored.ops_by_kind
        assert BusStats.from_dict(stats.to_row()) == stats

    def test_cpu_metrics_round_trip(self):
        cm = CpuMetrics(cpu=3, demand_refs=100, misses=MissCounts(1, 0, 2, 0, 3, 0, 1))
        assert CpuMetrics.from_dict(cm.to_dict()) == cm
        assert CpuMetrics.from_dict(cm.to_row()) == cm

    def test_run_metrics_exact_round_trip_through_json(self):
        """A real simulation result survives to_dict -> JSON -> from_dict
        with dataclass equality -- the contract the disk cache and the
        process pool rely on."""
        result = _one_result()
        data = json.loads(json.dumps(result.to_dict()))
        restored = RunMetrics.from_dict(data)
        assert restored == result
        # and the derived rates (computed, not stored) agree too
        assert restored.describe() == result.describe()



def _asdict_rendering(run: RunMetrics) -> dict:
    """The ``to_dict`` rendering as written through ``dataclasses.asdict``
    before the field tables: the reference the codecs must match."""
    bus = run.bus
    data = {
        "workload": run.workload,
        "strategy": run.strategy,
        "machine": run.machine,
        "exec_cycles": run.exec_cycles,
        "per_cpu": [dataclasses.asdict(c) for c in run.per_cpu],
        "bus": {
            "busy_cycles": bus.busy_cycles,
            "ops_by_kind": {kind.name: n for kind, n in bus.ops_by_kind.items()},
            "demand_ops": bus.demand_ops,
            "prefetch_ops": bus.prefetch_ops,
            "total_wait_cycles": bus.total_wait_cycles,
        },
    }
    assert run.audit is None and run.obs is None  # generated runs carry neither
    return data


def _row_rendering(run: RunMetrics) -> dict:
    """The ``to_row`` form derived from the ``asdict`` reference: every
    nested record's values in its key order, the tag first."""
    data = _asdict_rendering(run)
    per_cpu = []
    for cpu in data["per_cpu"]:
        cpu["misses"] = list(cpu["misses"].values())
        per_cpu.append(list(cpu.values()))
    data["bus"]["ops_by_kind"] = list(data["bus"]["ops_by_kind"].values())
    return {
        "row_schema": ROW_SCHEMA,
        **data,
        "per_cpu": per_cpu,
        "bus": list(data["bus"].values()),
    }


def _assert_codec_matches_reference(run: RunMetrics) -> None:
    encoded = run.to_dict()
    assert encoded == _asdict_rendering(run)
    assert json.dumps(encoded) == json.dumps(_asdict_rendering(run))  # key order too
    assert RunMetrics.from_dict(json.loads(json.dumps(encoded))) == run
    row = run.to_row()
    assert json.dumps(row) == json.dumps(_row_rendering(run))
    assert RunMetrics.from_dict(json.loads(json.dumps(row))) == run


_counter = st.integers(min_value=0, max_value=2**40)


@st.composite
def _run_metrics(draw) -> RunMetrics:
    def record(cls, **fixed):
        names = [f.name for f in dataclasses.fields(cls) if f.name not in fixed]
        return cls(**fixed, **{name: draw(_counter) for name in names})

    num_cpus = draw(st.integers(min_value=1, max_value=64))
    per_cpu = [record(CpuMetrics, cpu=i, misses=record(MissCounts)) for i in range(num_cpus)]
    ops = {kind: draw(_counter) for kind in TransactionKind}
    bus = record(BusStats, ops_by_kind=ops)
    return RunMetrics(
        workload=draw(st.sampled_from(["Water", "Mp3d", "Topopt"])),
        strategy=draw(st.sampled_from(["NP", "PWS", "PREF+restructured"])),
        machine={"num_cpus": num_cpus, "bus": {"transfer_cycles": draw(_counter)}},
        exec_cycles=draw(_counter),
        per_cpu=per_cpu,
        bus=bus,
    )


#: Ways a stored row can be of another version's schema; each must be refused.
ROW_DAMAGE = ["extra", "missing", "unknown_kind", "short_misses", "wrong_tag"]


class TestFieldTableCodecs:
    """The field-table codecs against the ``asdict`` rendering they replaced."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_run_metrics())
    def test_to_dict_matches_asdict_and_round_trips(self, run):
        _assert_codec_matches_reference(run)

    def test_simulated_result_matches_reference(self):
        result = _one_result()
        _assert_codec_matches_reference(result)

    @pytest.mark.parametrize(
        "module,table", [
            (results_module, "_MISS_FIELDS"),
            (results_module, "_CPU_FIELDS"),
            (results_module, "_RUN_FIELDS"),
            (bus_module, "_BUS_FIELDS"),
        ],
    )
    def test_a_table_missing_a_field_fails_the_check(self, module, table, monkeypatch):
        """Must-fail control: the check sees a field table short of one field."""
        run = _one_result()
        full = getattr(module, table)
        short = FieldTable(full.owner, full.names[:-1], full.optional)
        monkeypatch.setattr(module, table, short)
        with pytest.raises((AssertionError, ValueError)):
            _assert_codec_matches_reference(run)

    @pytest.mark.parametrize("damage", ROW_DAMAGE)
    def test_a_record_of_another_schema_is_refused(self, damage):
        row = _one_result().to_row()
        _damage(row, damage)
        with pytest.raises(ValueError):
            RunMetrics.from_dict(row)

    @pytest.mark.parametrize("damage", ["extra", "missing", "unknown_kind"])
    def test_a_dict_of_another_schema_is_refused(self, damage):
        data = _one_result().to_dict()
        _damage_dict(data, damage)
        with pytest.raises(ValueError):
            RunMetrics.from_dict(data)


def _damage(row: dict, how: str) -> None:
    """Give a ``RunMetrics.to_row()`` record another version's schema."""
    cpu = row["per_cpu"][0]
    if how == "extra":
        cpu.append(1)
    elif how == "missing":
        del cpu[-1]
    elif how == "unknown_kind":
        row["bus"][bus_module._OPS_AT].append(1)  # a count for a kind this version lacks
    elif how == "short_misses":
        del cpu[results_module._MISSES_AT][-1]
    else:
        row["row_schema"] = "0" * len(ROW_SCHEMA)


def _damage_dict(metrics: dict, how: str) -> None:
    """Give a ``RunMetrics.to_dict()`` record another version's schema."""
    if how == "extra":
        metrics["per_cpu"][0]["future_counter"] = 1
    elif how == "missing":
        del metrics["per_cpu"][0]["upgrades"]
    else:
        metrics["bus"]["ops_by_kind"]["SNARF"] = 1


def _entry_lines(path: Path) -> list[str]:
    """A disk-cache entry's two lines, without their terminators."""
    lines = path.read_text(encoding="utf-8").split("\n")
    assert len(lines) == 3 and lines[2] == "", "an entry is two terminated lines"
    return lines[:2]


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _damage_entry(path: Path, how: str) -> None:
    """Rewrite a runner's entry so its row has another version's schema.

    ``pre_change`` replaces it with the single-line entry written before
    rows: ``{"inputs", "key", "metrics"}`` with the metrics as a dict.
    """
    head, tail = _entry_lines(path)
    row = json.loads(head)
    if how == "pre_change":
        old = {**json.loads(tail), "metrics": RunMetrics.from_dict(row).to_dict()}
        path.write_text(json.dumps(old, sort_keys=True), encoding="utf-8")
        return
    _damage(row, how)
    path.write_text(f"{_compact(row)}\n{tail}\n", encoding="utf-8")


# ------------------------------------------------------------- disk cache


class TestConfigKey:
    """``RunJob.config_key`` assembles its text from the configs' cached
    canonical JSON; it must equal ``content_key(job.payload())``, the
    rendering every stored entry and ledger line was keyed by."""

    STRATEGIES = (
        *ALL_STRATEGIES,
        PBUF,
        ADAPT,
        dataclasses.replace(ADAPT, high_watermark=0.99, low_watermark=0.5),
        dataclasses.replace(ADAPT, feedback_window=4096),
        PREF.with_distance(400),
    )
    MACHINES = (
        MachineConfig(),
        MachineConfig(num_cpus=4, protocol="msi").with_transfer_cycles(32),
        MachineConfig(cache=CacheConfig(victim_cache_lines=4)),
        MachineConfig(cache=CacheConfig(size_bytes=4096, associativity=2)),
        MachineConfig(num_cpus=8, cache=CacheConfig(size_bytes=8192, associativity=4)),
    )

    def test_key_equals_content_key_of_payload(self):
        checked = set()
        for strategy in self.STRATEGIES:
            for machine in self.MACHINES:
                for restructured in (False, True):
                    for scale in (0.05, 1.0, 1e-7):
                        job = RunJob("Topopt", strategy, machine, restructured, 12, 7, scale)
                        assert job.config_key == content_key(job.payload()), job
                        checked.add(job.config_key)
        assert len(checked) == len(self.STRATEGIES) * len(self.MACHINES) * 2 * 3

    def test_key_of_unusual_scalars_equals_content_key(self):
        """Exact-type fast paths fall back to the encoder for anything else."""
        for job in (
            RunJob("Wäter \"q\"", NP, MachineConfig(), False, 4, 0, 1),
            RunJob("Water", NP, MachineConfig(), 1, True, -3, 2**70),
        ):
            assert job.config_key == content_key(job.payload())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.booleans(),
            st.integers(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(),
            st.none(),
        )
    )
    def test_json_scalar_renders_as_the_encoder_does(self, value):
        """The fast paths repeat the encoder's rules; they must not drift."""
        assert json_scalar(value) == canonical_json(value)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_raises(self, scale):
        with pytest.raises(ValueError):
            RunJob("Water", NP, MachineConfig(), scale=scale).config_key

    @pytest.mark.parametrize("keyed_first", [False, True])
    def test_pickled_job_keeps_key_and_equality(self, keyed_first):
        """Jobs reach pool workers by pickle; a copy made before or after
        the key and the configs' text are cached is the same job."""
        job = RunJob("Mp3d", dataclasses.replace(ADAPT, high_watermark=0.99), MachineConfig())
        if keyed_first:
            job.config_key
        copy = pickle.loads(pickle.dumps(job))
        assert copy == job and hash(copy) == hash(job)
        assert copy.config_key == job.config_key == content_key(job.payload())


class TestDiskCache:
    def test_content_key_is_order_independent(self):
        a = content_key({"x": 1, "y": [1, 2]})
        b = content_key({"y": [1, 2], "x": 1})
        assert a == b and len(a) == 64

    def test_content_key_separates_inputs(self):
        base = {"workload": "Water", "seed": 42, "engine_version": ENGINE_VERSION}
        assert content_key(base) != content_key({**base, "seed": 43})
        assert content_key(base) != content_key(
            {**base, "engine_version": ENGINE_VERSION + "-other"}
        )

    def test_content_key_rejects_non_json_native_payloads(self):
        """Objects must not silently stringify (reprs embed memory
        addresses, so the "same" payload would hash differently across
        processes)."""

        class Opaque:
            pass

        with pytest.raises(TypeError):
            content_key({"machine": Opaque()})
        with pytest.raises(TypeError):
            content_key({"strategies": {"NP", "PREF"}})
        with pytest.raises(ValueError):
            content_key({"scale": float("nan")})

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c")
        for i in range(5):
            cache.store(content_key({"k": i}), {"metric": i}, {"k": i})
        assert len(cache) == 5
        assert list((tmp_path / "c").glob("*/*.tmp*")) == []

    def test_stale_temp_orphans_are_swept(self, tmp_path):
        import os

        cache = ResultDiskCache(tmp_path / "c")
        key = content_key({"k": 1})
        cache.store(key, {"metric": 1}, {"k": 1})
        bucket = cache._path(key).parent
        stale = bucket / "deadbeef.orphan.tmp"
        stale.write_text("{torn", encoding="utf-8")
        os.utime(stale, (0, 0))  # ancient: definitely past the sweep cutoff
        fresh = bucket / "cafecafe.live.tmp"
        fresh.write_text("{in-flight", encoding="utf-8")

        again = ResultDiskCache(tmp_path / "c")  # sweep runs once per instance
        assert again.load(key) == {"metric": 1}
        assert stale.exists()  # loads never sweep: readers never see temps
        again.store(content_key({"k": 2}), {"metric": 2}, {"k": 2})
        assert not stale.exists()
        assert fresh.exists()  # young temp may belong to a live writer

    def test_store_bytes_match_sorted_dumps(self, tmp_path):
        """An entry on disk is the value as compact JSON, then the key and
        inputs as ``json.dumps(..., sort_keys=True)``, one line each."""
        cache = ResultDiskCache(tmp_path / "c")
        inputs = {"workload": "Water", "scale": 0.05, "strategy": {"name": "PWS", "distance": 100}}
        value = {"exec_cycles": 12345, "note": "é\nx", "per_cpu": [[1.5, None]], "a": 0.0625}
        key = content_key(inputs)
        cache.store(key, value, inputs)
        tail = json.dumps({"key": key, "inputs": inputs}, sort_keys=True)
        expected = f"{_compact(value)}\n{tail}\n"
        assert cache._path(key).read_bytes() == expected.encode("utf-8")
        assert _entry_lines(cache._path(key)) == [_compact(value), tail]
        assert list(json.loads(tail)) == ["inputs", "key"]

    def test_store_load_round_trip(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c")
        key = content_key({"k": 1})
        assert cache.load(key) is None
        cache.store(key, {"metric": 3}, {"k": 1})
        assert cache.load(key) == {"metric": 3}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c")
        key = content_key({"k": 2})
        cache.store(key, {"metric": 1}, {"k": 2})
        cache._path(key).write_text("{torn", encoding="utf-8")
        assert cache.load(key) is None
        cache._path(key).write_text("[1, 2]", encoding="utf-8")  # JSON, not an entry
        assert cache.load(key) is None
        assert (cache.hits, cache.misses) == (0, 2)

    def test_oversized_entry_is_a_hit(self, tmp_path):
        """A first line longer than one read is read to its newline."""
        cache = ResultDiskCache(tmp_path / "c")
        key = content_key({"k": "big"})
        value = {"per_cpu": [[i] * 16 for i in range(8000)]}
        cache.store(key, value, {"k": "big"})
        assert cache._path(key).stat().st_size > 2 * diskcache_module._READ_BYTES
        assert cache.load(key) == value
        assert (cache.hits, cache.misses) == (1, 0)

    @pytest.mark.parametrize("read_bytes", [1, 5, 12, 13])
    def test_entry_read_in_small_pieces(self, tmp_path, monkeypatch, read_bytes):
        """Any read size, the newline on or across a read boundary, gives
        the first line; an unterminated one is still a miss."""
        monkeypatch.setattr(diskcache_module, "_READ_BYTES", read_bytes)
        cache = ResultDiskCache(tmp_path / "c")
        key = content_key({"k": 1})
        cache.store(key, {"metric": 1}, {"k": 1})  # line 1 is 12 bytes
        assert cache.load(key) == {"metric": 1}
        cache._path(key).write_text('{"metric":1}', encoding="utf-8")
        assert cache.load(key) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_warm_runner_resimulates_nothing(self, tmp_path):
        """A fresh runner over a warm cache serves every grid point from
        disk: zero stores, byte-identical results."""
        machine = MachineConfig(num_cpus=4)
        jobs = [
            ("Water", NP, machine),
            ("Water", PREF, machine),
            ("Mp3d", NP, machine),
            ("Mp3d", PREF, machine),
        ]
        cold = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        first = cold.run_many(jobs)
        assert cold.disk_cache.stores == len(jobs)

        warm = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        second = warm.run_many(jobs)
        assert warm.disk_cache.hits == len(jobs)
        assert warm.disk_cache.stores == 0
        assert json.dumps([r.to_dict() for r in first], sort_keys=True) == json.dumps(
            [r.to_dict() for r in second], sort_keys=True
        )

    @pytest.mark.parametrize("damage", ROW_DAMAGE + ["pre_change"])
    def test_entry_of_another_schema_is_a_miss_and_overwritten(self, tmp_path, damage):
        """Valid JSON that does not decode to this version's RunMetrics
        is a miss: re-simulated, stored over, never a crash or a
        zero-filled field."""
        machine = MachineConfig(num_cpus=4)
        cold = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        fresh = cold.run("Water", PREF, machine)
        path = cold.disk_cache._path(cold.job("Water", PREF, machine).config_key)
        _damage_entry(path, damage)
        self._assert_missed_and_rewritten(tmp_path, fresh, path)

    @staticmethod
    def _assert_missed_and_rewritten(tmp_path: Path, fresh: RunMetrics, path: Path) -> None:
        runner = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        assert runner.run("Water", PREF, MachineConfig(num_cpus=4)) == fresh
        disk = runner.disk_cache
        assert (disk.hits, disk.misses, disk.stores) == (0, 1, 1)
        assert _entry_lines(path)[0] == _compact(fresh.to_row())

    @pytest.mark.parametrize("change", ["dropped", "reordered"])
    def test_entry_written_under_other_field_tables_is_a_miss(self, tmp_path, monkeypatch, change):
        """A row stored by a version whose field tables differ carries
        another ``ROW_SCHEMA``.  A reordered table keeps every row's
        length, so only the tag refuses it: without the tag it would
        decode, wrongly, by position."""
        machine = MachineConfig(num_cpus=4)
        fresh = ExperimentRunner(num_cpus=4, scale=0.1).run("Water", PREF, machine)
        full = results_module._MISS_FIELDS
        names = full.names[:-1] if change == "dropped" else full.names[::-1]
        other = FieldTable(full.owner, names)
        monkeypatch.setattr(results_module, "_MISS_FIELDS", other)
        monkeypatch.setattr(
            results_module,
            "ROW_SCHEMA",
            schema_tag(
                other,
                results_module._CPU_FIELDS,
                bus_module._BUS_FIELDS,
                bus_module._KIND_FIELDS,
                results_module._RUN_FIELDS,
            ),
        )
        cold = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        cold.run("Water", PREF, machine)
        monkeypatch.undo()
        path = cold.disk_cache._path(cold.job("Water", PREF, machine).config_key)
        row = json.loads(_entry_lines(path)[0])
        assert row["row_schema"] != ROW_SCHEMA
        at = results_module._MISSES_AT
        width = len(fresh.to_row()["per_cpu"][0][at])
        assert (len(row["per_cpu"][0][at]) == width) == (change == "reordered")
        self._assert_missed_and_rewritten(tmp_path, fresh, path)

    def test_a_warm_hit_decodes_only_the_first_line(self, tmp_path, monkeypatch):
        """A torn or garbage second line is still a hit: ``inputs`` is
        never decoded.  The hit makes one load and one decode."""
        machine = MachineConfig(num_cpus=4)
        cold = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        fresh = cold.run("Water", PREF, machine)
        path = cold.disk_cache._path(cold.job("Water", PREF, machine).config_key)
        head, _tail = _entry_lines(path)
        path.write_text(head + '\n{"inputs": {"work\x00 not json', encoding="utf-8")

        calls = []
        load, from_dict = ResultDiskCache.load, RunMetrics.__dict__["from_dict"].__func__

        def counted_load(self, key):
            calls.append("load")
            return load(self, key)

        def counted_from_dict(cls, data):
            calls.append("from_dict")
            return from_dict(cls, data)

        monkeypatch.setattr(ResultDiskCache, "load", counted_load)
        monkeypatch.setattr(RunMetrics, "from_dict", classmethod(counted_from_dict))
        warm = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        assert warm.run("Water", PREF, machine) == fresh
        assert calls == ["load", "from_dict"]
        disk = warm.disk_cache
        assert (disk.hits, disk.misses, disk.stores) == (1, 0, 0)

    def test_a_twelve_cpu_entry_is_a_quarter_of_its_dict(self, tmp_path):
        """A 12-CPU entry, inputs included, is about 2.1 KB; the single-line
        entry with the keyed dict the cache stored before rows was about
        8.5 KB."""
        machine = MachineConfig(num_cpus=12)
        runner = ExperimentRunner(num_cpus=12, scale=0.05, disk_cache=tmp_path / "c")
        result = runner.run("Water", PWS, machine)
        path = runner.disk_cache._path(runner.job("Water", PWS, machine).config_key)
        head = _entry_lines(path)[0]
        assert path.stat().st_size < 2200
        assert 4 * len(head) < len(json.dumps(result.to_dict(), sort_keys=True))

    def test_writer_killed_before_replace_loses_nothing_committed(self, tmp_path):
        """SIGKILL between the temp file's write and ``os.replace``: the
        committed entry still loads, the torn one is a miss, and its
        orphan temp goes only to a later store, once past the cutoff."""
        import os
        import signal
        import subprocess
        import sys

        from repro.perf import diskcache

        root = tmp_path / "c"
        result = _one_result()
        key_a, key_b = content_key({"entry": "A"}), content_key({"entry": "B"})
        child = f"""
import json, os, signal, sys
from repro.perf.diskcache import ResultDiskCache
cache = ResultDiskCache(sys.argv[1])
metrics = json.loads(sys.stdin.read())
cache.store({key_a!r}, metrics, {{"entry": "A"}})
os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)
cache.store({key_b!r}, metrics, {{"entry": "B"}})
"""
        env = {**os.environ, "PYTHONPATH": str(Path(diskcache.__file__).parents[2])}
        proc = subprocess.run(
            [sys.executable, "-c", child, str(root)],
            input=json.dumps(result.to_dict()), text=True, env=env, timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL

        reader = ResultDiskCache(root)
        assert RunMetrics.from_dict(reader.load(key_a)) == result
        assert reader.load(key_b) is None
        assert (reader.hits, reader.misses) == (1, 1)
        orphans = list(root.glob("*/*.tmp"))
        assert len(orphans) == 1 and orphans[0].name.startswith(key_b[:8])
        orphan = orphans[0]

        ResultDiskCache(root).store(content_key({"entry": "C"}), {}, {})
        assert orphan.exists()  # young: it may belong to a live writer
        cutoff = diskcache._ORPHAN_MAX_AGE_SECONDS
        old = orphan.stat().st_mtime - cutoff - 60
        os.utime(orphan, (old, old))
        assert ResultDiskCache(root).load(key_a) is not None
        assert orphan.exists()  # a reader never sweeps
        ResultDiskCache(root).store(content_key({"entry": "D"}), {}, {})
        assert not orphan.exists()
        assert RunMetrics.from_dict(ResultDiskCache(root).load(key_a)) == result

    def test_engine_version_partitions_the_cache(self, tmp_path):
        runner = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        payload = runner.job("Water", NP, MachineConfig(num_cpus=4)).payload()
        assert payload["engine_version"] == ENGINE_VERSION
        bumped = {**payload, "engine_version": payload["engine_version"] + "-next"}
        assert content_key(payload) != content_key(bumped)


# ------------------------------------------------------------- word mask


class TestEngineWordMask:
    def test_matches_word_mask_for_exhaustively(self):
        """The engine's one-word shortcut agrees with word_mask_for for
        every block size, in-block offset and access size that stays
        inside the block."""
        from repro.common.addressing import word_mask_for
        from repro.common.config import SimulationConfig
        from repro.sim.engine import SimulationEngine
        from repro.trace.stream import CpuTrace, MultiTrace

        trace = MultiTrace("empty", [CpuTrace(0, [])])
        for shift in range(2, 9):
            block_size = 1 << shift
            machine = MachineConfig(num_cpus=1, cache=CacheConfig(block_size=block_size))
            eng = SimulationEngine(trace, machine, SimulationConfig())
            for base in (0, 0x7000_0000):
                for offset in range(block_size):
                    for size in range(1, 9):
                        if offset + size > block_size:
                            break
                        addr = base + offset
                        assert eng._word_mask(addr, size) == word_mask_for(
                            addr, size, block_size
                        ), (block_size, addr, size)


# -------------------------------------------------------- parallel runner


#: A small grid crossing the axes that reach distinct pipeline code: a
#: restructured variant, ADAPT with feedback overrides, the MSI protocol
#: and a 4-line victim cache.
_PATH_GRID = [
    ("Water", NP, MachineConfig(num_cpus=4)),
    ("Topopt", PWS, MachineConfig(num_cpus=4).with_transfer_cycles(4), True),
    (
        "Mp3d",
        dataclasses.replace(
            strategy_by_name("ADAPT"), high_watermark=0.6, low_watermark=0.5, feedback_window=2048
        ),
        MachineConfig(num_cpus=4).with_transfer_cycles(32),
    ),
    ("Water", PREF, MachineConfig(num_cpus=4, protocol="msi")),
    ("Mp3d", PREF, MachineConfig(num_cpus=4, cache=CacheConfig(victim_cache_lines=4))),
]


@pytest.fixture(scope="module")
def path_reference() -> str:
    """``_PATH_GRID`` simulated straight from the primitives, no runner."""
    results = []
    for workload, strategy, machine, *rest in _PATH_GRID:
        restructured = bool(rest and rest[0])
        trace = generate_workload(
            workload, num_cpus=4, seed=42, scale=0.05, restructured=restructured
        )
        annotated, _report = insert_prefetches(trace, strategy, machine.cache)
        label = strategy.name + ("+restructured" if restructured else "")
        result = simulate(
            annotated, machine, strategy_name=label, adaptive=strategy.adaptive_config()
        )
        results.append(result.to_dict())
    return json.dumps(results, sort_keys=True)


class TestParallelRunner:
    @pytest.mark.parametrize(
        "workers, telemetered",
        [(1, False), (1, True), (2, False), (2, True)],
        ids=["serial-plain", "serial-telemetered", "pooled-plain", "pooled-telemetered"],
    )
    def test_every_run_path_matches_byte_for_byte(
        self, workers, telemetered, path_reference, tmp_path
    ):
        """Serial or pooled, with telemetry off or on, ``run_many``
        returns exactly what the bare pipeline computes."""
        ledger = RunLedger(tmp_path)
        telemetry = TelemetryConfig(ledger=ledger) if telemetered else None
        runner = ExperimentRunner(num_cpus=4, scale=0.05, max_workers=workers)
        results = runner.run_many(_PATH_GRID, telemetry=telemetry)
        assert json.dumps([r.to_dict() for r in results], sort_keys=True) == path_reference
        assert len(list(ledger.entries())) == (len(_PATH_GRID) if telemetered else 0)

    def test_serial_batch_routes_each_fresh_point_through_run(self, tmp_path):
        """A ``run`` shadowed on the instance sees every fresh point
        exactly once, and never a memo or disk hit."""
        machine = MachineConfig(num_cpus=4)
        ExperimentRunner(num_cpus=4, scale=0.05, disk_cache=tmp_path).run("Water", NP, machine)
        runner = ExperimentRunner(num_cpus=4, scale=0.05, disk_cache=tmp_path)
        calls = []
        real_run = runner.run

        def shadow(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        runner.run = shadow
        jobs = [
            ("Water", NP, machine),  # disk hit
            ("Water", PREF, machine),
            ("Water", PWS, machine),
            ("Water", PREF, machine),  # duplicate
        ]
        runner.run_many(jobs)
        assert calls == [("Water", PREF, machine, False), ("Water", PWS, machine, False)]
        runner.run_many(jobs)  # all memo hits now
        assert len(calls) == 2

    def test_batch_looks_each_distinct_job_up_once(self, tmp_path, monkeypatch):
        """A disk-warm point and a memo hit hash no ``RunJob`` and render no
        JSON (the dedup and the memo key by ``config_key``, built from the
        configs' cached text), and each distinct point is recorded once, in
        order of first appearance."""
        machine = MachineConfig(num_cpus=4)
        jobs = [("Water", PREF, machine), ("Water", NP, machine), ("Water", PREF, machine)]
        ExperimentRunner(num_cpus=4, scale=0.05, disk_cache=tmp_path).run_many(jobs)
        runner = ExperimentRunner(num_cpus=4, scale=0.05, disk_cache=tmp_path)
        hashes = []
        real_hash = RunJob.__hash__
        monkeypatch.setattr(RunJob, "__hash__", lambda job: hashes.append(job) or real_hash(job))
        renders = []
        real_dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: renders.append(a) or real_dumps(*a, **k))
        telemetry = TelemetryConfig()
        recorded = []
        monkeypatch.setattr(
            telemetry, "record_hit",
            lambda job, result, kind: recorded.append((job.strategy.name, kind)),
        )
        results = runner.run_many(jobs, telemetry=telemetry)
        assert hashes == [] and renders == []
        assert recorded == [("PREF", "hit"), ("NP", "hit")]
        assert results[0] is results[2] and results[1].strategy == "NP"
        recorded.clear()
        runner.run_many(jobs, telemetry=telemetry)
        assert hashes == [] and renders == []
        assert recorded == [("PREF", "memo"), ("NP", "memo")]

    def test_plain_batch_failure_raises_fleet_error_after_storing_survivors(self):
        machine = MachineConfig(num_cpus=4)
        runner = ExperimentRunner(num_cpus=4, scale=0.05)
        with pytest.raises(FleetError) as excinfo:
            runner.run_many([("Water", NP, machine), ("Bogus", NP, machine)])
        (failure,) = excinfo.value.failures
        assert failure.kind == "error" and "Bogus" in failure.message
        assert failure.config_key == runner.job("Bogus", NP, machine).config_key
        assert runner.cached_run_count == 1
        runner.run = None  # a memo hit must not reach run()
        (survivor,) = runner.run_many([("Water", NP, machine)])
        assert survivor.exec_cycles > 0

    def test_run_many_collapses_duplicates_and_keeps_order(self):
        machine = MachineConfig(num_cpus=4)
        runner = ExperimentRunner(num_cpus=4, scale=0.1)
        results = runner.run_many(
            [("Water", NP, machine), ("Water", NP, machine), ("Water", PREF, machine)]
        )
        assert results[0] is results[1]
        assert runner.cached_run_count == 2
        assert results[2].strategy == "PREF"

    def test_compare_and_sweep_route_through_batches(self):
        runner = ExperimentRunner(num_cpus=4, scale=0.1)
        bundle = runner.compare("Water", PREF, MachineConfig(num_cpus=4))
        assert bundle.baseline.strategy == "NP"
        swept = runner.sweep(
            "Water", (NP, PREF), MachineConfig(num_cpus=4), transfer_latencies=(4, 8)
        )
        assert set(swept) == {4, 8}
        assert set(swept[4]) == {"NP", "PREF"}


# ------------------------------------------------------- cache size cap


class TestDiskCacheSizeCap:
    def _fill(self, cache, n, size=200):
        import os

        for i in range(n):
            key = content_key({"k": i})
            cache.store(key, {"pad": "x" * size, "i": i}, {"k": i})
            # Distinct mtimes so oldest-first ordering is deterministic.
            path = cache._path(key)
            os.utime(path, (1000.0 + i, 1000.0 + i))
        return [content_key({"k": i}) for i in range(n)]

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c", max_bytes=None)
        keys = self._fill(cache, 6)
        entry_size = cache._path(keys[0]).stat().st_size
        removed, freed = cache.prune(max_bytes=entry_size * 3)
        assert removed == 3
        assert freed == entry_size * 3
        assert cache.evictions == 3
        # The three *oldest* are gone; the newest three survive.
        for key in keys[:3]:
            assert cache.load(key) is None
        for key in keys[3:]:
            assert cache.load(key) is not None

    def test_prune_noop_under_cap(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c")
        self._fill(cache, 3)
        assert cache.prune() == (0, 0)
        assert len(cache) == 3

    def test_prune_to_zero_empties_the_cache(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "c", max_bytes=None)
        self._fill(cache, 4)
        total = cache.total_bytes()
        removed, freed = cache.prune(max_bytes=0)
        assert (removed, freed) == (4, total)
        assert len(cache) == 0
        assert cache.total_bytes() == 0

    def test_store_enforces_cap_opportunistically(self, tmp_path):
        from repro.perf.diskcache import _PRUNE_EVERY_STORES

        # Cap sized to hold only a few entries; after a prune-period of
        # stores the cache must have shrunk back under it.
        cache = ResultDiskCache(tmp_path / "c", max_bytes=1)
        for i in range(_PRUNE_EVERY_STORES):
            cache.store(content_key({"k": i}), {"i": i}, {"k": i})
        assert cache.evictions > 0
        assert len(cache) < _PRUNE_EVERY_STORES

    def test_cli_cache_prune(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultDiskCache(tmp_path / "c", max_bytes=None)
        self._fill(cache, 4)
        args = ["cache", "--dir", str(tmp_path / "c")]
        assert main(args) == 0  # report only, nothing removed
        assert len(cache) == 4
        assert main(args + ["--prune", "--max-bytes", "0"]) == 0
        assert len(cache) == 0
        out = capsys.readouterr().out
        assert "pruned 4 entries" in out


# ----------------------------------------------------- benchmark floor


def _bench_entry(
    points_per_s=None,
    workload="grid-cold",
    engine_version=ENGINE_VERSION,
    recorded="2026-10-17T00:00:00+00:00",
    **metrics,
):
    """A ``python -m bench --out`` report shape, as the history stores it."""
    if points_per_s is not None:
        metrics["points_per_s"] = points_per_s
    return {
        "workload": workload,
        "provenance": {"engine_version": engine_version},
        "metrics": metrics,
        "recorded": recorded,
    }


class TestBench:
    def test_append_history_gates_on_engine_version(self):
        # Entries appended under another engine generation are no trend
        # reference for this one: newest() reads only its own version's.
        history = [_bench_entry(10.0, engine_version="1")]
        assert newest(history, "grid-cold", "points_per_s", engine_version="2") is None
        history.append(_bench_entry(20.0, engine_version="2"))
        assert newest(history, "grid-cold", "points_per_s", engine_version="2")["metrics"][
            "points_per_s"
        ] == 20.0
        assert newest(history, "grid-cold", "points_per_s", engine_version="1")["metrics"][
            "points_per_s"
        ] == 10.0


class TestBenchHistory:
    def test_previous_is_most_recent_comparable(self):
        history = [
            _bench_entry(100.0, recorded="2026-10-01T00:00:00+00:00"),
            _bench_entry(150.0, recorded="2026-10-02T00:00:00+00:00"),
            _bench_entry(200.0, workload="grid-warm"),  # other workload
            _bench_entry(**{"sim.events_per_s": 1e5}),  # traced: other metric
            _bench_entry(300.0, engine_version="1"),  # other engine generation
        ]
        entry = newest(history, "grid-cold", "points_per_s")
        assert entry["metrics"]["points_per_s"] == 150.0
        assert entry["recorded"].startswith("2026-10-02")
        assert newest(history, "grid-cold", "sim.events_per_s")["metrics"] == {
            "sim.events_per_s": 1e5
        }
        assert newest(history, "grid-hot", "points_per_s") is None
        assert newest([], "grid-cold", "points_per_s") is None


class TestBenchFloor:
    def test_floor_separates_fast_from_slow(self):
        history = [_bench_entry(10.0)]
        ok, message = check_floor(_bench_entry(10.0 * FLOOR_RATIO + 0.01), history)
        assert ok and message.endswith("ok")
        # The forced-generic grid-cold population sits near 0.7x.
        ok, message = check_floor(_bench_entry(7.0), history)
        assert not ok and "BELOW FLOOR" in message and "0.700x" in message

    def test_floor_reads_newest_matching_entry(self):
        history = [
            _bench_entry(10.0),
            _bench_entry(**{"sim.events_per_s": 1e5}),  # traced: no points_per_s
            _bench_entry(100.0, engine_version="1"),
            _bench_entry(100.0, workload="grid-warm"),
        ]
        assert newest(history, "grid-cold", "points_per_s")["metrics"]["points_per_s"] == 10.0
        assert check_floor(_bench_entry(9.0), history)[0]
        history.append(_bench_entry(20.0, recorded="2026-10-18T00:00:00+00:00"))
        ok, message = check_floor(_bench_entry(9.0), history)
        assert not ok and "2026-10-18" in message

    def test_floor_fails_closed_without_entry_for_engine_version(self):
        # An entry from another engine generation, or a traced one, is no
        # reference: the check fails and names the recording to make.
        history = [
            _bench_entry(10.0, engine_version="1"),
            _bench_entry(**{"sim.events_per_s": 1e5}),
        ]
        for candidate in (history, []):
            ok, message = check_floor(_bench_entry(1e9), candidate)
            assert not ok
            assert f"no untraced grid-cold entry for engine version {ENGINE_VERSION}" in message
            assert "python -m bench --workload grid-cold" in message
        # The same history, read as of engine "1", holds the reference.
        assert check_floor(_bench_entry(9.0), history, engine_version="1")[0]

    def test_floor_rejects_a_report_without_points_per_s(self):
        ok, message = check_floor(_bench_entry(**{"sim.events_per_s": 1e5}), [_bench_entry(10.0)])
        assert not ok and "no points_per_s" in message

    def test_floor_gate_exit_codes(self, tmp_path, capsys):
        history = tmp_path / "history.json"
        history.write_text(json.dumps([_bench_entry(10.0)]))
        report = tmp_path / "report.json"
        report.write_text(json.dumps(_bench_entry(9.0)))
        assert floor_gate(report, history) == 0
        report.write_text(json.dumps(_bench_entry(5.0)))
        assert floor_gate(report, history) == 1
        assert floor_gate(report, tmp_path / "missing.json") == 1
        out = capsys.readouterr().out
        assert "BELOW FLOOR" in out and "no untraced grid-cold entry" in out

    def test_load_history_tolerates_bad_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_history(bad) == []
        bad.write_text('{"current": {}}')
        assert load_history(bad) == []
        bad.write_text('[1, {"workload": "grid-cold"}]')
        assert load_history(bad) == [{"workload": "grid-cold"}]

    def test_committed_history(self):
        """``BENCH_history.json`` holds a seed-42 ``--out`` report of every
        declared workload for this engine, each with the pinned digest, and
        the traced grid-cold entry the SLO baseline reads."""
        from datetime import datetime

        root = Path(__file__).resolve().parent.parent
        history = load_history(root / "BENCH_history.json")
        declared = json.loads((root / "BENCHMARK.json").read_text())
        pinned = json.loads((root / "bench" / "digests.json").read_text())[ENGINE_VERSION]
        for entry in history:
            assert datetime.fromisoformat(entry["recorded"]).utcoffset().total_seconds() == 0
            assert {"provenance", "metrics", "checks", "details"} <= set(entry)
        for workload in (w["name"] for w in declared["workloads"]):
            entry = newest(history, workload, "points_per_s")
            assert entry is not None, workload
            assert entry["seed"] == 42 and entry["failed"] == 0
            assert entry["details"].get("digest") == pinned.get(workload)  # serve pins none
        traced = newest(history, "grid-cold", "sim.events_per_s")
        assert traced is not None and traced["details"]["digest"] == pinned["grid-cold"]
