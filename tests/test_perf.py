"""Performance infrastructure: serialization, disk cache, parallel
runner, bench harness -- and golden metrics pinning the engine fast path.

The hit-streak fast path in :mod:`repro.sim.engine` must be *bit-
identical* to the generic heap path.  The golden-metrics test freezes
complete result fingerprints for representative configurations; any
drift in event ordering or hit-path side effects shows up here before
it corrupts the paper tables.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.bus.bus import BusStats
from repro.bus.transaction import TransactionKind
from repro.common.config import CacheConfig, MachineConfig
from repro.experiments.runner import ExperimentRunner
from repro.metrics.results import CpuMetrics, MissCounts, RunMetrics
from repro.perf.bench import (
    MicrobenchResult,
    append_history,
    check_regression,
    load_report,
    run_microbench,
    update_report,
)
from repro.perf.diskcache import ResultDiskCache, content_key
from repro.prefetch.insertion import insert_prefetches
from repro.prefetch.strategies import EXCL, NP, PREF, PWS, strategy_by_name
from repro.sim.engine import ENGINE_VERSION, simulate
from repro.telemetry.fleet import FleetError, TelemetryConfig
from repro.telemetry.ledger import RunLedger
from repro.workloads.registry import generate_workload


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

    def test_bus_stats_round_trip(self):
        stats = BusStats(busy_cycles=99, demand_ops=5, prefetch_ops=2, total_wait_cycles=17)
        stats.ops_by_kind[TransactionKind.FILL] = 4
        stats.ops_by_kind[TransactionKind.UPGRADE] = 3
        restored = BusStats.from_dict(stats.to_dict())
        assert restored == stats
        # enum keys survive the name-keyed JSON rendering
        assert TransactionKind.UPGRADE in restored.ops_by_kind

    def test_cpu_metrics_round_trip(self):
        cm = CpuMetrics(cpu=3, demand_refs=100, misses=MissCounts(1, 0, 2, 0, 3, 0, 1))
        assert CpuMetrics.from_dict(cm.to_dict()) == cm

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


# ------------------------------------------------------------- disk cache


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
        assert not stale.exists()
        assert fresh.exists()  # young temp may belong to a live writer

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

    def test_engine_version_partitions_the_cache(self, tmp_path):
        runner = ExperimentRunner(num_cpus=4, scale=0.1, disk_cache=tmp_path / "c")
        payload = runner.job("Water", NP, MachineConfig(num_cpus=4)).payload()
        assert payload["engine_version"] == ENGINE_VERSION
        bumped = {**payload, "engine_version": payload["engine_version"] + "-next"}
        assert content_key(payload) != content_key(bumped)


# ------------------------------------------------------- word-mask memo


class TestWordMaskMemoBound:
    def test_memo_never_exceeds_its_limit(self, monkeypatch):
        """The (addr, size) -> word_mask memo is cleared at the bound so
        it cannot grow without limit over long traces with many distinct
        addresses."""
        import repro.sim.engine as engine_mod
        from repro.common.config import SimulationConfig
        from repro.sim.engine import SimulationEngine
        from repro.workloads.registry import generate_workload

        monkeypatch.setattr(engine_mod, "_WM_CACHE_LIMIT", 16)
        trace = generate_workload("Water", num_cpus=2, seed=1, scale=0.05)
        eng = SimulationEngine(trace, MachineConfig(num_cpus=2), SimulationConfig())
        for addr in range(0, 64 * 32, 32):
            eng._word_mask(addr, 4)
            assert len(eng._wm_cache) <= 16
        # correctness survives the clears: recomputed values agree
        assert eng._word_mask(0, 4) == eng._word_mask(0, 4)


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


# -------------------------------------------------------------- benchmark


class TestBench:
    def test_run_microbench_small(self):
        r = run_microbench(
            workload="Water", num_cpus=2, scale=0.05, min_seconds=0.0, max_runs=1
        )
        assert r.events > 0
        assert r.events_per_sec > 0
        assert r.runs == 1
        assert r.engine_version == ENGINE_VERSION

    def test_update_report_preserves_baseline(self, tmp_path):
        path = tmp_path / "bench.json"
        first = MicrobenchResult("Water", 2, 0.05, 42, 1000, 1, 0.01, 100000.0, "1")
        update_report(first, path)
        report = load_report(path)
        assert report["baseline"]["events_per_sec"] == 100000.0

        second = MicrobenchResult("Water", 2, 0.05, 42, 1000, 1, 0.005, 200000.0, "1")
        report = update_report(second, path)
        assert report["baseline"]["events_per_sec"] == 100000.0  # untouched
        assert report["current"]["events_per_sec"] == 200000.0
        assert report["current"]["speedup_vs_baseline"] == 2.0

    def test_check_regression(self):
        report = {"current": {"events_per_sec": 100000.0}}
        ok, ref, ratio, note = check_regression(90000.0, report, tolerance=0.3)
        assert ok and ref == 100000.0 and ratio == pytest.approx(0.9)
        assert note is None
        ok, _, _, _ = check_regression(60000.0, report, tolerance=0.3)
        assert not ok
        # no report -> vacuous pass, with a note saying so
        ok, ref, ratio, note = check_regression(1.0, None)
        assert (ok, ref, ratio) == (True, None, None)
        assert "skipped" in note

    def test_check_regression_engine_version_gate(self):
        # A reference from another engine generation is not comparable:
        # vacuous pass regardless of how bad the ratio looks.
        report = {"current": {"events_per_sec": 100000.0, "engine_version": "1"}}
        ok, ref, ratio, note = check_regression(
            1000.0, report, tolerance=0.3, engine_version="2"
        )
        assert ok and ref is None and ratio is None
        assert "engine version" in note
        # Same version: the check runs normally.
        report = {"current": {"events_per_sec": 100000.0, "engine_version": "2"}}
        ok, _, _, note = check_regression(
            50000.0, report, tolerance=0.3, engine_version="2"
        )
        assert not ok and note is None

    def test_check_regression_notes_calibration_mismatch(self):
        report = {
            "current": {
                "events_per_sec": 100000.0,
                "engine_version": "2",
                "quick": False,
            }
        }
        ok, ref, _, note = check_regression(
            90000.0, report, tolerance=0.3, engine_version="2", quick=True
        )
        assert ok and ref == 100000.0  # still checked...
        assert "calibrations differ" in note  # ...but called out

    def test_append_history_gates_on_engine_version(self, tmp_path):
        path = tmp_path / "bench.json"
        old = MicrobenchResult("Water", 2, 0.05, 42, 1000, 1, 0.01, 100000.0, "1")
        append_history(old, path)
        new = MicrobenchResult("Water", 2, 0.05, 42, 1000, 1, 0.005, 200000.0, "2")
        previous, entry = append_history(new, path)
        assert previous is None  # engine "1" history is not a comparable trend
        assert entry["engine_version"] == "2"
        previous, _ = append_history(new, path)
        assert previous is not None  # but the "2" entry we just wrote is

    def test_update_report_records_quick_flag(self, tmp_path):
        path = tmp_path / "bench.json"
        result = MicrobenchResult("Water", 2, 0.05, 42, 1000, 1, 0.01, 100000.0, "2")
        report = update_report(result, path, quick=True)
        assert report["current"]["quick"] is True
        assert load_report(path)["current"]["quick"] is True

    def test_cli_bench_update_and_check(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "bench.json")
        args = ["bench", "--quick", "--cpus", "2", "--scale", "0.05", "--file", path]
        assert main(args + ["--update"]) == 0
        assert load_report(path)["current"]["events_per_sec"] > 0
        # immediate re-check against the measurement we just took passes
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "regression check" in out


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


# ------------------------------------------------------- bench history


class TestBenchHistory:
    def _result(self, eps=100000.0, **kw):
        base = dict(
            workload="Water",
            num_cpus=2,
            scale=0.05,
            seed=42,
            events=1000,
            runs=1,
            wall_seconds=0.01,
            events_per_sec=eps,
            engine_version="1",
        )
        base.update(kw)
        return MicrobenchResult(**base)

    def test_first_entry_has_no_previous(self, tmp_path):
        path = tmp_path / "bench.json"
        previous, entry = append_history(self._result(), path)
        assert previous is None
        assert entry["events_per_sec"] == 100000.0
        assert entry["timestamp"]
        assert load_report(path)["history"] == [entry]

    def test_previous_is_most_recent_comparable(self, tmp_path):
        path = tmp_path / "bench.json"
        append_history(self._result(eps=100.0), path)
        append_history(self._result(eps=200.0, num_cpus=4), path)  # frame differs
        append_history(self._result(eps=300.0), path, quick=True)  # calibration differs
        previous, _ = append_history(self._result(eps=400.0), path)
        assert previous["events_per_sec"] == 100.0
        assert len(load_report(path)["history"]) == 4

    def test_history_is_trimmed_to_limit(self, tmp_path):
        path = tmp_path / "bench.json"
        for i in range(6):
            append_history(self._result(eps=float(i)), path, limit=4)
        history = load_report(path)["history"]
        assert len(history) == 4
        assert [e["events_per_sec"] for e in history] == [2.0, 3.0, 4.0, 5.0]

    def test_history_survives_update_report(self, tmp_path):
        path = tmp_path / "bench.json"
        append_history(self._result(), path)
        update_report(self._result(eps=123456.0), path)
        report = load_report(path)
        assert report["current"]["events_per_sec"] == 123456.0
        assert len(report["history"]) == 1

    def test_cli_bench_appends_history(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "bench.json")
        args = ["bench", "--quick", "--cpus", "2", "--scale", "0.05", "--file", path]
        assert main(args + ["--update"]) == 0
        assert main(args) == 0
        history = load_report(path)["history"]
        assert len(history) == 2
        out = capsys.readouterr().out
        assert "history" in out
