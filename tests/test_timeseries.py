"""Tests for the metrics time-series store (`repro.telemetry.timeseries`).

Covers snapshot append/read (torn lines, future schemas), delta-aware
counter series across simulated restarts, histogram window
re-aggregation, segment rotation (a writer killed mid-rotation
included), ledger-derived families, bench history seeding, and
downsampling.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry.ledger import RunLedger
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.timeseries import (
    TSDB_SCHEMA_VERSION,
    TimeSeriesStore,
    downsample,
    ledger_families,
    seed_bench_history,
)
from tests.test_telemetry import _entry


def _registry(reqs: float = 0.0, depth: float = 0.0) -> MetricsRegistry:
    reg = MetricsRegistry()
    if reqs:
        reg.counter("reqs_total", "requests", ("route",)).inc(reqs, route="/runs")
    reg.gauge("depth", "queue depth").set(depth)
    return reg


class TestSnapshots:
    def test_append_and_read_round_trip(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        line = store.append_snapshot(registry=_registry(reqs=3, depth=2), ts=100.0)
        assert line["schema"] == TSDB_SCHEMA_VERSION
        (read,) = list(store.snapshots())
        assert read["ts"] == 100.0
        assert read["session"] == store.session
        assert read["families"]["reqs_total"]["samples"][0]["value"] == 3
        assert store.names() == {"reqs_total": "counter", "depth": "gauge"}

    def test_reader_skips_torn_and_future_lines(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        store.append_snapshot(registry=_registry(depth=1), ts=1.0)
        segment = store.segments()[0]
        with segment.open("a", encoding="utf-8") as fh:
            fh.write('{"ts": 2.0, "trunc')  # torn write, no newline
        store.append_snapshot(registry=_registry(depth=2), ts=3.0)
        with segment.open("a", encoding="utf-8") as fh:
            fh.write("garbage\n")
            fh.write(json.dumps({"ts": 4.0, "schema": TSDB_SCHEMA_VERSION + 1,
                                 "families": {}}) + "\n")
            fh.write(json.dumps({"ts": "not-a-number", "families": {}}) + "\n")
        # The 3.0 snapshot landed on the torn line and is still read.
        assert [s["ts"] for s in store.snapshots()] == [1.0, 3.0]

    def test_time_range_filter(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        for ts in (10.0, 20.0, 30.0):
            store.append_snapshot(registry=_registry(depth=ts), ts=ts)
        assert [s["ts"] for s in store.snapshots(start=15, end=25)] == [20.0]
        assert store.last_snapshot()["ts"] == 30.0

    def test_segment_rotation(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb", max_segment_bytes=1)
        for ts in (1.0, 2.0, 3.0):
            store.append_snapshot(registry=_registry(depth=1), ts=ts)
        assert len(store.segments()) == 3
        assert [s["ts"] for s in store.snapshots()] == [1.0, 2.0, 3.0]
        names = [p.name for p in store.segments()]
        assert names == sorted(names)

    def test_writer_killed_rotating_loses_nothing_committed(self, tmp_path):
        """SIGKILL inside the first ``os.write`` to a new segment: every
        committed snapshot is read and the torn one is not, the next
        append rotates past the torn segment and is read, and segment
        names stay in index order."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        from repro.telemetry import timeseries as timeseries_module

        child = """
import os, signal, sys
from repro.telemetry.timeseries import TimeSeriesStore
store = TimeSeriesStore(sys.argv[1], max_segment_bytes=1)
store.append_snapshot(ts=1.0)
store.append_snapshot(ts=2.0)
write = os.write
def torn(fd, data):
    write(fd, data[: len(data) // 2])
    os.kill(os.getpid(), signal.SIGKILL)
os.write = torn
store.append_snapshot(ts=3.0)
"""
        root = tmp_path / "tsdb"
        env = {**os.environ, "PYTHONPATH": str(Path(timeseries_module.__file__).parents[2])}
        proc = subprocess.run(
            [sys.executable, "-c", child, str(root)], env=env, timeout=60
        )
        assert proc.returncode == -signal.SIGKILL
        store = TimeSeriesStore(root, max_segment_bytes=1)
        torn = store.segments()[-1].read_bytes()
        assert torn and b"\n" not in torn
        assert [s["ts"] for s in store.snapshots()] == [1.0, 2.0]

        line = store.append_snapshot(ts=4.0)
        assert [s["ts"] for s in store.snapshots()] == [1.0, 2.0, 4.0]
        names = [p.name for p in store.segments()]
        assert names == [f"segment-{i:06d}.jsonl" for i in range(1, 5)]
        clean = json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
        assert store.segments()[-1].read_text(encoding="utf-8") == clean

    def test_empty_newest_segment_is_written_into(self, tmp_path):
        """A writer killed between ``O_CREAT`` and its first write leaves
        an empty newest segment: every committed snapshot is still read,
        the next append lands in that segment and is read back, and
        segment names stay contiguous."""
        import os

        root = tmp_path / "tsdb"
        store = TimeSeriesStore(root, max_segment_bytes=1)
        for ts in (1.0, 2.0):
            store.append_snapshot(ts=ts)
        os.close(os.open(root / "segment-000003.jsonl", os.O_WRONLY | os.O_CREAT, 0o644))
        store = TimeSeriesStore(root, max_segment_bytes=1)
        assert [s["ts"] for s in store.snapshots()] == [1.0, 2.0]

        line = store.append_snapshot(ts=3.0)
        assert [s["ts"] for s in store.snapshots()] == [1.0, 2.0, 3.0]
        names = [p.name for p in store.segments()]
        assert names == [f"segment-{i:06d}.jsonl" for i in range(1, 4)]
        clean = json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
        assert store.segments()[-1].read_text(encoding="utf-8") == clean

    def test_index_inventory(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        store.append_snapshot(registry=_registry(reqs=1, depth=1), ts=5.0)
        store.append_snapshot(registry=_registry(reqs=2, depth=1), ts=6.0)
        index = store.index()
        assert index["snapshots"] == 2
        assert index["first_ts"] == 5.0 and index["last_ts"] == 6.0
        assert index["series"]["reqs_total"]["kind"] == "counter"
        assert {"route": "/runs"} in index["series"]["reqs_total"]["label_sets"]


class TestCounterSeries:
    def test_monotone_within_session(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        for ts, value in ((1.0, 5), (2.0, 9)):
            store.append_snapshot(registry=_registry(reqs=value), ts=ts)
        assert store.counter_series("reqs_total") == [(1.0, 5.0), (2.0, 9.0)]

    def test_restart_carries_base_forward(self, tmp_path):
        root = tmp_path / "tsdb"
        TimeSeriesStore(root).append_snapshot(registry=_registry(reqs=50), ts=1.0)
        # New writer = new session; the counter restarted from zero.
        TimeSeriesStore(root).append_snapshot(registry=_registry(reqs=7), ts=2.0)
        reader = TimeSeriesStore(root)
        assert reader.series("reqs_total") == [(1.0, 50.0), (2.0, 7.0)]  # raw
        assert reader.counter_series("reqs_total") == [(1.0, 50.0), (2.0, 57.0)]
        assert reader.rate("reqs_total", window=10, at=2.0) == pytest.approx(7.0)

    def test_label_subset_match_sums_across_sets(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        reg = MetricsRegistry()
        c = reg.counter("r_total", "r", ("route", "status"))
        c.inc(2, route="/a", status="200")
        c.inc(3, route="/a", status="500")
        c.inc(9, route="/b", status="200")
        store.append_snapshot(registry=reg, ts=1.0)
        assert store.series("r_total", labels={"route": "/a"}) == [(1.0, 5.0)]
        assert store.series("r_total", labels={"route": "/a", "status": "500"}) == [(1.0, 3.0)]
        assert store.series("r_total") == [(1.0, 14.0)]


class TestHistogramWindows:
    def _store_with_observations(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        reg = MetricsRegistry()
        h = reg.histogram("lat", "lat", buckets=(1.0, 10.0))
        for i, value in enumerate((0.5, 0.6, 5.0, 5.5), start=1):
            h.observe(value)
            store.append_snapshot(registry=reg, ts=float(i))
        return store

    def test_window_is_increase_not_cumulative(self, tmp_path):
        store = self._store_with_observations(tmp_path)
        # Only the observations BETWEEN snapshots 2 and 4 count.
        window = store.histogram_window("lat", start=2.0, end=4.0)
        assert window["count"] == 2.0
        assert window["counts"] == [0.0, 2.0]
        assert window["sum"] == pytest.approx(10.5)
        q = store.quantile_over("lat", 0.5, start=2.0, end=4.0)
        assert 1.0 < q <= 10.0

    def test_restart_counts_full_state_once(self, tmp_path):
        root = tmp_path / "tsdb"
        first = TimeSeriesStore(root)
        reg = MetricsRegistry()
        h = reg.histogram("lat", "lat", buckets=(1.0,))
        h.observe(0.5)
        first.append_snapshot(registry=reg, ts=1.0)
        second = TimeSeriesStore(root)  # restart: histogram reset
        reg2 = MetricsRegistry()
        h2 = reg2.histogram("lat", "lat", buckets=(1.0,))
        h2.observe(0.4)
        h2.observe(0.3)
        second.append_snapshot(registry=reg2, ts=2.0)
        window = TimeSeriesStore(root).histogram_window("lat", start=0.0, end=3.0)
        assert window["count"] == 2.0  # the post-restart state, not a negative delta

    def test_missing_family_returns_none(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        assert store.histogram_window("nope") is None
        assert store.quantile_over("nope", 0.5) is None
        assert store.rate("nope") is None


class TestLedgerFamilies:
    def test_families_from_summary(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry(config_key="a", wall_seconds=2.0, events=4000))
        ledger.append(_entry(config_key="b", cache="hit", wall_seconds=0.0, events=0))
        ledger.append(_entry(config_key="c", outcome="error", error="boom",
                             wall_seconds=1.0, events=0, summary={}))
        families = ledger_families(ledger.summarize())
        assert families["repro_ledger_entries"]["samples"][0]["value"] == 3
        assert families["repro_ledger_cache_hits"]["samples"][0]["value"] == 1
        outcome_samples = {
            s["labels"]["outcome"]: s["value"]
            for s in families["repro_ledger_outcomes"]["samples"]
        }
        assert outcome_samples == {"ok": 2, "error": 1}
        # Throughput present because simulated runs exist.
        assert "repro_ledger_events_per_sec" in families

    def test_empty_ledger_omits_throughput(self, tmp_path):
        families = ledger_families(RunLedger(tmp_path).summarize())
        # Undefined, not zero: a fresh ledger must not false-breach
        # throughput-floor SLO rules.
        assert "repro_ledger_events_per_sec" not in families
        assert families["repro_ledger_entries"]["samples"][0]["value"] == 0

    def test_snapshot_folds_ledger_in(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        ledger.append(_entry())
        store = TimeSeriesStore(tmp_path / "tsdb")
        store.append_snapshot(registry=_registry(depth=1), ledger=ledger, ts=1.0)
        assert store.series("repro_ledger_entries") == [(1.0, 1.0)]
        assert store.series("depth") == [(1.0, 1.0)]


class TestBenchSeeding:
    HISTORY = [
        {"workload": "grid-cold", "recorded": "2026-10-01T00:00:00+00:00",
         "provenance": {"engine_version": "2"}, "metrics": {"points_per_s": 12.5}},
        # A traced entry carries per-layer metrics only: not charted.
        {"workload": "grid-cold", "recorded": "2026-10-01T00:01:00+00:00",
         "provenance": {"engine_version": "2"}, "metrics": {"sim.events_per_s": 1.4e5}},
        {"workload": "grid-cold", "recorded": "2026-10-02T00:00:00+00:00",
         "provenance": {"engine_version": "2"}, "metrics": {"points_per_s": 13.0}},
        {"workload": "serve", "recorded": "2026-10-02T00:00:00+00:00",
         "provenance": {"engine_version": "2"}, "metrics": {"points_per_s": 40.0}},
        {"workload": "grid-cold", "recorded": "bad-stamp", "metrics": {"points_per_s": 1.0}},
        "not-a-dict",
    ]

    def test_seed_and_idempotence(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        assert seed_bench_history(store, self.HISTORY) == 3
        assert seed_bench_history(store, self.HISTORY) == 0  # already there
        points = store.series(
            "repro_bench_points_per_s", labels={"workload": "grid-cold", "engine_version": "2"}
        )
        assert [value for _ts, value in points] == [12.5, 13.0]
        assert store.series("repro_bench_points_per_s", labels={"workload": "serve"})
        assert all(s["source"] == "bench" for s in store.snapshots())

    def test_no_history_is_zero(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        assert seed_bench_history(store, None) == 0
        assert seed_bench_history(store, []) == 0


class TestDownsample:
    def test_short_series_unchanged(self):
        assert downsample([1.0, 2.0], 10) == [1.0, 2.0]

    def test_bucket_means(self):
        assert downsample([0, 10, 20, 30, 40, 50], 3) == [5.0, 25.0, 45.0]

    def test_degenerate_width(self):
        assert downsample([1.0, 2.0, 3.0], 0) == [1.0, 2.0, 3.0]
        assert downsample([], 5) == []
