"""Tests for the fleet telemetry subsystem (`repro.telemetry`).

Covers the run ledger (round-trip, torn lines, concurrent multiprocess
writers), heartbeats and the monitor's stall flags (synthetic clock,
no real sleeping), the metrics registry (Prometheus text format),
paper-drift evaluation (passing on healthy summaries, failing on
perturbed ones, replay from a ledger), the telemetered ExperimentRunner
path (bit-identity with un-telemetered runs, structured worker
failures, the ``job_timeout`` deadline) and the new CLI commands.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_module
import re
from pathlib import Path

import pytest

from repro.common.config import MachineConfig
from repro.experiments.runner import ExperimentRunner
from repro.metrics.charts import progress_bar
from repro.prefetch.strategies import ALL_STRATEGIES, NP, PREF, strategy_by_name
from repro.sim.engine import ENGINE_VERSION
from repro.telemetry.drift import (
    ALL_STRATEGY_NAMES,
    QUICK_FRAME,
    Band,
    DriftFrame,
    evaluate,
    summaries_from_ledger,
)
from repro.telemetry.fleet import FleetError, TelemetryConfig
from repro.telemetry.heartbeat import (
    FleetMonitor,
    Heartbeat,
    HeartbeatSender,
)
from repro.telemetry import jsonl
from repro.telemetry.ledger import LEDGER_SCHEMA_VERSION, LedgerEntry, RunLedger
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.timeseries import TimeSeriesStore
from repro.workloads.registry import ALL_WORKLOAD_NAMES


def _entry(**overrides) -> LedgerEntry:
    base = dict(
        config_key="k0",
        workload="Water",
        restructured=False,
        strategy="PREF",
        machine={"transfer_cycles": 8, "num_cpus": 4},
        num_cpus=4,
        seed=42,
        scale=0.05,
        engine_version=ENGINE_VERSION,
        outcome="ok",
        cache="miss",
        wall_seconds=0.5,
        events=1000,
        events_per_sec=2000.0,
        worker_pid=123,
        summary={"exec_cycles": 5000},
    )
    base.update(overrides)
    return LedgerEntry(**base)


# ----------------------------------------------------------------- ledger


class TestLedger:
    def test_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path)
        written = ledger.append(_entry())
        assert written.timestamp  # filled on append
        (read,) = list(ledger.entries())
        assert read == written
        assert read.schema == LEDGER_SCHEMA_VERSION

    def test_from_dict_ignores_unknown_keys(self):
        data = _entry().to_dict()
        data["from_the_future"] = 1
        assert LedgerEntry.from_dict(data).workload == "Water"

    def test_reader_skips_torn_and_corrupt_lines(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry(config_key="a"))
        with ledger.path.open("a", encoding="utf-8") as fh:
            fh.write('{"workload": "Water", "trunc')  # crashed writer
        # A torn line has no trailing newline; the next O_APPEND write
        # lands on it, and the reader recovers that whole record.
        ledger.append(_entry(config_key="b"))
        with ledger.path.open("a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"schema": LEDGER_SCHEMA_VERSION + 1}) + "\n")
        keys = [e.config_key for e in ledger.entries()]
        assert keys == ["a", "b"]  # only the torn record is lost
        ledger.append(_entry(config_key="c"))
        assert [e.config_key for e in ledger.entries()] == ["a", "b", "c"]

    def test_query_and_tail(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry(config_key="a", strategy="NP"))
        ledger.append(_entry(config_key="b", outcome="error", error="boom"))
        ledger.append(_entry(config_key="c", workload="Mp3d"))
        assert [e.config_key for e in ledger.query(workload="Water")] == ["a", "b"]
        assert [e.config_key for e in ledger.query(outcome="error")] == ["b"]
        assert [e.config_key for e in ledger.tail(2)] == ["b", "c"]
        assert ledger.summarize()["outcomes"] == {"ok": 2, "error": 1}

    def test_summarize_excludes_cache_hits_from_throughput(self, tmp_path):
        """Regression: warm-cache entries (wall 0.0) used to drag the
        fleet mean events/sec toward zero; they must be counted apart."""
        ledger = RunLedger(tmp_path)
        ledger.append(
            _entry(config_key="sim1", wall_seconds=2.0, events=4000, cache="miss")
        )
        ledger.append(
            _entry(config_key="sim2", wall_seconds=2.0, events=2000, cache="miss")
        )
        for i in range(10):
            ledger.append(
                _entry(
                    config_key=f"hit{i}",
                    wall_seconds=0.0,
                    events=0,
                    events_per_sec=0.0,
                    cache="hit",
                )
            )
        summary = ledger.summarize()
        assert summary["entries"] == 12
        assert summary["simulated_runs"] == 2
        assert summary["cache_hits"] == 10
        assert summary["wall_seconds"] == 4.0
        assert summary["events"] == 6000
        assert summary["mean_events_per_sec"] == 1500.0  # 6000/4, hits excluded

    def test_summarize_all_cache_hits_reports_zero_throughput(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_entry(wall_seconds=0.0, events=0, cache="hit"))
        summary = ledger.summarize()
        assert summary["simulated_runs"] == 0
        assert summary["cache_hits"] == 1
        assert summary["mean_events_per_sec"] == 0.0

    def test_missing_file_reads_empty(self, tmp_path):
        assert list(RunLedger(tmp_path / "nope").entries()) == []

    def test_concurrent_multiprocess_writers(self, tmp_path):
        """N processes append in parallel; every line survives intact."""
        ledger = RunLedger(tmp_path)
        procs, per_proc = 4, 25
        ctx = multiprocessing.get_context()
        workers = [
            ctx.Process(target=_hammer_ledger, args=(ledger, pid, per_proc))
            for pid in range(procs)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
            assert w.exitcode == 0
        entries = list(ledger.entries())
        assert len(entries) == procs * per_proc  # no line torn or lost
        seen = {(e.config_key, e.events) for e in entries}
        assert len(seen) == procs * per_proc  # and none duplicated


def _hammer_ledger(ledger: RunLedger, writer: int, count: int) -> None:
    for i in range(count):
        ledger.append(_entry(config_key=f"w{writer}", events=i))


# ------------------------------------------------------ the JSONL store

#: Each user of the store, as child code that defines ``put(tag)``: an
#: append to the directory in ``sys.argv[1]`` of a record tagged ``tag``.
_STORE_USERS = {
    "ledger": """
from repro.telemetry.ledger import LedgerEntry, RunLedger
fields = json.loads(sys.stdin.read())
def put(tag):
    RunLedger(sys.argv[1]).append(LedgerEntry(**{**fields, "config_key": tag}))
""",
    "tsdb": """
from repro.telemetry.timeseries import TimeSeriesStore
def put(tag):
    TimeSeriesStore(sys.argv[1]).append_snapshot(source=tag)
""",
}


def _put(user: str, root: Path, tag: str) -> dict:
    """Append a record tagged ``tag``; returns the record as written."""
    if user == "ledger":
        return RunLedger(root).append(_entry(config_key=tag)).to_dict()
    return TimeSeriesStore(root).append_snapshot(source=tag)


def _tags(user: str, root: Path) -> list[str]:
    if user == "ledger":
        return [e.config_key for e in RunLedger(root).entries()]
    return [s["source"] for s in TimeSeriesStore(root).snapshots()]


#: The one module that writes and reads append-only JSONL files.
STORE_MODULE = "repro/telemetry/jsonl.py"


def _store_names_outside(sources: dict[str, str]) -> list[str]:
    """``path: name`` for each ``O_APPEND`` or ``read_record`` in a source
    text (keyed by its path under ``src/``) other than the store's."""
    return sorted(
        f"{path}: {name}"
        for path, text in sources.items()
        if path != STORE_MODULE
        for name in set(re.findall(r"\b(?:O_APPEND|read_record)\b", text))
    )


class TestJsonlStore:
    @pytest.mark.parametrize("user", sorted(_STORE_USERS))
    def test_writer_killed_mid_write_loses_nothing_committed(self, tmp_path, user):
        """SIGKILL inside a record's ``os.write``, after part of its line
        is on disk: the next writer's record lands on the torn tail, and
        the reader returns every committed record and not the torn one.
        The next append's bytes are a clean append's."""
        import os
        import signal
        import subprocess
        import sys

        child = f"""
import json, os, signal, sys
{_STORE_USERS[user]}
put("A")
write = os.write
def torn(fd, data):
    write(fd, data[: len(data) // 2])
    os.kill(os.getpid(), signal.SIGKILL)
os.write = torn
put("B")
"""
        fields = {k: v for k, v in _entry().to_dict().items() if k != "schema"}
        env = {**os.environ, "PYTHONPATH": str(Path(jsonl.__file__).parents[2])}
        proc = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path)],
            input=json.dumps(fields), text=True, env=env, timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL
        (path,) = tmp_path.glob("*.jsonl")
        torn = path.read_bytes()
        assert not torn.endswith(b"\n") and torn.count(b"\n") == 1
        assert _tags(user, tmp_path) == ["A"]

        written = _put(user, tmp_path, "C")
        line = json.dumps(written, sort_keys=True, separators=(",", ":"))
        assert path.read_bytes() == torn + (line + "\n").encode("utf-8")
        assert _tags(user, tmp_path) == ["A", "C"]

    def test_reader_skips_non_numeric_schemas(self, tmp_path):
        path = tmp_path / "records.jsonl"
        jsonl.append(path, {"schema": "2", "n": 0})
        jsonl.append(path, {"schema": None, "n": 1})
        jsonl.append(path, {"n": 2})
        jsonl.append(path, {"schema": 1, "n": 3})
        assert [r["n"] for r in jsonl.records([path, tmp_path / "nope"], 1)] == [2, 3]

    def test_one_module_opens_append_descriptors(self):
        src = Path(jsonl.__file__).parents[2]
        sources = {
            path.relative_to(src).as_posix(): path.read_text(encoding="utf-8")
            for path in (src / "repro").rglob("*.py")
        }
        assert STORE_MODULE in sources
        assert _store_names_outside(sources) == []

    def test_guard_names_a_second_writer(self):
        """Must-fail control: a second ``O_APPEND`` writer and a second
        reader of torn lines are named; the store itself is not."""
        sources = {
            STORE_MODULE: "fd = os.open(path, os.O_WRONLY | os.O_APPEND)\n",
            "repro/service/journal.py": "fd = os.open(path, os.O_WRONLY | os.O_APPEND)\n",
            "repro/telemetry/slo.py": "from repro.telemetry.jsonl import read_record\n",
        }
        assert _store_names_outside(sources) == [
            "repro/service/journal.py: O_APPEND",
            "repro/telemetry/slo.py: read_record",
        ]


# ------------------------------------------------------------- heartbeats


class TestHeartbeats:
    def test_sender_rate_limits_but_passes_phase_changes(self):
        q = queue_module.SimpleQueue()
        sender = HeartbeatSender(q, interval=1.0)
        beat = Heartbeat(job=0, label="x", pid=1, phase="simulate")
        assert sender.emit(beat, now=0.0)
        assert not sender.emit(beat, now=0.5)  # same phase, too soon
        assert sender.emit(
            Heartbeat(job=0, label="x", pid=1, phase="done"), now=0.6
        )  # phase change always goes out
        assert sender.emit(beat, now=5.0)

    def test_monitor_folds_beats_and_etas(self):
        clock = _FakeClock()
        q = queue_module.SimpleQueue()
        monitor = FleetMonitor(q, {0: "a", 1: "b"}, clock=clock)
        q.put(Heartbeat(job=0, label="a", pid=7, phase="simulate", cycles=10, events=5, total_events=10))
        monitor.tick()
        assert monitor.jobs[0].pid == 7
        assert monitor.jobs[0].fraction == 0.5
        assert monitor.eta_seconds() is None  # nothing finished yet
        clock.now = 10.0
        monitor.mark_done(0)
        assert monitor.eta_seconds() == pytest.approx(10.0)  # 1 of 2 done in 10s
        line = monitor.progress_line()
        assert "1/2" in line and "eta" in line

    def test_watchdog_flags_silent_jobs(self):
        clock = _FakeClock(now=1.0)  # nonzero: last_beat == 0 means "never beat"
        q = queue_module.SimpleQueue()
        monitor = FleetMonitor(q, {0: "a"}, stall_timeout=5.0, clock=clock)
        q.put(Heartbeat(job=0, label="a", pid=1, phase="simulate"))
        monitor.tick()
        clock.now = 5.0
        monitor.tick()
        assert not monitor.jobs[0].stalled  # within timeout
        clock.now = 7.0
        monitor.tick()
        assert monitor.jobs[0].stalled
        assert monitor.snapshot()["stalled"] == 1
        assert "1 STALLED" in monitor.progress_line()
        monitor.tick()
        assert monitor.snapshot()["stalled"] == 1  # a flag, not a tally

    def test_watchdog_ignores_pending_and_done(self):
        clock = _FakeClock(now=1.0)
        q = queue_module.SimpleQueue()
        monitor = FleetMonitor(q, {0: "a", 1: "b", 2: "c"}, stall_timeout=5.0, clock=clock)
        q.put(Heartbeat(job=1, label="b", pid=1, phase="done"))
        q.put(Heartbeat(job=2, label="c", pid=2, phase="simulate"))
        monitor.tick()
        monitor.mark_done(2)  # finished out of band (its future's result)
        clock.now = 100.0
        monitor.tick()
        assert not any(p.stalled for p in monitor.jobs.values())

    def test_beat_clears_stall_flag(self):
        clock = _FakeClock(now=1.0)  # nonzero: last_beat == 0 means "never beat"
        q = queue_module.SimpleQueue()
        monitor = FleetMonitor(q, {0: "a"}, stall_timeout=5.0, clock=clock)
        q.put(Heartbeat(job=0, label="a", pid=1, phase="simulate"))
        monitor.tick()
        clock.now = 10.0
        monitor.tick()
        assert monitor.jobs[0].stalled
        q.put(Heartbeat(job=0, label="a", pid=1, phase="simulate", cycles=5))
        monitor.tick()
        assert not monitor.jobs[0].stalled


class _FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# --------------------------------------------------------------- registry


class TestMetricsRegistry:
    def test_counter_labels_and_render(self):
        reg = MetricsRegistry()
        runs = reg.counter("repro_runs_total", "Runs by outcome", ("outcome",))
        runs.inc(outcome="ok")
        runs.inc(2, outcome="error")
        assert runs.value(outcome="ok") == 1
        text = reg.render_prometheus()
        assert "# HELP repro_runs_total Runs by outcome" in text
        assert "# TYPE repro_runs_total counter" in text
        assert 'repro_runs_total{outcome="error"} 2' in text
        assert 'repro_runs_total{outcome="ok"} 1' in text
        assert text.endswith("\n")

    def test_counter_rejects_negative_and_bad_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "c", ("a",))
        with pytest.raises(ValueError):
            c.inc(-1, a="x")
        with pytest.raises(ValueError):
            c.inc(b="x")  # undeclared label

    def test_gauge_set_is_last_write_wins(self):
        g = MetricsRegistry().gauge("g", "g")
        g.set(5)
        g.set(3)
        assert g.value() == 3

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("wall", "wall", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 7.0, 100.0):
            h.observe(v)
        text = reg.render_prometheus()
        # 1.0 lands in its own bucket (le is inclusive); 100 only in +Inf.
        assert 'wall_bucket{le="1"} 2' in text
        assert 'wall_bucket{le="5"} 3' in text
        assert 'wall_bucket{le="10"} 4' in text
        assert 'wall_bucket{le="+Inf"} 5' in text
        assert "wall_sum 111.5" in text
        assert "wall_count 5" in text
        assert h.count() == 5 and h.sum() == pytest.approx(111.5)

    def test_registration_is_idempotent_but_typed(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x")
        assert reg.counter("x_total", "x") is a
        with pytest.raises(ValueError):
            reg.gauge("x_total", "x")  # same name, different kind
        with pytest.raises(ValueError):
            reg.counter("x_total", "x", ("l",))  # different labels

    def test_json_and_file_export(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n_total", "n").inc(3)
        reg.write(
            prom_path=str(tmp_path / "m.prom"), json_path=str(tmp_path / "m.json")
        )
        assert "n_total 3" in (tmp_path / "m.prom").read_text()
        assert json.loads((tmp_path / "m.json").read_text())["n_total"]["samples"]


# ------------------------------------------------------------------ drift


def _healthy_summaries(frame: DriftFrame) -> dict:
    """Synthetic grid summaries satisfying every QUICK_FRAME band."""
    summaries = {}
    for w in ALL_WORKLOAD_NAMES:
        for c in frame.transfer_latencies:
            slow = c == frame.slowest
            np_util = 0.80 if slow else 0.35
            for s in ALL_STRATEGY_NAMES:
                if s == "NP":
                    exec_cycles, cpu, total, util = 1000, 0.050, 0.050, np_util
                elif s == "PWS":
                    exec_cycles = 995 if slow else 570  # 1.005 / 1.754
                    cpu, total, util = 0.030, 0.040, np_util + 0.01
                else:
                    exec_cycles = 990 if slow else 650  # 1.010 / 1.538
                    cpu, total, util = 0.030, 0.040, np_util + 0.01
                summaries[(w, s, c)] = {
                    "exec_cycles": exec_cycles,
                    "cpu_miss_rate": cpu,
                    "total_miss_rate": total,
                    "bus_utilization": util,
                }
    return summaries


class TestDrift:
    def test_band(self):
        assert Band(1.0, 2.0).contains(1.5)
        assert not Band(1.0, 2.0).contains(0.5)
        assert Band(None, 0).contains(-3) and Band(0, None).contains(99)
        assert Band(1.0, 2.0).describe() == "[1, 2]"

    def test_healthy_summaries_pass(self):
        report = evaluate(_healthy_summaries(QUICK_FRAME), QUICK_FRAME)
        assert report.passed, report.render()
        assert report.grid_points == 50
        assert "8/8 claims hold" in report.render()
        data = report.to_dict()
        assert data["passed"] and len(data["checks"]) == 8

    def test_perturbed_speedup_fails(self):
        summaries = _healthy_summaries(QUICK_FRAME)
        for w in ALL_WORKLOAD_NAMES:  # PWS stops paying off anywhere
            for c in QUICK_FRAME.transfer_latencies:
                summaries[(w, "PWS", c)]["exec_cycles"] = 990
        report = evaluate(summaries, QUICK_FRAME)
        assert not report.passed
        assert any(c.name == "pws_max_speedup" for c in report.failures)
        assert "DRIFT" in report.render()

    def test_perturbed_miss_rate_direction_fails(self):
        summaries = _healthy_summaries(QUICK_FRAME)
        # One prefetching run whose total miss rate dips below its CPU
        # miss rate -- the bookkeeping impossibility the paper's Figure 1
        # discussion rules out.
        summaries[("Water", "PREF", 4)]["total_miss_rate"] = 0.001
        report = evaluate(summaries, QUICK_FRAME)
        failed = {c.name for c in report.failures}
        assert "total_vs_cpu_miss_rate_violations" in failed

    def test_ledger_replay_and_perturbation(self, tmp_path):
        frame = QUICK_FRAME
        ledger = RunLedger(tmp_path)
        _write_frame_ledger(ledger, frame, _healthy_summaries(frame))
        summaries = summaries_from_ledger(ledger, frame)
        assert evaluate(summaries, frame).passed
        # A *newer* failed run of a point does not displace its ok entry.
        key = ("Water", "PWS", frame.transfer_latencies[0])
        _write_frame_ledger(
            ledger, frame, {key: {**summaries[key], "exec_cycles": 990}}, outcome="error"
        )
        assert summaries_from_ledger(ledger, frame) == summaries
        # Append *newer* perturbed entries for every PWS point: newest
        # wins on replay, so the drift gate must now fail.
        bad = _healthy_summaries(frame)
        for key in bad:
            if key[1] == "PWS":
                bad[key]["exec_cycles"] = 990
        _write_frame_ledger(ledger, frame, bad)
        report = evaluate(summaries_from_ledger(ledger, frame), frame)
        assert not report.passed

    def test_ledger_replay_requires_full_grid(self, tmp_path):
        from repro.common.errors import ReproError

        ledger = RunLedger(tmp_path)
        summaries = _healthy_summaries(QUICK_FRAME)
        summaries.pop(("Water", "PWS", 32))
        _write_frame_ledger(ledger, QUICK_FRAME, summaries)
        with pytest.raises(ReproError, match="grid points"):
            summaries_from_ledger(ledger, QUICK_FRAME)

    def test_ledger_replay_ignores_other_frames(self, tmp_path):
        ledger = RunLedger(tmp_path)
        _write_frame_ledger(ledger, QUICK_FRAME, _healthy_summaries(QUICK_FRAME))
        # Same grid at a different scale must not satisfy the frame.
        from repro.common.errors import ReproError

        other = DriftFrame(
            name="other",
            num_cpus=QUICK_FRAME.num_cpus,
            scale=1.0,
            seed=QUICK_FRAME.seed,
            transfer_latencies=QUICK_FRAME.transfer_latencies,
        )
        with pytest.raises(ReproError):
            summaries_from_ledger(ledger, other)

    def test_ledger_replay_tolerates_derived_strategy_entries(self, tmp_path):
        """Regression: a distance-ablation sweep leaves ``PREF(d=400)``
        entries in the same ledger; replay must skip them (they are not
        grid points) instead of failing -- and the derived names must
        themselves resolve back to real strategies."""
        frame = QUICK_FRAME
        ledger = RunLedger(tmp_path)
        _write_frame_ledger(ledger, frame, _healthy_summaries(frame))
        for distance in (50, 400):
            derived = PREF.with_distance(distance)
            ledger.append(
                _entry(
                    config_key=f"ablation-{distance}",
                    strategy=derived.name,
                    machine={"transfer_cycles": 8, "num_cpus": frame.num_cpus},
                    num_cpus=frame.num_cpus,
                    seed=frame.seed,
                    scale=frame.scale,
                )
            )
            assert strategy_by_name(derived.name) == derived  # the PR 7 fix
        summaries = summaries_from_ledger(ledger, frame)
        assert len(summaries) == 50  # ablation entries skipped, grid intact
        assert evaluate(summaries, frame).passed


def _write_frame_ledger(
    ledger: RunLedger, frame: DriftFrame, summaries: dict, outcome: str = "ok"
) -> None:
    for (w, s, c), summary in summaries.items():
        ledger.append(
            LedgerEntry(
                config_key=f"{w}/{s}/{c}",
                workload=w,
                restructured=False,
                strategy=s,
                machine={"transfer_cycles": c, "num_cpus": frame.num_cpus},
                num_cpus=frame.num_cpus,
                seed=frame.seed,
                scale=frame.scale,
                engine_version=ENGINE_VERSION,
                outcome=outcome,
                cache="miss",
                summary=summary,
            )
        )


# -------------------------------------------------- telemetered runner path


class TestTelemeteredRunner:
    def _machine(self, cpus=4):
        return MachineConfig(num_cpus=cpus)

    def test_engine_version_pinned(self):
        # The telemetry layer must not have touched engine behavior.
        assert ENGINE_VERSION == "2"

    def test_ledger_records_fresh_runs_and_disk_hits(self, tmp_path):
        machine = self._machine()
        jobs = [("Water", NP, machine), ("Water", PREF, machine)]
        ledger = RunLedger(tmp_path / "ledger")
        telemetry = TelemetryConfig(ledger=ledger)
        runner = ExperimentRunner(
            num_cpus=4, scale=0.05, disk_cache=tmp_path / "cache"
        )
        runner.run_many(jobs, telemetry=telemetry)
        fresh = list(ledger.entries())
        assert [e.cache for e in fresh] == ["miss", "miss"]
        assert all(e.outcome == "ok" for e in fresh)
        assert all(e.events > 0 and e.wall_seconds > 0 for e in fresh)
        assert all(e.events_per_sec > 0 for e in fresh)
        assert all(e.summary["exec_cycles"] > 0 for e in fresh)
        assert all(e.engine_version == ENGINE_VERSION for e in fresh)
        # A second runner over the same cache resolves from disk: the
        # batch is ledgered as hits, with summaries intact.
        runner2 = ExperimentRunner(
            num_cpus=4, scale=0.05, disk_cache=tmp_path / "cache"
        )
        runner2.run_many(jobs, telemetry=telemetry)
        entries = list(ledger.entries())
        assert [e.cache for e in entries[2:]] == ["hit", "hit"]
        assert entries[2].summary == entries[0].summary
        # Memo hits (same runner, same batch again) are NOT re-ledgered.
        runner2.run_many(jobs, telemetry=telemetry)
        assert len(list(ledger.entries())) == 4

    def test_ledger_lines_are_golden(self, tmp_path):
        """A disk hit and a fresh restructured run ledger exactly the
        lines they always have, up to the time- and process-dependent
        fields."""
        from pathlib import Path

        from repro.prefetch.strategies import PWS

        machine = MachineConfig(num_cpus=2).with_transfer_cycles(4)
        cache = tmp_path / "cache"
        ExperimentRunner(num_cpus=2, scale=0.02, disk_cache=cache).run("Water", NP, machine)
        ledger = RunLedger(tmp_path / "ledger")
        ExperimentRunner(num_cpus=2, scale=0.02, disk_cache=cache).run_many(
            [("Topopt", PWS, machine, True), ("Water", NP, machine)],
            telemetry=TelemetryConfig(ledger=ledger),
        )
        volatile = ("timestamp", "wall_seconds", "events_per_sec", "worker_pid", "trace_id")
        lines = [json.loads(line) for line in ledger.path.read_text().splitlines()]
        for line in lines:
            for name in volatile:
                line.pop(name, None)
        golden = Path(__file__).parent / "data" / "ledger_two_point.jsonl"
        assert lines == [json.loads(line) for line in golden.read_text().splitlines()]

    def test_worker_failure_is_structured_not_fatal_midway(self, tmp_path):
        ledger = RunLedger(tmp_path)
        telemetry = TelemetryConfig(ledger=ledger)
        runner = ExperimentRunner(num_cpus=4, scale=0.05)
        machine = self._machine()
        with pytest.raises(FleetError) as excinfo:
            runner.run_many(
                [("Water", NP, machine), ("Bogus", NP, machine)], telemetry=telemetry
            )
        (failure,) = excinfo.value.failures
        assert failure.kind == "error"
        assert "Bogus" in failure.message
        by_outcome = {e.outcome: e for e in ledger.entries()}
        assert by_outcome["ok"].workload == "Water"  # survivor still ran
        assert by_outcome["error"].workload == "Bogus"
        assert by_outcome["error"].error and "unknown workload" in by_outcome["error"].error
        # The surviving result is memoised despite the batch error.
        assert len(runner._results) == 1

    def test_parallel_worker_failure_is_structured(self, tmp_path):
        ledger = RunLedger(tmp_path)
        telemetry = TelemetryConfig(ledger=ledger)
        runner = ExperimentRunner(num_cpus=4, scale=0.05, max_workers=2)
        machine = self._machine()
        with pytest.raises(FleetError):
            runner.run_many(
                [("Water", NP, machine), ("Bogus", NP, machine)], telemetry=telemetry
            )
        outcomes = sorted(e.outcome for e in ledger.entries())
        assert outcomes == ["error", "ok"]

    def test_job_timeout_is_the_one_deadline(self, tmp_path, monkeypatch):
        """A pooled point that hangs in the engine fails as ``timeout``.

        The hang sleeps in Python, so its sampler keeps beating and no
        stall flag could catch it: only ``job_timeout`` ends it, by
        killing the worker.  The batch returns, the failure is ledgered
        and the point that finished stays memoised.  The deadline is
        one only the hung point can reach: the healthy point generates
        its trace in a freshly forked worker, which on a loaded host
        can take over a second.
        """
        import time

        from repro.sim.engine import SimulationEngine

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the hang is patched into the parent; workers must fork")
        run = SimulationEngine.run

        def hang_on_slow_bus(engine):
            if engine.machine.bus.transfer_cycles != 32:
                return run(engine)
            deadline = time.monotonic() + 30.0  # bounds the test if no kill comes
            while time.monotonic() < deadline:
                time.sleep(0.01)
            raise RuntimeError("the hung worker was not killed")

        monkeypatch.setattr(SimulationEngine, "run", hang_on_slow_bus)
        ledger = RunLedger(tmp_path)
        telemetry = TelemetryConfig(ledger=ledger, job_timeout=5.0)
        runner = ExperimentRunner(num_cpus=4, scale=0.05, max_workers=2)
        machine = self._machine()
        jobs = [("Water", NP, machine), ("Water", NP, machine.with_transfer_cycles(32))]
        started = time.monotonic()
        with pytest.raises(FleetError) as excinfo:
            runner.run_many(jobs, telemetry=telemetry)
        assert time.monotonic() - started < 20.0
        (failure,) = excinfo.value.failures
        assert failure.kind == "timeout" and failure.label == "Water/NP@32c"
        assert "5s" in failure.message
        by_outcome = {e.outcome: e for e in ledger.entries()}
        assert sorted(by_outcome) == ["ok", "timeout"]
        assert by_outcome["timeout"].config_key == failure.config_key
        assert len(runner._results) == 1
        assert runner.run_many(jobs[:1])[0].exec_cycles > 0  # a memo hit

    def test_job_timeout_kills_a_worker_hung_before_the_engine(self, tmp_path, monkeypatch):
        """A pooled point that hangs in insertion, before the engine's
        sampler beats, is still killed on its deadline.

        The worker's first heartbeat (``generate``) names its pid before
        any stage runs, so pool shutdown does not wait out the hang.  As
        above, only the hung point can reach the deadline.
        """
        import time

        from repro.experiments import runner as runner_module

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the hang is patched into the parent; workers must fork")
        insert = runner_module.insert_prefetches

        def hang_on_pref(trace, strategy, cache):
            if strategy.name == "PREF":
                time.sleep(30.0)
            return insert(trace, strategy, cache)

        monkeypatch.setattr(runner_module, "insert_prefetches", hang_on_pref)
        ledger = RunLedger(tmp_path)
        telemetry = TelemetryConfig(ledger=ledger, job_timeout=5.0)
        runner = ExperimentRunner(num_cpus=4, scale=0.05, max_workers=2)
        machine = self._machine()
        started = time.monotonic()
        with pytest.raises(FleetError) as excinfo:
            runner.run_many([("Water", NP, machine), ("Water", PREF, machine)], telemetry=telemetry)
        assert time.monotonic() - started < 20.0
        (failure,) = excinfo.value.failures
        assert failure.kind == "timeout" and failure.label == "Water/PREF@8c"
        assert sorted(e.outcome for e in ledger.entries()) == ["ok", "timeout"]

    def test_registry_counts_runs(self):
        telemetry = TelemetryConfig()
        runner = ExperimentRunner(num_cpus=4, scale=0.05)
        machine = self._machine()
        runner.run_many([("Water", NP, machine)], telemetry=telemetry)
        families = telemetry.metrics()
        assert families["runs"].value(outcome="ok") == 1
        assert families["cache"].value(result="off") == 1
        assert families["events"].value() > 0
        assert families["wall"].count() == 1

    def test_heartbeat_overhead_tripwire(self):
        """Telemetered runs must not meaningfully slow the engine.

        The acceptance budget is <2% wall on a 12-CPU Water run, and
        standalone measurement puts the overhead below timing noise
        (about -1%..+1%) -- the sampler never touches the engine's hot
        loop.  A timing assertion that tight is flaky when the whole
        suite loads the machine, so this tripwire interleaves best-of-3
        pairs and allows 1.5x before failing: it catches a hot-path
        hook creeping in (which costs 2x+), not scheduler jitter.
        """
        import time

        from repro.common.config import SimulationConfig
        from repro.experiments.runner import RunJob, execute, process_trace
        from repro.telemetry.fleet import Probe

        job = RunJob("Water", PREF, MachineConfig(num_cpus=12), num_cpus=12, scale=0.25)
        trace = process_trace(job)
        beats = queue_module.SimpleQueue()

        def timed(f):
            t0 = time.perf_counter()
            f()
            return time.perf_counter() - t0

        plain, telemetered = [], []
        for _ in range(3):  # interleaved so load spikes hit both sides
            plain.append(timed(lambda: execute(job, SimulationConfig(), trace)))
            probe = Probe(0, job.label, queue=beats, heartbeat_interval=0.1)
            telemetered.append(timed(lambda: execute(job, SimulationConfig(), trace, probe)))
        assert min(telemetered) <= min(plain) * 1.5
        drained = 0
        while True:
            try:
                beats.get_nowait()
                drained += 1
            except Exception:
                break
        assert drained >= 2  # at least the enter/exit phase beats


# -------------------------------------------------------------------- CLI


class TestTelemetryCli:
    def test_ledger_command(self, tmp_path, capsys):
        from repro.cli import main

        ledger = RunLedger(tmp_path)
        ledger.append(_entry())
        ledger.append(_entry(outcome="error", error="boom"))
        assert main(["ledger", "--ledger-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out and "error=1" in out and "boom" in out
        assert main(["ledger", "--ledger-dir", str(tmp_path / "empty")]) == 0
        assert "no ledger recorded yet" in capsys.readouterr().out

    def test_drift_from_ledger_pass_and_fail(self, tmp_path, capsys):
        from repro.cli import main

        healthy = tmp_path / "healthy"
        _write_frame_ledger(
            RunLedger(healthy), QUICK_FRAME, _healthy_summaries(QUICK_FRAME)
        )
        assert (
            main(["drift", "--quick", "--from-ledger", "--ledger-dir", str(healthy)])
            == 0
        )
        assert "8/8 claims hold" in capsys.readouterr().out

        perturbed = tmp_path / "perturbed"
        bad = _healthy_summaries(QUICK_FRAME)
        for key in bad:
            if key[1] == "PWS":
                bad[key]["exec_cycles"] = 990
        _write_frame_ledger(RunLedger(perturbed), QUICK_FRAME, bad)
        report_path = tmp_path / "drift.json"
        assert (
            main(
                [
                    "drift",
                    "--quick",
                    "--from-ledger",
                    "--ledger-dir",
                    str(perturbed),
                    "--json",
                    str(report_path),
                ]
            )
            == 1
        )
        assert "DRIFT" in capsys.readouterr().out
        assert json.loads(report_path.read_text())["passed"] is False

    def test_drift_from_incomplete_ledger_errors(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["drift", "--quick", "--from-ledger", "--ledger-dir", str(tmp_path)]
        )
        assert code == 2
        assert "grid points" in capsys.readouterr().err

    def test_fleet_command_smoke(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "fleet",
                "--workloads",
                "water",
                "--strategies",
                "NP,PREF",
                "--latencies",
                "8",
                "--cpus",
                "4",
                "--scale",
                "0.05",
                "--no-progress",
                "--ledger-dir",
                str(tmp_path / "ledger"),
                "--cache",
                "",
                "--metrics-out",
                str(tmp_path / "metrics"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 runs ok" in out
        assert (tmp_path / "metrics.prom").exists()
        assert (tmp_path / "metrics.json").exists()
        assert len(list(RunLedger(tmp_path / "ledger").entries())) == 2


# ------------------------------------------------------------- satellites


class TestMonitorHook:
    """Direct unit tests for ``TelemetryConfig.monitor_hook``."""

    _machine = MachineConfig(num_cpus=2)
    _jobs = [("Water", PREF, _machine)]

    def test_hook_sees_live_monitor_before_jobs_run(self):
        seen: list = []

        def hook(monitor):
            assert isinstance(monitor, FleetMonitor)
            # Called right after construction, before any job finishes:
            # every job is still visible and none is done.
            assert not monitor.done
            assert {p.label for p in monitor.jobs.values()} == {"Water/PREF@8c"}
            seen.append(monitor)

        runner = ExperimentRunner(num_cpus=2, scale=0.02)
        runner.run_many(self._jobs, telemetry=TelemetryConfig(monitor_hook=hook))
        assert len(seen) == 1
        # ... and by batch end the same monitor saw the job complete.
        assert seen[0].done == {0}

    def test_hook_exception_never_fails_the_batch(self):
        def hook(monitor):
            raise RuntimeError("observability exploded")

        runner = ExperimentRunner(num_cpus=2, scale=0.02)
        (result,) = runner.run_many(
            self._jobs, telemetry=TelemetryConfig(monitor_hook=hook)
        )
        assert result.exec_cycles > 0

    def test_hook_fires_once_per_batch(self):
        calls: list[int] = []
        telemetry = TelemetryConfig(monitor_hook=lambda m: calls.append(1))
        runner = ExperimentRunner(num_cpus=2, scale=0.02)
        runner.run_many(self._jobs, telemetry=telemetry)
        runner2 = ExperimentRunner(num_cpus=2, scale=0.02)
        runner2.run_many(self._jobs, telemetry=telemetry)
        assert len(calls) == 2

    def test_default_is_none_and_inert(self):
        telemetry = TelemetryConfig()
        assert telemetry.monitor_hook is None
        runner = ExperimentRunner(num_cpus=2, scale=0.02)
        (result,) = runner.run_many(self._jobs, telemetry=telemetry)
        assert result.exec_cycles > 0


class TestSatellites:
    def test_progress_bar(self):
        assert progress_bar(0, 10, width=4) == "[····]"
        assert progress_bar(10, 10, width=4) == "[████]"
        assert progress_bar(5, 10, width=4) == "[██··]"
        assert progress_bar(1, 0, width=4) == "[····]"  # no total yet
        partial = progress_bar(1, 3, width=4)
        assert partial.startswith("[█") and len(partial) == 6

    def test_events_retired(self):
        """The fleet's events figure (ledger ``events``, events/sec) is
        every event the engine retired: demand + sync + prefetch."""
        runner = ExperimentRunner(num_cpus=2, scale=0.05)
        telemetry = TelemetryConfig()
        (result,) = runner.run_many([("Water", PREF, MachineConfig(num_cpus=2))], telemetry)
        per_cpu = sum(
            c.demand_refs + c.sync_refs + c.prefetches_issued for c in result.per_cpu
        )
        assert telemetry.metrics()["events"].value() == per_cpu > 0

    def test_strategy_names_cover_registry(self):
        # Drift's strategy list must track the real registry.
        names = {s.name for s in ALL_STRATEGIES}
        assert set(ALL_STRATEGY_NAMES) <= names
        for name in ALL_STRATEGY_NAMES:
            strategy_by_name(name)

    def test_diskcache_stats_snapshot(self, tmp_path):
        from repro.perf.diskcache import ResultDiskCache, content_key

        cache = ResultDiskCache(tmp_path / "c")
        key = content_key({"x": 1})
        assert cache.load(key) is None
        cache.store(key, {"v": 1}, {"x": 1})
        assert cache.load(key) == {"v": 1}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["stores"] == 1 and stats["entries"] == 1
        assert stats["bytes"] > 0


# ------------------------------------------- exposition goldens (PR 10)


class TestExpositionGoldens:
    """Prometheus text-format edge cases pinned as exact goldens.

    The TSDB reconciliation smoke compares snapshot-derived values
    against this exposition byte-for-byte, so the format itself must be
    frozen: +Inf bucket lines, label-value escaping, empty registry.
    """

    def test_infinity_bucket_line(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "latency", buckets=(0.5, float("inf")))
        h.observe(0.25)
        h.observe(99.0)
        assert reg.render_prometheus() == (
            "# HELP lat_seconds latency\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="0.5"} 1\n'
            'lat_seconds_bucket{le="+Inf"} 2\n'
            'lat_seconds_bucket{le="+Inf"} 2\n'
            "lat_seconds_sum 99.25\n"
            "lat_seconds_count 2\n"
        )

    def test_label_value_escaping_golden(self):
        reg = MetricsRegistry()
        c = reg.counter("weird_total", "weird labels", ("path",))
        c.inc(1, path='a"b')
        c.inc(2, path="c\\d")
        c.inc(3, path="e\nf")
        assert reg.render_prometheus() == (
            "# HELP weird_total weird labels\n"
            "# TYPE weird_total counter\n"
            'weird_total{path="a\\"b"} 1\n'
            'weird_total{path="c\\\\d"} 2\n'
            'weird_total{path="e\\nf"} 3\n'
        )

    def test_empty_registry_exposition(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert MetricsRegistry().to_json() == {}

    def test_empty_family_renders_headers_only(self):
        reg = MetricsRegistry()
        reg.counter("quiet_total", "never incremented")
        assert reg.render_prometheus() == (
            "# HELP quiet_total never incremented\n"
            "# TYPE quiet_total counter\n"
        )


# ------------------------------------------- histogram quantiles (PR 10)


class TestHistogramQuantile:
    def test_quantile_against_known_samples(self):
        from repro.telemetry.registry import quantile_from_buckets

        reg = MetricsRegistry()
        h = reg.histogram("q", "q", buckets=(1.0, 2.0, 4.0, 8.0))
        # 10 samples: 5 in (0,1], 3 in (1,2], 2 in (2,4].
        for v in (0.1, 0.3, 0.5, 0.7, 0.9, 1.2, 1.5, 1.8, 2.5, 3.5):
            h.observe(v)
        # p50 rank = 5.0 -> exactly the top of the first bucket.
        assert h.quantile(0.5) == pytest.approx(1.0)
        # p80 rank = 8.0 -> top of the second bucket.
        assert h.quantile(0.8) == pytest.approx(2.0)
        # p90 rank 9.0 -> halfway through the (2,4] bucket.
        assert h.quantile(0.9) == pytest.approx(3.0)
        assert h.quantile(0.0) == pytest.approx(0.0)
        # Shared estimator agrees with the method.
        assert quantile_from_buckets((1.0, 2.0, 4.0, 8.0), (5, 3, 2, 0), 10, 0.9) == (
            pytest.approx(3.0)
        )

    def test_quantile_inf_tail_clamps_to_last_bound(self):
        h = MetricsRegistry().histogram("q", "q", buckets=(1.0, 2.0))
        h.observe(100.0)  # lands only in +Inf
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_quantile_empty_and_labelled(self):
        h = MetricsRegistry().histogram("q", "q", ("route",), buckets=(1.0,))
        assert h.quantile(0.5, route="/x") is None
        h.observe(0.5, route="/x")
        # rank 0.5 of 1 sample: halfway into the (0, 1] bucket.
        assert h.quantile(0.5, route="/x") == pytest.approx(0.5)
        with pytest.raises(ValueError):
            h.quantile(1.5, route="/x")


# ------------------------------------- summarize percentiles (PR 10)


class TestSummarizePercentiles:
    def test_wall_percentiles_and_strategy_breakdown(self, tmp_path):
        ledger = RunLedger(tmp_path)
        # 4 simulated runs (two strategies) + 1 cache hit (excluded).
        for i, (strategy, wall, events) in enumerate(
            [("NP", 1.0, 1000), ("NP", 3.0, 3000), ("PREF", 2.0, 8000), ("PREF", 4.0, 4000)]
        ):
            ledger.append(
                _entry(config_key=f"k{i}", strategy=strategy, wall_seconds=wall, events=events)
            )
        ledger.append(_entry(config_key="hit", cache="hit", wall_seconds=0.0, events=0))
        summary = ledger.summarize()
        assert summary["simulated_runs"] == 4 and summary["cache_hits"] == 1
        # Sorted walls [1,2,3,4]: p50 interpolates to 2.5, p95 to 3.85.
        assert summary["wall_p50"] == pytest.approx(2.5)
        assert summary["wall_p95"] == pytest.approx(3.85)
        np_stats = summary["strategies"]["NP"]
        assert np_stats["runs"] == 2
        assert np_stats["events_per_sec"] == pytest.approx(1000.0)  # 4000 ev / 4 s
        pref_stats = summary["strategies"]["PREF"]
        assert pref_stats["events_per_sec"] == pytest.approx(2000.0)  # 12000 ev / 6 s
        # Cache hits contribute to neither percentile nor breakdown.
        assert "hit" not in summary["strategies"]

    def test_empty_ledger_percentiles(self, tmp_path):
        summary = RunLedger(tmp_path).summarize()
        assert summary["wall_p50"] == 0.0 and summary["wall_p95"] == 0.0
        assert summary["strategies"] == {}
