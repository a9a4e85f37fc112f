"""Tests for the observability subsystem (:mod:`repro.obs`).

The load-bearing guarantees:

* **Non-interference** -- an observed run returns bit-identical
  ``RunMetrics`` to an unobserved one (the taps are read-only; observed
  and unobserved runs both take the engine's hit-streak fast path), and
  observing an audited run leaves its audit report unchanged.
* **Frozen payload** -- the full observed ``RunMetrics`` of the
  ``diagnose`` benchmark points (windows, line profiles, timelines)
  hash to a pinned digest, so a tap regression cannot hide behind
  unchanged simulated results.
* **Exact reconciliation** -- every windowed series integrates to its
  end-of-run aggregate to the cycle (``ObsReport.reconcile`` is empty).
* **Valid export** -- the Chrome trace JSON is loadable and every
  ``"X"`` event carries name/ph/ts/dur/pid/tid.
* **Bounded overhead** -- taps cost wall time, but only a small
  constant factor.
"""

import dataclasses
import hashlib
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import MachineConfig, SimulationConfig
from repro.experiments.runner import ExperimentRunner
from repro.metrics.results import RunMetrics
from repro.obs import export
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.sampler import ObsReport, WindowedSampler, _acc
from repro.obs.tracer import PID_BUS, PID_CPU, ObsEvent, TimelineTracer
from repro.prefetch.insertion import insert_prefetches
from repro.prefetch.strategies import NP, PREF, PWS
from repro.sim.engine import SimulationEngine
from repro.telemetry.tracing import check_chrome_events
from repro.workloads.registry import ALL_WORKLOAD_NAMES, generate_workload
from tests.engines import BusySliceEngine

settings.register_profile("repro-ci", derandomize=True)
settings.load_profile("repro-ci")


def _run(workload, strategy, *, observe, num_cpus=4, scale=0.1, **sim_kwargs):
    runner = ExperimentRunner(
        num_cpus=num_cpus,
        seed=42,
        scale=scale,
        sim_config=SimulationConfig(observe=observe, **sim_kwargs),
    )
    return runner.run(workload, strategy, MachineConfig(num_cpus=num_cpus))


# ----------------------------------------------------------- non-interference


class TestNonInterference:
    @pytest.mark.parametrize("workload", ["Water", "Mp3d"])
    @pytest.mark.parametrize("strategy", [NP, PREF, PWS], ids=lambda s: s.name)
    def test_observe_off_and_on_bit_identical(self, workload, strategy):
        """Taps never perturb simulated state (sync-heavy Mp3d included)."""
        base = _run(workload, strategy, observe=False)
        observed = _run(workload, strategy, observe=True)
        assert observed.obs is not None
        assert base.obs is None
        # Strip the telemetry payload and compare everything else.
        base_dict = base.to_dict()
        obs_dict = observed.to_dict()
        obs_dict.pop("obs")
        assert obs_dict == base_dict

    def test_observe_off_carries_no_payload(self):
        result = _run("Water", NP, observe=False)
        assert result.obs is None
        assert "obs" not in result.to_dict()

    def test_observation_leaves_audit_report_unchanged(self):
        """Observed and unobserved audited runs take the same engine path.

        Topopt PWS on the 8-cycle bus at 12 CPUs: while observed runs
        took the generic handlers, their ``structural.event_order``
        count differed from the audit-only run's.
        """
        machine = MachineConfig(num_cpus=12).with_transfer_cycles(8)
        audit_only, observed = (
            ExperimentRunner(
                num_cpus=12, seed=42, scale=0.05, sim_config=SimulationConfig(audit=True, **flags)
            ).run("Topopt", PWS, machine)
            for flags in ({}, {"observe": True, "observe_lines": True})
        )
        assert observed.obs is not None
        assert observed.audit.to_dict() == audit_only.audit.to_dict()


class TestObservationPayloadGolden:
    """Frozen digest of full observed results: the ``diagnose`` points.

    Every workload as ``repro c2c`` runs it (PWS, 8-cycle bus, per-line
    profile) and as ``repro timeline`` runs it (PREF, 32-cycle bus,
    timeline ring), 12 CPUs, scale 0.05, seed 42.  Unlike the bench
    digests, the hash covers the ``obs`` payload.  Captured while
    observed runs took the engine's generic handlers, so it pins the
    fast path's taps to theirs.
    """

    DIGEST = "c82453971f261016737df5bd63c3f00ade0193e57caecf058d8ba59f26db682f"

    C2C = SimulationConfig(
        observe=True, observe_lines=True, observe_window=4096, observe_trace_capacity=0
    )
    TIMELINE = SimulationConfig(observe=True, observe_window=4096, observe_trace_capacity=65536)

    def test_diagnose_payload_digest(self):
        digest = hashlib.sha256()
        for workload in ALL_WORKLOAD_NAMES:
            for strategy, cycles, config in ((PWS, 8, self.C2C), (PREF, 32, self.TIMELINE)):
                runner = ExperimentRunner(num_cpus=12, seed=42, scale=0.05, sim_config=config)
                result = runner.run(
                    workload, strategy, runner.base_machine().with_transfer_cycles(cycles)
                )
                digest.update(json.dumps(result.to_dict(), sort_keys=True).encode("utf-8"))
        assert digest.hexdigest() == self.DIGEST


class TestBusyWindowPlacement:
    """Busy cycles land in the right windows, at a 64-cycle width.

    No tap fires for a busy cycle: the sampler places the cycles a CPU
    accrued since its last resumption after its open busy run.  The
    4096-cycle golden can hide a cycle placed in the wrong window when
    the two windows' values happen to match; at 64 cycles a misplaced
    cycle shows.  Each diagnose point, with the line profile and the
    timeline on, must give the same full report (windows, line profile,
    timeline) on the fast path and on the generic handlers, and the
    generic run's busy windows must equal the ones
    :class:`~tests.engines.BusySliceEngine` builds from the busy counters alone.
    """

    CONFIG = SimulationConfig(observe=True, observe_lines=True, observe_window=64)

    @classmethod
    def problems(cls, workload, strategy, cycles):
        """Differences between the fast run, the generic run and the reference."""
        machine = MachineConfig(num_cpus=12).with_transfer_cycles(cycles)
        trace = generate_workload(workload, num_cpus=12, seed=42, scale=0.05)
        annotated, _report = insert_prefetches(trace, strategy, machine.cache)
        runs = {}
        for engine_class in (SimulationEngine, BusySliceEngine):
            engine = engine_class(annotated, machine, cls.CONFIG)
            engine.run()
            runs[engine_class] = engine, engine.collect_metrics(strategy.name)
        fast = runs[SimulationEngine][1]
        reference, generic = runs[BusySliceEngine]
        problems = []
        if fast.obs.to_dict() != generic.obs.to_dict():
            problems.append("fast-path report differs from the generic one")
        expected = reference.padded_busy_windows(generic.obs.num_windows)
        for cpu, series in enumerate(generic.obs.cpu_busy):
            if series != expected[cpu]:
                problems.append(f"cpu {cpu}: busy windows differ from the busy counters'")
        return problems, fast

    @pytest.mark.parametrize("workload", ALL_WORKLOAD_NAMES)
    @pytest.mark.parametrize("point", [(PWS, 8), (PREF, 32)], ids=["c2c", "timeline"])
    def test_fast_generic_and_reference_agree(self, workload, point):
        problems, _fast = self.problems(workload, *point)
        assert problems == []

    def test_run_extended_across_a_sync_wait_is_caught(self, monkeypatch):
        """Must-fail control: the sampler does not restart the run at a wait's end.

        The cycles a CPU runs after a barrier then join the busy run it
        left before the wait.  Every sum stays the same, so
        ``reconcile`` passes -- its blind spot -- but the busy windows
        leave the reference's.
        """

        def extend_across_wait(sampler, cpu, start, end, busy):
            _acc(sampler.cpu_sync[cpu], sampler.window, start, end)
            run_end = sampler._busy_end[cpu] + busy - sampler._busy_seen[cpu]
            sampler.resume(cpu, run_end, busy)

        monkeypatch.setattr(WindowedSampler, "add_sync_wait", extend_across_wait)
        problems, fast = self.problems("Water", PWS, 8)
        assert fast.obs.reconcile(fast) == []
        assert any("busy windows differ" in p for p in problems)


# ----------------------------------------------------------- reconciliation


class TestReconciliation:
    @pytest.mark.parametrize("strategy", [NP, PREF, PWS], ids=lambda s: s.name)
    @pytest.mark.parametrize("window", [64, 4096])
    def test_windowed_series_reconcile_exactly(self, strategy, window):
        result = _run("Water", strategy, observe=True, observe_window=window)
        report = result.obs
        assert report.reconcile(result) == []
        # Spot-check the headline identity explicitly.
        assert sum(report.bus_busy) == result.bus.busy_cycles
        for cpu in result.per_cpu:
            assert sum(report.cpu_busy[cpu.cpu]) == cpu.busy_cycles
            assert sum(report.cpu_sync[cpu.cpu]) == cpu.sync_wait_cycles
            assert sum(report.cpu_stall[cpu.cpu]) == cpu.stall_cycles

    def test_tier_partition_and_prefetch_share(self):
        result = _run("Water", PWS, observe=True)
        report = result.obs
        for w in range(report.num_windows):
            assert (
                report.bus_demand[w] + report.bus_writeback[w] + report.bus_prefetch[w]
                == report.bus_busy[w]
            )
        # A prefetching run puts prefetch traffic on the bus somewhere.
        assert sum(report.bus_prefetch) > 0

    def test_report_round_trips_through_run_metrics_json(self):
        result = _run("Mp3d", PWS, observe=True)
        restored = RunMetrics.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.obs is not None
        assert restored.obs.to_dict() == result.obs.to_dict()
        assert restored.obs.reconcile(restored) == []


# -------------------------------------------------- sampler property tests


class TestSamplerProperties:
    @given(
        window=st.integers(min_value=1, max_value=257),
        slices=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5000),
                st.integers(min_value=0, max_value=400),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_bus_slices_integrate_to_total(self, window, slices):
        """sum over windows of bus occupancy == total occupied cycles."""
        sampler = WindowedSampler(num_cpus=1, window=window)
        total = 0
        horizon = 1
        for start, dur, tier in slices:
            sampler.add_bus_slice(start, start + dur, tier)
            total += dur
            horizon = max(horizon, start + dur)
        report = sampler.finalize(horizon, [horizon], [0], [], 0)
        assert sum(report.bus_busy) == total
        for w in range(report.num_windows):
            assert (
                report.bus_demand[w] + report.bus_writeback[w] + report.bus_prefetch[w]
                == report.bus_busy[w]
            )

    @given(
        window=st.integers(min_value=1, max_value=64),
        slices=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_coalesced_busy_matches_per_slice_split(self, window, slices):
        """Busy runs split once equal every slice split on its own.

        Each CPU's slices follow one another in time, with a random
        idle step before each (zero makes it continue the open run).
        The sampler hears only of the resumption at each slice's start
        and reads the slice's cycles off the running busy total.
        """
        sampler = WindowedSampler(num_cpus=2, window=window)
        expected = [[], []]
        clock = [0, 0]
        busy = [0, 0]
        for cpu, idle, cycles in slices:
            start = clock[cpu] + idle
            sampler.resume(cpu, start, busy[cpu])
            busy[cpu] += cycles
            _acc(expected[cpu], window, start, start + cycles)
            clock[cpu] = start + cycles
        horizon = max(1, *clock)
        report = sampler.finalize(horizon, [horizon, horizon], busy, [], 0)
        for cpu in range(2):
            windows = report.num_windows
            assert report.cpu_busy[cpu] == expected[cpu] + [0] * (windows - len(expected[cpu]))

    @given(
        window=st.integers(min_value=1, max_value=100),
        start=st.integers(min_value=0, max_value=1000),
        length=st.integers(min_value=0, max_value=1000),
        weight=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_acc_is_exact(self, window, start, length, weight):
        series = []
        _acc(series, window, start, start + length, weight)
        assert sum(series) == length * weight
        # No cycle lands outside the windows the interval overlaps.
        for w, value in enumerate(series):
            lo, hi = w * window, (w + 1) * window
            overlap = max(0, min(start + length, hi) - max(start, lo))
            assert value == overlap * weight

    @given(
        window=st.integers(min_value=1, max_value=64),
        moves=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_integral_matches_brute_force(self, window, moves):
        """The step-function integral equals a cycle-by-cycle sum."""
        sampler = WindowedSampler(num_cpus=1, window=window)
        level, t, horizon = 0, 0, 1
        timeline = {}  # cycle -> level, brute-force reference
        for dt, new_level in moves:
            now = t + dt
            for cycle in range(t, now):
                timeline[cycle] = level
            sampler.set_queue_depth(now, new_level)
            t, level = now, new_level
            horizon = max(horizon, now)
        for cycle in range(t, horizon):
            timeline[cycle] = level
        report = sampler.finalize(horizon, [horizon], [0], [], 0)
        assert sum(report.bus_queue) == sum(timeline.values())
        assert report.peak_queue == max(
            [lvl for _, lvl in moves], default=0
        )


# ------------------------------------------------------------ trace export


class TestChromeTraceExport:
    def test_exported_trace_schema(self, tmp_path):
        """Golden schema: valid JSON, complete events fully keyed."""
        result = _run("Water", PREF, observe=True)
        path = write_chrome_trace(result.obs, tmp_path / "trace.json", label="test")
        trace = json.loads(path.read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        assert trace["otherData"]["timestamp_unit"] == "cycles"
        assert trace["otherData"]["exec_cycles"] == result.exec_cycles
        check_chrome_events(events)
        phases = {e["ph"] for e in events}
        assert "M" in phases and "X" in phases
        # The run label is folded into every process name so Perfetto
        # rows identify the workload/strategy.
        assert all(
            e["args"]["name"].endswith(" -- test")
            for e in events if e["ph"] == "M" and e["name"] == "process_name"
        )
        # The bus track records occupancy spans; a prefetching Water run
        # records prefetch instants on the cpu track.
        assert any(e["ph"] == "X" and e["pid"] == PID_BUS for e in events)
        assert any(
            e["ph"] == "i" and e["pid"] == PID_CPU and e["cat"] == "prefetch"
            for e in events
        )

    @pytest.mark.parametrize("timeline", ["recorded", "empty"])
    def test_export_bytes_match_one_shot_dumps(self, tmp_path, timeline):
        """The streaming writer emits exactly ``json.dumps(doc) + "\\n"``."""
        report = _run("Water", PREF, observe=True).obs
        if timeline == "empty":
            report = dataclasses.replace(report, timeline=[], timeline_dropped=0)
        else:
            assert report.timeline
        path = write_chrome_trace(report, tmp_path / "trace.json", label="Water/PREF")
        expected = json.dumps(chrome_trace(report, label="Water/PREF")) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "events",
        [0, 1, export._CHUNK - 1, export._CHUNK, export._CHUNK + 1],
        ids=["none", "one", "chunk-1", "chunk", "chunk+1"],
    )
    def test_export_bytes_at_chunk_edges(self, tmp_path, events):
        """Chunked writing matches one ``json.dumps`` at every chunk edge."""
        report = _run("Water", PREF, observe=True).obs
        assert len(report.timeline) > export._CHUNK
        report = dataclasses.replace(report, timeline=report.timeline[:events])
        path = write_chrome_trace(report, tmp_path / "trace.json", label="Water/PREF")
        expected = json.dumps(chrome_trace(report, label="Water/PREF")) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    def test_metadata_names_every_cpu_thread(self):
        result = _run("Water", NP, observe=True)
        trace = chrome_trace(result.obs)
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for cpu in range(result.obs.num_cpus):
            assert thread_names[(PID_CPU, cpu)] == f"cpu{cpu}"
        assert thread_names[(PID_BUS, 0)] == "bus"

    def test_process_names_carry_run_label(self):
        """Non-default labels tag the tracks; the default stays bare."""
        result = _run("Water", NP, observe=True)

        def process_names(trace):
            return {
                e["pid"]: e["args"]["name"]
                for e in trace["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"
            }

        labelled = process_names(chrome_trace(result.obs, label="Water/NP"))
        assert labelled[PID_CPU] == "cpu -- Water/NP"
        assert labelled[PID_BUS] == "bus -- Water/NP"
        bare = process_names(chrome_trace(result.obs))
        assert bare[PID_CPU] == "cpu"
        assert bare[PID_BUS] == "bus"

    def test_obs_event_round_trip(self):
        span = ObsEvent("X", "bus", "READ", 10, 32, PID_BUS, 0, {"block": 7})
        instant = ObsEvent("i", "prefetch", "issue", 4, 0, PID_CPU, 2, None)
        for event in (span, instant):
            restored = ObsEvent.from_dict(event.to_dict())
            assert restored.to_dict() == event.to_dict()


# ------------------------------------------------------------- ring buffer


class TestTimelineTracer:
    def test_ring_keeps_most_recent(self):
        tracer = TimelineTracer(capacity=3)
        for i in range(10):
            tracer.instant("prefetch", "issue", i, PID_CPU, 0)
        assert len(tracer) == 3
        assert tracer.total == 10
        assert tracer.dropped == 7
        assert [e.ts for e in tracer.events()] == [7, 8, 9]

    def test_zero_capacity_counts_everything_as_dropped(self):
        tracer = TimelineTracer(capacity=0)
        tracer.span("bus", "READ", 0, 8, PID_BUS, 0)
        assert len(tracer) == 0
        assert tracer.dropped == 1

    def test_disabled_ring_counts_what_a_large_ring_records(self):
        """A c2c-configured run records no event but counts every one.

        Its taps build no event, so ``timeline_dropped`` must equal the
        number of events the same point records with a ring that drops
        none.
        """
        runs = {}
        for capacity in (0, 1 << 20):
            config = dataclasses.replace(
                TestObservationPayloadGolden.C2C, observe_trace_capacity=capacity
            )
            runner = ExperimentRunner(num_cpus=12, seed=42, scale=0.05, sim_config=config)
            machine = runner.base_machine().with_transfer_cycles(8)
            runs[capacity] = runner.run("Mp3d", PWS, machine).obs
        disabled, recorded = runs[0], runs[1 << 20]
        assert disabled.timeline == []
        assert recorded.timeline_dropped == 0
        assert disabled.timeline_dropped == len(recorded.timeline) > 0

    def test_engine_honours_trace_capacity(self):
        result = _run("Water", NP, observe=True, observe_trace_capacity=16)
        report = result.obs
        assert len(report.timeline) == 16
        assert report.timeline_dropped > 0
        # Sampler aggregates remain lossless regardless of drops.
        assert sum(report.bus_busy) == result.bus.busy_cycles


# ---------------------------------------------------------------- overhead


class TestOverhead:
    def test_taps_on_overhead_bounded(self):
        """Observation may cost wall time, but only a small factor.

        The bound is deliberately generous (6x): this is a tripwire for
        accidentally quadratic taps, not a performance benchmark.
        """

        def wall(observe):
            t0 = time.perf_counter()
            _run("Water", PWS, observe=observe, scale=0.2)
            return time.perf_counter() - t0

        wall(False)  # warm imports and trace generation paths
        off = min(wall(False) for _ in range(2))
        on = min(wall(True) for _ in range(2))
        assert on < off * 6 + 0.05


# ---------------------------------------------------------------- CLI smoke


class TestTimelineCli:
    def test_timeline_quick_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "timeline",
                    "--workload",
                    "water",
                    "--quick",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        trace = json.loads(out.read_text(encoding="utf-8"))
        assert trace["traceEvents"]
        printed = capsys.readouterr().out
        assert "bus util" in printed
        assert "(exact)" in printed

    def test_timeline_exits_1_when_a_window_fails_to_reconcile(self, tmp_path, monkeypatch, capsys):
        """Must-fail control for CI's timeline step: one busy cycle moved
        out of its window's CPU series is reported and fails the command."""
        from repro.cli import main

        real_reconcile = ObsReport.reconcile

        def perturbed(report, metrics):
            report.cpu_busy[0][0] += 1
            return real_reconcile(report, metrics)

        monkeypatch.setattr(ObsReport, "reconcile", perturbed)
        args = ["timeline", "--workload", "water", "--quick", "--out", str(tmp_path / "t.json")]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "MISMATCHES" in out and "cpu 0: busy windows" in out

    def test_timeline_rejects_unknown_workload(self, capsys):
        from repro.cli import main

        assert main(["timeline", "--workload", "nosuch", "--quick"]) == 2
        assert "unknown workload" in capsys.readouterr().err.lower()
