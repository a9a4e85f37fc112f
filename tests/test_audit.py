"""The runtime sanitizer: detection power, reporting, and identities.

Three angles:

* **detection** -- deliberately corrupted engine state must produce
  violations (an auditor that can't fail is not checking anything);
* **cleanliness + identity** -- audited runs of real configurations
  pass, and the audit flag never changes simulated results;
* **conservation properties** -- hypothesis drives random small traces
  through audited runs and requires every invariant to hold, including
  the contention-free machine (where PR 2's in-flight exclusive-fill
  coherence fix lives).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

settings.register_profile("repro-ci", derandomize=True)
settings.load_profile("repro-ci")

from repro.audit.grid import audit_grid, machine_for, quick_grid, verification_grid
from repro.audit.report import MAX_VIOLATIONS, AuditReport, AuditViolation
from repro.audit.sanitizer import EngineAuditor
from repro.cli import main
from repro.coherence.protocol import LineState
from repro.common.config import BusConfig, CacheConfig, MachineConfig, SimulationConfig
from repro.metrics.results import RunMetrics
from repro.prefetch.insertion import insert_prefetches
from repro.prefetch.strategies import strategy_by_name
from repro.sim.engine import SimulationEngine, simulate
from repro.trace.events import Barrier, MemRef, Prefetch
from repro.trace.stream import CpuTrace, MultiTrace
from repro.workloads.registry import generate_workload


def _mini_trace() -> MultiTrace:
    """Two CPUs touching one shared and one private block each."""
    a, b = 0x1000, 0x2000
    return MultiTrace(
        "audit-mini",
        [
            CpuTrace(0, [MemRef(a, is_write=True, gap=1), MemRef(b, is_write=False, gap=2)]),
            CpuTrace(1, [MemRef(a, is_write=False, gap=4), MemRef(b, is_write=False, gap=1)]),
        ],
    )


def _ran_engine(audit: bool = False) -> SimulationEngine:
    engine = SimulationEngine(
        _mini_trace(), MachineConfig(num_cpus=2), SimulationConfig(audit=audit)
    )
    engine.run()
    return engine


# --------------------------------------------------------------- detection


class TestDetection:
    """Corrupted state must be caught -- the auditor's reason to exist."""

    def test_detects_dual_modified_copies(self):
        engine = _ran_engine()
        auditor = EngineAuditor(engine)
        block = 0x2000  # read by both CPUs -> SHARED in both caches
        for proc in engine.procs:
            proc.cache._by_block[block].state = LineState.MODIFIED
        auditor.check_block(block)
        names = {v.check for v in auditor.violations}
        assert "coherence.single_modified" in names
        assert "coherence.exclusive_unique" in names

    def test_detects_exclusive_next_to_shared(self):
        engine = _ran_engine()
        auditor = EngineAuditor(engine)
        block = 0x2000
        engine.procs[0].cache._by_block[block].state = LineState.PRIVATE
        auditor.check_block(block)
        assert any(v.check == "coherence.exclusive_unique" for v in auditor.violations)

    def test_detects_clock_regression(self):
        auditor = EngineAuditor(_ran_engine())
        auditor.on_pop((10, 1, 0, 0, 0))
        auditor.on_pop((5, 0, 0, 0, 0))  # time runs backwards
        assert any(v.check == "structural.event_order" for v in auditor.violations)
        auditor2 = EngineAuditor(_ran_engine())
        auditor2.on_pop((10, 1, 0, 0, 0))
        auditor2.on_pop((10, 1, 2, 0, 0))  # same (time, seq) popped twice
        assert any(v.check == "structural.event_order" for v in auditor2.violations)

    def test_detects_prefetch_occupancy_drift(self):
        engine = _ran_engine()
        auditor = EngineAuditor(engine)
        engine.procs[0].mshr._prefetches_in_flight += 1
        auditor._check_prefetch_occupancy(engine.procs[0])
        assert any(
            v.check == "structural.prefetch_occupancy" for v in auditor.violations
        )

    def test_detects_miss_decomposition_drift(self):
        engine = _ran_engine(audit=True)
        engine.procs[0].metrics.misses.nonsharing_unprefetched += 1
        result = engine.collect_metrics("NP")
        assert result.audit is not None and not result.audit.passed
        assert any(
            v.check == "conservation.miss_decomposition"
            for v in result.audit.violations
        )

    def test_detects_bus_cycle_drift(self):
        engine = _ran_engine(audit=True)
        engine.bus.stats.busy_cycles += 7
        report = engine._audit.finalize()
        assert any(v.check == "conservation.bus_cycles" for v in report.violations)

    def test_violations_cap_and_count_truncation(self):
        auditor = EngineAuditor(_ran_engine())
        for i in range(MAX_VIOLATIONS + 10):
            auditor._violate("structural.event_order", f"synthetic {i}")
        assert len(auditor.violations) == MAX_VIOLATIONS
        assert auditor.truncated == 10


# ----------------------------------------------------------------- reports


class TestReport:
    def test_round_trip_through_json(self):
        report = AuditReport(
            checks_run={"coherence.block": 12, "conservation.bus_ops": 1},
            violations=[
                AuditViolation(
                    check="coherence.single_modified",
                    time=17,
                    detail="two MODIFIED copies",
                    cpu=1,
                    block=0x1000,
                )
            ],
            truncated=3,
        )
        restored = AuditReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert restored == report
        assert not restored.passed
        assert restored.total_violations == 4
        assert restored.total_checks == 13

    def test_summary_strings(self):
        clean = AuditReport(checks_run={"coherence.block": 5}, violations=[], truncated=0)
        assert clean.passed and "passed" in clean.summary()
        dirty = AuditReport(
            checks_run={},
            violations=[AuditViolation(check="c", time=0, detail="d")],
            truncated=0,
        )
        assert not dirty.passed and "FAILED" in dirty.summary()

    def test_run_metrics_serialization_with_and_without_audit(self):
        trace = _mini_trace()
        plain = simulate(trace, MachineConfig(num_cpus=2))
        assert "audit" not in plain.to_dict()  # unaudited wire format unchanged
        audited = simulate(
            trace, MachineConfig(num_cpus=2), sim_config=SimulationConfig(audit=True)
        )
        data = json.loads(json.dumps(audited.to_dict()))
        restored = RunMetrics.from_dict(data)
        assert restored.audit is not None and restored.audit.passed
        assert restored == audited


# ------------------------------------------------ clean runs and identity


class TestAuditedRuns:
    def test_audit_flag_never_changes_results(self):
        """Bit-identity: the audited result minus its report equals the
        unaudited result, for a configuration with prefetches, upgrades
        and a victim cache in play."""
        trace = generate_workload("Water", num_cpus=4, seed=42, scale=0.1)
        point = [p for p in verification_grid() if p.machine_variant == "victim"][0]
        machine = machine_for(point, 4)
        annotated, _ = insert_prefetches(trace, strategy_by_name("PWS"), machine.cache)
        off = simulate(annotated, machine, strategy_name="PWS")
        annotated2, _ = insert_prefetches(trace, strategy_by_name("PWS"), machine.cache)
        on = simulate(
            annotated2,
            machine,
            strategy_name="PWS",
            sim_config=SimulationConfig(audit=True),
        )
        d_on = on.to_dict()
        assert d_on.pop("audit")["violations"] == []
        assert json.dumps(off.to_dict(), sort_keys=True) == json.dumps(d_on, sort_keys=True)

    def test_grid_shape(self):
        grid = verification_grid()
        assert len(grid) == 294
        assert len(set(grid)) == 294
        quick = quick_grid()
        assert len(quick) == 24
        assert set(quick) <= set(grid)

    def test_one_grid_point_audits_clean(self):
        (report,) = audit_grid(quick_grid()[:1], num_cpus=2, seed=42, scale=0.05)
        assert report.passed
        assert report.total_checks > 0

    def test_contention_free_exclusive_fill_regression(self):
        """PR 2 bug fix: under contention_free a granted exclusive fill
        could coexist with a remote in-flight SHARED read fill, leaving
        MODIFIED + SHARED copies installed.  This configuration produced
        exactly that violation before the fix."""
        trace = generate_workload("Pverify", num_cpus=4, seed=42, scale=0.2)
        machine = MachineConfig(
            num_cpus=4, bus=BusConfig(transfer_cycles=4, contention_free=True)
        )
        annotated, _ = insert_prefetches(trace, strategy_by_name("LPD"), machine.cache)
        result = simulate(
            annotated,
            machine,
            strategy_name="LPD",
            sim_config=SimulationConfig(audit=True),
        )
        assert result.audit is not None
        assert result.audit.passed, result.audit.summary()

    def test_cli_quick_audit_passes(self, capsys):
        assert main(["audit", "--quick", "--cpus", "2", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "24/24 configurations passed" in out

    def test_cli_quick_audit_fails_on_an_injected_violation(self, capsys, monkeypatch):
        """Must-fail control: one violated point turns the gate red."""
        victim = quick_grid()[5]

        def simulate(*args, **kwargs):
            result = real_simulate(*args, **kwargs)
            if _runs_point(victim, *args, **kwargs):
                result.audit.violations.append(
                    AuditViolation("coherence.injected", 7, "injected by the test")
                )
            return result

        real_simulate = _patch_simulate(monkeypatch, simulate)
        assert main(["audit", "--quick", "--cpus", "2", "--scale", "0.05"]) == 1
        out = capsys.readouterr().out
        assert "23/24 configurations passed" in out
        assert f"  FAIL {victim.label}: audit FAILED: 1 violation(s)" in out
        assert "[coherence.injected] t=7: injected by the test" in out

    def test_cli_reports_a_raising_point_and_keeps_the_others(self, capsys, monkeypatch):
        """A run that raises fails its own point only.  The victim shares
        its ``RunJob.label`` with the victim-cache point beside it, so
        the failure must be mapped back by content key."""
        victim = quick_grid()[5]
        assert quick_grid()[4].machine_variant == "victim"

        def simulate(*args, **kwargs):
            if _runs_point(victim, *args, **kwargs):
                raise RuntimeError("injected crash")
            return real_simulate(*args, **kwargs)

        real_simulate = _patch_simulate(monkeypatch, simulate)
        assert main(["audit", "--quick", "--cpus", "2", "--scale", "0.05"]) == 1
        out = capsys.readouterr().out
        assert "23/24 configurations passed" in out
        assert f"  FAIL {victim.label}: audit FAILED: 1 violation(s) over 0 checks" in out
        assert out.count("  FAIL ") == 1
        assert "[run.error] t=0: injected crash" in out

    def test_pooled_quick_audit_prints_what_the_serial_one_does(self, capsys):
        args = ["audit", "--quick", "--cpus", "2", "--scale", "0.05"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main([*args, "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial


def _patch_simulate(monkeypatch, wrapper):
    """Shadow the runner's ``simulate`` with ``wrapper``; returns the real one."""
    import repro.experiments.runner as runner

    real = runner.simulate
    monkeypatch.setattr(runner, "simulate", wrapper)
    return real


def _runs_point(point, trace, machine, *, strategy_name, **_kwargs) -> bool:
    """Whether a ``simulate`` call is the run of unrestructured ``point``."""
    return (
        machine == machine_for(point, machine.num_cpus)
        and trace.name == point.workload
        and strategy_name == point.strategy
    )


# ------------------------------------------------- conservation properties


NUM_CPUS = 3
BLOCKS = [0x1000 * i for i in range(1, 9)]


@st.composite
def small_traces(draw):
    """A random 3-CPU trace over a small block pool, with one barrier."""

    def cpu_events():
        n = draw(st.integers(min_value=0, max_value=25))
        events = []
        for _ in range(n):
            kind = draw(st.integers(min_value=0, max_value=3))
            addr = draw(st.sampled_from(BLOCKS)) + draw(st.sampled_from([0, 4, 16, 28]))
            gap = draw(st.integers(min_value=0, max_value=4))
            if kind == 3:
                events.append(Prefetch(addr, exclusive=draw(st.booleans()), gap=gap))
            else:
                events.append(MemRef(addr, is_write=kind == 1, gap=gap))
        return events

    cpu_traces = []
    for cpu in range(NUM_CPUS):
        events = cpu_events()
        events.append(Barrier(0, 0x20000000, gap=1))
        events.extend(cpu_events())
        cpu_traces.append(CpuTrace(cpu, events))
    return MultiTrace("prop", cpu_traces)


class TestConservationProperties:
    @given(trace=small_traces(), cycles=st.sampled_from([4, 8, 32]))
    @settings(max_examples=50, deadline=None)
    def test_audited_random_traces_pass(self, trace, cycles):
        machine = MachineConfig(
            num_cpus=NUM_CPUS, bus=BusConfig(transfer_cycles=cycles)
        )
        result = simulate(trace, machine, sim_config=SimulationConfig(audit=True))
        assert result.audit.passed, "\n".join(
            str(v) for v in result.audit.violations
        )
        # spell the conservation identities out, independent of the report
        for cpu in result.per_cpu:
            assert (
                cpu.busy_cycles + cpu.stall_cycles + cpu.sync_wait_cycles
                == cpu.finish_time
            )

    @given(trace=small_traces(), cycles=st.sampled_from([4, 16]))
    @settings(max_examples=50, deadline=None)
    def test_audited_contention_free_traces_pass(self, trace, cycles):
        """The machine variant where the in-flight exclusive-fill bug
        lived: granted fills overlap freely here."""
        machine = MachineConfig(
            num_cpus=NUM_CPUS,
            bus=BusConfig(transfer_cycles=cycles, contention_free=True),
        )
        result = simulate(trace, machine, sim_config=SimulationConfig(audit=True))
        assert result.audit.passed, "\n".join(
            str(v) for v in result.audit.violations
        )

    @given(trace=small_traces())
    @settings(max_examples=30, deadline=None)
    def test_audited_msi_victim_traces_pass(self, trace):
        machine = MachineConfig(
            num_cpus=NUM_CPUS,
            protocol="msi",
            cache=CacheConfig(victim_cache_lines=4),
        )
        result = simulate(trace, machine, sim_config=SimulationConfig(audit=True))
        assert result.audit.passed, "\n".join(
            str(v) for v in result.audit.violations
        )
