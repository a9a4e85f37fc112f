"""Tests for the extension subsystems: the perfect-knowledge oracle,
the prefetch-buffer (private-only) strategy, and the MSI protocol
variant."""

from dataclasses import replace

import pytest

from repro.coherence.protocol import BusOp, IllinoisProtocol, LineState, MSIProtocol
from repro.common.config import MachineConfig
from repro.common.errors import ConfigurationError
from repro.prefetch.insertion import insert_prefetches
from repro.prefetch.oracle import insert_perfect_prefetches
from repro.prefetch.strategies import NP, PBUF, PREF, strategy_by_name
from repro.sim.engine import simulate
from repro.trace.events import MemRef, Prefetch
from repro.trace.stream import CpuTrace, MultiTrace
from repro.workloads.registry import generate_workload


class TestMSIProtocol:
    def test_read_fill_never_private(self):
        msi = MSIProtocol()
        assert msi.fill_state(BusOp.READ, others_have_copy=False) is LineState.SHARED
        assert msi.fill_state(BusOp.READ, others_have_copy=True) is LineState.SHARED

    def test_read_ex_still_modified(self):
        assert MSIProtocol().fill_state(BusOp.READ_EX, False) is LineState.MODIFIED

    def test_snooping_unchanged(self):
        msi, illinois = MSIProtocol(), IllinoisProtocol()
        for state in LineState:
            for op in BusOp:
                assert msi.snoop(state, op) == illinois.snoop(state, op)

    def test_machine_protocol_validation(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(protocol="moesi")

    def test_msi_costs_upgrades_on_read_then_write(self):
        # One CPU, read then write the same line: Illinois writes
        # silently (private-clean); MSI needs an upgrade.
        events = [MemRef(0x1000), MemRef(0x1000, True, gap=2)]
        trace = MultiTrace("t", [CpuTrace(0, events), CpuTrace(1, [])])
        illinois = simulate(trace, MachineConfig(num_cpus=2))
        trace2 = MultiTrace("t", [CpuTrace(0, [MemRef(0x1000), MemRef(0x1000, True, gap=2)]), CpuTrace(1, [])])
        msi = simulate(trace2, MachineConfig(num_cpus=2, protocol="msi"))
        assert illinois.upgrades == 0
        assert msi.upgrades == 1
        assert msi.exec_cycles > illinois.exec_cycles

    def test_workload_runs_under_msi(self):
        trace = generate_workload("Water", num_cpus=4, scale=0.1)
        machine = MachineConfig(num_cpus=4, protocol="msi")
        result = simulate(trace, machine)
        illinois = simulate(
            generate_workload("Water", num_cpus=4, scale=0.1),
            MachineConfig(num_cpus=4),
        )
        # MSI generates strictly more invalidate (upgrade) operations.
        assert result.upgrades > illinois.upgrades


class TestPrefetchBufferStrategy:
    def test_pbuf_skips_shared_candidates(self):
        events = [
            MemRef(0x1000, gap=1, shared=True),
            MemRef(0x9000, gap=1, shared=False),
        ]
        trace = MultiTrace("t", [CpuTrace(0, events)])
        annotated, report = insert_prefetches(trace, PBUF, MachineConfig().cache)
        prefetched = [e.addr for e in annotated[0] if type(e) is Prefetch]
        assert prefetched == [0x9000]
        assert report.inserted == 1

    def test_pref_covers_both(self):
        events = [
            MemRef(0x1000, gap=1, shared=True),
            MemRef(0x9000, gap=1, shared=False),
        ]
        trace = MultiTrace("t", [CpuTrace(0, events)])
        _, report = insert_prefetches(trace, PREF, MachineConfig().cache)
        assert report.inserted == 2

    def test_lookup_by_name(self):
        assert strategy_by_name("pbuf").private_only

    def test_pbuf_useless_on_all_shared_workload(self):
        # Mp3d's references are all shared: the non-snooping buffer has
        # nothing it may prefetch (the paper's 3.1 argument).
        trace = generate_workload("Mp3d", num_cpus=4, scale=0.08)
        _, report = insert_prefetches(trace, PBUF, MachineConfig().cache)
        assert report.inserted == 0


class TestPerfectOracle:
    @pytest.fixture(scope="class")
    def setup(self):
        trace = generate_workload("Mp3d", num_cpus=4, scale=0.1)
        machine = MachineConfig(num_cpus=4)
        base = simulate(insert_prefetches(trace, NP, machine.cache)[0], machine)
        oracle_trace, report = insert_perfect_prefetches(trace, machine)
        oracle = simulate(oracle_trace, machine, strategy_name="ORACLE")
        pref = simulate(insert_prefetches(trace, PREF, machine.cache)[0], machine)
        return trace, base, oracle, pref, report

    def test_oracle_targets_actual_miss_count(self, setup):
        trace, base, oracle, pref, report = setup
        assert report.inserted == base.miss_counts.cpu_misses
        assert report.strategy == "ORACLE"

    def test_oracle_beats_the_compiler_oracle(self, setup):
        trace, base, oracle, pref, report = setup
        # Perfect knowledge covers invalidation misses PREF cannot.
        assert oracle.adjusted_cpu_miss_rate < pref.adjusted_cpu_miss_rate
        assert oracle.exec_cycles < pref.exec_cycles

    def test_oracle_still_bus_limited(self, setup):
        trace, base, oracle, pref, report = setup
        # Even perfect prediction cannot reach the utilization bound:
        # the remaining gap is the machine, not the predictor.
        bound = base.exec_cycles * base.processor_utilization
        assert oracle.exec_cycles > 1.1 * bound

    def test_input_trace_not_mutated(self):
        trace = generate_workload("Water", num_cpus=4, scale=0.08)
        before = trace.total_prefetches()
        insert_perfect_prefetches(trace, MachineConfig(num_cpus=4))
        assert trace.total_prefetches() == before
        assert all(not e.prefetched for e in trace[0] if type(e) is MemRef)

    def test_recording_flag_off_by_default(self):
        trace = generate_workload("Water", num_cpus=4, scale=0.05)
        from repro.sim.engine import SimulationEngine
        from repro.common.config import SimulationConfig

        engine = SimulationEngine(trace, MachineConfig(num_cpus=4), SimulationConfig())
        engine.run()
        assert engine.miss_indices == []
