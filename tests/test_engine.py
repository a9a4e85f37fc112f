"""Integration tests for the simulation engine.

These tests drive the engine with small hand-built traces where the
expected cycle counts and coherence behaviour can be worked out by hand.
The paper-default machine is 100-cycle latency with an 8-cycle data
transfer; several tests shrink the trace to a couple of CPUs to keep
arithmetic tractable.
"""

import gc

import pytest

from repro.common.config import (
    BusConfig,
    CacheConfig,
    MachineConfig,
    PrefetchConfig,
    SimulationConfig,
)
from repro.common.errors import SimulationError
from repro.prefetch.insertion import insert_prefetches
from repro.prefetch.strategies import PWS
from repro.sim.engine import simulate
from repro.trace.events import Barrier, LockAcquire, LockRelease, MemRef, Prefetch
from repro.trace.stream import CpuTrace, MultiTrace
from repro.workloads.registry import generate_workload


def machine(num_cpus=2, **bus_kwargs):
    return MachineConfig(num_cpus=num_cpus, bus=BusConfig(**bus_kwargs))


def run(events_by_cpu, m=None, name="t"):
    traces = [CpuTrace(cpu, events) for cpu, events in enumerate(events_by_cpu)]
    trace = MultiTrace(name, traces)
    trace.validate()
    return simulate(trace, m or machine(num_cpus=len(events_by_cpu)))


class TestBasicTiming:
    def test_single_miss_costs_latency(self):
        # gap 0, miss: issue at 0, complete at 100, +1 access cycle.
        result = run([[MemRef(0x1000)], []])
        assert result.per_cpu[0].demand_refs == 1
        assert result.miss_counts.cpu_misses == 1
        assert result.per_cpu[0].finish_time == 101

    def test_hit_costs_one_cycle(self):
        result = run([[MemRef(0x1000), MemRef(0x1004)], []])
        # 0: miss -> 100, +1 access; second ref hits: +1.
        assert result.per_cpu[0].finish_time == 102
        assert result.miss_counts.cpu_misses == 1

    def test_gap_advances_time(self):
        result = run([[MemRef(0x1000, gap=10)], []])
        assert result.per_cpu[0].finish_time == 111
        assert result.per_cpu[0].busy_cycles == 11  # 10 gap + 1 access

    def test_exec_time_is_max_finish(self):
        result = run([[MemRef(0x1000)], [MemRef(0x2000, gap=50)]])
        assert result.exec_cycles >= 151

    def test_bus_serializes_concurrent_misses(self):
        # Two CPUs miss at t=0; the second transfer waits for the first.
        result = run([[MemRef(0x1000)], [MemRef(0x2000)]], machine(transfer_cycles=8))
        finishes = sorted(c.finish_time for c in result.per_cpu)
        assert finishes[0] == 101
        assert finishes[1] == 109  # 8 cycles of bus queueing
        assert result.bus.busy_cycles == 16

    def test_zero_refs_trace(self):
        result = run([[], []])
        assert result.exec_cycles == 0
        assert result.demand_refs == 0


class TestCoherence:
    def test_write_hit_on_shared_needs_upgrade(self):
        # CPU0 reads X (PRIVATE), CPU1 reads X (both SHARED), CPU0 writes X.
        result = run(
            [
                [MemRef(0x1000), MemRef(0x1000, True, gap=300)],
                [MemRef(0x1000, gap=150)],
            ]
        )
        assert result.upgrades == 1

    def test_write_hit_on_private_is_silent(self):
        result = run([[MemRef(0x1000), MemRef(0x1000, True)], []])
        assert result.upgrades == 0
        assert result.miss_counts.cpu_misses == 1

    def test_invalidation_miss_classified(self):
        # CPU0 caches X; CPU1 writes X (invalidating); CPU0 re-reads.
        result = run(
            [
                [MemRef(0x1000), MemRef(0x1000, gap=500)],
                [MemRef(0x1000, True, gap=150)],
            ]
        )
        mc = result.miss_counts
        assert mc.invalidation == 1
        # Same word read and written: true sharing.
        assert mc.inval_true_unprefetched == 1

    def test_false_sharing_classified(self):
        # CPU0 uses word 0; CPU1 writes word 4 of the same line.
        result = run(
            [
                [MemRef(0x1000), MemRef(0x1000, gap=500)],
                [MemRef(0x1010, True, gap=150)],
            ]
        )
        assert result.miss_counts.false_sharing == 1

    def test_dirty_supplier_downgrades(self):
        # CPU0 writes X (MODIFIED); CPU1 reads X; CPU0 re-reads (hit).
        result = run(
            [
                [MemRef(0x1000, True), MemRef(0x1000, gap=500)],
                [MemRef(0x1000, gap=150)],
            ]
        )
        # CPU0's re-read hits (downgraded to SHARED, not invalidated).
        assert result.miss_counts.cpu_misses == 2

    def test_writeback_on_dirty_eviction(self):
        events = [
            MemRef(0x0, True),          # dirty block 0
            MemRef(32 * 1024),          # evicts it -> writeback
        ]
        result = run([events, []])
        assert result.per_cpu[0].writebacks == 1


class TestPrefetching:
    def test_prefetch_covers_miss(self):
        # Prefetch far enough ahead: the demand access hits.
        events = [Prefetch(0x1000)] + [MemRef(0x2000 + i * 64, gap=6) for i in range(20)]
        target = MemRef(0x1000, gap=1)
        target.prefetched = True
        events.append(target)
        result = run([events, []])
        mc = result.miss_counts
        assert mc.prefetch_in_progress == 0
        # The covered ref itself did not miss.
        assert result.per_cpu[0].prefetch_fills == 1

    def test_prefetch_in_progress_classified(self):
        events = [Prefetch(0x1000), MemRef(0x1000, gap=1)]
        events[1].prefetched = True
        result = run([events, []])
        assert result.miss_counts.prefetch_in_progress == 1
        # Only one fill went to the bus (the demand merged with it).
        assert result.bus.total_ops == 1

    def test_prefetch_hit_no_bus_op(self):
        events = [MemRef(0x1000), Prefetch(0x1000, gap=1)]
        result = run([events, []])
        assert result.per_cpu[0].prefetch_hits == 1
        assert result.bus.total_ops == 1  # the demand miss only

    def test_duplicate_prefetch_squashed(self):
        events = [Prefetch(0x1000), Prefetch(0x1000, gap=1)]
        result = run([events, []])
        assert result.per_cpu[0].prefetch_squashed == 1
        assert result.bus.total_ops == 1

    def test_prefetch_buffer_stall(self):
        m = MachineConfig(num_cpus=1, prefetch=PrefetchConfig(buffer_depth=2))
        events = [Prefetch(0x1000 * (i + 1)) for i in range(4)]
        result = simulate(MultiTrace("t", [CpuTrace(0, events)]), m)
        assert result.per_cpu[0].prefetch_buffer_stalls >= 1
        assert result.per_cpu[0].prefetch_fills == 4

    def test_exclusive_prefetch_invalidates_other_copy(self):
        # CPU1 holds X; CPU0 exclusive-prefetches X; CPU1 re-reads: miss.
        result = run(
            [
                [Prefetch(0x1000, exclusive=True, gap=200)],
                [MemRef(0x1000), MemRef(0x1000, gap=600)],
            ]
        )
        assert result.miss_counts.invalidation == 1

    def test_shared_prefetch_then_write_needs_upgrade(self):
        # A shared-mode prefetch of a line another cache holds, followed
        # by a write, costs an upgrade (the EXCL motivation).
        events0 = [Prefetch(0x1000, gap=300)]
        target = MemRef(0x1000, True, gap=200)
        target.prefetched = True
        events0.append(target)
        result = run([events0, [MemRef(0x1000)]])
        assert result.upgrades == 1

    def test_prefetched_data_invalidated_before_use(self):
        # CPU0 prefetches X early; CPU1 writes X before CPU0's use.
        events0 = [Prefetch(0x1000)]
        events0 += [MemRef(0x4000 + i * 64, gap=8) for i in range(40)]
        target = MemRef(0x1000, gap=1)
        target.prefetched = True
        events0.append(target)
        result = run([events0, [MemRef(0x1000, True, gap=200)]])
        mc = result.miss_counts
        assert mc.inval_true_prefetched + mc.inval_false_prefetched == 1


class TestSynchronizationIntegration:
    def test_lock_mutual_exclusion_orders_accesses(self):
        lock_addr = 0x20000000
        events0 = [LockAcquire(0, lock_addr), MemRef(0x1000, True, gap=5), LockRelease(0, lock_addr)]
        events1 = [LockAcquire(0, lock_addr), MemRef(0x1000, True, gap=5), LockRelease(0, lock_addr)]
        result = run([events0, events1])
        assert result.demand_refs == 2
        total_sync = sum(c.sync_refs for c in result.per_cpu)
        assert total_sync == 4  # two acquires + two releases
        # One CPU waited for the other.
        assert any(c.sync_wait_cycles > 0 for c in result.per_cpu)

    def test_barrier_gates_all_cpus(self):
        barrier_addr = 0x20000040
        events0 = [Barrier(0, barrier_addr), MemRef(0x1000)]
        events1 = [MemRef(0x2000, gap=800), Barrier(0, barrier_addr), MemRef(0x3000)]
        result = run([events0, events1])
        # CPU0 cannot finish before CPU1 reaches the barrier (~t=900).
        assert result.per_cpu[0].finish_time > 800
        assert result.per_cpu[0].sync_wait_cycles > 500

    def test_deadlock_detection(self):
        # CPU0 waits at a barrier CPU1 never reaches -- but the trace
        # validator catches it first; bypass validation to hit the
        # engine's own check.
        t0 = CpuTrace(0, [Barrier(0, 0x20000000)])
        t1 = CpuTrace(1, [MemRef(0x1000)])
        trace = MultiTrace("bad", [t0, t1])
        with pytest.raises(SimulationError):
            simulate(trace, machine())


class TestMetricsConsistency:
    def test_cpu_count_mismatch_rejected(self):
        trace = MultiTrace("t", [CpuTrace(0, [MemRef(0)])])
        with pytest.raises(SimulationError):
            simulate(trace, machine(num_cpus=2))

    def test_busy_plus_stall_plus_sync_equals_finish(self):
        events = [MemRef(0x1000 * i, gap=2) for i in range(1, 30)]
        result = run([events, [MemRef(0x9000, gap=3)]])
        for cpu in result.per_cpu:
            assert (
                cpu.busy_cycles + cpu.stall_cycles + cpu.sync_wait_cycles
                == cpu.finish_time
            )

    def test_total_miss_rate_includes_prefetch_fills(self):
        events = [Prefetch(0x1000), MemRef(0x2000, gap=1)]
        result = run([events, []])
        assert result.prefetch_fills == 1
        assert result.total_miss_rate == pytest.approx(
            (result.miss_counts.adjusted_cpu_misses + 1) / result.demand_refs
        )

    def test_bus_utilization_bounded(self):
        events = [MemRef(0x1000 * i) for i in range(1, 50)]
        result = run([events, list()])
        assert 0.0 < result.bus_utilization <= 1.0


class TestEventsReadOnly:
    """The engine never writes to a trace event, on any path.

    Annotated traces share their unmarked events with the clean trace
    and are memoised across runs, so this is what makes that sharing
    safe.
    """

    @staticmethod
    def snapshot(trace):
        return [
            [
                (type(e), [getattr(e, a) for k in type(e).__mro__ for a in getattr(k, "__slots__", ())])
                for e in cpu_trace
            ]
            for cpu_trace in trace
        ]

    @pytest.mark.parametrize(
        "sim_config",
        [SimulationConfig(), SimulationConfig(observe=True), SimulationConfig(audit=True)],
        ids=["fast", "observed", "audited"],
    )
    def test_simulate_leaves_every_event_unchanged(self, sim_config):
        m = MachineConfig(num_cpus=4)
        clean = generate_workload("Water", num_cpus=4, scale=0.05)
        trace, report = insert_prefetches(clean, PWS, m.cache)
        assert report.inserted > 0
        before = self.snapshot(trace)
        result = simulate(trace, m, "PWS", sim_config=sim_config)
        assert result.demand_refs > 0
        assert self.snapshot(trace) == before


class TestEngineLifetime:
    """An observed, audited engine is freed when its run returns.

    The observer, the auditor and the bus tap all point back at the
    engine; ``collect_metrics`` detaches them, so reference counting
    alone frees the engine and the garbage collector's cadence cannot
    hold it (and everything it reaches) in memory.
    """

    @pytest.fixture
    def engines(self, monkeypatch):
        import weakref

        import repro.experiments.runner as runner_mod
        import repro.sim.engine as engine_mod

        refs = []

        class Recorded(engine_mod.SimulationEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(engine_mod, "SimulationEngine", Recorded)
        monkeypatch.setattr(runner_mod, "SimulationEngine", Recorded)
        gc.disable()
        try:
            yield refs
        finally:
            gc.enable()

    def test_simulate_frees_the_engine(self, engines):
        trace = generate_workload("Water", num_cpus=2, scale=0.05)
        config = SimulationConfig(observe=True, audit=True)
        result = simulate(trace, MachineConfig(num_cpus=2), sim_config=config)
        assert result.obs is not None and result.audit.passed
        assert len(engines) == 1 and engines[0]() is None

    def test_probed_execute_frees_the_engine(self, engines):
        import queue

        from repro.experiments.runner import RunJob, execute, process_trace
        from repro.telemetry.fleet import Probe

        job = RunJob("Water", PWS, MachineConfig(num_cpus=2), num_cpus=2, scale=0.05)
        probe = Probe(0, job.label, queue=queue.SimpleQueue())
        config = SimulationConfig(observe=True, audit=True)
        done = execute(job, config, process_trace(job), probe)
        assert done.metrics.obs is not None and done.metrics.audit.passed
        assert len(engines) == 1 and engines[0]() is None
