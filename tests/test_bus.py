"""Unit tests for the split-transaction bus and its arbitration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.bus import Bus, BusStats
from repro.bus.transaction import BusTransaction, TransactionKind
from repro.common.config import BusConfig
from repro.common.errors import SimulationError

settings.register_profile("repro-ci", derandomize=True)
settings.load_profile("repro-ci")


def make_bus(**kwargs) -> Bus:
    return Bus(BusConfig(**kwargs), num_cpus=4)


class TestTiming:
    def test_fill_eligibility_is_uncontended_portion(self):
        bus = make_bus(transfer_cycles=8)
        txn = bus.make_fill(0, 0x1000, exclusive=False, is_demand=True, now=10)
        assert txn.eligible_time == 10 + 92
        assert txn.occupancy == 8

    def test_unloaded_fill_latency_is_memory_latency(self):
        bus = make_bus(transfer_cycles=8)
        txn = bus.make_fill(0, 0x1000, exclusive=False, is_demand=True, now=0)
        bus.request(txn)
        granted = bus.arbitrate(txn.eligible_time)
        assert granted is txn
        assert txn.completion_time == 100  # the paper's 100-cycle latency

    def test_upgrade_latency(self):
        bus = make_bus(upgrade_latency=12, upgrade_occupancy=1)
        txn = bus.make_upgrade(0, 0x1000, now=0, word_mask=1)
        bus.request(txn)
        granted = bus.arbitrate(txn.eligible_time)
        assert granted is txn
        assert txn.completion_time == 12

    def test_writeback_is_eligible_quickly(self):
        bus = make_bus()
        txn = bus.make_writeback(0, 0x1000, now=5)
        assert txn.eligible_time == 6
        assert txn.occupancy == BusConfig().transfer_cycles


class TestArbitration:
    def test_busy_bus_grants_nothing(self):
        bus = make_bus(transfer_cycles=8)
        t1 = bus.make_fill(0, 0x1000, False, True, now=0)
        t2 = bus.make_fill(1, 0x2000, False, True, now=0)
        bus.request(t1)
        bus.request(t2)
        assert bus.arbitrate(t1.eligible_time) is t1
        assert bus.arbitrate(t1.eligible_time + 1) is None  # bus busy
        assert bus.arbitrate(bus.free_at) is t2

    def test_demand_priority_over_prefetch(self):
        bus = make_bus()
        pf = bus.make_fill(0, 0x1000, False, is_demand=False, now=0)
        demand = bus.make_fill(1, 0x2000, False, is_demand=True, now=0)
        bus.request(pf)
        bus.request(demand)
        assert bus.arbitrate(pf.eligible_time) is demand

    def test_writeback_beats_prefetch_loses_to_demand(self):
        bus = make_bus()
        pf = bus.make_fill(0, 0x1000, False, is_demand=False, now=0)
        wb = bus.make_writeback(1, 0x2000, now=0)
        demand = bus.make_fill(2, 0x3000, False, is_demand=True, now=0)
        for t in (pf, wb, demand):
            bus.request(t)
        now = max(t.eligible_time for t in (pf, wb, demand))
        assert bus.arbitrate(now) is demand
        assert bus.arbitrate(bus.free_at) is wb
        assert bus.arbitrate(bus.free_at) is pf

    def test_round_robin_within_class(self):
        bus = make_bus()
        txns = [bus.make_fill(cpu, 0x1000 * cpu + 0x1000, False, True, now=0) for cpu in range(4)]
        for t in txns:
            bus.request(t)
        now = txns[0].eligible_time
        order = []
        while bus.pending_snapshot():
            granted = bus.arbitrate(max(now, bus.free_at))
            order.append(granted.cpu)
        # Starting position after initial last_granted = num_cpus-1 is CPU 0.
        assert order == [0, 1, 2, 3]

    def test_round_robin_resumes_after_last_grant(self):
        bus = make_bus()
        t2 = bus.make_fill(2, 0x2000, False, True, now=0)
        bus.request(t2)
        assert bus.arbitrate(t2.eligible_time) is t2
        txns = [bus.make_fill(cpu, 0x1000 * (cpu + 4), False, True, now=0) for cpu in range(4)]
        for t in txns:
            bus.request(t)
        order = []
        while bus.pending_snapshot():
            granted = bus.arbitrate(max(txns[0].eligible_time, bus.free_at))
            order.append(granted.cpu)
        assert order == [3, 0, 1, 2]  # wraps starting after CPU 2

    def test_no_priority_when_disabled(self):
        bus = Bus(BusConfig(demand_priority=False), num_cpus=4)
        pf = bus.make_fill(0, 0x1000, False, is_demand=False, now=0)
        demand = bus.make_fill(1, 0x2000, False, is_demand=True, now=0)
        bus.request(pf)
        bus.request(demand)
        # Pure round-robin: CPU 0 (the prefetch) goes first.
        assert bus.arbitrate(pf.eligible_time) is pf

    def test_fifo_within_cpu(self):
        bus = make_bus()
        first = bus.make_fill(0, 0x1000, False, True, now=0)
        second = bus.make_fill(0, 0x2000, False, True, now=0)
        bus.request(first)
        bus.request(second)
        assert bus.arbitrate(first.eligible_time) is first


class TestAccounting:
    def test_busy_cycles_accumulate(self):
        bus = make_bus(transfer_cycles=8)
        for i in range(3):
            t = bus.make_fill(i, 0x1000 * (i + 1), False, True, now=0)
            bus.request(t)
        while bus.pending_snapshot():
            bus.arbitrate(max(100, bus.free_at))
        assert bus.stats.busy_cycles == 24
        assert bus.stats.ops_by_kind[TransactionKind.FILL] == 3
        assert bus.stats.total_ops == 3

    def test_utilization(self):
        bus = make_bus()
        t = bus.make_fill(0, 0x1000, False, True, now=0)
        bus.request(t)
        bus.arbitrate(t.eligible_time)
        assert bus.stats.utilization(100) == pytest.approx(0.08)

    def test_wait_cycles_recorded(self):
        bus = make_bus(transfer_cycles=8)
        t1 = bus.make_fill(0, 0x1000, False, True, now=0)
        t2 = bus.make_fill(1, 0x2000, False, True, now=0)
        bus.request(t1)
        bus.request(t2)
        bus.arbitrate(t1.eligible_time)
        bus.arbitrate(bus.free_at)
        assert bus.stats.total_wait_cycles == 8  # t2 waited one occupancy

    def test_next_arbitration_time(self):
        bus = make_bus()
        assert bus.next_arbitration_time(0) is None
        t = bus.make_fill(0, 0x1000, False, True, now=0)
        bus.request(t)
        assert bus.next_arbitration_time(0) == t.eligible_time
        assert bus.next_arbitration_time(t.eligible_time + 5) == t.eligible_time + 5


class TestQueueInvariant:
    def test_earlier_eligible_demand_behind_a_later_one_raises(self):
        bus = make_bus()
        fill = bus.make_fill(0, 0x1000, False, is_demand=True, now=10)  # eligible 102
        upgrade = bus.make_upgrade(0, 0x2000, now=20, word_mask=1)  # eligible 31
        bus.request(fill)
        with pytest.raises(SimulationError, match="before its tier-0 queue tail"):
            bus.request(upgrade)

    def test_other_cpus_and_tiers_are_separate_queues(self):
        bus = make_bus()
        bus.request(bus.make_fill(0, 0x1000, False, is_demand=True, now=10))
        bus.request(bus.make_upgrade(1, 0x2000, now=20, word_mask=1))
        bus.request(bus.make_writeback(0, 0x3000, now=20))
        assert len(bus.pending_snapshot()) == 3


# --------------------------------------------------- differential arbiter


class LinearScanArbiter:
    """Reference arbiter: one list, scanned in full for every decision.

    The straightforward reading of the arbitration rules (the bus's
    original implementation): grant ``min(eligible, key=(tier,
    rr_distance, seq))``, or ``(rr_distance, seq)`` without demand
    priority.  :class:`Bus` must make exactly the same decisions.
    """

    def __init__(self, config: BusConfig, num_cpus: int) -> None:
        self.config = config
        self.num_cpus = num_cpus
        self.free_at = 0
        self.stats = BusStats()
        self.pending: list[BusTransaction] = []
        self.last_granted_cpu = num_cpus - 1
        self.seq = 0

    def request(self, txn: BusTransaction) -> None:
        txn.seq = self.seq
        self.seq += 1
        self.pending.append(txn)

    def next_arbitration_time(self, now: int) -> int | None:
        if not self.pending:
            return None
        earliest = min(t.eligible_time for t in self.pending)
        if self.config.contention_free:
            return max(now, earliest)
        return max(now, self.free_at, earliest)

    def arbitrate(self, now: int) -> BusTransaction | None:
        if not self.config.contention_free and now < self.free_at:
            return None
        eligible = [t for t in self.pending if t.eligible_time <= now]
        if not eligible:
            return None

        def rr_distance(cpu: int) -> int:
            return (cpu - self.last_granted_cpu - 1) % self.num_cpus

        if self.config.demand_priority:
            chosen = min(eligible, key=lambda t: (t.tier, rr_distance(t.cpu), t.seq))
        else:
            chosen = min(eligible, key=lambda t: (rr_distance(t.cpu), t.seq))
        self.pending.remove(chosen)
        chosen.grant_time = now
        chosen.completion_time = now + chosen.occupancy
        if self.config.contention_free:
            self.free_at = max(self.free_at, chosen.completion_time)
        else:
            self.free_at = chosen.completion_time
        self.last_granted_cpu = chosen.cpu
        self.stats.busy_cycles += chosen.occupancy
        self.stats.ops_by_kind[chosen.kind] += 1
        if chosen.is_demand:
            self.stats.demand_ops += 1
        else:
            self.stats.prefetch_ops += 1
        self.stats.total_wait_cycles += now - chosen.eligible_time
        return chosen


def _fields(txn: BusTransaction | None) -> tuple | None:
    if txn is None:
        return None
    return (
        txn.cpu, txn.block, txn.kind, txn.is_demand, txn.eligible_time,
        txn.seq, txn.grant_time, txn.completion_time,
    )


#: One schedule step: advance the clock, issue a request, or arbitrate
#: (now, or at the next arbitration time as the engine does).
_STEP = st.one_of(
    st.tuples(st.just("advance"), st.integers(0, 40)),
    st.tuples(st.just("fill"), st.integers(0, 5), st.booleans(), st.booleans()),
    st.tuples(st.just("upgrade"), st.integers(0, 5)),
    st.tuples(st.just("writeback"), st.integers(0, 5)),
    st.tuples(st.just("arbitrate")),
    st.tuples(st.just("arbitrate_next")),
)


def _make(bus: Bus, step: tuple, cpu: int, block: int, now: int, demand: bool) -> BusTransaction:
    if step[0] == "fill":
        return bus.make_fill(cpu, block, step[3], demand, now)
    if step[0] == "upgrade":
        return bus.make_upgrade(cpu, block, now, word_mask=1)
    return bus.make_writeback(cpu, block, now)


class TestDifferentialArbiter:
    @settings(max_examples=150, deadline=None)
    @given(
        num_cpus=st.integers(1, 6),
        transfer_cycles=st.sampled_from([4, 32]),
        demand_priority=st.booleans(),
        contention_free=st.booleans(),
        steps=st.lists(_STEP, max_size=120),
    )
    def test_matches_linear_scan(
        self, num_cpus, transfer_cycles, demand_priority, contention_free, steps
    ):
        config = BusConfig(
            transfer_cycles=transfer_cycles,
            demand_priority=demand_priority,
            contention_free=contention_free,
        )
        bus = Bus(config, num_cpus)
        ref = LinearScanArbiter(config, num_cpus)
        now = 0
        block = 0
        # Like the engine: a CPU stalled on a queued demand transaction
        # issues no other demand transaction until it is granted.
        demand_queued: set[int] = set()

        def arbitrate(now: int) -> BusTransaction | None:
            granted = bus.arbitrate(now)
            assert _fields(granted) == _fields(ref.arbitrate(now))
            if granted is not None and granted.is_demand:
                demand_queued.discard(granted.cpu)
            return granted

        def check(now: int) -> None:
            assert bus.free_at == ref.free_at
            assert bus.next_arbitration_time(now) == ref.next_arbitration_time(now)
            assert bool(bus.pending_snapshot()) == bool(ref.pending)
            assert [_fields(t) for t in bus.pending_snapshot()] == [
                _fields(t) for t in ref.pending
            ]

        for step in steps:
            op = step[0]
            if op == "advance":
                now += step[1]
            elif op == "arbitrate":
                arbitrate(now)
            elif op == "arbitrate_next":
                when = bus.next_arbitration_time(now)
                if when is not None:
                    now = when
                    arbitrate(now)
            else:
                cpu = step[1] % num_cpus
                demand = op == "upgrade" or (op == "fill" and step[2])
                if demand and cpu in demand_queued:
                    if op == "upgrade":
                        continue
                    demand = False
                if demand:
                    demand_queued.add(cpu)
                block += 0x20
                bus.request(_make(bus, step, cpu, block, now, demand))
                ref.request(_make(bus, step, cpu, block, now, demand))
            check(now)
        while bus.pending_snapshot():  # drain the way the engine does
            now = bus.next_arbitration_time(now)
            assert arbitrate(now) is not None
            check(now)
        assert bus.stats == ref.stats
