"""Unit tests for the victim cache and its cache integration."""

import pytest

from repro.cache.coherent import CoherentCache
from repro.cache.victim import VictimCache
from repro.coherence.protocol import BusOp, IllinoisProtocol, LineState
from repro.common.config import CacheConfig, MachineConfig
from repro.sim.engine import simulate
from repro.trace.events import MemRef, Prefetch
from repro.trace.stream import CpuTrace, MultiTrace
from tests.engines import snoop
from tests.test_cache import snooped_cache

S = 32 * 1024  # one cache size (same-set stride)


@pytest.fixture
def protocol():
    return IllinoisProtocol()


class TestVictimCacheUnit:
    def test_disabled_capacity_inserts_nothing(self, protocol):
        vc = VictimCache(0, protocol)
        assert vc.insert(0x1000, LineState.SHARED, 0b1, 0) is None
        assert len(vc) == 0

    def test_insert_and_extract(self, protocol):
        vc = VictimCache(4, protocol)
        vc.insert(0x1000, LineState.MODIFIED, 0b11, 0)
        state, words, remote = vc.extract(0x1000)
        assert state is LineState.MODIFIED
        assert words == 0b11
        assert len(vc) == 0

    def test_lru_displacement_of_dirty_entry(self, protocol):
        vc = VictimCache(2, protocol)
        vc.insert(0x1000, LineState.MODIFIED, 0, 0)
        vc.insert(0x2000, LineState.SHARED, 0, 0)
        displaced = vc.insert(0x3000, LineState.SHARED, 0, 0)
        assert displaced == (0x1000, LineState.MODIFIED)

    def test_clean_displacement_needs_no_writeback(self, protocol):
        vc = VictimCache(1, protocol)
        vc.insert(0x1000, LineState.SHARED, 0, 0)
        assert vc.insert(0x2000, LineState.SHARED, 0, 0) is None

    def test_invalid_entries_not_parked(self, protocol):
        vc = VictimCache(4, protocol)
        assert vc.insert(0x1000, LineState.INVALID, 0, 0) is None
        assert len(vc) == 0

    def test_snoop_invalidates_entry(self, protocol):
        vc = VictimCache(4, protocol)
        vc.insert(0x1000, LineState.SHARED, 0b1, 0)
        assert vc.snoop(0x1000, BusOp.UPGRADE, 0b10)
        assert not vc.has_valid_copy(0x1000)
        assert vc.extract(0x1000) is None
        # The invalidation metadata survives for miss classification.
        words, remote = vc.take_invalidated(0x1000)
        assert words == 0b1 and remote == 0b10

    def test_note_remote_write_accumulates(self, protocol):
        vc = VictimCache(4, protocol)
        vc.insert(0x1000, LineState.SHARED, 0b1, 0)
        vc.snoop(0x1000, BusOp.UPGRADE, 0b10)
        vc.note_remote_write(0x1000, 0b100)
        _, remote = vc.take_invalidated(0x1000)
        assert remote == 0b110


class TestVictimCacheIntegration:
    def make_cache(self, protocol, lines=4):
        return CoherentCache(CacheConfig(victim_cache_lines=lines), protocol)

    def test_conflict_victim_recovered_without_bus(self, protocol):
        cache = self.make_cache(protocol)
        cache.install(0, LineState.SHARED, now=0)
        cache.install(S, LineState.SHARED, now=1)  # evicts 0 into VC
        result = cache.lookup_demand(0, 0b1, now=2)
        assert result.hit
        assert result.victim_hit

    def test_swap_preserves_both_lines(self, protocol):
        cache = self.make_cache(protocol)
        cache.install(0, LineState.SHARED, now=0)
        cache.install(S, LineState.SHARED, now=1)
        cache.lookup_demand(0, 0b1, now=2)  # swap 0 back in, S to VC
        assert cache.lookup_demand(S, 0b1, now=3).victim_hit

    def test_dirty_eviction_parks_instead_of_writeback(self, protocol):
        cache = self.make_cache(protocol)
        cache.install(0, LineState.MODIFIED, now=0)
        # With a victim cache, the dirty line parks on-chip: no writeback.
        assert cache.install(S, LineState.SHARED, now=1) is None
        assert cache.lookup_demand(0, 0b1, now=2).victim_hit

    def test_victim_overflow_writes_back_dirty(self, protocol):
        cache = self.make_cache(protocol, lines=1)
        cache.install(0, LineState.MODIFIED, now=0)
        cache.install(S, LineState.MODIFIED, now=1)  # 0 -> VC
        # Evicting S pushes it into the single-entry VC, displacing 0.
        evicted = cache.install(2 * S, LineState.SHARED, now=2)
        assert evicted is not None and evicted.block == 0

    def test_invalidated_victim_classifies_invalidation_miss(self, protocol):
        engine, cache = snooped_cache(victim_cache_lines=4)
        cache.install(0, LineState.SHARED, now=0)
        cache._by_block[0].words_accessed = 0b1
        cache.install(S, LineState.SHARED, now=1)  # 0 parked
        snoop(engine, 0, BusOp.UPGRADE, 0b1)  # invalidate parked copy
        result = cache.lookup_demand(0, 0b1, now=2)
        assert not result.hit
        assert result.invalidation_miss
        assert not result.false_sharing  # they wrote the word we use

    def test_prefetch_lookup_sees_victim(self):
        # Block 0 is evicted into the victim buffer by S; the prefetch
        # finds it parked there and starts no fill.
        machine = MachineConfig(num_cpus=1, cache=CacheConfig(victim_cache_lines=4))
        trace = MultiTrace("victim-prefetch", [CpuTrace(0, [MemRef(0), MemRef(S), Prefetch(0)])])
        cpu = simulate(trace, machine).per_cpu[0]
        assert (cpu.prefetch_hits, cpu.prefetch_fills) == (1, 0)
