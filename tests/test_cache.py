"""Unit tests for the coherent cache model."""

import dataclasses

import pytest

from repro.cache.coherent import CoherentCache
from repro.coherence.protocol import BusOp, IllinoisProtocol, LineState
from repro.common.config import CacheConfig, MachineConfig, SimulationConfig
from repro.sim.engine import SimulationEngine, simulate
from repro.trace.events import MemRef, Prefetch
from repro.trace.stream import CpuTrace, MultiTrace
from tests.engines import snoop


@pytest.fixture
def protocol():
    return IllinoisProtocol()


def make_cache(protocol, **kwargs):
    return CoherentCache(CacheConfig(**kwargs), protocol)


def snooped_cache(**kwargs):
    """CPU 0's cache in a two-CPU engine that is never run, for tests
    that snoop it from CPU 1 with :func:`tests.engines.snoop`."""
    engine = SimulationEngine(
        MultiTrace("snoop", [CpuTrace(c, [MemRef(0x100000)]) for c in range(2)]),
        MachineConfig(num_cpus=2, cache=CacheConfig(**kwargs)),
        SimulationConfig(),
    )
    return engine, engine.procs[0].cache


def touch(cache, block, word_mask, now):
    """What the engine's completion of an access writes into its frame."""
    frame = cache._by_block[block]
    frame.words_accessed |= word_mask
    frame.last_use = now


class TestLookup:
    def test_cold_miss(self, protocol):
        cache = make_cache(protocol)
        result = cache.lookup_demand(0x1000, 0b1, now=0)
        assert not result.hit
        assert not result.invalidation_miss

    def test_hit_after_fill(self, protocol):
        cache = make_cache(protocol)
        cache.install(0x1000, LineState.SHARED, now=0)
        assert cache.lookup_demand(0x1000, 0b1, now=1).hit

    def test_conflict_replacement_direct_mapped(self, protocol):
        cache = make_cache(protocol)
        cache.install(0x0000, LineState.SHARED, now=0)
        # Same set, one cache-size away.
        cache.install(32 * 1024, LineState.SHARED, now=1)
        assert not cache.lookup_demand(0x0000, 0b1, now=2).hit
        assert cache.lookup_demand(32 * 1024, 0b1, now=2).hit

    def test_replacement_miss_is_not_invalidation_miss(self, protocol):
        cache = make_cache(protocol)
        cache.install(0x0000, LineState.SHARED, now=0)
        cache.install(32 * 1024, LineState.SHARED, now=1)
        result = cache.lookup_demand(0x0000, 0b1, now=2)
        assert not result.invalidation_miss

    def test_results_are_shared_and_frozen(self, protocol):
        cache = make_cache(protocol)
        cache.install(0x1000, LineState.SHARED, now=0)
        hit = cache.lookup_demand(0x1000, 0b1, now=1)
        assert hit is cache.lookup_demand(0x1000, 0b1, now=2)
        miss = cache.lookup_demand(0x2000, 0b1, now=3)
        assert miss is cache.lookup_demand(0x3000, 0b1, now=4)
        for result in (hit, miss):
            with pytest.raises(dataclasses.FrozenInstanceError):
                result.hit = not result.hit

    def test_associative_cache_keeps_both(self, protocol):
        cache = make_cache(protocol, associativity=2)
        cache.install(0x0000, LineState.SHARED, now=0)
        cache.install(32 * 1024, LineState.SHARED, now=1)
        assert cache.lookup_demand(0x0000, 0b1, now=2).hit
        assert cache.lookup_demand(32 * 1024, 0b1, now=2).hit

    def test_associative_lru_eviction(self, protocol):
        cache = make_cache(protocol, associativity=2)
        s = 32 * 1024
        cache.install(0, LineState.SHARED, now=0)
        cache.install(s, LineState.SHARED, now=1)
        touch(cache, 0, 0b1, now=2)  # make block 0 most recent
        cache.install(2 * s, LineState.SHARED, now=3)  # evicts s
        assert cache.lookup_demand(0, 0b1, now=4).hit
        assert not cache.lookup_demand(s, 0b1, now=4).hit


class TestLazyFrames:
    """Sets allocate frames on demand, choosing the way a full set would."""

    #: A 4-way 32 KB cache: 256 sets, so blocks 8 KB apart share a set.
    STRIDE = 32 * 1024 // 4

    def fill_set(self, cache, count, start=0):
        for i in range(count):
            cache.install(i * self.STRIDE, LineState.SHARED, now=start + i)

    def test_sets_start_empty_and_grow_to_associativity(self, protocol):
        cache = make_cache(protocol, associativity=4)
        assert cache._frames.get(0, []) == []
        for i in range(10):
            cache.install(i * self.STRIDE, LineState.SHARED, now=i)
            assert len(cache._frames[0]) == min(i + 1, 4)
        assert all(cache._frames.get(s, []) == [] for s in range(1, cache._num_sets))

    def test_invalidated_way_is_reused_before_a_new_way(self, protocol):
        engine, cache = snooped_cache(associativity=4)
        self.fill_set(cache, 2)
        frame = cache._by_block[0]
        snoop(engine, 0, BusOp.READ_EX, 0b1)
        cache.install(2 * self.STRIDE, LineState.SHARED, now=5)
        assert len(cache._frames[0]) == 2
        assert cache._by_block[2 * self.STRIDE] is frame
        assert cache.resident_blocks() == [self.STRIDE, 2 * self.STRIDE]

    def test_lru_eviction_only_once_every_way_is_valid(self, protocol):
        cache = make_cache(protocol, associativity=4)
        self.fill_set(cache, 4)
        assert cache.resident_blocks() == [i * self.STRIDE for i in range(4)]
        touch(cache, 0, 0b1, now=10)  # block 1 * STRIDE is now LRU
        cache.install(4 * self.STRIDE, LineState.SHARED, now=11)
        assert cache.resident_blocks() == [0, 2 * self.STRIDE, 3 * self.STRIDE, 4 * self.STRIDE]
        assert len(cache._frames[0]) == 4

    def test_invalid_way_beats_lru_in_a_full_set(self, protocol):
        engine, cache = snooped_cache(associativity=4)
        self.fill_set(cache, 4)
        snoop(engine, 3 * self.STRIDE, BusOp.READ_EX, 0b1)
        cache.install(4 * self.STRIDE, LineState.SHARED, now=11)
        # Block 0 is LRU but valid; the invalidated way takes the fill.
        assert cache.resident_blocks() == [0, self.STRIDE, 2 * self.STRIDE, 4 * self.STRIDE]


class TestStaleTag:
    """A known defect of set-associative caches, pinned until it is fixed.

    ``install`` takes the first invalid way, so block X can get a
    second frame while a stale INVALID tag for X sits in another way.
    Reusing that stale way pops X from the tag map, unmapping the live
    copy.  Direct-mapped caches (every benchmark point) cannot reach
    it; the fix changes simulated behaviour and needs a new
    ``ENGINE_VERSION``.
    """

    @pytest.mark.xfail(strict=True, reason="stale INVALID tag unmaps the live copy")
    def test_reusing_a_stale_way_keeps_the_live_copy_mapped(self, protocol):
        # 2-way, 64 bytes: one set, so every block competes for it.
        engine, cache = snooped_cache(size_bytes=64, associativity=2)
        z, x, w = 0x0000, 0x1000, 0x2000
        cache.install(z, LineState.SHARED, now=0)
        cache.install(x, LineState.SHARED, now=1)
        snoop(engine, z, BusOp.READ_EX, 0b1)
        snoop(engine, x, BusOp.READ_EX, 0b1)
        cache.install(x, LineState.MODIFIED, now=2)  # into Z's way
        cache.install(w, LineState.SHARED, now=3)  # into X's stale way
        assert cache.state_of(x) is LineState.MODIFIED


class TestInvalidationMisses:
    def test_snoop_invalidate_then_miss_classifies_invalidation(self, protocol):
        engine, cache = snooped_cache()
        cache.install(0x1000, LineState.SHARED, now=0)
        touch(cache, 0x1000, 0b1, now=0)
        snoop(engine, 0x1000, BusOp.UPGRADE, word_mask=0b1)
        assert cache.state_of(0x1000) is LineState.INVALID
        result = cache.lookup_demand(0x1000, 0b1, now=1)
        assert result.invalidation_miss
        # Writer hit the word we accessed: true sharing.
        assert not result.false_sharing

    def test_false_sharing_when_disjoint_words(self, protocol):
        engine, cache = snooped_cache()
        cache.install(0x1000, LineState.SHARED, now=0)
        touch(cache, 0x1000, 0b1, now=0)  # we touch word 0
        snoop(engine, 0x1000, BusOp.UPGRADE, word_mask=0b1000)  # they write word 3
        result = cache.lookup_demand(0x1000, 0b1, now=1)  # we re-read word 0
        assert result.invalidation_miss
        assert result.false_sharing

    def test_accumulated_remote_write_turns_true(self):
        # CPU 0 reads word 0; CPU 1's write of word 3 invalidates its copy.
        # CPU 1 then writes word 0 with a silent hit on its MODIFIED line,
        # which the trace-driven engine still reports to CPU 0's tag.
        trace = MultiTrace(
            "accumulated",
            [
                CpuTrace(0, [MemRef(0x1000), MemRef(0x1000, gap=600)]),
                CpuTrace(
                    1,
                    [MemRef(0x100C, is_write=True, gap=200), MemRef(0x1000, is_write=True, gap=100)],
                ),
            ],
        )
        misses = simulate(trace, MachineConfig(num_cpus=2)).miss_counts
        assert misses.inval_true_unprefetched == 1
        assert misses.inval_false_unprefetched == 0

    def test_current_access_word_counts_for_truth(self, protocol):
        engine, cache = snooped_cache()
        cache.install(0x1000, LineState.SHARED, now=0)
        touch(cache, 0x1000, 0b1, now=0)
        snoop(engine, 0x1000, BusOp.UPGRADE, word_mask=0b10)
        # We now access word 1, exactly what the remote wrote: true.
        result = cache.lookup_demand(0x1000, 0b10, now=1)
        assert result.invalidation_miss
        assert not result.false_sharing

    def test_invalidated_tag_replaced_becomes_nonsharing(self, protocol):
        engine, cache = snooped_cache()
        cache.install(0x1000, LineState.SHARED, now=0)
        snoop(engine, 0x1000, BusOp.UPGRADE, word_mask=0b1)
        # Another block claims the frame (invalid frames are reused).
        cache.install(0x1000 + 32 * 1024, LineState.SHARED, now=1)
        result = cache.lookup_demand(0x1000, 0b1, now=2)
        assert not result.hit
        assert not result.invalidation_miss  # tag is gone: non-sharing miss


class TestFillsAndEviction:
    def test_dirty_eviction_returns_writeback(self, protocol):
        cache = make_cache(protocol)
        cache.install(0x0000, LineState.MODIFIED, now=0)
        evicted = cache.install(32 * 1024, LineState.SHARED, now=1)
        assert evicted is not None
        assert evicted.block == 0x0000
        assert evicted.dirty

    def test_clean_eviction_returns_none(self, protocol):
        cache = make_cache(protocol)
        cache.install(0x0000, LineState.SHARED, now=0)
        assert cache.install(32 * 1024, LineState.SHARED, now=1) is None

    def test_install_poisoned_leaves_invalid_tag(self, protocol):
        cache = make_cache(protocol)
        cache.install_poisoned(0x1000, remote_written=0b1, now=0)
        assert cache.state_of(0x1000) is LineState.INVALID
        result = cache.lookup_demand(0x1000, 0b10, now=1)
        assert result.invalidation_miss
        assert result.false_sharing  # remote wrote word 0, we access word 1


class TestSnooping:
    """CPU 1's granted fill snoops CPU 0's cache through the engine's
    ``_grant_fill``; the requester's fill state shows whether a copy
    was found."""

    def test_read_snoop_downgrades_and_supplies_dirty(self, protocol):
        engine, cache = snooped_cache()
        cache.install(0x1000, LineState.MODIFIED, now=0)
        fill = snoop(engine, 0x1000, BusOp.READ, 0)
        assert fill.fill_state is LineState.SHARED
        assert cache.state_of(0x1000) is LineState.SHARED
        # The dirty copy is supplied cache to cache: no write-back.
        assert not engine.bus.pending_snapshot()

    def test_snoop_absent_block(self, protocol):
        engine, cache = snooped_cache()
        fill = snoop(engine, 0x1000, BusOp.READ, 0)
        assert fill.fill_state is LineState.PRIVATE
        assert not engine.bus.pending_snapshot()

    def test_read_ex_snoop_invalidates(self, protocol):
        engine, cache = snooped_cache()
        cache.install(0x1000, LineState.PRIVATE, now=0)
        snoop(engine, 0x1000, BusOp.READ_EX, 0b1)
        assert cache.state_of(0x1000) is LineState.INVALID
        assert cache._by_block[0x1000].remote_written == 0b1


class TestPrefetchLookup:
    """A prefetch probes the cache through the engine's ``_prefetch``."""

    def test_prefetch_hit_on_valid_line(self):
        # Both CPUs read the block, so CPU 0's copy is SHARED: an
        # exclusive prefetch still hits and starts no bus operation.
        trace = MultiTrace(
            "prefetch-hit",
            [
                CpuTrace(0, [MemRef(0x1000), Prefetch(0x1000, exclusive=True, gap=300)]),
                CpuTrace(1, [MemRef(0x1000, gap=150)]),
            ],
        )
        result = simulate(trace, MachineConfig(num_cpus=2))
        cpu = result.per_cpu[0]
        assert (cpu.prefetch_hits, cpu.prefetch_fills) == (1, 0)
        assert result.bus.prefetch_ops == 0

    def test_prefetch_miss_on_invalidated_line(self):
        trace = MultiTrace(
            "prefetch-miss",
            [
                CpuTrace(0, [MemRef(0x1000), Prefetch(0x1000, gap=400)]),
                CpuTrace(1, [MemRef(0x1000, is_write=True, gap=150)]),
            ],
        )
        cpu = simulate(trace, MachineConfig(num_cpus=2)).per_cpu[0]
        assert (cpu.prefetch_hits, cpu.prefetch_fills) == (0, 1)
