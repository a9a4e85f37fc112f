"""Unit tests for the filter caches and write-shared identification."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import CacheConfig
from repro.prefetch.filter import FilterCache
from repro.prefetch.wsfilter import AssociativeFilter, find_write_shared_blocks
from repro.trace.events import MemRef, Prefetch
from repro.trace.stream import CpuTrace, MultiTrace


class TestFilterCache:
    def test_first_access_misses_second_hits(self):
        f = FilterCache(CacheConfig())
        assert not f.access(0x1000)
        assert f.access(0x1000)
        assert f.access(0x101C)  # same 32-byte block

    def test_conflict_eviction(self):
        f = FilterCache(CacheConfig())
        f.access(0)
        f.access(32 * 1024)  # same set, direct mapped
        assert not f.access(0)

    def test_lru_in_associative_filter(self):
        f = FilterCache(CacheConfig(associativity=2))
        f.access(0)
        f.access(32 * 1024)
        assert f.access(0)  # both resident in a 2-way set
        f.access(64 * 1024)  # evicts LRU = 32K
        assert f.access(0)
        assert not f.access(32 * 1024)

    def test_miss_rate(self):
        f = FilterCache(CacheConfig())
        refs = [MemRef(0x1000), MemRef(0x1000), MemRef(0x1004), MemRef(0x2000)]
        assert f.miss_indices(refs) == [0, 3]

    def test_matches_paper_geometry_semantics(self):
        # The filter predicts exactly uniprocessor (non-sharing) misses:
        # a repeating working set larger than the cache always misses.
        f = FilterCache(CacheConfig(size_bytes=1024, block_size=32))
        blocks = [i * 32 for i in range(64)]  # 2x the cache
        for _ in range(2):
            for b in blocks:
                f.access(b)
        assert f.misses == 128  # every access a miss (sequential sweep)


def _reference_lru_misses(addrs, num_sets, assoc, block_size):
    """The filter's semantics written out per reference: LRU sets of blocks."""
    sets = [[] for _ in range(num_sets)]
    misses = []
    for i, addr in enumerate(addrs):
        block = addr // block_size
        ways = sets[block % num_sets]
        if block in ways:
            ways.remove(block)
        else:
            misses.append(i)
            if len(ways) == assoc:
                ways.pop(0)
        ways.append(block)
    return misses


class TestFilterMissIndices:
    @given(
        st.lists(st.integers(min_value=0, max_value=4095), max_size=300),
        st.sampled_from([(256, 16, 1), (256, 16, 2), (512, 32, 4), (128, 32, 4)]),
    )
    def test_matches_the_per_reference_lru(self, addrs, geometry):
        size, block, assoc = geometry
        config = CacheConfig(size_bytes=size, block_size=block, associativity=assoc)
        events = []
        for addr in addrs:
            events.append(MemRef(addr))
            if addr % 7 == 0:
                events.append(Prefetch(addr))  # not a demand reference: skipped
        positions = [i for i, e in enumerate(events) if type(e) is MemRef]
        got = FilterCache(config).miss_indices(events)
        want = _reference_lru_misses(addrs, config.num_sets, assoc, block)
        assert got == [positions[i] for i in want]


class TestAssociativeFilter:
    def test_window_hits(self):
        f = AssociativeFilter(capacity=2)
        f.access(0x1000)
        f.access(0x2000)
        assert f.access(0x1000)

    def test_lru_eviction(self):
        f = AssociativeFilter(capacity=2)
        f.access(0x1000)
        f.access(0x2000)
        f.access(0x1000)  # refresh
        f.access(0x3000)  # evicts 0x2000
        assert f.access(0x1000)
        assert not f.access(0x2000)

    def test_block_granularity(self):
        f = AssociativeFilter(capacity=4, block_size=32)
        f.access(0x1000)
        assert f.access(0x101C)

    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=200))
    def test_never_misses_within_capacity(self, sequence):
        # With at most 16 distinct lines, a 16-line filter misses each
        # line exactly once.
        f = AssociativeFilter(capacity=16)
        for line in sequence:
            f.access(line * 32)
        assert f.misses == len(set(sequence))


class TestWriteSharedBlocks:
    def _trace(self, refs_by_cpu):
        cpu_traces = []
        for cpu, refs in enumerate(refs_by_cpu):
            events = [MemRef(addr, is_write) for addr, is_write in refs]
            cpu_traces.append(CpuTrace(cpu, events))
        return MultiTrace("t", cpu_traces)

    def test_written_and_multi_cpu(self):
        trace = self._trace([
            [(0x1000, True)],
            [(0x1000, False)],
        ])
        assert find_write_shared_blocks(trace) == {0x1000}

    def test_private_write_not_shared(self):
        trace = self._trace([
            [(0x1000, True)],
            [(0x2000, False)],
        ])
        assert find_write_shared_blocks(trace) == set()

    def test_read_only_sharing_excluded(self):
        trace = self._trace([
            [(0x1000, False)],
            [(0x1000, False)],
        ])
        assert find_write_shared_blocks(trace) == set()

    def test_block_granularity_merges_words(self):
        trace = self._trace([
            [(0x1000, True)],
            [(0x101C, False)],  # same block, different word
        ])
        assert find_write_shared_blocks(trace) == {0x1000}
