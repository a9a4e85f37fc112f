"""Unit tests for trace events, streams, validation and serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.trace.events import Barrier, LockAcquire, LockRelease, MemRef, Prefetch
from repro.trace.io import load_multitrace, save_multitrace
from repro.trace.stats import compute_stats
from repro.trace.stream import CpuTrace, MultiTrace


class TestEvents:
    def test_negative_gap_rejected(self):
        with pytest.raises(TraceError):
            MemRef(0x1000, gap=-1)

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            MemRef(-4)
        with pytest.raises(TraceError):
            Prefetch(-4)

    def test_memref_defaults(self):
        ref = MemRef(0x1000)
        assert not ref.is_write
        assert not ref.prefetched
        assert ref.size == 4


class TestCpuTrace:
    def test_memref_iteration_skips_sync(self):
        trace = CpuTrace(0, [MemRef(0), LockAcquire(0, 0x100), MemRef(4), LockRelease(0, 0x100)])
        assert trace.count_memrefs() == 2

    def test_prefetch_count(self):
        trace = CpuTrace(0, [Prefetch(0), MemRef(0), Prefetch(4)])
        assert trace.count_prefetches() == 2

    def test_validate_balanced_locks(self):
        trace = CpuTrace(0, [LockAcquire(1, 0x100), LockRelease(1, 0x100)])
        trace.validate()

    def test_validate_rejects_unreleased_lock(self):
        trace = CpuTrace(0, [LockAcquire(1, 0x100)])
        with pytest.raises(TraceError):
            trace.validate()

    def test_validate_rejects_stray_release(self):
        trace = CpuTrace(0, [LockRelease(1, 0x100)])
        with pytest.raises(TraceError):
            trace.validate()

    def test_validate_rejects_nested_same_lock(self):
        trace = CpuTrace(0, [LockAcquire(1, 0x100), LockAcquire(1, 0x100)])
        with pytest.raises(TraceError):
            trace.validate()


class TestMultiTrace:
    def test_cpu_labels_must_match_positions(self):
        with pytest.raises(TraceError):
            MultiTrace("t", [CpuTrace(1)])

    def test_barrier_sequences_must_agree(self):
        t0 = CpuTrace(0, [Barrier(0, 0x100)])
        t1 = CpuTrace(1, [Barrier(1, 0x120)])
        trace = MultiTrace("t", [t0, t1])
        with pytest.raises(TraceError):
            trace.validate()

    def test_valid_multitrace(self):
        t0 = CpuTrace(0, [MemRef(0), Barrier(0, 0x100)])
        t1 = CpuTrace(1, [MemRef(4), Barrier(0, 0x100)])
        trace = MultiTrace("t", [t0, t1])
        trace.validate()
        assert trace.total_memrefs() == 2


class TestStats:
    def test_basic_counts(self):
        t0 = CpuTrace(0, [
            MemRef(0x10000000, True, gap=2, shared=True),
            MemRef(0x100, gap=1),
            LockAcquire(0, 0x20000000),
            LockRelease(0, 0x20000000),
            Barrier(0, 0x20000020),
        ])
        t1 = CpuTrace(1, [
            MemRef(0x10000000, shared=True),
            Barrier(0, 0x20000020),
        ])
        stats = compute_stats(MultiTrace("t", [t0, t1]))
        assert stats.total_refs == 3
        assert stats.total_writes == 1
        assert stats.shared_refs == 2
        assert stats.lock_acquires == 1
        assert stats.barriers == 1
        assert stats.instruction_cycles == 3
        assert stats.refs_per_cpu == [2, 1]
        # Block written by cpu0 and read by cpu1: write-shared.
        assert stats.write_shared_blocks == 1

    def test_write_fraction(self):
        trace = MultiTrace("t", [CpuTrace(0, [MemRef(0, True), MemRef(4)])])
        stats = compute_stats(trace)
        assert stats.write_fraction == pytest.approx(0.5)


class TestSerialization:
    def _roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.gz"
        save_multitrace(trace, path)
        return load_multitrace(path)

    def test_roundtrip_preserves_everything(self, tmp_path):
        ref = MemRef(0x1234, True, gap=3, size=8, shared=True)
        ref.prefetched = True
        t0 = CpuTrace(0, [
            ref,
            Prefetch(0x2000, exclusive=True, gap=1),
            LockAcquire(7, 0x20000000, gap=2),
            LockRelease(7, 0x20000000),
            Barrier(3, 0x20000040, gap=5),
        ])
        trace = MultiTrace("example", [t0], metadata={"k": "v"})
        loaded = self._roundtrip(trace, tmp_path)
        assert loaded.name == "example"
        assert loaded.metadata == {"k": "v"}
        events = loaded[0].events
        assert isinstance(events[0], MemRef)
        assert events[0].addr == 0x1234 and events[0].is_write
        assert events[0].size == 8 and events[0].shared and events[0].prefetched
        assert isinstance(events[1], Prefetch) and events[1].exclusive
        assert isinstance(events[2], LockAcquire) and events[2].lock_id == 7
        assert isinstance(events[3], LockRelease)
        assert isinstance(events[4], Barrier) and events[4].barrier_id == 3
        assert events[4].gap == 5

    def test_roundtrip_multi_cpu(self, tmp_path):
        trace = MultiTrace(
            "t", [CpuTrace(0, [MemRef(0)]), CpuTrace(1, [MemRef(4), MemRef(8)])]
        )
        loaded = self._roundtrip(trace, tmp_path)
        assert loaded.num_cpus == 2
        assert loaded[1].count_memrefs() == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_multitrace(tmp_path / "nope.gz")

    @given(
        refs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**30),
                st.booleans(),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_roundtrip_random_refs(self, refs, tmp_path_factory):
        events = [MemRef(addr * 4, w, gap) for addr, w, gap in refs]
        trace = MultiTrace("rand", [CpuTrace(0, events)])
        path = tmp_path_factory.mktemp("traces") / "t.gz"
        save_multitrace(trace, path)
        loaded = load_multitrace(path)
        for orig, back in zip(events, loaded[0].events):
            assert (orig.addr, orig.is_write, orig.gap) == (back.addr, back.is_write, back.gap)
