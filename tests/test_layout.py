"""Unit tests for records, allocators, arrays and memory layouts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.layout.allocator import Allocator
from repro.layout.arrays import ArrayHandle
from repro.layout.memory import MemoryLayout
from repro.layout.records import FieldSpec, RecordType


class TestRecordType:
    def test_field_offsets_word_aligned(self):
        rec = RecordType("r", [FieldSpec("a", 4), FieldSpec("b", 4, 3), FieldSpec("c", 4)])
        assert rec.offset("a") == 0
        assert rec.offset("b", 0) == 4
        assert rec.offset("b", 2) == 12
        assert rec.offset("c") == 16
        assert rec.size == 20

    def test_padding_to_line(self):
        rec = RecordType("r", [FieldSpec("a", 4)], pad_to=32)
        assert rec.size == 32

    def test_padded_copy(self):
        rec = RecordType("r", [FieldSpec("a", 4), FieldSpec("b", 4)])
        padded = rec.padded(32)
        assert rec.size == 8
        assert padded.size == 32
        assert padded.offset("b") == rec.offset("b")

    def test_unknown_field_rejected(self):
        rec = RecordType("r", [FieldSpec("a", 4)])
        with pytest.raises(ConfigurationError):
            rec.offset("missing")

    def test_element_out_of_range(self):
        rec = RecordType("r", [FieldSpec("a", 4, 2)])
        with pytest.raises(ConfigurationError):
            rec.offset("a", 2)

    def test_duplicate_field_rejected(self):
        with pytest.raises(ConfigurationError):
            RecordType("r", [FieldSpec("a", 4), FieldSpec("a", 4)])

    def test_empty_record_rejected(self):
        with pytest.raises(ConfigurationError):
            RecordType("r", [])


class TestAllocator:
    def test_bump_allocation(self):
        alloc = Allocator(0x1000, 0x100)
        assert alloc.allocate(16) == 0x1000
        assert alloc.allocate(16) == 0x1010
        assert alloc.used == 32

    def test_alignment(self):
        alloc = Allocator(0x1000, 0x100)
        alloc.allocate(4)
        assert alloc.allocate(8, align=32) == 0x1020

    def test_exhaustion(self):
        alloc = Allocator(0x1000, 0x10)
        with pytest.raises(ConfigurationError):
            alloc.allocate(0x20)

    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=20))
    def test_allocations_never_overlap(self, sizes):
        alloc = Allocator(0, 1 << 20)
        spans = []
        for size in sizes:
            addr = alloc.allocate(size)
            for start, end in spans:
                assert addr >= end or addr + size <= start
            spans.append((addr, addr + size))


class TestArrayHandle:
    def test_element_addressing(self):
        rec = RecordType("r", [FieldSpec("a", 4), FieldSpec("b", 4)])
        arr = ArrayHandle("arr", 0x1000, rec, 10, shared=True)
        assert arr.addr(0) == 0x1000
        assert arr.addr(3, "b") == 0x1000 + 3 * 8 + 4
        assert arr.size_bytes == 80

    def test_index_bounds(self):
        rec = RecordType("r", [FieldSpec("a", 4)])
        arr = ArrayHandle("arr", 0x1000, rec, 2, shared=False)
        with pytest.raises(ConfigurationError):
            arr.addr(2)
        with pytest.raises(ConfigurationError):
            arr.addr(-1)


class TestMemoryLayout:
    def test_shared_and_private_disjoint(self):
        layout = MemoryLayout(num_cpus=4)
        rec = RecordType("r", [FieldSpec("a", 4)])
        shared = layout.shared_array("s", rec, 100)
        privates = [layout.private_array(cpu, "p", rec, 100) for cpu in range(4)]
        ranges = [(shared.base, shared.base + shared.size_bytes)]
        ranges += [(p.base, p.base + p.size_bytes) for p in privates]
        for i, (s1, e1) in enumerate(ranges):
            for s2, e2 in ranges[i + 1 :]:
                assert e1 <= s2 or e2 <= s1

    def test_shared_flag_propagates(self):
        layout = MemoryLayout(num_cpus=2)
        rec = RecordType("r", [FieldSpec("a", 4)])
        assert layout.shared_array("s", rec, 1).shared
        assert not layout.private_array(0, "p", rec, 1).shared

    def test_pad_to_line_one_element_per_line(self):
        layout = MemoryLayout(num_cpus=2, block_size=32)
        rec = RecordType("r", [FieldSpec("a", 4)])
        arr = layout.shared_array("s", rec, 10, pad_to_line=True)
        blocks = {arr.addr(i) // 32 for i in range(10)}
        assert len(blocks) == 10

    def test_per_cpu_slices_never_share_lines(self):
        layout = MemoryLayout(num_cpus=4, block_size=32)
        rec = RecordType("r", [FieldSpec("a", 4)])  # 4-byte records
        slices = layout.per_cpu_shared_array("s", rec, 10)
        line_owner: dict[int, int] = {}
        for cpu, handle in enumerate(slices):
            for i in range(handle.count):
                line = handle.addr(i) // 32
                assert line_owner.setdefault(line, cpu) == cpu

    def test_locks_line_padded(self):
        layout = MemoryLayout(num_cpus=2, block_size=32)
        (id1, a1), (id2, a2) = layout.new_lock(), layout.new_lock()
        assert id1 != id2
        assert a1 // 32 != a2 // 32

    def test_private_set_offset_staggers(self):
        plain = MemoryLayout(num_cpus=1, private_set_offset=0)
        staggered = MemoryLayout(num_cpus=1, private_set_offset=24 * 1024)
        rec = RecordType("r", [FieldSpec("a", 4)])
        p0 = plain.private_array(0, "p", rec, 1)
        p1 = staggered.private_array(0, "p", rec, 1)
        assert p1.base - p0.base == 24 * 1024

    def test_barriers_distinct(self):
        layout = MemoryLayout(num_cpus=2)
        (b1, a1), (b2, a2) = layout.new_barrier(), layout.new_barrier()
        assert b1 != b2 and a1 != a2

    def test_footprint_reporting(self):
        layout = MemoryLayout(num_cpus=2)
        rec = RecordType("r", [FieldSpec("a", 4)])
        layout.shared_array("s", rec, 256)
        assert layout.shared_bytes >= 1024
        shared = layout.shared_bytes
        private = layout.private_array(0, "p", rec, 128)
        assert not private.shared
        assert layout.shared_bytes == shared  # private data is no shared footprint
