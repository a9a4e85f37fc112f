"""Unit tests for address arithmetic helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.addressing import (
    AddressSpace,
    block_address,
    block_offset_bits,
    word_index,
    word_mask_for,
)
from repro.common.errors import ConfigurationError


class TestBlockAddress:
    def test_aligned_address_is_its_own_block(self):
        assert block_address(0x1000, 32) == 0x1000

    def test_offset_is_cleared(self):
        assert block_address(0x101F, 32) == 0x1000

    def test_next_block(self):
        assert block_address(0x1020, 32) == 0x1020

    def test_different_block_sizes(self):
        assert block_address(0x1035, 16) == 0x1030
        assert block_address(0x1035, 64) == 0x1000

    @given(st.integers(min_value=0, max_value=2**40), st.sampled_from([16, 32, 64, 128]))
    def test_block_contains_address(self, addr, block_size):
        blk = block_address(addr, block_size)
        assert blk <= addr < blk + block_size
        assert blk % block_size == 0


class TestBlockOffsetBits:
    def test_32_byte_block(self):
        assert block_offset_bits(32) == 5

    def test_power_of_two_required(self):
        with pytest.raises(ConfigurationError):
            block_offset_bits(24)


class TestWordIndex:
    def test_first_word(self):
        assert word_index(0x1000, 32) == 0

    def test_last_word_of_32_byte_block(self):
        assert word_index(0x101C, 32) == 7

    def test_unaligned_byte_in_word(self):
        assert word_index(0x1007, 32) == 1

    @given(st.integers(min_value=0, max_value=2**32))
    def test_index_in_range(self, addr):
        assert 0 <= word_index(addr, 32) < 8


class TestWordMaskFor:
    def test_single_word(self):
        assert word_mask_for(0x1000, 4, 32) == 0b1

    def test_second_word(self):
        assert word_mask_for(0x1004, 4, 32) == 0b10

    def test_double_word(self):
        assert word_mask_for(0x1000, 8, 32) == 0b11

    def test_zero_size_counts_one_word(self):
        assert word_mask_for(0x1008, 0, 32) == 0b100

    @given(
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=1, max_value=4),
    )
    def test_mask_nonzero_and_within_block(self, addr, size):
        # Align so the access cannot straddle a block boundary.
        addr = addr * 4
        if (addr % 32) + size > 32:
            size = 32 - (addr % 32)
        mask = word_mask_for(addr, size, 32)
        assert mask != 0
        assert mask < (1 << 8)


class TestAddressSpace:
    def test_private_regions_disjoint(self):
        space = AddressSpace()
        regions = [space.private_region(cpu) for cpu in range(16)]
        assert len(set(regions)) == 16
        for a, b in zip(regions, regions[1:]):
            assert b - a == space.private_stride

    def test_shared_detection(self):
        space = AddressSpace()
        assert space.is_shared(space.shared_base)
        assert space.is_shared(space.sync_base)
        assert not space.is_shared(space.private_region(0))

    def test_sync_detection(self):
        """Locks and barriers land in the sync region, above shared data."""
        from repro.layout.memory import MemoryLayout

        layout = MemoryLayout(num_cpus=2)
        space = layout.space
        addrs = [addr for _lock, addr in layout.new_lock_array(3)]
        addrs.append(layout.new_barrier()[1])
        assert space.shared_base < space.sync_base
        assert all(addr >= space.sync_base for addr in addrs)
