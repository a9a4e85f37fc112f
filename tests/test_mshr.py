"""Unit tests for the lockup-free miss machinery (MSHRs)."""

import pytest

from repro.bus.bus import Bus
from repro.cache.mshr import MissStatusRegisters
from repro.common.config import BusConfig
from repro.common.errors import SimulationError

_BUS = Bus(BusConfig(), 1)


def fill(block, is_prefetch=False, exclusive=False):
    """CPU 0's fill of ``block``: the bus transaction the MSHR registers."""
    return _BUS.make_fill(0, block, exclusive, not is_prefetch, now=0)


def granted(block, is_prefetch=False):
    started = fill(block, is_prefetch)
    started.grant_time = 0
    return started


class TestOutstandingFills:
    def test_start_and_lookup(self):
        mshr = MissStatusRegisters(16)
        started = fill(0x1000)
        mshr.start(started)
        assert mshr.lookup(0x1000) is started
        assert mshr.lookup(0x2000) is None

    def test_duplicate_start_rejected(self):
        mshr = MissStatusRegisters(16)
        mshr.start(fill(0x1000))
        with pytest.raises(SimulationError):
            mshr.start(fill(0x1000, is_prefetch=True))

    def test_finish_removes(self):
        mshr = MissStatusRegisters(16)
        mshr.start(fill(0x1000))
        mshr.finish(0x1000)
        assert mshr.lookup(0x1000) is None

    def test_finish_unknown_rejected(self):
        mshr = MissStatusRegisters(16)
        with pytest.raises(SimulationError):
            mshr.finish(0x1000)


class TestPrefetchBuffer:
    def test_occupancy_tracking(self):
        mshr = MissStatusRegisters(2)
        mshr.start(fill(0x1000, is_prefetch=True))
        assert mshr.prefetches_in_flight == 1
        assert not mshr.prefetch_buffer_full
        mshr.start(fill(0x2000, is_prefetch=True))
        assert mshr.prefetch_buffer_full
        mshr.finish(0x1000)
        assert not mshr.prefetch_buffer_full

    def test_demand_fills_do_not_occupy_buffer(self):
        mshr = MissStatusRegisters(1)
        mshr.start(fill(0x1000, exclusive=True))
        assert mshr.prefetches_in_flight == 0
        assert not mshr.prefetch_buffer_full

    def test_high_water_mark(self):
        mshr = MissStatusRegisters(16)
        for i in range(5):
            mshr.start(fill(0x1000 * (i + 1), is_prefetch=True))
        assert mshr.prefetches_in_flight == 5
        for i in range(5):
            mshr.finish(0x1000 * (i + 1))
        assert mshr.prefetches_in_flight == 0


class TestPoisoning:
    def test_granted_fill_poisoned(self):
        mshr = MissStatusRegisters(16)
        started = granted(0x1000, is_prefetch=True)
        mshr.start(started)
        assert mshr.snoop_invalidate(0x1000, 0b10)
        assert started.poisoned
        assert started.poisoned_word_mask == 0b10

    def test_ungranted_fill_not_poisoned(self):
        # A fill not yet on the bus is serialized after the remote op,
        # so its data will be fetched fresh.
        mshr = MissStatusRegisters(16)
        started = fill(0x1000, is_prefetch=True)
        mshr.start(started)
        assert not mshr.snoop_invalidate(0x1000, 0b10)
        assert not started.poisoned

    def test_poison_masks_accumulate(self):
        mshr = MissStatusRegisters(16)
        started = granted(0x1000, is_prefetch=True)
        mshr.start(started)
        mshr.snoop_invalidate(0x1000, 0b01)
        mshr.snoop_invalidate(0x1000, 0b10)
        assert started.poisoned_word_mask == 0b11

    def test_snoop_absent_block(self):
        mshr = MissStatusRegisters(16)
        assert not mshr.snoop_invalidate(0x9999, 0b1)
