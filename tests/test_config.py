"""Unit tests for configuration dataclasses."""

import pytest

from repro.common.config import (
    BusConfig,
    CacheConfig,
    MachineConfig,
    PrefetchConfig,
    SimulationConfig,
)
from repro.common.errors import ConfigurationError


class TestCacheConfig:
    def test_paper_default_geometry(self):
        cfg = CacheConfig()
        assert cfg.size_bytes == 32 * 1024
        assert cfg.block_size == 32
        assert cfg.associativity == 1
        assert cfg.num_blocks == 1024
        assert cfg.num_sets == 1024

    def test_set_index_wraps(self):
        """The cache maps blocks one cache size apart to one set."""
        from repro.cache.coherent import CoherentCache
        from repro.coherence.protocol import IllinoisProtocol, LineState

        cache = CoherentCache(CacheConfig(), IllinoisProtocol())
        for block in (0, 32, 32 * 1024):  # the last is one cache size later
            cache.install(block, LineState.SHARED, now=0)
        assert sorted(cache.resident_blocks()) == [32, 32 * 1024]

    def test_associative_sets(self):
        cfg = CacheConfig(associativity=4)
        assert cfg.num_sets == 256

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(block_size=24)

    def test_rejects_tiny_block(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(block_size=2)

    def test_rejects_size_not_multiple_of_block(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000)

    def test_rejects_negative_victim_lines(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(victim_cache_lines=-1)


class TestBusConfig:
    def test_paper_default_split(self):
        cfg = BusConfig()
        assert cfg.memory_latency == 100
        assert cfg.uncontended_cycles + cfg.transfer_cycles == 100

    def test_transfer_bounds(self):
        with pytest.raises(ConfigurationError):
            BusConfig(transfer_cycles=0)
        with pytest.raises(ConfigurationError):
            BusConfig(transfer_cycles=101)

    def test_writeback_occupancy_defaults_to_transfer(self):
        assert BusConfig(transfer_cycles=16).effective_writeback_occupancy == 16
        assert BusConfig(writeback_occupancy=4).effective_writeback_occupancy == 4


class TestPrefetchConfig:
    def test_paper_default_buffer(self):
        assert PrefetchConfig().buffer_depth == 16

    def test_rejects_zero_buffer(self):
        with pytest.raises(ConfigurationError):
            PrefetchConfig(buffer_depth=0)


class TestMachineConfig:
    def test_with_transfer_cycles_copies(self):
        base = MachineConfig()
        fast = base.with_transfer_cycles(4)
        assert fast.bus.transfer_cycles == 4
        assert base.bus.transfer_cycles == 8  # original untouched
        assert fast.cache == base.cache

    def test_describe_is_json_friendly(self):
        import json

        desc = MachineConfig().describe()
        json.dumps(desc)
        assert desc["transfer_cycles"] == 8
        assert desc["num_cpus"] == 12

    def test_rejects_zero_cpus(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cpus=0)


class TestSimulationConfig:
    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_cycles=0)
