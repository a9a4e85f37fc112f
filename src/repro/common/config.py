"""Configuration dataclasses for the machine, caches, bus and prefetcher.

Defaults reproduce the machine of Tullsen & Eggers section 3.3:

* one direct-mapped, copy-back, 32 KB data cache with 32-byte blocks per
  processor;
* Illinois coherence protocol (private-clean state enables exclusive
  prefetching without a bus upgrade);
* 100-cycle memory latency, split into an uncontended portion and a
  contended data-bus transfer of 4 to 32 cycles;
* a 16-deep prefetch instruction buffer;
* round-robin bus arbitration favouring blocking (demand) loads over
  prefetches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

from repro.common.codec import canonical_json
from repro.common.errors import ConfigurationError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one per-processor data cache.

    Attributes:
        size_bytes: total capacity in bytes (default 32 KB).
        block_size: cache-line size in bytes (default 32).
        associativity: ways per set; 1 = direct mapped (the paper default).
        victim_cache_lines: entries in an optional fully-associative victim
            cache (0 disables it).  Section 4.3 hypothesises that a victim
            cache would absorb the conflict misses prefetching introduces;
            the ablation benches exercise this.
    """

    size_bytes: int = 32 * 1024
    block_size: int = 32
    associativity: int = 1
    victim_cache_lines: int = 0

    def __post_init__(self) -> None:
        _require(_is_power_of_two(self.block_size), f"block_size must be a power of two, got {self.block_size}")
        _require(self.block_size >= 4, f"block_size must be at least one word (4 bytes), got {self.block_size}")
        _require(self.size_bytes > 0, "size_bytes must be positive")
        _require(self.associativity >= 1, "associativity must be >= 1")
        _require(
            self.size_bytes % (self.block_size * self.associativity) == 0,
            "size_bytes must be a multiple of block_size * associativity",
        )
        _require(_is_power_of_two(self.num_sets), f"number of sets must be a power of two, got {self.num_sets}")
        _require(self.victim_cache_lines >= 0, "victim_cache_lines must be >= 0")

    @property
    def num_blocks(self) -> int:
        """Total number of block frames in the cache."""
        return self.size_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        """Number of sets (frames / associativity)."""
        return self.num_blocks // self.associativity

    @property
    def words_per_block(self) -> int:
        """Number of 4-byte words per block (false-sharing granularity)."""
        return self.block_size // 4

    def set_index(self, block_addr: int) -> int:
        """Set index for a block address."""
        return (block_addr // self.block_size) & (self.num_sets - 1)


@dataclass(frozen=True)
class BusConfig:
    """Timing model of the memory subsystem (section 3.3 of the paper).

    The total unloaded memory latency (``memory_latency``) is divided into
    an uncontended portion (address transmission plus memory lookup in the
    split-transaction reading of the model) and a contended data-transfer
    portion of ``transfer_cycles`` during which the single shared resource
    -- the data bus -- is occupied.  Varying ``transfer_cycles`` from 4 to
    32 sweeps the machine from a high-throughput (1.6 GB/s at 200 MHz) to a
    low-throughput (200 MB/s) memory system.

    Attributes:
        memory_latency: total unloaded miss latency in CPU cycles.
        transfer_cycles: contended data-bus occupancy per block transfer.
        upgrade_latency: unloaded latency of an invalidating (upgrade) bus
            operation, which uses the address bus only.
        upgrade_occupancy: cycles of contended-resource occupancy charged
            per upgrade operation.
        writeback_occupancy: data-bus occupancy of a copy-back of a dirty
            victim (a full block transfer).  ``None`` means "same as
            transfer_cycles".
        demand_priority: if True (the paper's machine), arbitration always
            grants eligible demand operations before eligible prefetches.
        contention_free: model an uncontended memory system (unlimited
            transfer bandwidth): every transaction is served the moment
            it is eligible, never queuing behind another.  This is the
            machine Mowry & Gupta evaluated (one processor per DASH
            cluster -- section 4.2 credits their much larger speedups to
            exactly this difference); the contention-free extension
            bench reproduces the comparison.
    """

    memory_latency: int = 100
    transfer_cycles: int = 8
    upgrade_latency: int = 12
    upgrade_occupancy: int = 1
    writeback_occupancy: int | None = None
    demand_priority: bool = True
    contention_free: bool = False

    def __post_init__(self) -> None:
        _require(self.memory_latency > 0, "memory_latency must be positive")
        _require(
            0 < self.transfer_cycles <= self.memory_latency,
            "transfer_cycles must be in (0, memory_latency]",
        )
        _require(self.upgrade_latency >= 1, "upgrade_latency must be >= 1")
        _require(self.upgrade_occupancy >= 1, "upgrade_occupancy must be >= 1")
        if self.writeback_occupancy is not None:
            _require(self.writeback_occupancy >= 1, "writeback_occupancy must be >= 1")

    @property
    def uncontended_cycles(self) -> int:
        """Cycles of a miss spent off the contended resource."""
        return self.memory_latency - self.transfer_cycles

    @property
    def effective_writeback_occupancy(self) -> int:
        """Data-bus occupancy actually charged per writeback."""
        if self.writeback_occupancy is None:
            return self.transfer_cycles
        return self.writeback_occupancy


@dataclass(frozen=True)
class PrefetchConfig:
    """Parameters of the lockup-free prefetch machinery in the cache.

    Attributes:
        buffer_depth: entries in the prefetch instruction buffer; the CPU
            stalls when issuing a prefetch while the buffer is full.  The
            paper uses 16, "sufficiently large to almost always prevent the
            processor from stalling".
        issue_cost: CPU cycles charged per executed prefetch instruction
            (the paper assumes a single instruction of overhead).
    """

    buffer_depth: int = 16
    issue_cost: int = 1

    def __post_init__(self) -> None:
        _require(self.buffer_depth >= 1, "buffer_depth must be >= 1")
        _require(self.issue_cost >= 0, "issue_cost must be >= 0")


@dataclass(frozen=True)
class MachineConfig:
    """A complete bus-based multiprocessor configuration.

    Attributes:
        num_cpus: number of processors (each with a private data cache).
        cache: per-processor cache geometry.
        bus: memory-subsystem timing.
        prefetch: lockup-free prefetch machinery.
        protocol: coherence protocol name: ``"illinois"`` (the paper's
            machine, with the private-clean state) or ``"msi"`` (the
            protocol-ablation variant without it).
    """

    num_cpus: int = 12
    cache: CacheConfig = field(default_factory=CacheConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    protocol: str = "illinois"

    def __post_init__(self) -> None:
        _require(self.num_cpus >= 1, "num_cpus must be >= 1")
        _require(self.protocol in ("illinois", "msi"), f"unknown protocol {self.protocol!r}")

    def with_transfer_cycles(self, transfer_cycles: int) -> "MachineConfig":
        """A copy of this machine with a different data-bus transfer latency.

        This is the knob swept in Figure 2 and Table 2 of the paper.
        """
        return replace(self, bus=replace(self.bus, transfer_cycles=transfer_cycles))

    def describe(self) -> dict[str, Any]:
        """A flat, JSON-friendly description (used for result-cache keys)."""
        return {
            "num_cpus": self.num_cpus,
            "cache_size": self.cache.size_bytes,
            "block_size": self.cache.block_size,
            "associativity": self.cache.associativity,
            "victim_cache_lines": self.cache.victim_cache_lines,
            "memory_latency": self.bus.memory_latency,
            "transfer_cycles": self.bus.transfer_cycles,
            "upgrade_latency": self.bus.upgrade_latency,
            "upgrade_occupancy": self.bus.upgrade_occupancy,
            "writeback_occupancy": self.bus.effective_writeback_occupancy,
            "demand_priority": self.bus.demand_priority,
            "contention_free": self.bus.contention_free,
            "prefetch_buffer_depth": self.prefetch.buffer_depth,
            "prefetch_issue_cost": self.prefetch.issue_cost,
            "protocol": self.protocol,
        }

    @cached_property
    def canonical_json(self) -> str:
        """:meth:`describe` as :func:`~repro.common.codec.canonical_json`,
        rendered once per instance (a result-cache key embeds it)."""
        return canonical_json(self.describe())


@dataclass(frozen=True)
class SimulationConfig:
    """Engine-level options independent of the modelled machine.

    Attributes:
        max_cycles: safety bound; the engine raises ``SimulationError``
            if the simulated clock exceeds it (guards against deadlock
            bugs rather than modelling anything physical).
        record_miss_indices: record the (cpu, event-index) of every
            demand miss.  Used by the perfect-knowledge prefetcher
            (:mod:`repro.prefetch.oracle`) to target exactly the
            references that missed in a prior run.
        audit: run the coherence/structural/conservation sanitizer
            (:mod:`repro.audit`) alongside the simulation and attach an
            :class:`~repro.audit.report.AuditReport` to the result.
            Audits are read-only: simulated metrics are bit-identical
            with the flag on or off.
        observe: run the observability taps (:mod:`repro.obs`)
            alongside the simulation and attach an
            :class:`~repro.obs.sampler.ObsReport` (windowed telemetry
            plus a ring-buffered event timeline) to the result.  Taps
            are read-only: simulated metrics are bit-identical with the
            flag on or off.
        observe_window: telemetry window width in simulated cycles.
        observe_trace_capacity: timeline ring-buffer size in events
            (oldest evicted first; 0 keeps telemetry but no timeline).
        observe_lines: additionally run the per-cache-line heat
            profiler (:mod:`repro.obs.lineprof`) and attach a
            :class:`~repro.obs.lineprof.LineProfile` to the report's
            ``lines`` field.  Requires ``observe``; like all taps it is
            read-only, so results stay bit-identical.
    """

    max_cycles: int = 5_000_000_000
    record_miss_indices: bool = False
    audit: bool = False
    observe: bool = False
    observe_window: int = 8192
    observe_trace_capacity: int = 65536
    observe_lines: bool = False

    def __post_init__(self) -> None:
        _require(self.max_cycles > 0, "max_cycles must be positive")
        _require(self.observe_window >= 1, "observe_window must be >= 1")
        _require(
            self.observe_trace_capacity >= 0, "observe_trace_capacity must be >= 0"
        )
        _require(
            self.observe or not self.observe_lines,
            "observe_lines requires observe",
        )
