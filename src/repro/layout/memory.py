"""The per-workload memory layout: regions, arrays, locks and barriers.

A :class:`MemoryLayout` owns one shared-region allocator, one sync-region
allocator, and one private allocator per CPU, and hands out
:class:`~repro.layout.arrays.ArrayHandle` objects and lock/barrier
addresses.  Restructuring support:

* ``shared_array(..., pad_to_line=True)`` pads the element record to the
  cache-line size so no two elements share a line;
* ``per_cpu_shared_array`` allocates each CPU's slice of a logically
  shared array contiguously (blocked by CPU) instead of interleaved,
  optionally line-aligning each slice -- the "group per-processor data"
  half of the Jeremiassen–Eggers transformation.
"""

from __future__ import annotations

from repro.common.addressing import AddressSpace
from repro.common.errors import ConfigurationError
from repro.layout.allocator import Allocator
from repro.layout.arrays import ArrayHandle
from repro.layout.records import RecordType

__all__ = ["MemoryLayout"]

_DEFAULT_REGION_LIMIT = 0x0800_0000


class MemoryLayout:
    """Address-space management for one workload instance.

    Args:
        num_cpus: processor count (one private region each).
        block_size: cache-line size, used for line padding/alignment.
        address_space: region boundaries (defaults are fine for all
            built-in workloads).
    """

    def __init__(
        self,
        num_cpus: int,
        block_size: int = 32,
        address_space: AddressSpace | None = None,
        private_set_offset: int = 24 * 1024,
    ) -> None:
        """Args:
            private_set_offset: byte offset applied to each CPU's private
                allocation base.  Region bases are multiples of the cache
                size, so without an offset every region starts at cache
                set 0 and private data systematically aliases the first
                shared arrays -- a placement artifact, not program
                behaviour.  The offset staggers private data into a
                different part of the cache; workloads whose originals
                *do* exhibit private/shared interference (Topopt) pass a
                deliberately overlapping value.
        """
        if num_cpus < 1:
            raise ConfigurationError("num_cpus must be >= 1")
        if private_set_offset < 0:
            raise ConfigurationError("private_set_offset must be >= 0")
        self.num_cpus = num_cpus
        self.block_size = block_size
        self.space = address_space or AddressSpace()
        self._shared = Allocator(self.space.shared_base, _DEFAULT_REGION_LIMIT, "shared")
        self._sync = Allocator(self.space.sync_base, _DEFAULT_REGION_LIMIT, "sync")
        self._private = [
            Allocator(
                self.space.private_region(cpu) + private_set_offset,
                self.space.private_stride - private_set_offset,
                f"private[{cpu}]",
            )
            for cpu in range(num_cpus)
        ]
        self._arrays: list[ArrayHandle] = []
        self._next_lock_id = 0
        self._next_barrier_id = 0

    # ------------------------------------------------------------------ data

    def shared_array(
        self,
        name: str,
        record: RecordType,
        count: int,
        pad_to_line: bool = False,
        line_align: bool = True,
    ) -> ArrayHandle:
        """Allocate a shared array of ``count`` records.

        Args:
            pad_to_line: pad each element to the cache-line size (the
                false-sharing-elimination restructuring for arrays whose
                elements are written by different CPUs).
            line_align: align the array base to a line boundary (on by
                default so that element/line geometry is deterministic).
        """
        rec = record.padded(self.block_size) if pad_to_line else record
        align = self.block_size if line_align else 4
        base = self._shared.allocate(rec.size * count, align)
        handle = ArrayHandle(name, base, rec, count, shared=True)
        self._arrays.append(handle)
        return handle

    def private_array(self, cpu: int, name: str, record: RecordType, count: int) -> ArrayHandle:
        """Allocate a private array in CPU ``cpu``'s region."""
        base = self._private[cpu].allocate(record.size * count, 4)
        handle = ArrayHandle(f"{name}[cpu{cpu}]", base, record, count, shared=False)
        self._arrays.append(handle)
        return handle

    def per_cpu_shared_array(
        self,
        name: str,
        record: RecordType,
        count_per_cpu: int,
        line_align_slices: bool = True,
    ) -> list[ArrayHandle]:
        """Allocate a logically shared array blocked by CPU.

        Each CPU gets a contiguous slice of ``count_per_cpu`` elements,
        optionally aligned to a line boundary so slices never share a
        cache line with a neighbour's slice.  This is the restructured
        layout; the unrestructured counterpart is a single
        :meth:`shared_array` indexed ``cpu + i * num_cpus`` (interleaved),
        which is exactly what produces false sharing.
        """
        slices: list[ArrayHandle] = []
        for cpu in range(self.num_cpus):
            align = self.block_size if line_align_slices else 4
            base = self._shared.allocate(record.size * count_per_cpu, align)
            slices.append(ArrayHandle(f"{name}[cpu{cpu}]", base, record, count_per_cpu, shared=True))
        self._arrays.extend(slices)
        return slices

    # ------------------------------------------------------------------ sync

    def new_lock(self) -> tuple[int, int]:
        """Allocate a lock; returns ``(lock_id, lock_addr)``.

        Lock words are line-padded: each lock occupies its own cache line
        (standard practice even in 1993-era libraries, and it keeps lock
        traffic from polluting the false-sharing statistics).
        """
        lock_id = self._next_lock_id
        self._next_lock_id += 1
        addr = self._sync.allocate(4, self.block_size)
        return lock_id, addr

    def new_lock_array(self, count: int) -> list[tuple[int, int]]:
        """Allocate ``count`` locks (e.g. one per hash bucket or cell)."""
        return [self.new_lock() for _ in range(count)]

    def new_barrier(self) -> tuple[int, int]:
        """Allocate a barrier; returns ``(barrier_id, counter_addr)``."""
        barrier_id = self._next_barrier_id
        self._next_barrier_id += 1
        addr = self._sync.allocate(4, self.block_size)
        return barrier_id, addr

    # ------------------------------------------------------------- reporting

    @property
    def shared_bytes(self) -> int:
        """Bytes of shared data allocated so far (excluding sync)."""
        return self._shared.used

    def arrays(self) -> list[ArrayHandle]:
        """All allocated array handles (for footprint reports)."""
        return list(self._arrays)

    def describe_arrays(self) -> list[dict[str, object]]:
        """JSON-friendly map of every allocated array.

        Attached to generated traces as ``metadata["arrays"]`` so the
        analysis tools (:mod:`repro.analysis`) can attribute misses and
        sharing back to named program data structures.
        """
        return [
            {
                "name": a.name,
                "base": a.base,
                "size": a.size_bytes,
                "stride": a.stride,
                "count": a.count,
                "shared": a.shared,
            }
            for a in self._arrays
        ]
