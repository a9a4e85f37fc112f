"""Address arithmetic helpers.

Addresses throughout the library are plain integers (byte addresses).
Cache block (line) addresses are byte addresses with the offset bits
cleared; word indices identify the 4-byte word within a block, which is
the granularity at which the false-sharing classifier tracks accesses
(following the paper's definition in section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError

#: Size in bytes of the word granularity used for false-sharing detection.
WORD_SIZE = 4


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def block_offset_bits(block_size: int) -> int:
    """Number of low-order address bits covered by one cache block."""
    if not _is_power_of_two(block_size):
        raise ConfigurationError(f"block size must be a power of two, got {block_size}")
    return block_size.bit_length() - 1


def block_address(addr: int, block_size: int) -> int:
    """Byte address of the cache block containing ``addr``."""
    return addr & ~(block_size - 1)


def word_index(addr: int, block_size: int) -> int:
    """Index of the 4-byte word within its block (0 .. block_size/4 - 1)."""
    return (addr & (block_size - 1)) // WORD_SIZE


def word_mask_for(addr: int, nbytes: int, block_size: int) -> int:
    """Bitmask of word indices touched by an access of ``nbytes`` at ``addr``.

    Accesses in the workload kernels are at most one word wide in practice,
    but the helper handles multi-word accesses (e.g. a double) for
    completeness.  The access must not straddle a block boundary; kernels
    align their layouts to guarantee this.
    """
    first = word_index(addr, block_size)
    last = word_index(addr + max(nbytes, 1) - 1, block_size)
    mask = 0
    for w in range(first, last + 1):
        mask |= 1 << w
    return mask


@dataclass(frozen=True)
class AddressSpace:
    """A carve-up of the flat byte address space into named regions.

    The workload layout models allocate data structures out of an
    :class:`AddressSpace` so that private data, shared data and
    synchronization variables land in disjoint, recognisable ranges.
    This mirrors how MPTrace traces distinguish shared from private
    references and lets the analysis tools attribute traffic by region.

    Attributes:
        private_base: start of the per-CPU private region.
        private_stride: bytes of private space reserved per CPU.
        shared_base: start of the shared-data region.
        sync_base: start of the region holding locks and barrier counters.
    """

    private_base: int = 0x0100_0000
    private_stride: int = 0x0040_0000
    shared_base: int = 0x1000_0000
    sync_base: int = 0x2000_0000

    def private_region(self, cpu: int) -> int:
        """Base address of CPU ``cpu``'s private region."""
        return self.private_base + cpu * self.private_stride

    def is_shared(self, addr: int) -> bool:
        """True if ``addr`` falls in the shared-data or sync region."""
        return addr >= self.shared_base
