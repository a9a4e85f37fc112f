"""Lockup-free miss handling: outstanding fills and the prefetch buffer.

The paper's caches are lockup-free in the Kroft sense only as far as
prefetching requires: the CPU continues past an issued prefetch, with up
to ``buffer_depth`` (16) prefetches outstanding, while demand misses
still block the processor.  :class:`MissStatusRegisters` tracks, per CPU,
which blocks have fills in flight so that

* a demand access to an in-flight block becomes a *prefetch-in-progress*
  miss (the CPU waits only for the remaining latency);
* duplicate prefetches to an in-flight block are squashed;
* a remote invalidation granted between a fill's bus grant and its
  completion poisons the fill (the data arrives already invalid --
  "prefetched data invalidated before use").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import SimulationError

if TYPE_CHECKING:
    from repro.bus.transaction import BusTransaction

__all__ = ["MissStatusRegisters"]


class MissStatusRegisters:
    """Per-CPU table of outstanding fills plus prefetch-buffer occupancy.

    An entry is the fill's own
    :class:`~repro.bus.transaction.BusTransaction`: the record the bus
    queues and grants is the one registered here, from issue until the
    fill lands.  A fill that is
    not ``is_demand`` is a prefetch and holds a prefetch-buffer slot.

    Args:
        prefetch_buffer_depth: maximum prefetches in flight before the
            CPU stalls on issuing another (the paper's 16-deep buffer).
    """

    __slots__ = (
        "prefetch_buffer_depth",
        "_fills",
        "_prefetches_in_flight",
    )

    def __init__(self, prefetch_buffer_depth: int) -> None:
        self.prefetch_buffer_depth = prefetch_buffer_depth
        self._fills: dict[int, BusTransaction] = {}
        self._prefetches_in_flight = 0

    def __len__(self) -> int:
        return len(self._fills)

    @property
    def prefetches_in_flight(self) -> int:
        """Number of outstanding prefetch fills."""
        return self._prefetches_in_flight

    @property
    def prefetch_buffer_full(self) -> bool:
        """True when issuing another prefetch would stall the CPU."""
        return self._prefetches_in_flight >= self.prefetch_buffer_depth

    def lookup(self, block: int) -> BusTransaction | None:
        """The outstanding fill for ``block``, if any."""
        return self._fills.get(block)

    def outstanding_fills(self) -> tuple[BusTransaction, ...]:
        """All in-flight fills (read-only view for diagnostics/audits)."""
        return tuple(self._fills.values())

    def start(self, fill: BusTransaction) -> None:
        """Register ``fill`` (built by :meth:`repro.bus.bus.Bus.make_fill`)."""
        block = fill.block
        if block in self._fills:
            raise SimulationError(f"duplicate outstanding fill for block {block:#x}")
        self._fills[block] = fill
        if not fill.is_demand:
            self._prefetches_in_flight += 1

    def finish(self, block: int) -> BusTransaction:
        """Retire a completed fill and free its buffer slot."""
        fill = self._fills.pop(block, None)
        if fill is None:
            raise SimulationError(f"finish() for unknown fill {block:#x}")
        if not fill.is_demand:
            self._prefetches_in_flight -= 1
            if self._prefetches_in_flight < 0:
                raise SimulationError("prefetch buffer occupancy went negative")
        return fill

    def snoop_invalidate(self, block: int, writer_word_mask: int) -> bool:
        """Poison an in-flight fill hit by a remote invalidation.

        Only fills already granted on the bus are poisoned: a not-yet-
        granted fill is serialised *after* the remote operation by the
        bus, so its data will be fetched fresh.  Returns True if a fill
        was poisoned.
        """
        fill = self._fills.get(block)
        if fill is not None and fill.grant_time >= 0:
            # Repeated poisonings accumulate the written words, mirroring
            # the cache frames' remote-write bookkeeping.
            fill.poisoned = True
            fill.poisoned_word_mask |= writer_word_mask
            return True
        return False
