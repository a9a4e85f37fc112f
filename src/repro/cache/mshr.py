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

from repro.common.errors import SimulationError
from repro.coherence.protocol import LineState

__all__ = ["MissStatusRegisters", "OutstandingFill"]

#: Read once per fill: cheaper as a module global than off the class.
_INVALID = LineState.INVALID


class OutstandingFill:
    """One in-flight fill transaction.

    Attributes:
        block: block address being filled.
        is_prefetch: issued by a prefetch instruction (vs. demand miss).
        exclusive: exclusive-mode fill (READ_EX).
        issue_time: engine time the fill was allocated (-1 when the
            caller did not provide it; purely informational -- the
            observability layer uses it for allocate-to-fill spans).
        completion_time: engine time at which data arrives (set at bus
            grant; -1 until then).
        fill_state: coherence state decided at bus grant (when snoop
            results are known); INVALID until granted, or when poisoned.
        granted: the transaction has appeared on the bus.
        poisoned_word_mask: when a remote write invalidated this fill in
            flight, the word mask of that write (for false-sharing
            classification of the eventual invalidation miss).
    """

    __slots__ = (
        "block",
        "is_prefetch",
        "exclusive",
        "issue_time",
        "completion_time",
        "fill_state",
        "granted",
        "poisoned",
        "poisoned_word_mask",
        "intended_word_mask",
    )

    def __init__(
        self,
        block: int,
        is_prefetch: bool,
        exclusive: bool,
        intended_word_mask: int = 0,
        issue_time: int = -1,
    ) -> None:
        self.block = block
        self.is_prefetch = is_prefetch
        self.exclusive = exclusive
        self.issue_time = issue_time
        self.completion_time = -1
        self.fill_state = _INVALID
        self.granted = False
        self.poisoned = False
        self.poisoned_word_mask = 0
        self.intended_word_mask = intended_word_mask

    def poison(self, writer_word_mask: int) -> None:
        """Mark the fill as invalidated-in-flight by a remote write.

        Repeated poisonings accumulate the written words, mirroring the
        cache frames' remote-write bookkeeping.
        """
        self.poisoned = True
        self.poisoned_word_mask |= writer_word_mask


class MissStatusRegisters:
    """Per-CPU table of outstanding fills plus prefetch-buffer occupancy.

    Args:
        prefetch_buffer_depth: maximum prefetches in flight before the
            CPU stalls on issuing another (the paper's 16-deep buffer).
    """

    def __init__(self, prefetch_buffer_depth: int) -> None:
        self.prefetch_buffer_depth = prefetch_buffer_depth
        self._fills: dict[int, OutstandingFill] = {}
        self._prefetches_in_flight = 0
        self.max_prefetches_in_flight = 0

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

    def lookup(self, block: int) -> OutstandingFill | None:
        """The outstanding fill for ``block``, if any."""
        return self._fills.get(block)

    def outstanding_fills(self) -> tuple[OutstandingFill, ...]:
        """All in-flight fills (read-only view for diagnostics/audits)."""
        return tuple(self._fills.values())

    def start(
        self,
        block: int,
        is_prefetch: bool,
        exclusive: bool,
        intended_word_mask: int = 0,
        now: int = -1,
    ) -> OutstandingFill:
        """Register a new outstanding fill (``now`` stamps its issue time)."""
        if block in self._fills:
            raise SimulationError(f"duplicate outstanding fill for block {block:#x}")
        fill = OutstandingFill(block, is_prefetch, exclusive, intended_word_mask, now)
        self._fills[block] = fill
        if is_prefetch:
            self._prefetches_in_flight += 1
            if self._prefetches_in_flight > self.max_prefetches_in_flight:
                self.max_prefetches_in_flight = self._prefetches_in_flight
        return fill

    def finish(self, block: int) -> OutstandingFill:
        """Retire a completed fill and free its buffer slot."""
        fill = self._fills.pop(block, None)
        if fill is None:
            raise SimulationError(f"finish() for unknown fill {block:#x}")
        if fill.is_prefetch:
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
        if fill is not None and fill.granted:
            fill.poison(writer_word_mask)
            return True
        return False
