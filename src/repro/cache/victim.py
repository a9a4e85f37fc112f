"""A small fully-associative victim cache (Jouppi, ISCA 1990).

Section 4.3 of the paper observes that the conflict misses prefetching
introduces "would likely be reduced by a victim cache or a
set-associative cache"; the victim-cache ablation bench tests exactly
that.  Evicted lines (with their coherence state and false-sharing
metadata) are parked here; a miss that hits the victim cache swaps the
line back without a bus operation.

The victim cache snoops: remote invalidations, downgrades and remote
writes apply to victim entries too, so coherence and the false-sharing
bookkeeping are preserved.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.coherence.protocol import BusOp, IllinoisProtocol, LineState

__all__ = ["VictimCache"]


class _VictimEntry:
    __slots__ = ("state", "words_accessed", "remote_written")

    def __init__(self, state: LineState, words_accessed: int, remote_written: int) -> None:
        self.state = state
        self.words_accessed = words_accessed
        self.remote_written = remote_written


class VictimCache:
    """LRU fully-associative victim buffer of ``capacity`` lines.

    A ``capacity`` of zero produces a permanently-empty victim cache, so
    callers need no special-casing for the disabled configuration.
    """

    def __init__(self, capacity: int, protocol: IllinoisProtocol) -> None:
        self.capacity = capacity
        self._protocol = protocol
        self._entries: OrderedDict[int, _VictimEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def insert(
        self, block: int, state: LineState, words_accessed: int, remote_written: int
    ) -> tuple[int, LineState] | None:
        """Park an evicted line.

        Returns ``(block, state)`` of a line displaced from the victim
        cache if that line is dirty (the caller must write it back), else
        ``None``.  Invalid lines are not parked -- there is nothing to
        salvage from them.
        """
        if self.capacity == 0 or state is LineState.INVALID:
            return None
        displaced: tuple[int, LineState] | None = None
        if block in self._entries:
            self._entries.pop(block)
        elif len(self._entries) >= self.capacity:
            old_block, old_entry = self._entries.popitem(last=False)
            if old_entry.state is LineState.MODIFIED:
                displaced = (old_block, old_entry.state)
        self._entries[block] = _VictimEntry(state, words_accessed, remote_written)
        return displaced

    def extract(self, block: int) -> tuple[LineState, int, int] | None:
        """Remove and return ``(state, words_accessed, remote_written)``.

        Called when a cache miss finds the block here (a victim hit); the
        line moves back into the main cache.  Returns ``None`` when the
        block is absent or present but invalid (an invalidated victim is
        useless -- the subsequent fill must still go to the bus; the
        entry is *kept* in that case so the invalidation-miss metadata
        survives until the caller inspects it via
        :meth:`take_invalidated`).
        """
        entry = self._entries.get(block)
        if entry is None or entry.state is LineState.INVALID:
            return None
        self._entries.pop(block)
        return entry.state, entry.words_accessed, entry.remote_written

    def take_invalidated(self, block: int) -> tuple[int, int] | None:
        """If ``block`` sits here invalidated, pop and return its
        ``(words_accessed, remote_written)`` masks for miss
        classification; ``None`` when no invalidated entry exists."""
        entry = self._entries.get(block)
        if entry is None or entry.state is not LineState.INVALID:
            return None
        self._entries.pop(block)
        return entry.words_accessed, entry.remote_written

    def snoop(self, block: int, op: BusOp, writer_word_mask: int) -> bool:
        """Apply a remote bus operation to a victim entry.

        Returns True if a valid copy was present here (so the requester
        sees ``others_have_copy``).
        """
        entry = self._entries.get(block)
        if entry is None or entry.state is LineState.INVALID:
            return False
        action = self._protocol.snoop(entry.state, op)
        if action.invalidated:
            entry.remote_written = writer_word_mask
        entry.state = action.new_state
        return True

    def note_remote_write(self, block: int, writer_word_mask: int) -> None:
        """Accumulate a remote write into an invalidated victim entry."""
        entry = self._entries.get(block)
        if entry is not None and entry.state is LineState.INVALID:
            entry.remote_written |= writer_word_mask

    def has_valid_copy(self, block: int) -> bool:
        """True if a valid (non-invalidated) copy of ``block`` is parked."""
        entry = self._entries.get(block)
        return entry is not None and entry.state is not LineState.INVALID

    def state_of(self, block: int) -> LineState:
        """Coherence state of a parked entry (INVALID when absent)."""
        entry = self._entries.get(block)
        return LineState.INVALID if entry is None else entry.state

    def valid_blocks(self) -> list[int]:
        """Blocks with valid parked copies (diagnostics/audits)."""
        return sorted(
            b for b, e in self._entries.items() if e.state is not LineState.INVALID
        )
