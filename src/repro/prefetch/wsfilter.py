"""Write-shared data identification and the PWS temporal-locality filter.

PWS ("prefetch write-shared data more aggressively", section 4.1) adds
*redundant* prefetches -- redundant in the uniprocessor sense, for data
that would still be cached were it not for invalidations.  The heuristic:
the longer a write-shared line has gone unreferenced, the more likely it
has been invalidated.  The paper emulates it by running each CPU's
write-shared references through a 16-line fully-associative cache filter
and prefetching its misses, *in addition to* the PREF candidates.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Container, Sequence

from repro.trace.events import MemRef, TraceEvent
from repro.trace.stream import MultiTrace

__all__ = ["AssociativeFilter", "find_write_shared_blocks"]


class AssociativeFilter:
    """A small fully-associative LRU filter (default 16 lines).

    A *miss* in this filter means the line has poor temporal locality in
    the recent window -- exactly the lines PWS considers likely to have
    been invalidated since their last use.
    """

    def __init__(self, capacity: int = 16, block_size: int = 32) -> None:
        self.capacity = capacity
        self._block_mask = ~(block_size - 1)
        self._lines: OrderedDict[int, None] = OrderedDict()
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Reference ``addr``; returns True on a hit."""
        return not self.miss_indices([MemRef(addr)], {addr & self._block_mask})

    def miss_indices(self, events: Sequence[TraceEvent], blocks: Container[int]) -> list[int]:
        """Reference every :class:`MemRef` of ``events`` whose block is in
        ``blocks``, in order; the indices of those that miss."""
        lines = self._lines
        capacity = self.capacity
        mask = self._block_mask
        misses: list[int] = []
        accesses = 0
        for index, event in enumerate(events):
            if type(event) is not MemRef:
                continue
            block = event.addr & mask
            if block not in blocks:
                continue
            accesses += 1
            if block in lines:
                lines.move_to_end(block)
                continue
            misses.append(index)
            if len(lines) >= capacity:
                lines.popitem(last=False)
            lines[block] = None
        self.accesses += accesses
        self.misses += len(misses)
        return misses


def find_write_shared_blocks(trace: MultiTrace, block_size: int = 32) -> set[int]:
    """Blocks accessed by more than one CPU and written by at least one.

    This is the compile-time "known to be write-shared" set the PWS
    heuristic targets.  Using whole-trace knowledge matches the paper's
    off-line emulation (an actual compiler would approximate it with
    sharing analysis).
    """
    mask = ~(block_size - 1)
    seen: set[int] = set()
    shared: set[int] = set()
    written: set[int] = set()
    for cpu_trace in trace:
        refs = [event for event in cpu_trace.events if type(event) is MemRef]
        blocks = {ref.addr & mask for ref in refs}
        written |= {ref.addr & mask for ref in refs if ref.is_write}
        shared |= blocks & seen  # >= 2 CPUs
        seen |= blocks
    return shared & written
