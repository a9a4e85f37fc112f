"""The uniprocessor filter cache used to identify prefetch candidates.

"The candidates for prefetching are identified by running each
processor's address stream through a uniprocessor cache filter and
marking the data misses" (section 3.1).  The filter has the same
geometry as the simulated cache but no coherence: it predicts exactly
the *non-sharing* misses (cold, capacity, conflict), which is why the
oracle cannot cover invalidation misses.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.config import CacheConfig
from repro.trace.events import MemRef, TraceEvent

__all__ = ["FilterCache"]


class FilterCache:
    """A tags-only cache simulator for miss prediction.

    Args:
        config: geometry to mirror (size, block size, associativity).
            The victim-cache option is ignored: the paper's filter is the
            plain cache.
    """

    def __init__(self, config: CacheConfig) -> None:
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        self._block_shift = config.block_size.bit_length() - 1
        self._set_mask = self._num_sets - 1
        # sets[i] lists the resident line numbers, most recently used last.
        self._sets: list[list[int]] = [[] for _ in range(self._num_sets)]
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Reference ``addr``; returns True on a hit."""
        return not self.miss_indices([MemRef(addr)])

    def miss_indices(self, events: Sequence[TraceEvent]) -> list[int]:
        """Reference every :class:`MemRef` of ``events`` in order; the
        indices of those that miss.

        Misses allocate (copy-back caches allocate on both read and
        write misses); replacement is LRU within the set.
        """
        sets = self._sets
        assoc = self._assoc
        shift = self._block_shift
        set_mask = self._set_mask
        misses: list[int] = []
        accesses = 0
        for index, event in enumerate(events):
            if type(event) is not MemRef:
                continue
            accesses += 1
            line = event.addr >> shift
            ways = sets[line & set_mask]
            if ways and ways[-1] == line:
                continue  # hit on the most recently used way
            if line in ways:
                ways.remove(line)
            else:
                misses.append(index)
                if len(ways) >= assoc:
                    del ways[0]
            ways.append(line)
        self.accesses += accesses
        self.misses += len(misses)
        return misses
