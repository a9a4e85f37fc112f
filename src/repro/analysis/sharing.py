"""Word-granularity sharing profiler over traces.

A static (machine-independent) analysis: for each cache line, which
CPUs read and wrote it, and which *words* each CPU touched.  From that
it derives the two properties that drive the paper's results:

* **write-shared** -- accessed by more than one CPU, written by at
  least one (the PWS target set);
* **false-sharing potential** -- some CPU writes words of the line that
  another accessing CPU never touches.  Every such line will generate
  false-sharing invalidation misses under a write-invalidate protocol;
  the potential count is the static analogue of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.events import MemRef
from repro.trace.stream import MultiTrace

__all__ = ["BlockSharing", "SharingProfile", "profile_sharing"]


@dataclass
class BlockSharing:
    """Sharing facts for one cache line.

    ``read_words``/``write_words`` map CPU id to a bitmask of the words
    that CPU read/wrote in the line.
    """

    block: int
    refs: int = 0
    writes: int = 0
    read_words: dict[int, int] = field(default_factory=dict)
    write_words: dict[int, int] = field(default_factory=dict)

    @property
    def cpus(self) -> set[int]:
        """Every CPU that touched the line."""
        return set(self.read_words) | set(self.write_words)

    @property
    def writers(self) -> set[int]:
        """CPUs that wrote the line."""
        return set(self.write_words)

    def words_of(self, cpu: int) -> int:
        """All words ``cpu`` accessed (read or write)."""
        return self.read_words.get(cpu, 0) | self.write_words.get(cpu, 0)

    @property
    def is_shared(self) -> bool:
        """Accessed by more than one CPU."""
        return len(self.cpus) > 1

    @property
    def is_write_shared(self) -> bool:
        """Shared and written: the coherence-traffic generator."""
        return self.is_shared and bool(self.writers)

    @property
    def has_false_sharing_potential(self) -> bool:
        """True if some CPU writes words another accessing CPU never uses.

        The static pre-image of a false-sharing invalidation miss: CPU w
        writing word set W invalidates CPU r's copy although r only uses
        words outside W.
        """
        if not self.is_write_shared:
            return False
        for writer, wmask in self.write_words.items():
            for other in self.cpus:
                if other == writer:
                    continue
                other_words = self.words_of(other)
                if other_words and (other_words & wmask) == 0:
                    return True
        return False

    @property
    def has_disjoint_writer_ownership(self) -> bool:
        """Multiple writers whose written word sets never overlap.

        The signature of per-CPU data interleaved into one line: each
        word has a single owner-writer.  Such lines are fixed by
        *grouping* each CPU's elements contiguously (readers may roam;
        ownership is a writer property).
        """
        if len(self.write_words) < 2:
            return False
        masks = list(self.write_words.values())
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                if a & b:
                    return False
        return True



@dataclass
class SharingProfile:
    """The profiler's output: per-line facts plus aggregates."""

    block_size: int
    blocks: dict[int, BlockSharing]
    total_refs: int

    def write_shared_blocks(self) -> list[BlockSharing]:
        """All write-shared lines."""
        return [b for b in self.blocks.values() if b.is_write_shared]

    def false_sharing_blocks(self) -> list[BlockSharing]:
        """All lines with false-sharing potential."""
        return [b for b in self.blocks.values() if b.has_false_sharing_potential]

    def hottest(self, n: int = 10, predicate=None) -> list[BlockSharing]:
        """The ``n`` most-referenced lines (optionally filtered)."""
        candidates = self.blocks.values()
        if predicate is not None:
            candidates = [b for b in candidates if predicate(b)]
        return sorted(candidates, key=lambda b: -b.refs)[:n]

    @property
    def false_sharing_ref_fraction(self) -> float:
        """Fraction of all references that hit falsely-shared lines."""
        if not self.total_refs:
            return 0.0
        fs_refs = sum(b.refs for b in self.false_sharing_blocks())
        return fs_refs / self.total_refs


def profile_sharing(trace: MultiTrace, block_size: int = 32) -> SharingProfile:
    """Profile every demand reference of ``trace`` at ``block_size``."""
    mask = block_size - 1
    words_shift = 2  # 4-byte words
    blocks: dict[int, BlockSharing] = {}
    total = 0
    for cpu_trace in trace:
        cpu = cpu_trace.cpu
        for event in cpu_trace:
            if type(event) is not MemRef:
                continue
            total += 1
            block = event.addr & ~mask
            entry = blocks.get(block)
            if entry is None:
                entry = blocks[block] = BlockSharing(block)
            entry.refs += 1
            word_bit = 1 << ((event.addr & mask) >> words_shift)
            if event.is_write:
                entry.writes += 1
                entry.write_words[cpu] = entry.write_words.get(cpu, 0) | word_bit
            else:
                entry.read_words[cpu] = entry.read_words.get(cpu, 0) | word_bit
    return SharingProfile(block_size=block_size, blocks=blocks, total_refs=total)
