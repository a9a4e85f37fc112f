"""The per-processor coherent data cache.

Direct-mapped by default (the paper's configuration), optionally
set-associative with LRU replacement, copy-back, with Illinois coherence
state per line.  The cache is purely a state container: all *timing*
(bus queuing, latencies) belongs to the engine, which also decides when
fills complete and snoops are applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.cache.frame import CacheFrame
from repro.cache.victim import VictimCache
from repro.coherence.protocol import IllinoisProtocol, LineState
from repro.common.config import CacheConfig

__all__ = ["CoherentCache", "EvictedLine", "LookupResult"]


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a demand lookup.

    Attributes:
        hit: the access can complete from the cache (valid matching tag,
            possibly still needing an UPGRADE for a write to SHARED).
        invalidation_miss: miss with a matching tag in INVALID state
            (the paper's invalidation-miss definition) -- either in the
            main array or parked invalidated in the victim cache.
        false_sharing: for an invalidation miss, whether the causing
            invalidation was false sharing.
        victim_hit: the block was recovered from the victim cache
            (counts as a hit; no bus operation).
        writeback: a dirty line displaced off-chip by a victim-cache
            swap, which the caller must write back.
    """

    hit: bool
    invalidation_miss: bool = False
    false_sharing: bool = False
    victim_hit: bool = False
    writeback: "EvictedLine | None" = None


@dataclass(frozen=True)
class EvictedLine:
    """A line displaced by a fill that the engine may need to write back."""

    block: int
    dirty: bool


# Enum members and the LRU key the fill path reads, as module globals.
_INVALID = LineState.INVALID
_MODIFIED = LineState.MODIFIED
_last_use = attrgetter("last_use")

#: Shared results: only a victim hit that displaces a dirty line builds one.
_HIT = LookupResult(hit=True)
_MISS = LookupResult(hit=False)
_TRUE_SHARING_MISS = LookupResult(hit=False, invalidation_miss=True)
_FALSE_SHARING_MISS = LookupResult(hit=False, invalidation_miss=True, false_sharing=True)
_VICTIM_HIT = LookupResult(hit=True, victim_hit=True)


class CoherentCache:
    """One CPU's data cache.

    Frames are created on first use: a set holds no way list until its
    first install, and no more frames than fills have needed, so an
    engine's construction allocates no per-set storage.

    Args:
        config: geometry/policy.
        protocol: coherence decision tables (shared across caches), read
            by the victim buffer's snoop.  The engine's bus-grant
            handlers apply snoops to the main array's frames directly.
    """

    def __init__(self, config: CacheConfig, protocol: IllinoisProtocol) -> None:
        self._assoc = config.associativity
        self._num_sets = config.num_sets
        self._set_mask = self._num_sets - 1
        self._block_shift = config.block_size.bit_length() - 1
        # frames[set][way], allocated lazily: a set grows by one frame
        # each time an install finds no invalid way while it is still
        # short of ``associativity``, so allocated ways are always a
        # prefix and a missing set or way is a never-filled INVALID frame.
        self._frames: dict[int, list[CacheFrame]] = {}
        # Fast tag -> frame map for snooping (avoids scanning sets).
        self._by_block: dict[int, CacheFrame] = {}
        self.victim = VictimCache(config.victim_cache_lines, protocol)

    # ---------------------------------------------------------------- lookup

    def lookup_demand(self, block: int, word_mask: int, now: int) -> LookupResult:
        """Classify a demand access to ``block`` (no state change on miss).

        ``word_mask`` is the word(s) this access touches, used by the
        false-sharing rule for invalidation misses.  On a hit the
        frame's LRU stamp is refreshed but the word-access bitmap is
        *not* updated here -- the engine records the access once it
        (including any upgrade) actually completes, keeping
        classification and completion atomic.
        """
        frame = self._by_block.get(block)
        if frame is not None:
            if frame.valid:
                frame.last_use = now
                return _HIT
            false_sharing = frame.miss_is_false_sharing(word_mask)
            return _FALSE_SHARING_MISS if false_sharing else _TRUE_SHARING_MISS
        recovered = self.victim.extract(block)
        if recovered is not None:
            state, words, remote_written = recovered
            # The swap stays on-chip (the displaced main-array line goes
            # into the victim buffer), but a dirty line pushed out of the
            # victim buffer by the swap must be written back.
            evicted = self.install(block, state, now)
            frame = self._by_block[block]
            frame.words_accessed = words
            frame.remote_written = remote_written
            if evicted is None:
                return _VICTIM_HIT
            return LookupResult(hit=True, victim_hit=True, writeback=evicted)
        masks = self.victim.take_invalidated(block)
        if masks is not None:
            accessed, remote_written = masks
            false_sharing = (remote_written & (accessed | word_mask)) == 0
            return _FALSE_SHARING_MISS if false_sharing else _TRUE_SHARING_MISS
        return _MISS

    def state_of(self, block: int) -> LineState:
        """Coherence state of ``block`` (INVALID when not present).

        Part of the read-only query surface the runtime sanitizer
        (:mod:`repro.audit`) sweeps after every bus grant and fill
        completion -- it must never mutate frame state or LRU order.
        """
        frame = self._by_block.get(block)
        if frame is None:
            return _INVALID
        return frame.state

    # ----------------------------------------------------------------- fills

    def install(self, block: int, state: LineState, now: int) -> EvictedLine | None:
        """Install ``block`` in ``state``; returns a line to write back.

        The returned :class:`EvictedLine` is non-None only when a *dirty*
        line was displaced all the way out of the cache (through the
        victim buffer if one exists); the engine turns it into a
        WRITEBACK bus operation.
        """
        set_idx = (block >> self._block_shift) & self._set_mask
        ways = self._frames.get(set_idx)
        writeback: EvictedLine | None = None
        if ways is None:
            target = CacheFrame()
            self._frames[set_idx] = [target]
        else:
            # Prefer the first invalid way, then a new way while the set
            # is short, then the LRU way: the choice a fully allocated set
            # would make, since its never-filled ways follow the filled
            # ones.
            for target in ways:
                if target.state is _INVALID:
                    break
            else:
                if len(ways) < self._assoc:
                    target = CacheFrame()
                    ways.append(target)
                else:
                    target = min(ways, key=_last_use)
            old = target.block
            if old >= 0:
                self._by_block.pop(old, None)
                old_state = target.state
                if old_state is not _INVALID:
                    victim = self.victim
                    if victim.capacity == 0:
                        if old_state is _MODIFIED:
                            writeback = EvictedLine(old, dirty=True)
                    else:
                        displaced = victim.insert(
                            old, old_state, target.words_accessed, target.remote_written
                        )
                        if displaced is not None:
                            writeback = EvictedLine(displaced[0], dirty=True)

        target.block = block
        target.state = state
        target.words_accessed = 0
        target.remote_written = 0
        target.last_use = now
        self._by_block[block] = target
        return writeback

    def install_poisoned(self, block: int, remote_written: int, now: int) -> EvictedLine | None:
        """Install a fill that was invalidated while in flight.

        The block arrives already INVALID (tag present, state invalid),
        so the next demand access classifies as an invalidation miss
        against the accumulated ``remote_written`` mask -- "prefetched
        data invalidated before use".  Returns a dirty victim to write
        back, as :meth:`install` does.
        """
        writeback = self.install(block, _INVALID, now)
        frame = self._by_block.get(block)
        if frame is not None:
            frame.remote_written = remote_written
        return writeback

    # ---------------------------------------------------------------- queries

    def resident_blocks(self) -> list[int]:
        """Blocks with valid copies in the main array.

        Used by tests, diagnostics, and the end-of-run audit sweep
        (:mod:`repro.audit`); read-only like :meth:`state_of`.
        """
        return sorted(b for b, f in self._by_block.items() if f.valid)
