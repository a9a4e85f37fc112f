"""A single cache block frame."""

from __future__ import annotations

from repro.coherence.protocol import LineState

__all__ = ["CacheFrame"]

# Read per lookup and per snoop: a module global is cheaper on CPython
# than a member read off its enum class.
_INVALID = LineState.INVALID


class CacheFrame:
    """One block frame: tag, coherence state, and classification metadata.

    :class:`~repro.cache.coherent.CoherentCache` creates a frame the
    first time a fill needs a new way of its set, and then refills that
    frame in place (it writes the fields below directly).

    Attributes:
        block: block (line) byte address currently tagged, or -1 if the
            frame has never been filled.
        state: Illinois coherence state.
        words_accessed: bitmask of 4-byte words the *local* CPU has
            demand-accessed since the block was filled.  This is the
            paper's false-sharing bookkeeping.
        remote_written: bitmask of words written by other processors
            since this copy was invalidated (the invalidating write plus
            every subsequent remote write observed by the trace-driven
            engine).  At the eventual invalidation *miss*, the miss is
            *true* sharing iff the remote writes touched a word this CPU
            accessed before losing the line (or the word it is accessing
            now); otherwise it is false sharing -- the word-granularity
            rule of section 4.4, applied with the full trace knowledge a
            trace-driven simulator has.
        last_use: engine timestamp of the most recent access (LRU within
            a set for associative configurations).
    """

    __slots__ = (
        "block",
        "state",
        "words_accessed",
        "remote_written",
        "last_use",
    )

    def __init__(self) -> None:
        self.block = -1
        self.state = _INVALID
        self.words_accessed = 0
        self.remote_written = 0
        self.last_use = 0

    @property
    def valid(self) -> bool:
        """True when the frame holds a usable copy."""
        return self.state is not _INVALID

    def miss_is_false_sharing(self, current_access_mask: int) -> bool:
        """Classify the invalidation miss happening now on this frame.

        True sharing iff any remote write since invalidation touched a
        word this CPU had accessed or is accessing now.
        """
        relevant = self.words_accessed | current_access_mask
        return (self.remote_written & relevant) == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheFrame(block={self.block:#x}, state={self.state.name})"
