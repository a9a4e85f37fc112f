"""Trace event types.

Events are deliberately ``__slots__`` classes rather than dataclasses:
traces contain hundreds of thousands of events per CPU and both memory
footprint and attribute-access speed matter in the inner simulation loop.

The instruction stream is not traced (the paper models only the data
cache); instead each event records ``gap``, the number of instruction
cycles the CPU executes before performing the event.  The paper's CPU
model is one cycle per instruction plus one cycle per data access, so
simulated CPU time advances by ``gap`` and then by the access time.
"""

from __future__ import annotations

from repro.common.errors import TraceError

__all__ = [
    "Barrier",
    "LockAcquire",
    "LockRelease",
    "MemRef",
    "Prefetch",
    "TraceEvent",
]


class TraceEvent:
    """Base class for all trace events.

    Attributes:
        gap: instruction cycles executed before this event.
    """

    __slots__ = ("gap",)

    def __init__(self, gap: int = 0) -> None:
        if gap < 0:
            raise TraceError(f"event gap must be non-negative, got {gap}")
        self.gap = gap


class MemRef(TraceEvent):
    """A demand data reference (load or store).

    Attributes:
        addr: byte address.
        is_write: True for a store.
        size: access width in bytes (used for word-level false-sharing
            tracking; defaults to one 4-byte word).
        shared: True if the reference targets shared data (set by the
            workload layout; used by analysis and the PWS filter, not by
            the cache itself).
        prefetched: marked by the insertion pass when a prefetch covering
            this reference was inserted; consumed by the miss classifier
            to split misses into prefetched / not-prefetched.
    """

    __slots__ = ("addr", "is_write", "size", "shared", "prefetched")

    def __init__(
        self,
        addr: int,
        is_write: bool = False,
        gap: int = 0,
        size: int = 4,
        shared: bool = False,
    ) -> None:
        # TraceEvent's gap check inlined: one call per reference, not two.
        if gap < 0:
            raise TraceError(f"event gap must be non-negative, got {gap}")
        if addr < 0:
            raise TraceError(f"address must be non-negative, got {addr}")
        if size < 1:
            raise TraceError(f"access size must be >= 1, got {size}")
        self.gap = gap
        self.addr = addr
        self.is_write = is_write
        self.size = size
        self.shared = shared
        self.prefetched = False

    def marked(self) -> "MemRef":
        """A copy of this reference with ``prefetched`` set."""
        clone = MemRef(self.addr, self.is_write, self.gap, self.size, self.shared)
        clone.prefetched = True
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        mark = "*" if self.prefetched else ""
        return f"MemRef({kind} {self.addr:#x} gap={self.gap}{mark})"


class Prefetch(TraceEvent):
    """A software prefetch instruction inserted by the insertion pass.

    Attributes:
        addr: byte address being prefetched (the target reference's
            address; the cache operates on its block).
        exclusive: True to fetch in exclusive (private) mode -- the EXCL
            strategy uses this for expected write misses.
    """

    __slots__ = ("addr", "exclusive")

    def __init__(self, addr: int, exclusive: bool = False, gap: int = 0) -> None:
        if gap < 0:
            raise TraceError(f"event gap must be non-negative, got {gap}")
        if addr < 0:
            raise TraceError(f"address must be non-negative, got {addr}")
        self.gap = gap
        self.addr = addr
        self.exclusive = exclusive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "X" if self.exclusive else "S"
        return f"Prefetch({mode} {self.addr:#x} gap={self.gap})"


class LockAcquire(TraceEvent):
    """Acquire a lock.

    The simulator serialises acquires of the same ``lock_id`` in
    simulation-time order (a legal interleaving, per Charlie's design:
    processors "vie for locks and may not acquire them in the same order
    as the traced run").  ``addr`` is the lock word's shared address; the
    acquire performs a read-modify-write there, so lock traffic
    contributes coherence activity like any other write-shared datum.
    """

    __slots__ = ("lock_id", "addr")

    def __init__(self, lock_id: int, addr: int, gap: int = 0) -> None:
        super().__init__(gap)
        self.lock_id = lock_id
        self.addr = addr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LockAcquire(id={self.lock_id} gap={self.gap})"


class LockRelease(TraceEvent):
    """Release a lock previously acquired by the same CPU (a store)."""

    __slots__ = ("lock_id", "addr")

    def __init__(self, lock_id: int, addr: int, gap: int = 0) -> None:
        super().__init__(gap)
        self.lock_id = lock_id
        self.addr = addr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LockRelease(id={self.lock_id} gap={self.gap})"


class Barrier(TraceEvent):
    """A global barrier: the CPU blocks until every CPU has arrived.

    Attributes:
        barrier_id: distinguishes successive barriers for validation.
        addr: shared address of the barrier counter (arrival performs a
            read-modify-write there).
    """

    __slots__ = ("barrier_id", "addr")

    def __init__(self, barrier_id: int, addr: int, gap: int = 0) -> None:
        super().__init__(gap)
        self.barrier_id = barrier_id
        self.addr = addr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Barrier(id={self.barrier_id} gap={self.gap})"
