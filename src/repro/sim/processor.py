"""Per-processor runtime state for the simulation engine."""

from __future__ import annotations

from enum import IntEnum

from repro.cache.coherent import CoherentCache
from repro.cache.mshr import MissStatusRegisters
from repro.metrics.results import CpuMetrics
from repro.trace.events import TraceEvent

__all__ = ["CpuStatus", "Processor"]


class CpuStatus(IntEnum):
    """What a processor is doing right now."""

    RUNNING = 0        # has (or is about to get) a scheduled step
    STALLED_FILL = 1   # blocked waiting for a fill to complete
    STALLED_UPGRADE = 2  # blocked waiting for an upgrade bus grant
    STALLED_PFBUF = 3  # blocked on a full prefetch buffer
    BLOCKED_LOCK = 4   # waiting for a lock
    BLOCKED_BARRIER = 5  # waiting at a barrier
    DONE = 6           # trace fully retired


class Processor:
    """Execution state of one simulated CPU.

    The engine drives the processor through its trace; all fields here
    are engine-internal.  An *access* (the ``acc_*`` fields) is the
    current memory operation in flight -- at most one per CPU, because
    demand accesses block and prefetches bypass this machinery.
    """

    __slots__ = (
        "cpu",
        "events",
        "pc",
        "gap_done",
        "status",
        "cache",
        "mshr",
        "metrics",
        # current access
        "in_access",
        "acc_block",
        "acc_write",
        "acc_sync",
        "acc_prefetched",
        "acc_word_mask",
        "acc_counted",
        "acc_cont",
        "acc_lock_id",
        "acc_start",
        "acc_missed",
        # waits
        "waiting_block",
        "block_started",
        "scheduled",
    )

    def __init__(
        self,
        cpu: int,
        events: list[TraceEvent],
        cache: CoherentCache,
        mshr: MissStatusRegisters,
    ) -> None:
        self.cpu = cpu
        self.events = events
        self.pc = 0
        self.gap_done = False
        self.status = CpuStatus.RUNNING
        self.cache = cache
        self.mshr = mshr
        self.metrics = CpuMetrics(cpu=cpu)

        self.in_access = False
        self.acc_block = 0
        self.acc_write = False
        self.acc_sync = False
        self.acc_prefetched = False
        self.acc_word_mask = 0
        self.acc_counted = False
        self.acc_cont = ""
        self.acc_lock_id = -1
        self.acc_start = 0
        self.acc_missed = False

        self.waiting_block = -1
        self.block_started = 0
        self.scheduled = False

    @property
    def done(self) -> bool:
        """True once the trace is fully retired."""
        return self.status is CpuStatus.DONE

    def begin_access(
        self,
        block: int,
        is_write: bool,
        word_mask: int,
        cont: str,
        now: int,
        sync: bool = False,
        prefetched: bool = False,
        lock_id: int = -1,
    ) -> None:
        """Set up the current access; the engine then attempts it."""
        self.in_access = True
        self.acc_block = block
        self.acc_write = is_write
        self.acc_sync = sync
        self.acc_prefetched = prefetched
        self.acc_word_mask = word_mask
        self.acc_counted = False
        self.acc_cont = cont
        self.acc_lock_id = lock_id
        self.acc_start = now
        self.acc_missed = False
