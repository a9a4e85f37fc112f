"""Bus transaction records.

A fill's transaction is also its MSHR entry:
:class:`~repro.cache.mshr.MissStatusRegisters` registers the record the
bus queues, and the engine writes the fill's coherence outcome onto it
at grant and in flight.
"""

from __future__ import annotations

from enum import IntEnum

from repro.coherence.protocol import LineState

__all__ = ["BusTransaction", "TransactionKind"]


class TransactionKind(IntEnum):
    """Kinds of bus transactions, mapped to coherence ops by the engine."""

    FILL = 0        # read fill (demand read miss or shared-mode prefetch)
    FILL_EX = 1     # exclusive fill (demand write miss or exclusive prefetch)
    UPGRADE = 2     # invalidate-others, no data transfer (write hit on SHARED)
    WRITEBACK = 3   # copy-back of a dirty victim


#: Read as a global in the constructor: reading an enum member off its
#: class costs about ten global reads on CPython 3.11.
_WRITEBACK = TransactionKind.WRITEBACK
_INVALID = LineState.INVALID

#: Arbitration tiers (lower is served first when demand priority is on):
#: demand fills/upgrades, then writebacks, then prefetches.
TIER_DEMAND = 0
TIER_WRITEBACK = 1
TIER_PREFETCH = 2


class BusTransaction:
    """One request queued at the bus; for a fill, also its MSHR entry.

    Attributes:
        cpu: requesting CPU (writebacks too).
        block: block address (fills/writebacks) or the written block
            (upgrades).
        kind: transaction kind.
        is_demand: True when a CPU is stalled waiting on this transaction.
        issue_time: engine time the request was made.
        eligible_time: earliest time the contended resource can serve it
            (issue time plus the uncontended latency portion).
        occupancy: contended-resource cycles consumed when granted.
        word_mask: for invalidating operations, the word(s) being written
            (false-sharing classification); 0 otherwise.
        grant_time / completion_time: set by the bus at grant (-1
            until then); a fill is *granted* once ``grant_time >= 0``.
        seq: FIFO tiebreaker within a priority class.
        tier: arbitration tier (lower first under demand priority),
            fixed by ``kind`` and ``is_demand``.
        fill_state: for a fill, the coherence state it lands in, decided
            at grant when the snoop results are known (INVALID until
            then).
        poisoned / poisoned_word_mask: for a granted fill, whether a
            remote invalidation hit it in flight, and the words those
            remote writes touched (for false-sharing classification of
            the eventual invalidation miss).
    """

    __slots__ = (
        "cpu",
        "block",
        "kind",
        "is_demand",
        "issue_time",
        "eligible_time",
        "occupancy",
        "word_mask",
        "grant_time",
        "completion_time",
        "seq",
        "tier",
        "fill_state",
        "poisoned",
        "poisoned_word_mask",
    )

    def __init__(
        self,
        cpu: int,
        block: int,
        kind: TransactionKind,
        is_demand: bool,
        issue_time: int,
        eligible_time: int,
        occupancy: int,
        word_mask: int = 0,
    ) -> None:
        self.cpu = cpu
        self.block = block
        self.kind = kind
        self.is_demand = is_demand
        self.issue_time = issue_time
        self.eligible_time = eligible_time
        self.occupancy = occupancy
        self.word_mask = word_mask
        self.grant_time = -1
        self.completion_time = -1
        self.seq = -1
        if kind is _WRITEBACK:
            self.tier = TIER_WRITEBACK
        else:
            self.tier = TIER_DEMAND if is_demand else TIER_PREFETCH
        self.fill_state = _INVALID
        self.poisoned = False
        self.poisoned_word_mask = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BusTransaction(cpu={self.cpu}, {self.kind.name}, block={self.block:#x}, "
            f"demand={self.is_demand}, t={self.issue_time})"
        )
