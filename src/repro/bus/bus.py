"""Bus scheduling: queuing, arbitration, occupancy accounting.

The bus serves one transaction at a time.  A transaction issued at time
``t`` becomes *eligible* at ``t + uncontended_latency`` (the address/
memory-lookup phase runs off the contended resource); from then on it
competes in arbitration.  When the bus is free at time ``g`` it grants,
among transactions with ``eligible_time <= g``:

1. the lowest priority tier (demand > writeback > prefetch, when
   ``demand_priority`` is set -- the paper's round-robin scheme "favors
   blocking loads over prefetches");
2. within a tier, round-robin over CPUs starting after the last granted
   CPU;
3. per CPU, FIFO by issue order.

Grant decisions are made by the *engine* popping arbitration events in
global time order, which guarantees every request issued before ``g`` is
already queued -- see :mod:`repro.sim.engine`.

The queue is one FIFO per (tier, CPU), so a grant costs O(CPUs), not
O(queue length).  This is exact because of a per-queue invariant:
within one (tier, CPU) queue, ``eligible_time`` never decreases as
issue order rises.  Each kind's eligibility is its issue time plus a
constant, engine time is monotone, and a CPU has at most one demand
transaction queued (demand fills and upgrades stall it).  So a queue's
head is its only candidate: if the head is not eligible, nothing behind
it is, and if it is, nothing behind it has a lower ``seq``.  Walking the
tiers in order and the CPUs in round-robin order, the first eligible
head is exactly the linear scan's ``min(eligible, key=(tier,
rr_distance, seq))``.  :meth:`Bus.request` enforces the invariant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush

from repro.bus.transaction import TIER_PREFETCH, BusTransaction, TransactionKind
from repro.common.codec import FieldTable
from repro.common.config import BusConfig
from repro.common.errors import SimulationError

__all__ = ["Bus", "BusStats"]


@dataclass
class BusStats:
    """Occupancy and operation counts for one simulation run.

    Attributes:
        busy_cycles: cycles the contended resource was occupied.
        ops_by_kind: transaction counts per :class:`TransactionKind`.
        demand_ops / prefetch_ops: counts by arbitration class.
        total_wait_cycles: summed (grant - eligible) over transactions,
            i.e. pure queuing delay caused by contention.
    """

    busy_cycles: int = 0
    ops_by_kind: dict[TransactionKind, int] = field(
        default_factory=partial(dict.fromkeys, TransactionKind, 0)
    )
    demand_ops: int = 0
    prefetch_ops: int = 0
    total_wait_cycles: int = 0

    @property
    def total_ops(self) -> int:
        """All granted bus operations."""
        return sum(self.ops_by_kind.values())

    def utilization(self, total_cycles: int) -> float:
        """Fraction of ``total_cycles`` the bus was busy."""
        return self.busy_cycles / total_cycles if total_cycles else 0.0

    def to_dict(self) -> dict:
        """JSON-safe dict; ``ops_by_kind`` keyed by kind *name*."""
        data = _BUS_FIELDS.encode(self)
        data["ops_by_kind"] = {kind.name: n for kind, n in self.ops_by_kind.items()}
        return data

    def to_row(self) -> list:
        """Positional form; ``ops_by_kind`` nested as a row in kind order."""
        row = _BUS_FIELDS.row(self)
        ops = self.ops_by_kind
        row[_OPS_AT] = [ops[kind] for kind in _KINDS]
        return row

    @classmethod
    def from_dict(cls, data: dict | list) -> "BusStats":
        """Exact inverse of :meth:`to_dict` and :meth:`to_row`; ValueError
        unless ``data`` and its ``ops_by_kind`` carry exactly this
        version's names (or, as rows, their counts)."""
        stats = cls(*_BUS_FIELDS.decode(data))
        stats.ops_by_kind = dict(zip(_KINDS, _KIND_FIELDS.decode(stats.ops_by_kind)))
        return stats


#: The field tables of :class:`BusStats` and of its ``ops_by_kind`` map
#: (kinds in declaration order; iterating the enum class itself is slow).
_BUS_FIELDS = FieldTable.of(BusStats)
_KINDS = tuple(TransactionKind)
_KIND_FIELDS = FieldTable("ops_by_kind", [kind.name for kind in _KINDS])
_OPS_AT = _BUS_FIELDS.names.index("ops_by_kind")


class Bus:
    """The contended memory resource shared by all CPUs.

    Args:
        config: timing parameters.
        num_cpus: processor count (round-robin modulus).
    """

    def __init__(self, config: BusConfig, num_cpus: int) -> None:
        self.config = config
        self.num_cpus = num_cpus
        self.free_at = 0
        self.stats = BusStats()
        #: Queued transactions by ``seq``: issue order, and the queue depth.
        self._pending: dict[int, BusTransaction] = {}
        #: ``_queues[tier][cpu]``: FIFO of that CPU's queued transactions
        #: in that arbitration tier (tiers are numbered in service order;
        #: see the module docstring).
        self._queues: tuple[list[deque[BusTransaction]], ...] = tuple(
            [deque() for _ in range(num_cpus)] for _ in range(TIER_PREFETCH + 1)
        )
        #: Min-heap of ``(eligible_time, seq)``; granted entries are
        #: dropped lazily when they reach the top.
        self._eligible: list[tuple[int, int]] = []
        #: ``_rr_order[last]``: CPUs in round-robin order after ``last``.
        self._rr_order = [
            tuple((last + 1 + i) % num_cpus for i in range(num_cpus))
            for last in range(num_cpus)
        ]
        self._last_granted_cpu = num_cpus - 1
        self._seq = 0
        #: Optional observability tap (:class:`repro.obs.taps.EngineObserver`);
        #: set by the engine when ``SimulationConfig.observe`` is on.
        #: Read-only with respect to bus state.
        self.observer = None

    # -------------------------------------------------------------- requests

    def request(self, txn: BusTransaction) -> None:
        """Queue a transaction (eligible_time must already be set).

        Raises :class:`SimulationError` if ``txn`` would become eligible
        before the tail of its (tier, CPU) queue, which would break the
        FIFO arbitration invariant (see the module docstring).
        """
        tier = txn.tier
        queue = self._queues[tier][txn.cpu]
        if queue and queue[-1].eligible_time > txn.eligible_time:
            raise SimulationError(
                f"cpu {txn.cpu} {txn.kind.name} eligible at {txn.eligible_time}, "
                f"before its tier-{tier} queue tail at {queue[-1].eligible_time}"
            )
        txn.seq = seq = self._seq
        self._seq = seq + 1
        queue.append(txn)
        self._pending[seq] = txn
        heappush(self._eligible, (txn.eligible_time, seq))
        if self.observer is not None:
            self.observer.on_bus_request(txn, len(self._pending))

    def make_fill(
        self, cpu: int, block: int, exclusive: bool, is_demand: bool, now: int, word_mask: int = 0
    ) -> BusTransaction:
        """Build (not queue) a fill transaction issued at ``now``."""
        kind = TransactionKind.FILL_EX if exclusive else TransactionKind.FILL
        return BusTransaction(
            cpu=cpu,
            block=block,
            kind=kind,
            is_demand=is_demand,
            issue_time=now,
            eligible_time=now + self.config.uncontended_cycles,
            occupancy=self.config.transfer_cycles,
            word_mask=word_mask,
        )

    def make_upgrade(self, cpu: int, block: int, now: int, word_mask: int) -> BusTransaction:
        """Build an upgrade (invalidate-others) transaction."""
        uncontended = max(0, self.config.upgrade_latency - self.config.upgrade_occupancy)
        return BusTransaction(
            cpu=cpu,
            block=block,
            kind=TransactionKind.UPGRADE,
            is_demand=True,
            issue_time=now,
            eligible_time=now + uncontended,
            occupancy=self.config.upgrade_occupancy,
            word_mask=word_mask,
        )

    def make_writeback(self, cpu: int, block: int, now: int) -> BusTransaction:
        """Build a copy-back transaction for a dirty victim."""
        return BusTransaction(
            cpu=cpu,
            block=block,
            kind=TransactionKind.WRITEBACK,
            is_demand=False,
            issue_time=now,
            eligible_time=now + 1,
            occupancy=self.config.effective_writeback_occupancy,
        )

    # ----------------------------------------------------------- arbitration

    @property
    def has_pending(self) -> bool:
        """True when transactions are queued."""
        return bool(self._pending)

    def pending_snapshot(self) -> tuple[BusTransaction, ...]:
        """The queued (not yet granted) transactions, in issue order.

        Read-only view for diagnostics and the audit layer; mutating the
        returned transactions is not supported.
        """
        return tuple(self._pending.values())

    def next_arbitration_time(self, now: int) -> int | None:
        """Earliest time a grant decision could be made, or None if idle."""
        pending = self._pending
        if not pending:
            return None
        heap = self._eligible
        while heap[0][1] not in pending:
            heappop(heap)
        earliest_eligible = heap[0][0]
        if self.config.contention_free:
            return max(now, earliest_eligible)
        return max(now, self.free_at, earliest_eligible)

    def arbitrate(self, now: int) -> BusTransaction | None:
        """Grant one transaction at time ``now`` if possible.

        Returns the granted transaction with ``grant_time`` and
        ``completion_time`` filled in, or ``None`` when the bus is busy
        or nothing is eligible yet.
        """
        if not self._pending:
            return None
        if not self.config.contention_free and now < self.free_at:
            return None
        chosen = self._choose(now)
        if chosen is None:
            return None
        del self._pending[chosen.seq]
        chosen.grant_time = now
        chosen.completion_time = now + chosen.occupancy
        if self.config.contention_free:
            # Unlimited bandwidth: transactions overlap freely; free_at
            # only tracks the last completion for end-of-run accounting.
            self.free_at = max(self.free_at, chosen.completion_time)
        else:
            self.free_at = chosen.completion_time
        self._last_granted_cpu = chosen.cpu
        self._account(chosen)
        if self.observer is not None:
            self.observer.on_bus_grant(chosen, len(self._pending))
        return chosen

    def _choose(self, now: int) -> BusTransaction | None:
        """Dequeue the winner among eligible queue heads, or None.

        With demand priority: the first eligible head by tier, then by
        round-robin CPU order.  Without it: the first CPU in round-robin
        order with an eligible head, taking its lowest-``seq`` one.
        """
        order = self._rr_order[self._last_granted_cpu]
        if self.config.demand_priority:
            for queues in self._queues:
                for cpu in order:
                    queue = queues[cpu]
                    if queue and queue[0].eligible_time <= now:
                        return queue.popleft()
            return None
        for cpu in order:
            best: deque[BusTransaction] | None = None
            for queues in self._queues:
                queue = queues[cpu]
                if queue and queue[0].eligible_time <= now and (
                    best is None or queue[0].seq < best[0].seq
                ):
                    best = queue
            if best is not None:
                return best.popleft()
        return None

    def _account(self, txn: BusTransaction) -> None:
        self.stats.busy_cycles += txn.occupancy
        self.stats.ops_by_kind[txn.kind] += 1
        if txn.is_demand:
            self.stats.demand_ops += 1
        else:
            self.stats.prefetch_ops += 1
        wait = txn.grant_time - txn.eligible_time
        if wait < 0:
            raise SimulationError("transaction granted before it was eligible")
        self.stats.total_wait_cycles += wait
