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

# The kinds a transaction is built with, read as globals: reading an enum
# member off its class costs about ten global reads on CPython 3.11.
_FILL = TransactionKind.FILL
_FILL_EX = TransactionKind.FILL_EX
_UPGRADE = TransactionKind.UPGRADE
_WRITEBACK = TransactionKind.WRITEBACK


class Bus:
    """The contended memory resource shared by all CPUs.

    Args:
        config: timing parameters.
        num_cpus: processor count (round-robin modulus).
    """

    def __init__(self, config: BusConfig, num_cpus: int) -> None:
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
        self._last_granted_cpu = num_cpus - 1
        self._seq = 0
        #: ``_service_order[last]``: every queue in grant order after CPU
        #: ``last`` -- tier by tier, round-robin within a tier (demand
        #: priority); without it, per CPU in round-robin order the tuple
        #: of that CPU's tier queues.
        rr_orders = [
            [(last + 1 + i) % num_cpus for i in range(num_cpus)] for last in range(num_cpus)
        ]
        queues = self._queues
        if config.demand_priority:
            self._service_order = [
                tuple(tier[cpu] for tier in queues for cpu in order) for order in rr_orders
            ]
        else:
            self._service_order = [
                tuple(tuple(tier[cpu] for tier in queues) for cpu in order) for order in rr_orders
            ]
        # BusConfig derives these on every read; a transaction is built
        # per miss, so they are read once here.
        self._contention_free = config.contention_free
        self._demand_priority = config.demand_priority
        self._fill_delay = config.uncontended_cycles
        self._fill_occupancy = config.transfer_cycles
        self._upgrade_delay = max(0, config.upgrade_latency - config.upgrade_occupancy)
        self._upgrade_occupancy = config.upgrade_occupancy
        self._writeback_occupancy = config.effective_writeback_occupancy
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
        return BusTransaction(
            cpu,
            block,
            _FILL_EX if exclusive else _FILL,
            is_demand,
            now,
            now + self._fill_delay,
            self._fill_occupancy,
            word_mask,
        )

    def make_upgrade(self, cpu: int, block: int, now: int, word_mask: int) -> BusTransaction:
        """Build an upgrade (invalidate-others) transaction."""
        return BusTransaction(
            cpu,
            block,
            _UPGRADE,
            True,
            now,
            now + self._upgrade_delay,
            self._upgrade_occupancy,
            word_mask,
        )

    def make_writeback(self, cpu: int, block: int, now: int) -> BusTransaction:
        """Build a copy-back transaction for a dirty victim."""
        return BusTransaction(
            cpu=cpu,
            block=block,
            kind=_WRITEBACK,
            is_demand=False,
            issue_time=now,
            eligible_time=now + 1,
            occupancy=self._writeback_occupancy,
        )

    # ----------------------------------------------------------- arbitration

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
        if self._contention_free:
            return max(now, earliest_eligible)
        return max(now, self.free_at, earliest_eligible)

    def arbitrate(self, now: int) -> BusTransaction | None:
        """Grant one transaction at time ``now`` if possible.

        Returns the granted transaction with ``grant_time`` and
        ``completion_time`` filled in, or ``None`` when the bus is busy
        or nothing is eligible yet.  With demand priority the winner is
        the first eligible head by tier, then by round-robin CPU order;
        without it, the first CPU in round-robin order with an eligible
        head, taking its lowest-``seq`` one.
        """
        pending = self._pending
        if not pending:
            return None
        contention_free = self._contention_free
        if not contention_free and now < self.free_at:
            return None
        service_order = self._service_order[self._last_granted_cpu]
        if self._demand_priority:
            for queue in service_order:
                if queue and queue[0].eligible_time <= now:
                    break
            else:
                return None
        else:
            for tiers in service_order:
                queue = None
                for candidate in tiers:
                    if candidate and candidate[0].eligible_time <= now and (
                        queue is None or candidate[0].seq < queue[0].seq
                    ):
                        queue = candidate
                if queue is not None:
                    break
            else:
                return None
        chosen = queue.popleft()
        del pending[chosen.seq]
        occupancy = chosen.occupancy
        chosen.grant_time = now
        chosen.completion_time = done = now + occupancy
        if contention_free:
            # Unlimited bandwidth: transactions overlap freely; free_at
            # only tracks the last completion for end-of-run accounting.
            if done > self.free_at:
                self.free_at = done
        else:
            self.free_at = done
        self._last_granted_cpu = chosen.cpu
        stats = self.stats
        stats.busy_cycles += occupancy
        stats.ops_by_kind[chosen.kind] += 1
        if chosen.is_demand:
            stats.demand_ops += 1
        else:
            stats.prefetch_ops += 1
        wait = now - chosen.eligible_time
        if wait < 0:  # pragma: no cover - only eligible heads are granted
            raise SimulationError("transaction granted before it was eligible")
        stats.total_wait_cycles += wait
        if self.observer is not None:
            self.observer.on_bus_grant(chosen, len(pending))
        return chosen
