"""Lock and barrier semantics for the simulation engine.

The managers hold pure synchronization state; all timing (when a blocked
CPU resumes) is the engine's business.  Lock handoff is FIFO with a
reservation: when a holder releases, the head waiter is *reserved* the
lock, so a third CPU arriving between release and the waiter's wake-up
cannot barge ahead (this keeps handoff fair and the simulation free of
spurious starvation).
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import SimulationError, TraceError

__all__ = ["BarrierManager", "LockManager"]


class _Lock:
    __slots__ = ("holder", "waiters", "reserved_for")

    def __init__(self) -> None:
        self.holder: int | None = None
        self.waiters: deque[int] = deque()
        self.reserved_for: int | None = None


class LockManager:
    """All locks of one simulation run, keyed by lock id."""

    def __init__(self) -> None:
        self._locks: dict[int, _Lock] = {}

    def _lock(self, lock_id: int) -> _Lock:
        lock = self._locks.get(lock_id)
        if lock is None:
            lock = _Lock()
            self._locks[lock_id] = lock
        return lock

    def try_acquire(self, lock_id: int, cpu: int) -> bool:
        """Attempt to take the lock; True on success.

        Fails when the lock is held, or reserved for a different waiter.
        """
        lock = self._lock(lock_id)
        if lock.holder is not None:
            return False
        if lock.reserved_for is not None and lock.reserved_for != cpu:
            return False
        lock.holder = cpu
        lock.reserved_for = None
        return True

    def enqueue_waiter(self, lock_id: int, cpu: int) -> None:
        """Register ``cpu`` as blocked on the lock (FIFO order)."""
        lock = self._lock(lock_id)
        if cpu == lock.holder:
            raise SimulationError(f"cpu {cpu} waiting on lock {lock_id} it already holds")
        lock.waiters.append(cpu)

    def release(self, lock_id: int, cpu: int) -> int | None:
        """Release the lock; returns the CPU to wake (reserved), if any."""
        lock = self._locks.get(lock_id)
        if lock is None or lock.holder != cpu:
            raise SimulationError(f"cpu {cpu} releasing lock {lock_id} it does not hold")
        lock.holder = None
        if lock.waiters:
            waiter = lock.waiters.popleft()
            lock.reserved_for = waiter
            return waiter
        return None


class _Barrier:
    __slots__ = ("arrived", "blocked")

    def __init__(self) -> None:
        self.arrived: set[int] = set()
        self.blocked: list[int] = []


class BarrierManager:
    """Global sense-reversing barriers, keyed by barrier id.

    Every barrier involves all ``num_cpus`` processors (the trace
    validator enforces identical barrier sequences per CPU).
    """

    def __init__(self, num_cpus: int) -> None:
        self.num_cpus = num_cpus
        self._barriers: dict[int, _Barrier] = {}

    def arrive(self, barrier_id: int, cpu: int) -> list[int] | None:
        """Record arrival.

        Returns the list of CPUs to wake if this arrival completes the
        barrier (the arriving CPU is *not* in the list -- it never
        blocked), else None (the caller must block the CPU via
        :meth:`block`).
        """
        barrier = self._barriers.setdefault(barrier_id, _Barrier())
        if cpu in barrier.arrived:
            raise TraceError(f"cpu {cpu} arrived twice at barrier {barrier_id}")
        barrier.arrived.add(cpu)
        if len(barrier.arrived) == self.num_cpus:
            woken = list(barrier.blocked)
            del self._barriers[barrier_id]
            return woken
        return None

    def block(self, barrier_id: int, cpu: int) -> None:
        """Mark ``cpu`` as blocked at the barrier (after arriving)."""
        barrier = self._barriers.get(barrier_id)
        if barrier is None or cpu not in barrier.arrived:
            raise SimulationError(f"cpu {cpu} blocking on barrier {barrier_id} without arriving")
        barrier.blocked.append(cpu)
