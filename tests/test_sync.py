"""Unit tests for lock and barrier managers."""

import pytest

from repro.common.errors import SimulationError, TraceError
from repro.sim.sync import BarrierManager, LockManager


class TestLockManager:
    def test_acquire_free_lock(self):
        locks = LockManager()
        assert locks.try_acquire(0, cpu=1)
        assert not locks.try_acquire(0, cpu=2)

    def test_acquire_held_lock_fails(self):
        locks = LockManager()
        locks.try_acquire(0, cpu=1)
        assert not locks.try_acquire(0, cpu=2)

    def test_release_with_no_waiters(self):
        locks = LockManager()
        locks.try_acquire(0, cpu=1)
        assert locks.release(0, cpu=1) is None
        assert locks.try_acquire(0, cpu=2)

    def test_fifo_handoff_with_reservation(self):
        locks = LockManager()
        locks.try_acquire(0, cpu=1)
        locks.enqueue_waiter(0, cpu=2)
        locks.enqueue_waiter(0, cpu=3)
        assert locks.release(0, cpu=1) == 2
        # Reserved for CPU 2: a latecomer cannot barge.
        assert not locks.try_acquire(0, cpu=4)
        assert locks.try_acquire(0, cpu=2)
        assert locks.release(0, cpu=2) == 3
        assert locks.try_acquire(0, cpu=3)

    def test_release_unheld_is_error(self):
        locks = LockManager()
        with pytest.raises(SimulationError):
            locks.release(0, cpu=1)

    def test_waiting_on_own_lock_is_error(self):
        locks = LockManager()
        locks.try_acquire(0, cpu=1)
        with pytest.raises(SimulationError):
            locks.enqueue_waiter(0, cpu=1)

    def test_contention_counters(self):
        locks = LockManager()
        locks.try_acquire(0, cpu=1)
        locks.enqueue_waiter(0, cpu=2)
        assert locks.release(0, cpu=1) == 2
        assert not locks.try_acquire(0, cpu=3)
        assert locks.try_acquire(0, cpu=2)

    def test_independent_locks(self):
        locks = LockManager()
        assert locks.try_acquire(0, cpu=1)
        assert locks.try_acquire(1, cpu=2)


class TestBarrierManager:
    def test_last_arriver_wakes_blocked(self):
        barriers = BarrierManager(num_cpus=3)
        assert barriers.arrive(0, cpu=0) is None
        barriers.block(0, cpu=0)
        assert barriers.arrive(0, cpu=1) is None
        barriers.block(0, cpu=1)
        woken = barriers.arrive(0, cpu=2)
        assert sorted(woken) == [0, 1]

    def test_single_cpu_barrier_completes_immediately(self):
        barriers = BarrierManager(num_cpus=1)
        assert barriers.arrive(0, cpu=0) == []

    def test_double_arrival_is_error(self):
        barriers = BarrierManager(num_cpus=2)
        barriers.arrive(0, cpu=0)
        with pytest.raises(TraceError):
            barriers.arrive(0, cpu=0)

    def test_block_without_arriving_is_error(self):
        barriers = BarrierManager(num_cpus=2)
        with pytest.raises(SimulationError):
            barriers.block(0, cpu=0)

    def test_successive_barriers_independent(self):
        barriers = BarrierManager(num_cpus=2)
        barriers.arrive(0, cpu=0)
        barriers.block(0, cpu=0)
        barriers.arrive(0, cpu=1)
        assert barriers.arrive(1, cpu=1) is None
        barriers.block(1, cpu=1)
        assert barriers.arrive(1, cpu=0) == [1]
