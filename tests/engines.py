"""Engine variants and helpers shared by the differential tests."""

from repro.bus.transaction import BusTransaction
from repro.coherence.protocol import BusOp
from repro.obs.sampler import _acc
from repro.sim.engine import SimulationEngine
from repro.sim.processor import CpuStatus


def snoop(
    engine: SimulationEngine, block: int, op: BusOp, word_mask: int, now: int = 0,
    by_cpu: int = 1,
) -> BusTransaction:
    """Snoop every cache but ``by_cpu``'s with a granted ``op`` on ``block``.

    The engine's own grant handler does it: ``_grant_fill`` for a READ
    or READ_EX, ``_grant_upgrade`` for an UPGRADE.  ``by_cpu`` must hold
    no copy of ``block``, so it only requests; its landing fill stays on
    the heap of this never-run engine, and a lost upgrade race leaves
    the CPU unscheduled.  Returns the granted transaction, whose
    ``fill_state`` tells a read whether another cache had a copy.
    """
    bus = engine.bus
    if op is BusOp.UPGRADE:
        txn = bus.make_upgrade(by_cpu, block, now, word_mask)
    else:
        txn = bus.make_fill(by_cpu, block, op is BusOp.READ_EX, True, now, word_mask)
    txn.grant_time = now
    txn.completion_time = now + txn.occupancy
    if op is BusOp.UPGRADE:
        proc = engine.procs[by_cpu]
        proc.status, proc.waiting_block = CpuStatus.STALLED_UPGRADE, block
        engine._grant_upgrade(txn, now)
        proc.scheduled = False
    else:
        engine._grant_fill(txn, now)
    return txn


class GenericPathEngine(SimulationEngine):
    """The engine with its fast path off.

    Every CPU event goes through the generic ``_dispatch`` /
    ``_try_access`` handlers, the reference the fast path must match bit
    for bit -- on results and on every observation tap.
    """

    _hit_streaks = False


class BusySliceEngine(GenericPathEngine):
    """A :class:`GenericPathEngine` that windows busy cycles on its own.

    The observer never sees a busy cycle: it places the cycles a CPU
    accrued since its last resumption after the CPU's open busy run.
    This engine is the reference for that placement, built from the busy
    counters alone.  With streaks off each heap pop runs one handler at
    ``self.now``, and the cycles a CPU accrues in it (a gap, a prefetch
    issue or one access) start at that time.  So after every handler
    the new cycles of each CPU are one slice from ``self.now``, split
    into ``busy_windows`` at the observer's window width.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._window = self.sim_config.observe_window
        self._seen = [0] * len(self.procs)
        self.busy_windows = [[] for _ in self.procs]

    def _record(self):
        for proc in self.procs:
            cpu = proc.cpu
            new = proc.metrics.busy_cycles - self._seen[cpu]
            if new:
                _acc(self.busy_windows[cpu], self._window, self.now, self.now + new)
                self._seen[cpu] += new

    def _dispatch(self, proc, now):
        super()._dispatch(proc, now)
        self._record()

    def _try_access(self, proc, now):
        super()._try_access(proc, now)
        self._record()

    def _arb_tick(self, now):
        super()._arb_tick(now)
        self._record()

    def _fill_done(self, proc, block, time):
        super()._fill_done(proc, block, time)
        self._record()

    def padded_busy_windows(self, num_windows):
        """``busy_windows`` padded to ``num_windows`` like the report's series."""
        return [series + [0] * (num_windows - len(series)) for series in self.busy_windows]
