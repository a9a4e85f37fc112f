"""The event-driven multiprocessor simulation engine.

The engine processes three kinds of events in global time order off a
single heap:

* **CPU steps** -- a processor dispatches its next trace event, or
  re-attempts the access it was stalled on;
* **bus arbitration** -- the bus grants one eligible transaction
  (round-robin, demand priority), at which point snoops are applied to
  every other cache (and to granted in-flight fills, which get poisoned
  by remote invalidations);
* **fill completions** -- data arrives, the block is installed, dirty
  victims are queued for write-back, and stalled CPUs resume.

Timing model (paper section 3.3): one cycle per instruction plus one per
data access on hits; a miss costs the unloaded 100-cycle latency, of
which only the data-transfer slice occupies the contended bus, plus any
queuing delay.  Demand misses block the CPU; prefetches proceed through
the 16-deep lockup-free prefetch buffer.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heappushpop

from repro.audit.sanitizer import EngineAuditor
from repro.bus.bus import Bus
from repro.bus.transaction import BusTransaction, TransactionKind
from repro.cache.coherent import CoherentCache
from repro.cache.mshr import MissStatusRegisters
from repro.coherence.protocol import BusOp, IllinoisProtocol, LineState, MSIProtocol
from repro.common.addressing import word_mask_for
from repro.common.config import MachineConfig, SimulationConfig
from repro.common.errors import SimulationError
from repro.metrics.results import RunMetrics
from repro.obs.taps import EngineObserver
from repro.prefetch.adaptive import AdaptiveConfig, BusUtilizationThrottle
from repro.sim.processor import CpuStatus, Processor
from repro.sim.sync import BarrierManager, LockManager
from repro.trace.events import Barrier, LockAcquire, LockRelease, MemRef, Prefetch
from repro.trace.stream import MultiTrace

__all__ = ["ENGINE_VERSION", "SimulationEngine", "simulate"]

#: Bumped whenever a change alters *simulated behavior* (cycle counts,
#: miss classification, event ordering).  Pure-speed changes that keep
#: results bit-identical must NOT bump it: the tag is part of the disk
#: result-cache key (:mod:`repro.perf.diskcache`), so bumping it
#: invalidates every cached simulation result.
ENGINE_VERSION = "2"

# Event kinds on the heap (ordering within a timestamp is by push sequence).
_EV_CPU = 0
_EV_ARB = 1
_EV_FILLDONE = 2

#: Extra cycles charged for swapping a line in from the victim cache.
_VICTIM_SWAP_CYCLES = 1

# Enum members the per-event handlers read.  On CPython 3.11 reading a
# member off its class costs about as much as ten global reads.
_INVALID = LineState.INVALID
_SHARED = LineState.SHARED
_PRIVATE = LineState.PRIVATE
_MODIFIED = LineState.MODIFIED
_READ = BusOp.READ
_READ_EX = BusOp.READ_EX
_UPGRADE_OP = BusOp.UPGRADE
_FILL_EX = TransactionKind.FILL_EX
_UPGRADE = TransactionKind.UPGRADE
_WRITEBACK = TransactionKind.WRITEBACK
_RUNNING = CpuStatus.RUNNING
_STALLED_FILL = CpuStatus.STALLED_FILL
_STALLED_UPGRADE = CpuStatus.STALLED_UPGRADE


def simulate(
    trace: MultiTrace,
    machine: MachineConfig,
    strategy_name: str = "NP",
    sim_config: SimulationConfig | None = None,
    adaptive: AdaptiveConfig | None = None,
) -> RunMetrics:
    """Run ``trace`` on ``machine`` and return the collected metrics.

    ``strategy_name`` is a label stored in the result (the trace itself
    already carries the inserted prefetches).  ``adaptive`` arms the
    bandwidth-feedback prefetch throttle (ADAPT); pass
    ``strategy.adaptive_config()``, which is None for every open-loop
    strategy.
    """
    engine = SimulationEngine(
        trace, machine, sim_config or SimulationConfig(), adaptive=adaptive
    )
    engine.run()
    return engine.collect_metrics(strategy_name)


class SimulationEngine:
    """One simulation run's mutable state.  See module docstring."""

    #: Retire streaks inline in :meth:`run`, and a stalled access on
    #: its landed fill in :meth:`_fill_done`.  Only test subclasses set
    #: it False, to drive every CPU event and every such completion
    #: through the generic ``_dispatch`` / ``_try_access`` handlers the
    #: fast path must match bit for bit.
    _hit_streaks = True

    def __init__(
        self,
        trace: MultiTrace,
        machine: MachineConfig,
        sim_config: SimulationConfig,
        adaptive: AdaptiveConfig | None = None,
    ) -> None:
        if trace.num_cpus != machine.num_cpus:
            raise SimulationError(
                f"trace has {trace.num_cpus} CPUs but the machine has {machine.num_cpus}"
            )
        self.trace = trace
        self.machine = machine
        self.sim_config = sim_config
        self.protocol = MSIProtocol() if machine.protocol == "msi" else IllinoisProtocol()
        self.bus = Bus(machine.bus, machine.num_cpus)
        self.locks = LockManager()
        self.barriers = BarrierManager(machine.num_cpus)

        self.procs: list[Processor] = []
        for cpu_trace in trace:
            cache = CoherentCache(machine.cache, self.protocol, cpu_trace.cpu)
            mshr = MissStatusRegisters(machine.prefetch.buffer_depth)
            self.procs.append(Processor(cpu_trace.cpu, cpu_trace.events, cache, mshr))

        self._heap: list[tuple[int, int, int, int, int]] = []
        self._seq = 0
        self._arb_time: int | None = None
        self._pfbuf_waiters: deque[int] = deque()
        self._done_count = 0
        self.now = 0
        #: (cpu, event-index) of every classified demand miss, recorded
        #: when sim_config.record_miss_indices is set (oracle support).
        self.miss_indices: list[tuple[int, int]] = []
        self._record_misses = sim_config.record_miss_indices
        self._block_mask = ~(machine.cache.block_size - 1)
        self._block_size = machine.cache.block_size
        self._offset_mask = machine.cache.block_size - 1
        self._issue_cost = machine.prefetch.issue_cost
        #: needs_upgrade[state] per LineState value, precomputed so the
        #: fast path avoids a protocol method call per write hit.
        self._needs_upgrade = tuple(
            state.is_valid and self.protocol.write_hit_needs_upgrade(state)
            for state in LineState
        )
        #: Every cache but cpu i's, as ``(tag map, victim buffer or
        #: None)``, for the remote-write classifier loop.
        self._remote_tags = [
            tuple(
                (p.cache._by_block, p.cache.victim if p.cache.victim.capacity else None)
                for p in self.procs
                if p.cpu != i
            )
            for i in range(machine.num_cpus)
        ]
        #: Every CPU but cpu i, as ``(cpu, cache, tag map, MSHRs)`` for
        #: the snoop fan-out at bus grants.
        self._remotes = [
            tuple(
                (p.cpu, p.cache, p.cache._by_block, p.mshr)
                for p in self.procs
                if p.cpu != i
            )
            for i in range(machine.num_cpus)
        ]
        #: A victim buffer may hold a copy the tag map does not show, so
        #: with one every remote cache is snooped.
        self._has_victim = machine.cache.victim_cache_lines > 0
        self._contention_free = machine.bus.contention_free
        #: The protocol's snoop decisions as ``_snoop_actions[op][state]``
        #: and its fill states as ``[others_have_copy]``, read by the
        #: grant handlers in place of a method call per cache.
        self._snoop_actions = tuple(
            tuple(self.protocol.snoop(state, op) for state in LineState) for op in BusOp
        )
        self._read_fill_state = tuple(
            self.protocol.fill_state(BusOp.READ, have) for have in (False, True)
        )
        self._read_ex_fill_state = tuple(
            self.protocol.fill_state(BusOp.READ_EX, have) for have in (False, True)
        )
        #: Flag-gated sanitizer (None when disabled; all hook sites are
        #: ``if audit is not None`` branches, so the disabled engine
        #: stays on its original code paths and results are identical).
        self._audit: EngineAuditor | None = (
            EngineAuditor(self) if sim_config.audit else None
        )
        #: Flag-gated observability taps (None when disabled).  Like the
        #: auditor, every hook site is an ``if self._obs is not None``
        #: branch.  Observed runs take the hit-streak fast path too, and
        #: no tap fires for a busy cycle: the observer hears where a CPU
        #: resumes after a stall and reads its busy counter.
        self._obs: EngineObserver | None = (
            EngineObserver(self) if sim_config.observe else None
        )
        #: The observer's per-CPU sets of prefetched blocks not used yet
        #: (None unless it classifies prefetch efficacy): every access
        #: cycle tests its block against them.
        self._unused_prefetches: list[set[int]] | None = None
        if self._obs is not None:
            self.bus.observer = self._obs
            self._unused_prefetches = self._obs.unused_prefetches
        #: Flag-gated ADAPT feedback controller (None for every open-loop
        #: strategy).  Same discipline as the auditor/observer: the only
        #: hook site is an ``if self._throttle is not None`` branch at
        #: prefetch dispatch, so NP/PREF/EXCL/LPD/PWS runs never leave
        #: their original code paths and stay bit-identical.
        self._throttle: BusUtilizationThrottle | None = (
            BusUtilizationThrottle(adaptive, self.bus.stats)
            if adaptive is not None
            else None
        )

    # ------------------------------------------------------------- main loop

    def run(self) -> None:
        """Execute the whole trace; raises on deadlock or runaway clocks.

        The CPU-event handler is inlined here as a *hit-streak fast path*:
        a CPU whose next event time is strictly earlier than the heap
        head (``heap[0][0]``) would be popped next with nothing in
        between, so its gaps, cache-hit ``MemRef`` events and prefetch
        squashes, hits and issues retire right in the loop -- no
        ``_schedule_cpu`` heappush, no ``begin_access`` bookkeeping, no
        ``lookup_demand`` call.  A streak also ends in the loop, with
        the CPU stalled, on

        * a demand miss (the line absent or INVALID, no fill in flight):
          classified, its MSHR fill started, queued at the bus;
        * a demand access to a block with a fill in flight (a merge,
          counted as ``prefetch_in_progress`` when the fill is a
          prefetch);
        * a write hit on a line that needs an UPGRADE, queued at the bus.

        It hands the CPU to the generic ``_dispatch`` / ``_try_access``
        handlers on a lock or barrier event, on every prefetch under
        ADAPT's throttle, on a prefetch meeting a full prefetch buffer,
        and, with victim buffers, on any miss or prefetch whose line is
        not valid in the main array (a parked copy may serve it).  It
        hands the CPU back to the heap when the continuation time is
        not strictly earlier than the heap head (a same/earlier-
        timestamped foreign event exists).

        Side effects on the inline path replicate the generic handlers
        bit for bit, taps included (``on_prefetch``, ``on_mshr_start``
        and the bus's ``on_bus_request``, in the generic order), and the
        strict ``< heap[0][0]`` guard preserves the global event order
        (ties run in push order, and a deferred push lands exactly where
        the generic push would -- the continuation is handed to
        ``heappushpop``, which is push-then-pop fused into one sift), so
        simulated behavior -- cycle counts, coherence traffic,
        classification -- is identical to the pure-heap engine.

        Observed runs take the fast path as well.  No tap fires for a
        busy cycle: the streak's busy cycles follow the CPU's last
        resumption, which the handlers that end a stall report.  A hit
        only tests its block against the observer's unused prefetches
        (when it keeps them), as the generic hit does.
        """
        for proc in self.procs:
            self._push(_EV_CPU, 0, proc.cpu, 0)
            proc.scheduled = True

        heap = self._heap
        procs = self.procs
        max_cycles = self.sim_config.max_cycles
        block_mask = self._block_mask
        block_size = self._block_size
        offset_mask = self._offset_mask
        needs_upgrade = self._needs_upgrade
        issue_cost = self._issue_cost
        invalid = _INVALID
        modified = _MODIFIED
        stalled_fill = _STALLED_FILL
        stalled_upgrade = _STALLED_UPGRADE
        make_fill = self.bus.make_fill
        make_upgrade = self.bus.make_upgrade
        request = self.bus.request
        schedule_arb = self._schedule_arb
        record_misses = self._record_misses
        miss_indices = self.miss_indices
        # A miss may find a copy parked in a victim buffer, and ADAPT's
        # throttle decides per prefetch: those stay generic.
        inline_misses = not self._has_victim
        inline_prefetches = self._throttle is None
        # Per-CPU hot context: one list index + tuple unpack per popped
        # CPU event instead of nine attribute chains.  The third entry
        # bounds the events a streak may retire inline; with streaks off
        # it is 0, which hands every CPU event to the generic handlers.
        streaks = self._hit_streaks
        unused_prefetches = self._unused_prefetches
        ctx = [
            (
                proc,
                proc.events,
                len(proc.events) if streaks else 0,
                proc.metrics,
                proc.mshr,
                proc.mshr._fills,
                proc.cache._by_block,
                self._remote_tags[proc.cpu],
                None if unused_prefetches is None else unused_prefetches[proc.cpu],
            )
            for proc in procs
        ]
        audit = self._audit
        obs = self._obs
        pending: tuple[int, int, int, int, int] | None = None
        while True:
            if pending is not None:
                item = heappushpop(heap, pending)
                pending = None
            elif heap:
                item = heappop(heap)
            else:
                break
            if audit is not None:
                audit.on_pop(item)
            time, _, kind, a, b = item
            if time > max_cycles:
                raise SimulationError(
                    f"simulated clock exceeded max_cycles={max_cycles}; likely a deadlock bug"
                )
            self.now = time
            if kind != _EV_CPU:
                if kind == _EV_ARB:
                    self._arb_tick(time)
                else:  # _EV_FILLDONE
                    self._fill_done(procs[a], b, time)
                continue
            proc, events, num_events, metrics, mshr, mshr_fills, by_block, remote_tags, unused = ctx[a]
            proc.scheduled = False
            now = time
            while True:  # ---------------- hit-streak fast path ----------------
                if proc.in_access:
                    self._try_access(proc, now)
                    break
                pc = proc.pc
                if pc >= num_events:
                    self._dispatch(proc, now)  # retires the CPU; any event, streaks off
                    break
                event = events[pc]
                if not proc.gap_done and event.gap > 0:
                    gap = event.gap
                    proc.gap_done = True
                    metrics.busy_cycles += gap
                    t = now + gap
                    if heap and heap[0][0] <= t:
                        # Deferred push == what _schedule_cpu would do;
                        # handed to heappushpop at the top of the loop.
                        proc.scheduled = True
                        self._seq = seq = self._seq + 1
                        pending = (t, seq, _EV_CPU, a, 0)
                        break
                    if t > max_cycles:
                        raise SimulationError(
                            f"simulated clock exceeded max_cycles={max_cycles}; "
                            f"likely a deadlock bug"
                        )
                    now = t
                    self.now = t
                etype = type(event)
                if etype is MemRef:
                    addr = event.addr
                    block = addr & block_mask
                    size = event.size
                    # Inlined _word_mask.
                    if (addr & 3) + size <= 4:
                        mask = 1 << ((addr & offset_mask) >> 2)
                    else:
                        mask = word_mask_for(addr, size, block_size)
                    is_write = event.is_write
                    frame = by_block.get(block)
                    if frame is None or frame.state is invalid or block in mshr_fills:
                        # _try_access's miss or merge: stall on a fill.
                        in_flight = mshr_fills.get(block)
                        if in_flight is None and not inline_misses:
                            # Nothing has been touched yet: exact hand-off.
                            self._dispatch(proc, now)
                            break
                        proc.gap_done = True
                        proc.begin_access(
                            addr, block, is_write, mask, "retire", now,
                            False, event.shared, event.prefetched,
                        )
                        proc.acc_counted = True
                        if in_flight is not None:
                            # Merging with our own demand fill cannot
                            # happen: demand accesses are serialized.
                            if in_flight.is_prefetch:
                                metrics.misses.prefetch_in_progress += 1
                                if obs is not None:
                                    obs.on_prefetch(a, "merge", block, now)
                        else:
                            # Inlined lookup_demand + _classify_miss.
                            if record_misses:
                                miss_indices.append((a, pc))
                            m = metrics.misses
                            if frame is None:
                                if event.prefetched:
                                    m.nonsharing_prefetched += 1
                                else:
                                    m.nonsharing_unprefetched += 1
                            elif frame.remote_written & (frame.words_accessed | mask):
                                if event.prefetched:
                                    m.inval_true_prefetched += 1
                                else:
                                    m.inval_true_unprefetched += 1
                            elif event.prefetched:
                                m.inval_false_prefetched += 1
                            else:
                                m.inval_false_unprefetched += 1
                            fill = mshr.start(block, False, is_write, mask, now)
                            if obs is not None:
                                obs.on_mshr_start(a, fill, now)
                            request(make_fill(a, block, is_write, True, now, mask if is_write else 0))
                            schedule_arb()
                        proc.status = stalled_fill
                        proc.waiting_block = block
                        proc.acc_missed = True
                        break
                    if is_write and needs_upgrade[frame.state]:
                        # _try_access's write hit on SHARED: stall on an
                        # UPGRADE (the lookup refreshes the LRU stamp).
                        proc.gap_done = True
                        proc.begin_access(
                            addr, block, True, mask, "retire", now,
                            False, event.shared, event.prefetched,
                        )
                        frame.last_use = now
                        metrics.upgrades += 1
                        request(make_upgrade(a, block, now, mask))
                        schedule_arb()
                        proc.status = stalled_upgrade
                        proc.waiting_block = block
                        proc.acc_missed = True
                        break
                    # Plain hit: replicate lookup_demand + record_access +
                    # _complete_access("retire") for the hit case.
                    if is_write:
                        frame.state = modified
                        for rtags, rvictim in remote_tags:
                            # Inlined _note_remote_write.
                            rframe = rtags.get(block)
                            if rframe is not None:
                                if rframe.state is invalid:
                                    rframe.remote_written |= mask
                            elif rvictim is not None:
                                rvictim.note_remote_write(block, mask)
                    frame.words_accessed |= mask
                    frame.filled_by_prefetch = False
                    frame.last_use = now
                    metrics.busy_cycles += 1
                    metrics.demand_refs += 1
                    if unused is not None and block in unused:
                        obs.on_prefetch_used(a, block)
                    t = now + 1
                elif etype is Prefetch and inline_prefetches:
                    # _dispatch_prefetch's squash, hit and issue.
                    addr = event.addr
                    block = addr & block_mask
                    if block in mshr_fills:
                        # A fill for this block is already in flight; squash.
                        metrics.prefetches_issued += 1
                        metrics.prefetch_squashed += 1
                        metrics.busy_cycles += issue_cost
                        if obs is not None:
                            obs.on_prefetch(a, "squash", block, now)
                    else:
                        frame = by_block.get(block)
                        if frame is not None and frame.state is not invalid:
                            metrics.prefetches_issued += 1
                            metrics.prefetch_hits += 1
                            metrics.busy_cycles += issue_cost
                            if obs is not None:
                                obs.on_prefetch(a, "hit", block, now)
                        elif (
                            not inline_misses
                            or mshr._prefetches_in_flight >= mshr.prefetch_buffer_depth
                        ):
                            # A copy parked in a victim buffer would be a
                            # hit; a full buffer stalls the CPU.
                            self._dispatch(proc, now)
                            break
                        else:
                            metrics.prefetches_issued += 1
                            metrics.prefetch_fills += 1
                            metrics.busy_cycles += issue_cost
                            # Inlined _word_mask(addr, 4).
                            if addr & 3:
                                intended = word_mask_for(addr, 4, block_size)
                            else:
                                intended = 1 << ((addr & offset_mask) >> 2)
                            exclusive = event.exclusive
                            fill = mshr.start(block, True, exclusive, intended, now)
                            if obs is not None:
                                obs.on_prefetch(a, "issue", block, now)
                                obs.on_mshr_start(a, fill, now)
                            request(
                                make_fill(
                                    a, block, exclusive, False, now, intended if exclusive else 0
                                )
                            )
                            schedule_arb()
                    t = now + issue_cost
                else:
                    # Locks, barriers, and every prefetch under ADAPT.
                    self._dispatch(proc, now)
                    break
                # The event retired (_retire): continue the streak at t.
                proc.pc = pc + 1
                proc.gap_done = False
                if heap and heap[0][0] <= t:
                    proc.scheduled = True
                    self._seq = seq = self._seq + 1
                    pending = (t, seq, _EV_CPU, a, 0)
                    break
                if t > max_cycles:
                    raise SimulationError(
                        f"simulated clock exceeded max_cycles={max_cycles}; "
                        f"likely a deadlock bug"
                    )
                now = t
                self.now = t

        if self._done_count != len(self.procs):
            states = {p.cpu: p.status.name for p in self.procs if not p.done}
            raise SimulationError(f"simulation deadlocked; waiting CPUs: {states}")

    def collect_metrics(self, strategy_name: str) -> RunMetrics:
        """Assemble the :class:`RunMetrics` after :meth:`run` finished.

        Detaches the finalized observer and auditor: they point back at
        the engine, which would otherwise wait for the cyclic GC.
        """
        exec_cycles = max(
            max((p.metrics.finish_time for p in self.procs), default=0), self.bus.free_at
        )
        for proc in self.procs:
            m = proc.metrics
            m.stall_cycles = max(
                0, m.finish_time - m.busy_cycles - m.sync_wait_cycles
            )
        metrics = RunMetrics(
            workload=self.trace.name,
            strategy=strategy_name,
            machine=self.machine.describe(),
            exec_cycles=exec_cycles,
            per_cpu=[p.metrics for p in self.procs],
            bus=self.bus.stats,
            # Conservation identities check the derived stall cycles, so
            # finalize must run after the loop above.
            audit=self._audit.finalize() if self._audit is not None else None,
            obs=self._obs.finalize(exec_cycles) if self._obs is not None else None,
        )
        self._audit = self._obs = self.bus.observer = self._unused_prefetches = None
        return metrics

    # ------------------------------------------------------------ heap utils

    def _push(self, kind: int, time: int, a: int, b: int) -> None:
        self._seq += 1
        heappush(self._heap, (time, self._seq, kind, a, b))

    def _schedule_cpu(self, proc: Processor, time: int) -> None:
        if proc.scheduled:
            raise SimulationError(f"cpu {proc.cpu} double-scheduled")
        proc.scheduled = True
        proc.status = _RUNNING
        self._push(_EV_CPU, time, proc.cpu, 0)

    def _word_mask(self, addr: int, size: int) -> int:
        """:func:`word_mask_for`; an access inside one word sets one bit."""
        if (addr & 3) + size <= 4:
            return 1 << ((addr & self._offset_mask) >> 2)
        return word_mask_for(addr, size, self._block_size)

    def _schedule_arb(self) -> None:
        arb_time = self._arb_time
        if arb_time is not None:
            # No arbitration can come before ``now`` nor, on a contended
            # bus, before the current grant ends; a live one due by then
            # already is the earliest.
            bound = self.now
            if not self._contention_free and self.bus.free_at > bound:
                bound = self.bus.free_at
            if arb_time <= bound:
                return
        t = self.bus.next_arbitration_time(self.now)
        if t is None:
            return
        if self._arb_time is None or t < self._arb_time:
            # At most one *live* arbitration event exists; an event made
            # stale by this earlier one dies silently in _arb_tick
            # (matched against _arb_time), so events cannot multiply.
            self._arb_time = t
            self._push(_EV_ARB, t, 0, 0)

    # -------------------------------------------------------------- CPU side

    def _dispatch(self, proc: Processor, now: int) -> None:
        events = proc.events
        if proc.pc >= len(events):
            proc.status = CpuStatus.DONE
            proc.metrics.finish_time = now
            self._done_count += 1
            return
        event = events[proc.pc]

        if not proc.gap_done and event.gap > 0:
            proc.gap_done = True
            proc.metrics.busy_cycles += event.gap
            self._schedule_cpu(proc, now + event.gap)
            return
        proc.gap_done = True  # gap (possibly zero) consumed

        etype = type(event)
        if etype is MemRef:
            proc.begin_access(
                addr=event.addr,
                block=event.addr & self._block_mask,
                is_write=event.is_write,
                word_mask=self._word_mask(event.addr, event.size),
                cont="retire",
                now=now,
                sync=False,
                shared=event.shared,
                prefetched=event.prefetched,
            )
            self._try_access(proc, now)
        elif etype is Prefetch:
            self._dispatch_prefetch(proc, event, now)
        elif etype is LockAcquire:
            if self.locks.try_acquire(event.lock_id, proc.cpu):
                proc.begin_access(
                    addr=event.addr,
                    block=event.addr & self._block_mask,
                    is_write=True,
                    word_mask=self._word_mask(event.addr, 4),
                    cont="retire",
                    now=now,
                    sync=True,
                )
                self._try_access(proc, now)
            else:
                self.locks.enqueue_waiter(event.lock_id, proc.cpu)
                proc.status = CpuStatus.BLOCKED_LOCK
                proc.block_started = now
        elif etype is LockRelease:
            proc.begin_access(
                addr=event.addr,
                block=event.addr & self._block_mask,
                is_write=True,
                word_mask=self._word_mask(event.addr, 4),
                cont="release",
                now=now,
                sync=True,
                lock_id=event.lock_id,
            )
            self._try_access(proc, now)
        elif etype is Barrier:
            proc.begin_access(
                addr=event.addr,
                block=event.addr & self._block_mask,
                is_write=True,
                word_mask=self._word_mask(event.addr, 4),
                cont="barrier",
                now=now,
                sync=True,
                lock_id=event.barrier_id,
            )
            self._try_access(proc, now)
        else:  # pragma: no cover - trace validation prevents this
            raise SimulationError(f"cpu {proc.cpu}: unknown event type {etype.__name__}")

    def _dispatch_prefetch(self, proc: Processor, event: Prefetch, now: int) -> None:
        block = event.addr & self._block_mask
        metrics = proc.metrics
        obs = self._obs
        throttle = self._throttle
        if throttle is not None and not throttle.should_issue(now):
            # ADAPT backoff: the windowed bus-utilization estimate is
            # above the watermark, so shed this prefetch.  The
            # instruction still retires in one cycle (like a squash) but
            # no cache probe and no bus transaction happen.
            metrics.prefetches_issued += 1
            metrics.prefetch_dropped += 1
            metrics.busy_cycles += self._issue_cost
            if obs is not None:
                obs.on_prefetch(proc.cpu, "drop", block, now)
            self._retire(proc, now + self._issue_cost)
            return
        if proc.mshr.lookup(block) is not None:
            # A fill for this block is already in flight; squash.
            metrics.prefetches_issued += 1
            metrics.prefetch_squashed += 1
            metrics.busy_cycles += self._issue_cost
            if obs is not None:
                obs.on_prefetch(proc.cpu, "squash", block, now)
            self._retire(proc, now + self._issue_cost)
            return
        if proc.cache.lookup_prefetch(block):
            metrics.prefetches_issued += 1
            metrics.prefetch_hits += 1
            metrics.busy_cycles += self._issue_cost
            if obs is not None:
                obs.on_prefetch(proc.cpu, "hit", block, now)
            self._retire(proc, now + self._issue_cost)
            return
        if proc.mshr.prefetch_buffer_full:
            metrics.prefetch_buffer_stalls += 1
            proc.status = CpuStatus.STALLED_PFBUF
            self._pfbuf_waiters.append(proc.cpu)
            if obs is not None:
                obs.on_prefetch(proc.cpu, "buffer-stall", block, now)
            return
        metrics.prefetches_issued += 1
        metrics.prefetch_fills += 1
        metrics.busy_cycles += self._issue_cost
        intended = self._word_mask(event.addr, 4)
        fill = proc.mshr.start(
            block,
            is_prefetch=True,
            exclusive=event.exclusive,
            intended_word_mask=intended,
            now=now,
        )
        if obs is not None:
            obs.on_prefetch(proc.cpu, "issue", block, now)
            obs.on_mshr_start(proc.cpu, fill, now)
        txn = self.bus.make_fill(
            proc.cpu,
            block,
            exclusive=event.exclusive,
            is_demand=False,
            now=now,
            word_mask=intended if event.exclusive else 0,
        )
        self.bus.request(txn)
        self._schedule_arb()
        self._retire(proc, now + self._issue_cost)

    def _retire(self, proc: Processor, time: int) -> None:
        """Advance past the current event and schedule the next step."""
        proc.pc += 1
        proc.gap_done = False
        self._schedule_cpu(proc, time)

    # ---------------------------------------------------------- access logic

    def _try_access(self, proc: Processor, now: int) -> None:
        """Attempt the processor's current access at time ``now``.

        Either completes it (running the continuation) or leaves the CPU
        stalled on a fill / upgrade; stalled accesses are re-attempted
        when the engine wakes the CPU.
        """
        block = proc.acc_block
        metrics = proc.metrics

        in_flight = proc.mshr.lookup(block)
        if in_flight is not None:
            if not proc.acc_counted:
                proc.acc_counted = True
                if proc.acc_sync:
                    metrics.sync_misses += 1
                elif in_flight.is_prefetch:
                    metrics.misses.prefetch_in_progress += 1
                    if self._obs is not None:
                        self._obs.on_prefetch(proc.cpu, "merge", block, now)
                # else: merging with our own demand fill cannot happen --
                # demand accesses are serialized per CPU.
            proc.status = CpuStatus.STALLED_FILL
            proc.waiting_block = block
            proc.acc_missed = True
            return

        result = proc.cache.lookup_demand(block, proc.acc_word_mask, now)
        if result.writeback is not None:
            metrics.writebacks += 1
            wb = self.bus.make_writeback(proc.cpu, result.writeback.block, now)
            self.bus.request(wb)
            self._schedule_arb()
        if result.hit:
            if result.victim_hit:
                metrics.victim_hits += 1
            state = proc.cache.state_of(block)
            if proc.acc_write and self.protocol.write_hit_needs_upgrade(state):
                metrics.upgrades += 1
                txn = self.bus.make_upgrade(proc.cpu, block, now, proc.acc_word_mask)
                self.bus.request(txn)
                self._schedule_arb()
                proc.status = CpuStatus.STALLED_UPGRADE
                proc.waiting_block = block
                proc.acc_missed = True
                return
            if proc.acc_write:
                proc.cache.set_state(block, LineState.MODIFIED)
                if not proc.acc_sync:
                    self._note_remote_write(proc.cpu, block, proc.acc_word_mask)
            proc.cache.record_access(block, proc.acc_word_mask, now)
            cost = 1 + (_VICTIM_SWAP_CYCLES if result.victim_hit else 0)
            metrics.busy_cycles += cost
            unused = self._unused_prefetches
            if unused is not None and block in unused[proc.cpu]:
                self._obs.on_prefetch_used(proc.cpu, block)
            self._complete_access(proc, now + cost)
            return

        # Miss: classify (once per access), then fetch.
        if not proc.acc_counted:
            proc.acc_counted = True
            self._classify_miss(proc, result.invalidation_miss, result.false_sharing)
        fill = proc.mshr.start(
            block,
            is_prefetch=False,
            exclusive=proc.acc_write,
            intended_word_mask=proc.acc_word_mask,
            now=now,
        )
        if self._obs is not None:
            self._obs.on_mshr_start(proc.cpu, fill, now)
        txn = self.bus.make_fill(
            proc.cpu,
            block,
            exclusive=proc.acc_write,
            is_demand=True,
            now=now,
            word_mask=proc.acc_word_mask if proc.acc_write else 0,
        )
        self.bus.request(txn)
        self._schedule_arb()
        proc.status = CpuStatus.STALLED_FILL
        proc.waiting_block = block
        proc.acc_missed = True

    def _classify_miss(self, proc: Processor, invalidation: bool, false_sharing: bool) -> None:
        metrics = proc.metrics
        if proc.acc_sync:
            metrics.sync_misses += 1
            return
        if self._record_misses:
            self.miss_indices.append((proc.cpu, proc.pc))
        m = metrics.misses
        prefetched = proc.acc_prefetched
        if invalidation:
            if false_sharing:
                if prefetched:
                    m.inval_false_prefetched += 1
                else:
                    m.inval_false_unprefetched += 1
            else:
                if prefetched:
                    m.inval_true_prefetched += 1
                else:
                    m.inval_true_unprefetched += 1
        else:
            if prefetched:
                m.nonsharing_prefetched += 1
            else:
                m.nonsharing_unprefetched += 1

    def _complete_access(self, proc: Processor, time: int) -> None:
        """Run the access continuation at ``time`` and step the CPU."""
        if self._audit is not None:
            self._audit.on_access_complete(proc)
        obs = self._obs
        if obs is not None and proc.acc_missed:
            obs.on_miss_stall(proc.cpu, proc.acc_block, proc.acc_start, time, proc.acc_sync)
        cont = proc.acc_cont
        metrics = proc.metrics
        if proc.acc_sync:
            metrics.sync_refs += 1
        else:
            metrics.demand_refs += 1
            if proc.acc_missed:
                # Everything beyond the one-cycle hit access is time the
                # CPU waited on the memory subsystem for this miss.
                metrics.miss_wait_cycles += max(0, time - proc.acc_start - 1)
        if cont == "retire":
            proc.end_access()
            self._retire(proc, time)
        elif cont == "release":
            lock_id = proc.acc_lock_id
            proc.end_access()
            waiter = self.locks.release(lock_id, proc.cpu)
            if waiter is not None:
                wproc = self.procs[waiter]
                if obs is not None:
                    obs.on_sync_wait(waiter, wproc.block_started, time, "lock-wait", lock_id)
                wproc.metrics.sync_wait_cycles += time - wproc.block_started
                self._schedule_cpu(wproc, time)
            self._retire(proc, time)
        elif cont == "barrier":
            barrier_id = proc.acc_lock_id
            proc.end_access()
            woken = self.barriers.arrive(barrier_id, proc.cpu)
            if woken is None:
                proc.pc += 1
                proc.gap_done = False
                proc.status = CpuStatus.BLOCKED_BARRIER
                proc.block_started = time
                self.barriers.block(barrier_id, proc.cpu)
            else:
                for cpu in woken:
                    wproc = self.procs[cpu]
                    if obs is not None:
                        obs.on_sync_wait(
                            cpu, wproc.block_started, time, "barrier-wait", barrier_id
                        )
                    wproc.metrics.sync_wait_cycles += time - wproc.block_started
                    self._schedule_cpu(wproc, time)
                self._retire(proc, time)
        else:  # pragma: no cover
            raise SimulationError(f"unknown access continuation {cont!r}")

    # --------------------------------------------------------------- bus side

    def _arb_tick(self, now: int) -> None:
        if self._arb_time != now:
            return  # stale event superseded by an earlier reschedule
        self._arb_time = None
        txn = self.bus.arbitrate(now)
        if txn is not None:
            kind = txn.kind
            if kind is _UPGRADE:
                self._grant_upgrade(txn, now)
            elif kind is _WRITEBACK:
                pass  # occupancy accounted by the bus; no coherence effects
            else:
                self._grant_fill(txn, now)
            if self._audit is not None:
                self._audit.after_grant(txn)
        self._schedule_arb()

    def _grant_fill(self, txn: BusTransaction, now: int) -> None:
        cpu = txn.cpu
        block = txn.block
        fill = self.procs[cpu].mshr._fills.get(block)
        if fill is None:  # pragma: no cover - engine invariant
            raise SimulationError(f"granted fill with no MSHR entry: {txn!r}")
        fill.granted = True
        fill.completion_time = done = txn.completion_time

        exclusive = txn.kind is _FILL_EX
        op = _READ_EX if exclusive else _READ
        actions = self._snoop_actions[op]
        word_mask = txn.word_mask
        obs = self._obs
        snoop_all = self._has_victim
        invalid = _INVALID
        others_have = False
        for other, cache, by_block, mshr in self._remotes[cpu]:
            if snoop_all:
                had, _supplied = cache.snoop(block, op, word_mask)
            else:
                # CoherentCache.snoop for a cache with no victim buffer:
                # only a valid frame reacts.
                frame = by_block.get(block)
                had = frame is not None and frame.state is not invalid
                if had:
                    action = actions[frame.state]
                    if action.invalidated:
                        frame.remote_written = word_mask
                    frame.state = action.new_state
            if had:
                others_have = True
                if obs is not None:
                    obs.on_snoop(
                        other, cpu, block, now, "invalidate" if exclusive else "downgrade"
                    )
            remote_fill = mshr._fills.get(block)
            if remote_fill is not None and remote_fill.granted and not remote_fill.poisoned:
                others_have = True
                if exclusive:
                    if mshr.snoop_invalidate(block, word_mask) and obs is not None:
                        obs.on_snoop(other, cpu, block, now, "poison")
                elif remote_fill.fill_state.is_exclusive:
                    # A read serialized behind a concurrent exclusive
                    # fill: both copies land SHARED.  For an in-flight
                    # PRIVATE read fill that is the two-readers rule;
                    # for an in-flight MODIFIED write fill it mirrors
                    # the installed-MODIFIED snoop (Illinois dirty
                    # transfer, memory updated in the same transaction).
                    # Only reachable with contention_free=True -- a
                    # contended bus serializes fills completely.
                    remote_fill.fill_state = _SHARED

        if not exclusive:
            fill.fill_state = self._read_fill_state[others_have]
        elif fill.is_prefetch:
            # Exclusive prefetch: the block arrives clean but exclusive
            # (Illinois private state); the eventual write hits silently.
            fill.fill_state = _PRIVATE
        else:
            fill.fill_state = self._read_ex_fill_state[others_have]

        self._seq = seq = self._seq + 1
        heappush(self._heap, (done, seq, _EV_FILLDONE, cpu, block))

    def _grant_upgrade(self, txn: BusTransaction, now: int) -> None:
        cpu = txn.cpu
        block = txn.block
        word_mask = txn.word_mask
        obs = self._obs
        snoop_all = self._has_victim
        invalid = _INVALID
        actions = self._snoop_actions[_UPGRADE_OP]
        for other, cache, by_block, mshr in self._remotes[cpu]:
            if snoop_all:
                had, _supplied = cache.snoop(block, _UPGRADE_OP, word_mask)
            else:
                # CoherentCache.snoop for a cache with no victim buffer.
                frame = by_block.get(block)
                had = frame is not None and frame.state is not invalid
                if had:
                    action = actions[frame.state]
                    if action.invalidated:
                        frame.remote_written = word_mask
                    frame.state = action.new_state
            if had and obs is not None:
                obs.on_snoop(other, cpu, block, now, "invalidate")
            # A granted fill is poisoned, as by
            # MissStatusRegisters.snoop_invalidate (the words accumulate).
            remote_fill = mshr._fills.get(block)
            if remote_fill is not None and remote_fill.granted:
                remote_fill.poisoned = True
                remote_fill.poisoned_word_mask |= word_mask
                if obs is not None:
                    obs.on_snoop(other, cpu, block, now, "poison")

        proc = self.procs[cpu]
        if proc.status is not _STALLED_UPGRADE or proc.waiting_block != block:
            raise SimulationError(f"upgrade granted for cpu {cpu} not waiting on it")

        done = txn.completion_time
        frame = proc.cache._by_block.get(block)
        if frame is not None and frame.state is not invalid:
            # The write completes: the line turns MODIFIED and records
            # the access.
            mask = proc.acc_word_mask
            frame.state = _MODIFIED
            if not proc.acc_sync:
                self._note_remote_write(cpu, block, mask)
            frame.words_accessed |= mask
            frame.filled_by_prefetch = False
            frame.last_use = now
            # The access cycle falls at the grant; the CPU runs on from
            # the upgrade's completion.
            if obs is not None:
                obs.on_resume(cpu, now)
            proc.metrics.busy_cycles += 1
            if obs is not None:
                obs.on_resume(cpu, done)
                unused = self._unused_prefetches
                if unused is not None and block in unused[cpu]:
                    obs.on_prefetch_used(cpu, block)
            proc.waiting_block = -1
            proc.status = _RUNNING
            self._complete_access(proc, done)
        else:
            # Raced: a remote invalidation beat the upgrade.  Re-attempt
            # the access; it will classify as an invalidation miss and
            # issue a full exclusive fill.  (No resumption to observe:
            # the CPU stalls again before its next busy cycle.)
            proc.waiting_block = -1
            self._schedule_cpu(proc, done)

    def _note_remote_write(self, cpu: int, block: int, mask: int) -> None:
        """Report a completed demand write by ``cpu`` to every other
        cache's false-sharing bookkeeping (trace-driven: even silent
        write hits are visible to the classifier, as in Charlie).

        :meth:`CoherentCache.note_remote_write` per cache, in one loop:
        an invalidated copy accumulates the written words, and a block
        absent from the main array may sit invalidated in a victim
        buffer.
        """
        for by_block, victim in self._remote_tags[cpu]:
            frame = by_block.get(block)
            if frame is not None:
                if frame.state is _INVALID:
                    frame.remote_written |= mask
            elif victim is not None:
                victim.note_remote_write(block, mask)

    def _fill_done(self, proc: Processor, block: int, time: int) -> None:
        fill = proc.mshr.finish(block)
        obs = self._obs
        if obs is not None:
            obs.on_mshr_finish(proc.cpu, fill, time)
        cache = proc.cache
        if fill.poisoned:
            writeback = cache.install_poisoned(block, fill.poisoned_word_mask, time)
        else:
            writeback = cache._install(block, fill.fill_state, fill.is_prefetch, time)
        if writeback is not None:
            proc.metrics.writebacks += 1
            wb = self.bus.make_writeback(proc.cpu, writeback.block, time)
            self.bus.request(wb)
            self._schedule_arb()

        if fill.is_prefetch and self._pfbuf_waiters:
            waiter = self._pfbuf_waiters.popleft()
            if obs is not None:
                obs.on_resume(waiter, time)
            self._schedule_cpu(self.procs[waiter], time)

        if proc.status is _STALLED_FILL and proc.waiting_block == block:
            proc.waiting_block = -1
            proc.status = _RUNNING
            if obs is not None:
                obs.on_resume(proc.cpu, time)
            if fill.poisoned:
                # The fill was invalidated in flight, but the stalled
                # access still completes: hardware forwards the critical
                # word to the CPU as the fill arrives.  The line itself
                # stays INVALID in the cache.
                proc.metrics.busy_cycles += 1
                unused = self._unused_prefetches
                if unused is not None and block in unused[proc.cpu]:
                    obs.on_prefetch_used(proc.cpu, block)
                cache.record_access(block, proc.acc_word_mask, time)
                if proc.acc_write and not proc.acc_sync:
                    self._note_remote_write(proc.cpu, block, proc.acc_word_mask)
                self._complete_access(proc, time + 1)
            elif (
                self._hit_streaks
                and proc.acc_cont == "retire"
                and not proc.acc_sync
                and not (proc.acc_write and self._needs_upgrade[fill.fill_state])
            ):
                # The access hits the line just installed: _try_access's
                # hit and _complete_access's "retire", flattened.  It
                # completes *inline*, before any same-timestamp bus grant
                # can snoop the line away.
                self._retire_fill_hit(proc, block, time)
            else:
                # A sync access, a write landing SHARED that still needs
                # an upgrade, or any access with streaks off: the generic
                # handler, again inline (re-scheduling a CPU event here
                # lets N CPUs contending for one hot line livelock: each
                # fill is invalidated by the next CPU's grant before the
                # owner's event runs).
                self._try_access(proc, time)
        if self._audit is not None:
            self._audit.after_fill_done(proc, block)

    def _retire_fill_hit(self, proc: Processor, block: int, time: int) -> None:
        """Complete a stalled non-sync ``retire`` access on its landed fill.

        Exactly what ``_try_access`` then ``_complete_access`` do for it:
        the fill leaves nothing in flight for the block and a valid line
        that needs no upgrade, so the lookup is a plain hit.
        """
        cpu = proc.cpu
        frame = proc.cache._by_block[block]
        mask = proc.acc_word_mask
        if proc.acc_write:
            frame.state = _MODIFIED
            self._note_remote_write(cpu, block, mask)
        frame.words_accessed |= mask
        frame.filled_by_prefetch = False
        frame.last_use = time
        metrics = proc.metrics
        metrics.busy_cycles += 1
        obs = self._obs
        unused = self._unused_prefetches
        if unused is not None and block in unused[cpu]:
            obs.on_prefetch_used(cpu, block)
        done = time + 1
        if self._audit is not None:
            self._audit.on_access_complete(proc)
        if obs is not None and proc.acc_missed:
            obs.on_miss_stall(cpu, block, proc.acc_start, done, False)
        metrics.demand_refs += 1
        if proc.acc_missed:
            metrics.miss_wait_cycles += max(0, done - proc.acc_start - 1)
        proc.in_access = False
        proc.pc += 1
        proc.gap_done = False
        if proc.scheduled:  # pragma: no cover - engine invariant
            raise SimulationError(f"cpu {cpu} double-scheduled")
        proc.scheduled = True
        self._seq = seq = self._seq + 1
        heappush(self._heap, (done, seq, _EV_CPU, cpu, 0))
