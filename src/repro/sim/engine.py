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
from typing import TYPE_CHECKING

from repro.bus.bus import Bus
from repro.bus.transaction import BusTransaction, TransactionKind
from repro.cache.coherent import CoherentCache
from repro.cache.frame import CacheFrame
from repro.cache.mshr import MissStatusRegisters
from repro.coherence.protocol import BusOp, IllinoisProtocol, LineState, MSIProtocol
from repro.common.addressing import word_mask_for
from repro.common.config import MachineConfig, SimulationConfig
from repro.common.errors import SimulationError
from repro.metrics.results import RunMetrics
from repro.prefetch.adaptive import AdaptiveConfig, BusUtilizationThrottle
from repro.sim.processor import CpuStatus, Processor
from repro.sim.sync import BarrierManager, LockManager
from repro.trace.events import Barrier, LockAcquire, LockRelease, MemRef, Prefetch
from repro.trace.stream import MultiTrace

if TYPE_CHECKING:
    from repro.audit.sanitizer import EngineAuditor
    from repro.obs.taps import EngineObserver

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

    #: Retire hit streaks inline in :meth:`run`.  Only test subclasses
    #: set it False, to drive every CPU event through the generic
    #: ``_dispatch`` / ``_try_access`` handlers the fast path must match
    #: bit for bit.
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
            cache = CoherentCache(machine.cache, self.protocol)
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
        #: Every CPU but cpu i, as ``(cpu, tag map, victim buffer or
        #: None, MSHRs)``, for the snoop fan-out at bus grants.
        self._remotes = [
            tuple(
                (
                    p.cpu,
                    p.cache._by_block,
                    p.cache.victim if p.cache.victim.capacity else None,
                    p.mshr,
                )
                for p in self.procs
                if p.cpu != i
            )
            for i in range(machine.num_cpus)
        ]
        #: The same caches as ``(tag map, victim buffer or None)``, for
        #: the remote-write classifier loop.
        self._remote_tags = [
            tuple((by_block, victim) for _, by_block, victim, _ in remotes)
            for remotes in self._remotes
        ]
        #: A victim buffer may hold a copy the tag map does not show, so
        #: with one a miss with no tag goes through ``lookup_demand`` and
        #: a prefetch probes the buffer.
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
        #: Its module loads with the first audited engine.
        self._audit: EngineAuditor | None = None
        if sim_config.audit:
            from repro.audit.sanitizer import EngineAuditor

            self._audit = EngineAuditor(self)
        #: Flag-gated observability taps (None when disabled).  Like the
        #: auditor, every hook site is an ``if self._obs is not None``
        #: branch, and its module loads with the first observed engine.
        #: Observed runs take the hit-streak fast path too, and no tap
        #: fires for a busy cycle: the observer hears where a CPU
        #: resumes after a stall and reads its busy counter.
        self._obs: EngineObserver | None = None
        if sim_config.observe:
            from repro.obs.taps import EngineObserver

            self._obs = EngineObserver(self)
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
        between, so its gaps and plain cache-hit ``MemRef`` events retire
        right in the loop -- no ``_schedule_cpu`` heappush, no
        ``begin_access`` bookkeeping.  Every other CPU-side transition is
        one flat method that the loop and the generic ``_dispatch`` /
        ``_try_access`` handlers both call: ``_miss`` (classification,
        MSHR fill, bus request), ``_merge`` (a demand access to a block
        with a fill in flight), ``_upgrade`` (a write hit that needs an
        UPGRADE), ``_prefetch`` (ADAPT drop, squash, hit, issue or
        buffer-full stall) and ``_note_remote_write``.  A miss, merge or
        upgrade ends the streak with the CPU stalled; a prefetch that
        retires continues it.

        The loop hands the CPU to ``_dispatch`` on a lock or barrier
        event, and, with victim buffers, on a miss whose block has no tag
        in the main array (``lookup_demand`` may find a parked copy).  It
        hands the CPU back to the heap when the continuation time is not
        strictly earlier than the heap head (a same/earlier-timestamped
        foreign event exists).

        The strict ``< heap[0][0]`` guard preserves the global event
        order (ties run in push order, and a deferred push lands exactly
        where the generic push would -- the continuation is handed to
        ``heappushpop``, which is push-then-pop fused into one sift), and
        the inline hit replicates ``_complete_hit`` for a plain hit, so
        simulated behavior -- cycle counts, coherence traffic,
        classification, every tap -- is identical to the pure-heap
        engine.

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
        miss = self._miss
        merge = self._merge
        upgrade = self._upgrade
        prefetch = self._prefetch
        note_remote_write = self._note_remote_write
        has_victim = self._has_victim
        # Per-CPU hot context: one list index + tuple unpack per popped
        # CPU event instead of several attribute chains.  The third entry
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
                proc.mshr._fills,
                proc.cache._by_block,
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
            proc, events, num_events, metrics, mshr_fills, by_block, unused = ctx[a]
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
                    if (
                        frame is None
                        or frame.state is invalid
                        or block in mshr_fills
                        or (is_write and needs_upgrade[frame.state])
                    ):
                        fill = mshr_fills.get(block)
                        if fill is None and frame is None and has_victim:
                            self._dispatch(proc, now)
                            break
                        # _dispatch's begin_access, then _try_access's
                        # transition: the CPU stalls.
                        proc.gap_done = True
                        proc.begin_access(
                            block, is_write, mask, "retire", now, False, event.prefetched
                        )
                        if fill is not None:
                            merge(proc, fill, now)
                        elif frame is None:
                            miss(proc, now, False, False)
                        elif frame.state is invalid:
                            miss(proc, now, True, frame.miss_is_false_sharing(mask))
                        else:
                            upgrade(proc, frame, now)
                        break
                    # Plain hit: _complete_hit at ``now`` with the
                    # "retire" continuation, flattened.
                    if is_write:
                        frame.state = modified
                        note_remote_write(a, block, mask)
                    frame.words_accessed |= mask
                    frame.last_use = now
                    metrics.busy_cycles += 1
                    metrics.demand_refs += 1
                    if unused is not None and block in unused:
                        obs.on_prefetch_used(a, block)
                    t = now + 1
                elif etype is Prefetch:
                    if not prefetch(proc, event, now):
                        break  # stalled on a full prefetch buffer
                    t = now + issue_cost
                else:
                    self._dispatch(proc, now)  # locks and barriers
                    break
                # The event retired: continue the streak at t.
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
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, seq, _EV_CPU, proc.cpu, 0))

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
                block=event.addr & self._block_mask,
                is_write=event.is_write,
                word_mask=self._word_mask(event.addr, event.size),
                cont="retire",
                now=now,
                sync=False,
                prefetched=event.prefetched,
            )
            self._try_access(proc, now)
        elif etype is Prefetch:
            if self._prefetch(proc, event, now):
                proc.pc += 1
                proc.gap_done = False
                self._schedule_cpu(proc, now + self._issue_cost)
        elif etype is LockAcquire:
            if self.locks.try_acquire(event.lock_id, proc.cpu):
                proc.begin_access(
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

    def _prefetch(self, proc: Processor, event: Prefetch, now: int) -> bool:
        """Issue a prefetch instruction; False if it stalls the CPU.

        A prefetch that retires costs ``issue_cost`` busy cycles and the
        caller steps past it.  Under ADAPT's throttle it may be dropped
        without a cache probe; otherwise it is squashed behind a fill in
        flight, hits a valid copy in the main array or a victim buffer
        (no bus operation, even on a SHARED line: the paper's EXCL rule),
        or starts a fill.  A full prefetch buffer stalls the CPU until a
        prefetch fill lands.
        """
        cpu = proc.cpu
        block = event.addr & self._block_mask
        metrics = proc.metrics
        mshr = proc.mshr
        obs = self._obs
        throttle = self._throttle
        if throttle is not None and not throttle.should_issue(now):
            # ADAPT backoff: the windowed bus-utilization estimate is
            # above the watermark, so shed this prefetch.
            metrics.prefetch_dropped += 1
            action = "drop"
        elif block in mshr._fills:
            metrics.prefetch_squashed += 1
            action = "squash"
        else:
            cache = proc.cache
            frame = cache._by_block.get(block)
            if (frame is not None and frame.state is not _INVALID) or (
                self._has_victim and cache.victim.has_valid_copy(block)
            ):
                metrics.prefetch_hits += 1
                action = "hit"
            elif mshr._prefetches_in_flight >= mshr.prefetch_buffer_depth:
                metrics.prefetch_buffer_stalls += 1
                proc.status = CpuStatus.STALLED_PFBUF
                self._pfbuf_waiters.append(cpu)
                if obs is not None:
                    obs.on_prefetch(cpu, "buffer-stall", block, now)
                return False
            else:
                metrics.prefetch_fills += 1
                metrics.prefetches_issued += 1
                metrics.busy_cycles += self._issue_cost
                exclusive = event.exclusive
                bus = self.bus
                fill = bus.make_fill(
                    cpu, block, exclusive, False, now,
                    self._word_mask(event.addr, 4) if exclusive else 0,
                )
                mshr.start(fill)
                if obs is not None:
                    obs.on_prefetch(cpu, "issue", block, now)
                    obs.on_mshr_start(cpu, fill, now)
                bus.request(fill)
                self._schedule_arb()
                return True
        metrics.prefetches_issued += 1
        metrics.busy_cycles += self._issue_cost
        if obs is not None:
            obs.on_prefetch(cpu, action, block, now)
        return True

    # ---------------------------------------------------------- access logic

    def _try_access(self, proc: Processor, now: int) -> None:
        """Attempt the processor's current access at time ``now``.

        Either completes it (running the continuation) or leaves the CPU
        stalled on a fill / upgrade; stalled accesses are re-attempted
        when the engine wakes the CPU.
        """
        block = proc.acc_block
        fill = proc.mshr._fills.get(block)
        if fill is not None:
            self._merge(proc, fill, now)
            return
        cache = proc.cache
        result = cache.lookup_demand(block, proc.acc_word_mask, now)
        if result.writeback is not None:
            self._write_back(proc, result.writeback.block, now)
        if not result.hit:
            self._miss(proc, now, result.invalidation_miss, result.false_sharing)
            return
        frame = cache._by_block[block]
        swap = 0
        if result.victim_hit:
            proc.metrics.victim_hits += 1
            swap = _VICTIM_SWAP_CYCLES
        if proc.acc_write and self._needs_upgrade[frame.state]:
            self._upgrade(proc, frame, now)
        else:
            # The swap's cycle is charged only when the access completes.
            proc.metrics.busy_cycles += swap
            self._complete_hit(proc, frame, now, now + 1 + swap)

    def _merge(self, proc: Processor, fill: BusTransaction, now: int) -> None:
        """The access finds a fill for its block in flight: wait for it.

        Counted once per access: as a sync miss, or as the
        prefetch-in-progress bucket when the fill is a prefetch (merging
        with our own demand fill cannot happen: demand accesses are
        serialized per CPU).
        """
        if not proc.acc_counted:
            proc.acc_counted = True
            if proc.acc_sync:
                proc.metrics.sync_misses += 1
            elif not fill.is_demand:
                proc.metrics.misses.prefetch_in_progress += 1
                if self._obs is not None:
                    self._obs.on_prefetch(proc.cpu, "merge", proc.acc_block, now)
        proc.status = _STALLED_FILL
        proc.waiting_block = proc.acc_block
        proc.acc_missed = True

    def _miss(self, proc: Processor, now: int, invalidation: bool, false_sharing: bool) -> None:
        """A demand or sync miss: classify it, start its fill, queue it.

        Classified once per access (a write that loses its upgrade race
        misses again uncounted): a sync miss, or one of the six cause x
        coverage buckets of Figure 3.  ``invalidation`` and
        ``false_sharing`` come from the line's tag (CacheFrame or
        victim buffer), as ``lookup_demand`` reports them.
        """
        metrics = proc.metrics
        if not proc.acc_counted:
            proc.acc_counted = True
            if proc.acc_sync:
                metrics.sync_misses += 1
            else:
                if self._record_misses:
                    self.miss_indices.append((proc.cpu, proc.pc))
                m = metrics.misses
                if not invalidation:
                    if proc.acc_prefetched:
                        m.nonsharing_prefetched += 1
                    else:
                        m.nonsharing_unprefetched += 1
                elif false_sharing:
                    if proc.acc_prefetched:
                        m.inval_false_prefetched += 1
                    else:
                        m.inval_false_unprefetched += 1
                elif proc.acc_prefetched:
                    m.inval_true_prefetched += 1
                else:
                    m.inval_true_unprefetched += 1
        cpu = proc.cpu
        block = proc.acc_block
        write = proc.acc_write
        bus = self.bus
        fill = bus.make_fill(cpu, block, write, True, now, proc.acc_word_mask if write else 0)
        proc.mshr.start(fill)
        if self._obs is not None:
            self._obs.on_mshr_start(cpu, fill, now)
        bus.request(fill)
        self._schedule_arb()
        proc.status = _STALLED_FILL
        proc.waiting_block = block
        proc.acc_missed = True

    def _upgrade(self, proc: Processor, frame: CacheFrame, now: int) -> None:
        """A write hit on a line that needs an UPGRADE: queue it and stall.

        The hit refreshes the line's LRU stamp; the write completes when
        the upgrade is granted (:meth:`_grant_upgrade`).
        """
        frame.last_use = now
        proc.metrics.upgrades += 1
        self.bus.request(self.bus.make_upgrade(proc.cpu, proc.acc_block, now, proc.acc_word_mask))
        self._schedule_arb()
        proc.status = _STALLED_UPGRADE
        proc.waiting_block = proc.acc_block
        proc.acc_missed = True

    def _complete_hit(
        self, proc: Processor, frame: CacheFrame, now: int, done: int, resume: bool = False
    ) -> None:
        """Complete the current access on ``frame`` and run its continuation.

        The access cycle falls at ``now``.  A write turns the line
        MODIFIED -- except a line a poisoned fill left INVALID, where the
        access completes on the forwarded word -- and a non-sync write is
        noted in every other cache.  The CPU runs on from ``done``; with
        ``resume`` (an upgrade that held the bus past the access cycle)
        the observer hears it resume there.  A lock release hands the
        lock to its next waiter; a barrier arrival blocks the CPU or
        wakes every CPU waiting there.
        """
        cpu = proc.cpu
        block = proc.acc_block
        mask = proc.acc_word_mask
        sync = proc.acc_sync
        if proc.acc_write:
            if frame.state is not _INVALID:
                frame.state = _MODIFIED
            if not sync:
                self._note_remote_write(cpu, block, mask)
        frame.words_accessed |= mask
        frame.last_use = now
        metrics = proc.metrics
        metrics.busy_cycles += 1
        obs = self._obs
        if obs is not None:
            if resume:
                obs.on_resume(cpu, done)
            unused = self._unused_prefetches
            if unused is not None and block in unused[cpu]:
                obs.on_prefetch_used(cpu, block)
        if self._audit is not None:
            self._audit.on_access_complete(proc)
        missed = proc.acc_missed
        if obs is not None and missed:
            obs.on_miss_stall(cpu, block, proc.acc_start, done, sync)
        if sync:
            metrics.sync_refs += 1
        else:
            metrics.demand_refs += 1
            if missed:
                # Everything beyond the one-cycle hit access is time the
                # CPU waited on the memory subsystem for this miss.
                metrics.miss_wait_cycles += max(0, done - proc.acc_start - 1)
        cont = proc.acc_cont
        proc.in_access = False
        proc.waiting_block = -1
        if cont == "release":
            lock_id = proc.acc_lock_id
            waiter = self.locks.release(lock_id, cpu)
            if waiter is not None:
                wproc = self.procs[waiter]
                if obs is not None:
                    obs.on_sync_wait(waiter, wproc.block_started, done, "lock-wait", lock_id)
                wproc.metrics.sync_wait_cycles += done - wproc.block_started
                self._schedule_cpu(wproc, done)
        elif cont == "barrier":
            barrier_id = proc.acc_lock_id
            woken = self.barriers.arrive(barrier_id, cpu)
            if woken is None:
                proc.pc += 1
                proc.gap_done = False
                proc.status = CpuStatus.BLOCKED_BARRIER
                proc.block_started = done
                self.barriers.block(barrier_id, cpu)
                return
            for other in woken:
                wproc = self.procs[other]
                if obs is not None:
                    obs.on_sync_wait(other, wproc.block_started, done, "barrier-wait", barrier_id)
                wproc.metrics.sync_wait_cycles += done - wproc.block_started
                self._schedule_cpu(wproc, done)
        proc.pc += 1
        proc.gap_done = False
        self._schedule_cpu(proc, done)

    def _write_back(self, proc: Processor, block: int, now: int) -> None:
        """Queue the write-back of a dirty line displaced from ``proc``'s cache."""
        proc.metrics.writebacks += 1
        self.bus.request(self.bus.make_writeback(proc.cpu, block, now))
        self._schedule_arb()

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

    def _grant_fill(self, fill: BusTransaction, now: int) -> None:
        """Snoop every other CPU for a granted fill, then decide its state.

        A valid remote copy downgrades or is invalidated, as the
        protocol's snoop table says; a cache with a victim buffer also
        snoops its parked copy.  A granted, unpoisoned remote fill of
        the block counts as a copy: an exclusive fill poisons it, and a
        read fill demotes an exclusive one to SHARED.  The fill lands at
        the ``completion_time`` the bus set at grant.
        """
        cpu = fill.cpu
        block = fill.block
        exclusive = fill.kind is _FILL_EX
        op = _READ_EX if exclusive else _READ
        actions = self._snoop_actions[op]
        word_mask = fill.word_mask
        obs = self._obs
        invalid = _INVALID
        others_have = False
        for other, by_block, victim, mshr in self._remotes[cpu]:
            frame = by_block.get(block)
            had = frame is not None and frame.state is not invalid
            if had:
                action = actions[frame.state]
                if action.invalidated:
                    frame.remote_written = word_mask
                frame.state = action.new_state
            if victim is not None and victim.snoop(block, op, word_mask):
                had = True
            if had:
                others_have = True
                if obs is not None:
                    obs.on_snoop(
                        other, cpu, block, now, "invalidate" if exclusive else "downgrade"
                    )
            remote_fill = mshr._fills.get(block)
            if (
                remote_fill is not None
                and remote_fill.grant_time >= 0
                and not remote_fill.poisoned
            ):
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
        elif not fill.is_demand:
            # Exclusive prefetch: the block arrives clean but exclusive
            # (Illinois private state); the eventual write hits silently.
            fill.fill_state = _PRIVATE
        else:
            fill.fill_state = self._read_ex_fill_state[others_have]

        self._seq = seq = self._seq + 1
        heappush(self._heap, (fill.completion_time, seq, _EV_FILLDONE, cpu, block))

    def _grant_upgrade(self, txn: BusTransaction, now: int) -> None:
        cpu = txn.cpu
        block = txn.block
        word_mask = txn.word_mask
        obs = self._obs
        invalid = _INVALID
        actions = self._snoop_actions[_UPGRADE_OP]
        for other, by_block, victim, mshr in self._remotes[cpu]:
            frame = by_block.get(block)
            had = frame is not None and frame.state is not invalid
            if had:
                action = actions[frame.state]
                if action.invalidated:
                    frame.remote_written = word_mask
                frame.state = action.new_state
            if victim is not None and victim.snoop(block, _UPGRADE_OP, word_mask):
                had = True
            if had and obs is not None:
                obs.on_snoop(other, cpu, block, now, "invalidate")
            # A granted fill is poisoned, as by
            # MissStatusRegisters.snoop_invalidate (the words accumulate).
            remote_fill = mshr._fills.get(block)
            if remote_fill is not None and remote_fill.grant_time >= 0:
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
            # The write completes: its access cycle falls at the grant,
            # and the CPU runs on from the upgrade's completion.
            if obs is not None:
                obs.on_resume(cpu, now)
            self._complete_hit(proc, frame, now, done, True)
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

        An invalidated copy accumulates the written words, and a block
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
            writeback = cache.install(block, fill.fill_state, time)
        if writeback is not None:
            self._write_back(proc, writeback.block, time)

        if not fill.is_demand and self._pfbuf_waiters:
            waiter = self._pfbuf_waiters.popleft()
            if obs is not None:
                obs.on_resume(waiter, time)
            self._schedule_cpu(self.procs[waiter], time)

        if proc.status is _STALLED_FILL and proc.waiting_block == block:
            if obs is not None:
                obs.on_resume(proc.cpu, time)
            frame = cache._by_block[block]
            if proc.acc_write and not fill.poisoned and self._needs_upgrade[fill.fill_state]:
                # A write that lands SHARED still needs an upgrade.
                self._upgrade(proc, frame, time)
            else:
                # The access completes on the landed line, *inline*,
                # before any same-timestamp bus grant can snoop it away
                # (re-scheduling a CPU event here lets N CPUs contending
                # for one hot line livelock: each fill is invalidated by
                # the next CPU's grant before the owner's event runs).
                # A fill invalidated in flight still completes it:
                # hardware forwards the critical word to the CPU as the
                # fill arrives, and the line stays INVALID in the cache.
                self._complete_hit(proc, frame, time, time + 1)
        if self._audit is not None:
            self._audit.after_fill_done(proc, block)
