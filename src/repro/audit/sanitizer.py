"""The engine-side sanitizer: invariant checks behind audit hooks.

The engine owns one :class:`EngineAuditor` when ``SimulationConfig.audit``
is set and calls its hooks at the four places simulated state changes
hands: heap pops, bus grants, fill completions, and access completions.
Every hook only *reads* engine state -- an audited run is bit-identical
to an unaudited one by construction.

Check catalogue (names appear in :class:`~repro.audit.report.AuditReport`):

========================================  =====================================
``coherence.single_modified``             at most one MODIFIED copy per block
``coherence.exclusive_unique``            a PRIVATE/MODIFIED copy is the only
                                          valid copy (Illinois exclusivity);
                                          covers "no valid remote copy next to
                                          a MODIFIED owner"
``coherence.dual_residency``              a cache never holds a block valid in
                                          both the main array and its victim
                                          buffer
``coherence.inflight_exclusive``          a granted, unpoisoned exclusive fill
                                          tolerates no other valid copy or
                                          granted fill of the block
``structural.bus_fill_mapping``           queued FILL/FILL_EX transactions map
                                          1:1 onto ungranted MSHR fills
``structural.upgrade_waiter``             every queued UPGRADE has its CPU
                                          stalled on exactly that block
``structural.prefetch_occupancy``         MSHR prefetch-buffer occupancy ==
                                          live prefetch fills
``structural.event_order``                heap pops are strictly increasing in
                                          (time, seq) -- validates both clock
                                          monotonicity and the fast path's
                                          deferred pushes
``structural.mshr_drained``               no outstanding fill survives the run
``structural.bus_drained``                no queued transaction survives the run
``conservation.miss_decomposition``       the seven MissCounts buckets sum to
                                          independently counted miss
                                          completions (per CPU); likewise
                                          sync misses
``conservation.cpu_cycles``               busy + stall + sync-wait == finish
                                          time per CPU, with no negative-stall
                                          clamping
``conservation.bus_cycles``               bus busy cycles == sum of granted
                                          occupancy slices
``conservation.bus_ops``                  granted-transaction count == bus op
                                          count
========================================  =====================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.audit.report import MAX_VIOLATIONS, AuditReport, AuditViolation
from repro.bus.transaction import BusTransaction, TransactionKind
from repro.coherence.protocol import LineState
from repro.sim.processor import CpuStatus, Processor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.sim.engine import SimulationEngine

__all__ = ["EngineAuditor"]

_FILL_KINDS = (TransactionKind.FILL, TransactionKind.FILL_EX)


class EngineAuditor:
    """Invariant checker bound to one :class:`SimulationEngine` run.

    The engine calls the ``on_*``/``after_*`` hooks while running and
    :meth:`finalize` from ``collect_metrics``; every hook is read-only
    with respect to simulated state.
    """

    def __init__(self, engine: "SimulationEngine") -> None:
        self.engine = engine
        self.checks_run: dict[str, int] = {}
        self.violations: list[AuditViolation] = []
        self.truncated = 0
        self._last_item: tuple[int, int] | None = None
        # Independent accounting, reconciled in finalize().
        self._bus_busy = 0
        self._grants = 0
        n = engine.machine.num_cpus
        self._miss_completions = [0] * n
        self._sync_miss_completions = [0] * n

    # ------------------------------------------------------------- recording

    def _tick(self, check: str) -> None:
        self.checks_run[check] = self.checks_run.get(check, 0) + 1

    def _violate(self, check: str, detail: str, cpu: int = -1, block: int = -1) -> None:
        if len(self.violations) >= MAX_VIOLATIONS:
            self.truncated += 1
            return
        self.violations.append(
            AuditViolation(check=check, time=self.engine.now, detail=detail, cpu=cpu, block=block)
        )

    # ----------------------------------------------------------------- hooks

    def on_pop(self, item: tuple[int, int, int, int, int]) -> None:
        """Validate global event order at each heap pop.

        Pops must be strictly increasing in ``(time, seq)``: time can
        never run backwards, and within a timestamp events must retire
        in push order.  The fast path's deferred continuation is handed
        to ``heappushpop`` and re-enters through this same check, so a
        fast-path push that would land out of heap order is caught here.
        It counts as one check per run (see :meth:`finalize`): the fast
        path retires events without heap pops, so a count per pop would
        differ between the paths of one run.
        """
        key = (item[0], item[1])
        if self._last_item is not None and key <= self._last_item:
            self._violate(
                "structural.event_order",
                f"event {key} popped after {self._last_item}",
            )
        self._last_item = key

    def after_grant(self, txn: BusTransaction) -> None:
        """Full invariant pass after one bus grant is applied.

        Runs the per-block coherence sweep for the granted block (the
        only block whose coherence state a grant can change), the
        structural queue/MSHR reconciliation, and accumulates the
        independent bus-occupancy tally.
        """
        self._grants += 1
        self._bus_busy += txn.occupancy
        self.check_block(txn.block)
        self._check_bus_structure()
        for proc in self.engine.procs:
            self._check_prefetch_occupancy(proc)

    def after_fill_done(self, proc: Processor, block: int) -> None:
        """Invariant pass after a fill installs (or installs poisoned)."""
        self.check_block(block)
        self._check_prefetch_occupancy(proc)

    def on_access_complete(self, proc: Processor) -> None:
        """Count completed accesses that were classified as misses.

        This is the independent side of the miss-decomposition identity:
        classification increments the :class:`MissCounts` buckets, and
        completion increments these counters; ``finalize`` requires the
        two to agree exactly.
        """
        if proc.acc_counted:
            if proc.acc_sync:
                self._sync_miss_completions[proc.cpu] += 1
            else:
                self._miss_completions[proc.cpu] += 1

    # ------------------------------------------------------- coherence sweep

    def check_block(self, block: int) -> None:
        """Coherence invariants for one block across all caches.

        Valid copies are collected from every main array and victim
        buffer; granted, unpoisoned in-flight fills count as prospective
        copies for the exclusivity checks (their fill state was fixed at
        grant time, when snoops were applied).
        """
        self._tick("coherence.block")
        copies: list[tuple[int, str, LineState]] = []  # (cpu, where, state)
        inflight: list[tuple[int, LineState]] = []
        for proc in self.engine.procs:
            cpu = proc.cpu
            main = proc.cache.state_of(block)
            victim = proc.cache.victim.state_of(block)
            if main.is_valid:
                copies.append((cpu, "cache", main))
            if victim.is_valid:
                copies.append((cpu, "victim", victim))
            if main.is_valid and victim.is_valid:
                self._violate(
                    "coherence.dual_residency",
                    f"cpu {cpu} holds the block {main.name} in the main array "
                    f"and {victim.name} in the victim buffer",
                    cpu=cpu,
                    block=block,
                )
            fill = proc.mshr.lookup(block)
            if fill is not None and fill.granted and not fill.poisoned:
                inflight.append((cpu, fill.fill_state))

        modified = [(c, w) for c, w, s in copies if s is LineState.MODIFIED]
        if len(modified) > 1:
            self._violate(
                "coherence.single_modified",
                f"{len(modified)} MODIFIED copies: {modified}",
                block=block,
            )
        exclusive = [(c, w, s) for c, w, s in copies if s.is_exclusive]
        if exclusive and (len(copies) > 1 or inflight):
            holders = [(c, w, s.name) for c, w, s in copies]
            self._violate(
                "coherence.exclusive_unique",
                f"exclusive copy coexists with other copies: installed={holders}, "
                f"inflight={[(c, s.name) for c, s in inflight]}",
                cpu=exclusive[0][0],
                block=block,
            )
        for cpu, state in inflight:
            if state.is_exclusive and (copies or len(inflight) > 1):
                self._violate(
                    "coherence.inflight_exclusive",
                    f"granted exclusive fill for cpu {cpu} ({state.name}) coexists "
                    f"with installed={[(c, w, s.name) for c, w, s in copies]}, "
                    f"inflight={[(c, s.name) for c, s in inflight if c != cpu]}",
                    cpu=cpu,
                    block=block,
                )

    # ------------------------------------------------------ structural sweep

    def _check_bus_structure(self) -> None:
        """Queued bus transactions reconcile with MSHRs and CPU stalls."""
        self._tick("structural.bus_fill_mapping")
        engine = self.engine
        pending_fills: dict[tuple[int, int], int] = {}
        for txn in engine.bus.pending_snapshot():
            if txn.kind in _FILL_KINDS:
                key = (txn.cpu, txn.block)
                pending_fills[key] = pending_fills.get(key, 0) + 1
            elif txn.kind is TransactionKind.UPGRADE:
                self._tick("structural.upgrade_waiter")
                proc = engine.procs[txn.cpu]
                if (
                    proc.status is not CpuStatus.STALLED_UPGRADE
                    or proc.waiting_block != txn.block
                ):
                    self._violate(
                        "structural.upgrade_waiter",
                        f"queued UPGRADE but cpu is {proc.status.name} "
                        f"waiting on {proc.waiting_block:#x}",
                        cpu=txn.cpu,
                        block=txn.block,
                    )

        for (cpu, block), count in pending_fills.items():
            if count != 1:
                self._violate(
                    "structural.bus_fill_mapping",
                    f"{count} queued fill transactions for one block",
                    cpu=cpu,
                    block=block,
                )
            fill = engine.procs[cpu].mshr.lookup(block)
            if fill is None:
                self._violate(
                    "structural.bus_fill_mapping",
                    "queued fill transaction with no outstanding MSHR fill",
                    cpu=cpu,
                    block=block,
                )
            elif fill.granted:
                self._violate(
                    "structural.bus_fill_mapping",
                    "queued fill transaction for an already-granted MSHR fill",
                    cpu=cpu,
                    block=block,
                )
        for proc in engine.procs:
            for fill in proc.mshr.outstanding_fills():
                if not fill.granted and (proc.cpu, fill.block) not in pending_fills:
                    self._violate(
                        "structural.bus_fill_mapping",
                        "ungranted MSHR fill with no queued bus transaction",
                        cpu=proc.cpu,
                        block=fill.block,
                    )

    def _check_prefetch_occupancy(self, proc: Processor) -> None:
        """Prefetch-buffer occupancy equals live prefetch fills."""
        self._tick("structural.prefetch_occupancy")
        live = sum(1 for f in proc.mshr.outstanding_fills() if f.is_prefetch)
        if proc.mshr.prefetches_in_flight != live:
            self._violate(
                "structural.prefetch_occupancy",
                f"occupancy counter {proc.mshr.prefetches_in_flight} != "
                f"{live} live prefetch fills",
                cpu=proc.cpu,
            )

    # ------------------------------------------------------------- end of run

    def finalize(self) -> AuditReport:
        """End-of-run conservation identities and final state sweep.

        Called by ``collect_metrics`` after per-CPU stall cycles are
        derived, so the cycle identity checks see the published values.
        """
        engine = self.engine

        for proc in engine.procs:
            m = proc.metrics
            self._tick("conservation.miss_decomposition")
            buckets = m.misses.cpu_misses
            counted = self._miss_completions[proc.cpu]
            if buckets != counted:
                self._violate(
                    "conservation.miss_decomposition",
                    f"MissCounts buckets sum to {buckets} but {counted} "
                    f"demand-miss completions were observed",
                    cpu=proc.cpu,
                )
            if m.sync_misses != self._sync_miss_completions[proc.cpu]:
                self._violate(
                    "conservation.miss_decomposition",
                    f"sync_misses {m.sync_misses} != "
                    f"{self._sync_miss_completions[proc.cpu]} sync-miss completions",
                    cpu=proc.cpu,
                )
            self._tick("conservation.cpu_cycles")
            residual = m.finish_time - m.busy_cycles - m.sync_wait_cycles
            if residual < 0:
                self._violate(
                    "conservation.cpu_cycles",
                    f"busy {m.busy_cycles} + sync-wait {m.sync_wait_cycles} "
                    f"exceed finish time {m.finish_time} (stall clamped)",
                    cpu=proc.cpu,
                )
            elif m.busy_cycles + m.stall_cycles + m.sync_wait_cycles != m.finish_time:
                self._violate(
                    "conservation.cpu_cycles",
                    f"busy {m.busy_cycles} + stall {m.stall_cycles} + "
                    f"sync-wait {m.sync_wait_cycles} != finish {m.finish_time}",
                    cpu=proc.cpu,
                )

        self._tick("conservation.bus_cycles")
        if engine.bus.stats.busy_cycles != self._bus_busy:
            self._violate(
                "conservation.bus_cycles",
                f"bus busy_cycles {engine.bus.stats.busy_cycles} != "
                f"{self._bus_busy} summed granted occupancy slices",
            )
        self._tick("conservation.bus_ops")
        if engine.bus.stats.total_ops != self._grants:
            self._violate(
                "conservation.bus_ops",
                f"bus total_ops {engine.bus.stats.total_ops} != {self._grants} grants",
            )

        self._tick("structural.event_order")
        self._tick("structural.mshr_drained")
        for proc in engine.procs:
            for fill in proc.mshr.outstanding_fills():
                self._violate(
                    "structural.mshr_drained",
                    f"outstanding fill survived the run (prefetch={fill.is_prefetch})",
                    cpu=proc.cpu,
                    block=fill.block,
                )
            self._check_prefetch_occupancy(proc)
        self._tick("structural.bus_drained")
        for txn in engine.bus.pending_snapshot():
            self._violate(
                "structural.bus_drained",
                f"queued {txn.kind.name} transaction survived the run",
                cpu=txn.cpu,
                block=txn.block,
            )

        # Full sweep: every block resident anywhere at quiescence.
        blocks: set[int] = set()
        for proc in engine.procs:
            blocks.update(proc.cache.resident_blocks())
            blocks.update(proc.cache.victim.valid_blocks())
        for block in sorted(blocks):
            self.check_block(block)

        return AuditReport(
            checks_run=dict(self.checks_run),
            violations=list(self.violations),
            truncated=self.truncated,
        )
