"""The engine-side observer: structured event taps behind one object.

:class:`EngineObserver` generalizes the audit-hook pattern of
:mod:`repro.audit.sanitizer` into a telemetry tap: the engine (and the
bus) own one observer when ``SimulationConfig.observe`` is set and call
its ``on_*`` hooks wherever simulated cycles are accounted.  Every hook
is read-only with respect to simulated state -- an observed run is
bit-identical to an unobserved one by construction.

Observation costs per stall, not per event.  Observed runs take the
engine's hit-streak fast path like unobserved ones, and no tap fires
for a busy cycle: a CPU's busy cycles run back to back from each
resumption, so the sampler is told only where the CPU resumes
(``on_resume``, and ``on_sync_wait`` at the end of a wait) and reads
the cycles off the CPU's busy counter.  The one per-hit check is a set
test against ``unused_prefetches``, which is None unless the observer
classifies prefetch efficacy.  With ``observe_trace_capacity=0`` the
event taps build no event; they only count it as dropped.

Tap sites (see DESIGN.md §5d for the full taxonomy):

===========================  =============================================
engine ``run`` fast path      first use of a prefetched block (inline hit)
engine ``_merge``             prefetch merges
engine ``_miss``              demand-miss MSHR allocs
engine ``_prefetch``          prefetch issue/hit/squash/drop/buffer-stall
engine ``_complete_hit``      first use of a prefetched block; resumption
                              at an upgrade's completion; miss-stall
                              spans, lock/barrier wait spans
engine ``_grant_fill``        coherence downgrades, in-flight poisonings
engine ``_grant_upgrade``     invalidations; resumption at the grant (one
                              busy cycle)
engine ``_fill_done``         MSHR fill lifetimes; resumption of the
                              stalled CPU and of a prefetch-buffer waiter
``Bus.request``/``arbitrate`` queue depth, occupancy slices per tier
===========================  =============================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bus.transaction import TransactionKind
from repro.obs.sampler import ObsReport, WindowedSampler
from repro.obs.tracer import PID_BUS, PID_CPU, PID_MSHR, TimelineTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.bus.transaction import BusTransaction
    from repro.sim.engine import SimulationEngine

__all__ = ["EngineObserver"]

_FILL_EX = TransactionKind.FILL_EX


class EngineObserver:
    """Telemetry taps bound to one :class:`SimulationEngine` run.

    Forwards every tap into the :class:`WindowedSampler` (lossless
    per-window aggregates) and, for the discrete event taxonomy, into
    the ring-buffered :class:`TimelineTracer`.
    """

    #: Per-CPU sets of blocks whose prefetched copy the CPU has not
    #: accessed yet, kept by observers that classify prefetch efficacy.
    #: The engine reports an access to one through
    #: :meth:`on_prefetch_used`; None: no observer asks.
    unused_prefetches: list[set[int]] | None = None

    def __new__(cls, engine: "SimulationEngine") -> "EngineObserver":
        # The engine always constructs ``EngineObserver(self)``; when the
        # run asks for per-line attribution, hand back the subclass so
        # no engine edit is needed (imported lazily: lineprof imports us).
        if cls is EngineObserver and engine.sim_config.observe_lines:
            from repro.obs.lineprof import LineProfiler

            return super().__new__(LineProfiler)
        return super().__new__(cls)

    def __init__(self, engine: "SimulationEngine") -> None:
        cfg = engine.sim_config
        self._metrics = [proc.metrics for proc in engine.procs]
        self.sampler = WindowedSampler(engine.machine.num_cpus, cfg.observe_window)
        self.tracer = TimelineTracer(cfg.observe_trace_capacity)
        #: False with a zero-capacity ring: the event taps then build no
        #: event and only count it into ``tracer.total``.
        self._timeline = cfg.observe_trace_capacity > 0

    # ------------------------------------------------------------- CPU cycles

    def on_resume(self, cpu: int, now: int) -> None:
        """The CPU runs again from ``now`` after a stall.

        Fires where a stall on a fill, an upgrade or a full prefetch
        buffer ends, and at an upgrade's grant for its one busy cycle;
        :meth:`on_sync_wait` marks the end of a lock or barrier wait.
        """
        self.sampler.resume(cpu, now, self._metrics[cpu].busy_cycles)

    def on_prefetch_used(self, cpu: int, block: int) -> None:
        """The CPU accessed ``block``, one of its :attr:`unused_prefetches`."""

    def on_sync_wait(self, cpu: int, start: int, end: int, kind: str, sync_id: int) -> None:
        """A lock/barrier wait span ended (recorded at wake-up)."""
        self.sampler.add_sync_wait(cpu, start, end, self._metrics[cpu].busy_cycles)
        if self._timeline:
            self.tracer.span("sync", kind, start, end - start, PID_CPU, cpu, {"id": sync_id})
        else:
            self.tracer.total += 1

    def on_miss_stall(self, cpu: int, block: int, start: int, end: int, sync: bool) -> None:
        """A demand/sync access that missed completed after stalling."""
        if self._timeline:
            self.tracer.span(
                "cpu",
                "sync-miss-stall" if sync else "miss-stall",
                start,
                end - start,
                PID_CPU,
                cpu,
                {"block": block},
            )
        else:
            self.tracer.total += 1

    # --------------------------------------------------------------- prefetch

    def on_prefetch(self, cpu: int, action: str, block: int, now: int) -> None:
        """A prefetch event: issue / hit / squash / drop / buffer-stall."""
        if self._timeline:
            self.tracer.instant("prefetch", action, now, PID_CPU, cpu, {"block": block})
        else:
            self.tracer.total += 1

    # ------------------------------------------------------------------- MSHR

    def on_mshr_start(self, cpu: int, fill: "BusTransaction", now: int) -> None:
        """An outstanding fill was allocated."""
        self.sampler.mshr_change(now, +1, not fill.is_demand)

    def on_mshr_finish(self, cpu: int, fill: "BusTransaction", now: int) -> None:
        """An outstanding fill completed (data arrived)."""
        self.sampler.mshr_change(now, -1, not fill.is_demand)
        if not self._timeline:
            self.tracer.total += 1
            return
        start = fill.issue_time
        self.tracer.span(
            "mshr",
            "demand-fill" if fill.is_demand else "prefetch-fill",
            start,
            now - start,
            PID_MSHR,
            cpu,
            {
                "block": fill.block,
                "poisoned": fill.poisoned,
                "exclusive": fill.kind is _FILL_EX,
            },
        )

    # -------------------------------------------------------------- coherence

    def on_snoop(self, victim_cpu: int, by_cpu: int, block: int, now: int, kind: str) -> None:
        """A snoop changed remote state: invalidate / downgrade / poison."""
        if self._timeline:
            self.tracer.instant(
                "coherence", kind, now, PID_CPU, victim_cpu, {"block": block, "by": by_cpu}
            )
        else:
            self.tracer.total += 1

    # -------------------------------------------------------------------- bus

    def on_bus_request(self, txn: "BusTransaction", depth: int) -> None:
        """A transaction was queued; ``depth`` is the new queue depth."""
        self.sampler.set_queue_depth(txn.issue_time, depth)

    def on_bus_grant(self, txn: "BusTransaction", depth: int) -> None:
        """A transaction was granted; records the occupancy slice."""
        self.sampler.add_bus_slice(txn.grant_time, txn.completion_time, txn.tier)
        self.sampler.set_queue_depth(txn.grant_time, depth)
        if not self._timeline:
            self.tracer.total += 1
            return
        self.tracer.span(
            "bus",
            txn.kind.name,
            txn.grant_time,
            txn.occupancy,
            PID_BUS,
            0,
            {"cpu": txn.cpu, "block": txn.block, "demand": txn.is_demand},
        )

    # --------------------------------------------------------------- finalize

    def finalize(self, exec_cycles: int) -> ObsReport:
        """Freeze the telemetry; called from ``collect_metrics``."""
        return self.sampler.finalize(
            exec_cycles,
            [m.finish_time for m in self._metrics],
            [m.busy_cycles for m in self._metrics],
            self.tracer.events(),
            self.tracer.dropped,
        )
