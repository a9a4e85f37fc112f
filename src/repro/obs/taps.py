"""The engine-side observer: structured event taps behind one object.

:class:`EngineObserver` generalizes the audit-hook pattern of
:mod:`repro.audit.sanitizer` into a telemetry tap: the engine (and the
bus) own one observer when ``SimulationConfig.observe`` is set and call
its ``on_*`` hooks wherever simulated cycles are accounted.  Every hook
is read-only with respect to simulated state -- an observed run is
bit-identical to an unobserved one by construction.  Observed runs take
the engine's hit-streak fast path like unobserved ones; it fires the
same ``on_busy`` (gap) and ``on_hit`` taps the generic handlers fire.

Tap sites (see DESIGN.md §5d for the full taxonomy):

===========================  =============================================
engine ``run`` fast path      gap busy slices, plain-hit access cycles
engine ``_dispatch``          instruction-gap busy slices
engine ``_try_access``        hit access cycles, demand-miss MSHR allocs
engine ``_dispatch_prefetch`` prefetch issue/hit/squash/drop/buffer-stall
engine ``_grant_fill``        coherence downgrades, in-flight poisonings
engine ``_grant_upgrade``     invalidations, upgrade-completion access
engine ``_fill_done``         MSHR fill lifetimes, poisoned-fill access
engine ``_complete_access``   miss-stall spans, lock/barrier wait spans
``Bus.request``/``arbitrate`` queue depth, occupancy slices per tier
===========================  =============================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.sampler import ObsReport, WindowedSampler
from repro.obs.tracer import PID_BUS, PID_CPU, PID_MSHR, TimelineTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.bus.transaction import BusTransaction
    from repro.cache.mshr import OutstandingFill
    from repro.sim.engine import SimulationEngine

__all__ = ["EngineObserver"]


class EngineObserver:
    """Telemetry taps bound to one :class:`SimulationEngine` run.

    Forwards every tap into the :class:`WindowedSampler` (lossless
    per-window aggregates) and, for the discrete event taxonomy, into
    the ring-buffered :class:`TimelineTracer`.
    """

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
        self.engine = engine
        self.sampler = WindowedSampler(engine.machine.num_cpus, cfg.observe_window)
        self.tracer = TimelineTracer(cfg.observe_trace_capacity)

    # ------------------------------------------------------------- CPU cycles

    def on_busy(self, cpu: int, start: int, cycles: int) -> None:
        """The CPU accrued ``cycles`` busy cycles starting at ``start``."""
        if cycles > 0:
            self.sampler.add_busy(cpu, start, cycles)

    def on_hit(self, cpu: int, start: int, block: int, cycles: int) -> None:
        """The CPU spent ``cycles`` from ``start`` accessing its own ``block``.

        Fires once per completed access that did not stall on a fill of
        its own: a hit (victim-cache swap included), an upgrade
        completion, or the critical-word access of a poisoned fill.
        """
        self.sampler.add_busy(cpu, start, cycles)

    def on_sync_wait(self, cpu: int, start: int, end: int, kind: str, sync_id: int) -> None:
        """A lock/barrier wait span ended (recorded at wake-up)."""
        self.sampler.add_sync_wait(cpu, start, end)
        self.tracer.span(
            "sync", kind, start, end - start, PID_CPU, cpu, {"id": sync_id}
        )

    def on_miss_stall(self, cpu: int, block: int, start: int, end: int, sync: bool) -> None:
        """A demand/sync access that missed completed after stalling."""
        self.tracer.span(
            "cpu",
            "sync-miss-stall" if sync else "miss-stall",
            start,
            end - start,
            PID_CPU,
            cpu,
            {"block": block},
        )

    # --------------------------------------------------------------- prefetch

    def on_prefetch(self, cpu: int, action: str, block: int, now: int) -> None:
        """A prefetch event: issue / hit / squash / drop / buffer-stall."""
        self.tracer.instant("prefetch", action, now, PID_CPU, cpu, {"block": block})

    # ------------------------------------------------------------------- MSHR

    def on_mshr_start(self, cpu: int, fill: "OutstandingFill", now: int) -> None:
        """An outstanding fill was allocated."""
        self.sampler.mshr_change(now, +1, fill.is_prefetch)

    def on_mshr_finish(self, cpu: int, fill: "OutstandingFill", now: int) -> None:
        """An outstanding fill completed (data arrived)."""
        self.sampler.mshr_change(now, -1, fill.is_prefetch)
        start = fill.issue_time if fill.issue_time >= 0 else now
        self.tracer.span(
            "mshr",
            "prefetch-fill" if fill.is_prefetch else "demand-fill",
            start,
            now - start,
            PID_MSHR,
            cpu,
            {"block": fill.block, "poisoned": fill.poisoned, "exclusive": fill.exclusive},
        )

    # -------------------------------------------------------------- coherence

    def on_snoop(self, victim_cpu: int, by_cpu: int, block: int, now: int, kind: str) -> None:
        """A snoop changed remote state: invalidate / downgrade / poison."""
        self.tracer.instant(
            "coherence", kind, now, PID_CPU, victim_cpu, {"block": block, "by": by_cpu}
        )

    # -------------------------------------------------------------------- bus

    def on_bus_request(self, txn: "BusTransaction", depth: int) -> None:
        """A transaction was queued; ``depth`` is the new queue depth."""
        self.sampler.set_queue_depth(txn.issue_time, depth)

    def on_bus_grant(self, txn: "BusTransaction", depth: int) -> None:
        """A transaction was granted; records the occupancy slice."""
        self.sampler.add_bus_slice(txn.grant_time, txn.completion_time, txn.tier)
        self.sampler.set_queue_depth(txn.grant_time, depth)
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
            [proc.metrics.finish_time for proc in self.engine.procs],
            self.tracer.events(),
            self.tracer.dropped,
        )
