"""Result containers produced by one simulation run.

Each record has two lossless encodings, both driven by its field
table (:class:`~repro.common.codec.FieldTable`): ``to_dict`` keys every
value by its field name (the pool crossing, the service API and the
bench digests read it), and ``to_row`` lists the values in field order
(the disk cache stores it: a 12-CPU result is about a quarter of the
bytes, since the dict form repeats some 500 key strings).
``RunMetrics.from_dict`` decodes either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.bus.bus import _BUS_FIELDS, _KIND_FIELDS, BusStats
from repro.common.codec import FieldTable, schema_tag

if TYPE_CHECKING:
    from repro.audit.report import AuditReport
    from repro.obs.sampler import ObsReport

__all__ = ["ROW_SCHEMA", "CpuMetrics", "MissCounts", "RunMetrics"]


@dataclass
class MissCounts:
    """CPU (demand) miss counts broken down as in Figure 3 of the paper.

    The two classification axes are *cause* (non-sharing vs. invalidation,
    the latter split into true and false sharing) and *coverage* (was the
    access covered by an inserted prefetch), plus the fifth category of
    accesses that found their prefetch still in progress.
    """

    nonsharing_unprefetched: int = 0
    nonsharing_prefetched: int = 0
    inval_true_unprefetched: int = 0
    inval_true_prefetched: int = 0
    inval_false_unprefetched: int = 0
    inval_false_prefetched: int = 0
    prefetch_in_progress: int = 0

    @property
    def nonsharing(self) -> int:
        """All non-sharing CPU misses (cold + capacity + conflict)."""
        return self.nonsharing_unprefetched + self.nonsharing_prefetched

    @property
    def invalidation(self) -> int:
        """All invalidation CPU misses (true + false sharing)."""
        return (
            self.inval_true_unprefetched
            + self.inval_true_prefetched
            + self.inval_false_unprefetched
            + self.inval_false_prefetched
        )

    @property
    def false_sharing(self) -> int:
        """Invalidation misses caused by false sharing."""
        return self.inval_false_unprefetched + self.inval_false_prefetched

    @property
    def prefetched(self) -> int:
        """CPU misses on accesses that *were* covered by a prefetch
        (the prefetched data disappeared or never made it in time)."""
        return (
            self.nonsharing_prefetched
            + self.inval_true_prefetched
            + self.inval_false_prefetched
            + self.prefetch_in_progress
        )

    @property
    def cpu_misses(self) -> int:
        """All CPU misses, including prefetch-in-progress."""
        return self.nonsharing + self.invalidation + self.prefetch_in_progress

    @property
    def adjusted_cpu_misses(self) -> int:
        """CPU misses excluding prefetch-in-progress."""
        return self.nonsharing + self.invalidation

    def add(self, other: "MissCounts") -> None:
        """Accumulate ``other`` into this instance."""
        self.nonsharing_unprefetched += other.nonsharing_unprefetched
        self.nonsharing_prefetched += other.nonsharing_prefetched
        self.inval_true_unprefetched += other.inval_true_unprefetched
        self.inval_true_prefetched += other.inval_true_prefetched
        self.inval_false_unprefetched += other.inval_false_unprefetched
        self.inval_false_prefetched += other.inval_false_prefetched
        self.prefetch_in_progress += other.prefetch_in_progress

    def to_dict(self) -> dict[str, int]:
        """JSON-safe dict of the raw counters (properties are derived)."""
        return _MISS_FIELDS.encode(self)

    def to_row(self) -> list[int]:
        """The raw counters in field order."""
        return _MISS_FIELDS.row(self)

    @classmethod
    def from_dict(cls, data: dict[str, int] | list[int]) -> "MissCounts":
        """Exact inverse of :meth:`to_dict` and :meth:`to_row`; ValueError
        unless ``data`` carries exactly this version's counters."""
        return cls(*_MISS_FIELDS.decode(data))


@dataclass
class CpuMetrics:
    """Per-processor counters for one run.

    Attributes:
        cpu: processor id.
        demand_refs: demand data references executed (sync excluded).
        sync_refs: lock/barrier read-modify-write accesses.
        misses: demand-miss breakdown.
        sync_misses: misses on sync accesses (bus traffic, not in rates).
        prefetches_issued: prefetch instructions executed.
        prefetch_hits: prefetches that hit in cache (no bus operation).
        prefetch_fills: prefetches that went to the bus (prefetch misses).
        prefetch_squashed: prefetches dropped because a fill for the same
            block was already in flight.
        prefetch_dropped: prefetches shed by the ADAPT bandwidth
            throttle before probing the cache (always 0 for open-loop
            strategies).
        upgrades: UPGRADE bus operations initiated (write hits on SHARED).
        writebacks: dirty-victim copy-backs initiated.
        victim_hits: demand accesses recovered from the victim cache.
        miss_wait_cycles: cycles demand accesses spent stalled on misses
            (fills, upgrades and prefetch-in-progress waits); divided by
            the miss count this is the paper's "access time for CPU
            misses", which contention inflates.
        busy_cycles: cycles doing useful work (instruction gaps + 1-cycle
            cache-hit accesses + prefetch issue overhead).
        stall_cycles: cycles stalled on misses/upgrades/prefetch-buffer.
        sync_wait_cycles: cycles blocked on locks/barriers.
        prefetch_buffer_stalls: times the CPU stalled issuing a prefetch
            because the 16-deep buffer was full.
        finish_time: cycle at which this CPU retired its last event.
    """

    cpu: int
    demand_refs: int = 0
    sync_refs: int = 0
    misses: MissCounts = field(default_factory=MissCounts)
    sync_misses: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0
    prefetch_fills: int = 0
    prefetch_squashed: int = 0
    prefetch_dropped: int = 0
    upgrades: int = 0
    writebacks: int = 0
    victim_hits: int = 0
    miss_wait_cycles: int = 0
    busy_cycles: int = 0
    stall_cycles: int = 0
    sync_wait_cycles: int = 0
    prefetch_buffer_stalls: int = 0
    finish_time: int = 0

    @property
    def utilization(self) -> float:
        """Fraction of this CPU's lifetime spent doing useful work."""
        return self.busy_cycles / self.finish_time if self.finish_time else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict; ``misses`` nested via :meth:`MissCounts.to_dict`."""
        data = _CPU_FIELDS.encode(self)
        data["misses"] = self.misses.to_dict()
        return data

    def to_row(self) -> list[Any]:
        """Positional form; ``misses`` nested via :meth:`MissCounts.to_row`."""
        row = _CPU_FIELDS.row(self)
        row[_MISSES_AT] = self.misses.to_row()
        return row

    @classmethod
    def from_dict(cls, data: dict[str, Any] | list[Any]) -> "CpuMetrics":
        """Exact inverse of :meth:`to_dict` and :meth:`to_row`; ValueError
        unless ``data`` carries exactly this version's fields."""
        # A well-formed row (a cache hit decodes one per CPU) is built directly.
        if type(data) is list and len(data) == len(_CPU_FIELDS.names):
            misses = data[_MISSES_AT]
            if type(misses) is list and len(misses) == len(_MISS_FIELDS.names):
                cpu = cls(*data)
                cpu.misses = MissCounts(*misses)
                return cpu
        cpu = cls(*_CPU_FIELDS.decode(data))
        cpu.misses = MissCounts.from_dict(cpu.misses)
        return cpu


@dataclass
class RunMetrics:
    """Complete results of one (workload, strategy, machine) simulation.

    The rate properties implement the paper's metrics; raw counters stay
    available for deeper analysis and the test suite's invariants.
    """

    workload: str
    strategy: str
    machine: dict[str, Any]
    exec_cycles: int
    per_cpu: list[CpuMetrics]
    bus: BusStats
    #: Sanitizer outcome when the run executed with audits enabled
    #: (:mod:`repro.audit`); None otherwise.  Excluded from equality so
    #: audited and unaudited runs of the same configuration compare
    #: equal -- the audit contract is that hooks never change results.
    audit: AuditReport | None = field(default=None, compare=False)
    #: Observability payload when the run executed with
    #: ``SimulationConfig.observe`` on (:mod:`repro.obs`); None
    #: otherwise.  Excluded from equality for the same reason: taps
    #: never change simulated results.
    obs: ObsReport | None = field(default=None, compare=False)

    # ------------------------------------------------------------ aggregates

    @property
    def num_cpus(self) -> int:
        """Processor count."""
        return len(self.per_cpu)

    @property
    def demand_refs(self) -> int:
        """Total demand references across CPUs (rate denominator)."""
        return sum(c.demand_refs for c in self.per_cpu)


    @property
    def miss_counts(self) -> MissCounts:
        """Summed demand-miss breakdown."""
        total = MissCounts()
        for cpu in self.per_cpu:
            total.add(cpu.misses)
        return total

    @property
    def prefetches_issued(self) -> int:
        """Prefetch instructions executed across CPUs."""
        return sum(c.prefetches_issued for c in self.per_cpu)

    @property
    def prefetch_fills(self) -> int:
        """Prefetch accesses that missed and used the bus."""
        return sum(c.prefetch_fills for c in self.per_cpu)

    @property
    def prefetch_drops(self) -> int:
        """Prefetches shed by the ADAPT throttle across CPUs."""
        return sum(c.prefetch_dropped for c in self.per_cpu)

    @property
    def upgrades(self) -> int:
        """Invalidating (upgrade) bus operations."""
        return sum(c.upgrades for c in self.per_cpu)

    # ----------------------------------------------------------------- rates

    @property
    def cpu_miss_rate(self) -> float:
        """CPU misses (incl. prefetch-in-progress) per demand reference."""
        refs = self.demand_refs
        return self.miss_counts.cpu_misses / refs if refs else 0.0

    @property
    def adjusted_cpu_miss_rate(self) -> float:
        """CPU miss rate excluding prefetch-in-progress misses."""
        refs = self.demand_refs
        return self.miss_counts.adjusted_cpu_misses / refs if refs else 0.0

    @property
    def total_miss_rate(self) -> float:
        """All fill-generating misses (demand + prefetch) per reference.

        Prefetch-in-progress misses do not generate a second fill, so the
        numerator is adjusted CPU misses plus prefetch fills.
        """
        refs = self.demand_refs
        if not refs:
            return 0.0
        return (self.miss_counts.adjusted_cpu_misses + self.prefetch_fills) / refs

    @property
    def invalidation_miss_rate(self) -> float:
        """Invalidation misses per demand reference (Table 3, column 1)."""
        refs = self.demand_refs
        return self.miss_counts.invalidation / refs if refs else 0.0

    @property
    def false_sharing_miss_rate(self) -> float:
        """False-sharing misses per demand reference (Table 3, column 2)."""
        refs = self.demand_refs
        return self.miss_counts.false_sharing / refs if refs else 0.0

    @property
    def avg_miss_latency(self) -> float:
        """Mean cycles a demand CPU miss stalled the processor.

        The unloaded machine floor is ``memory_latency``; anything above
        it is queuing for the contended bus -- the quantity the paper
        says grows with prefetching ("an increase in the access time for
        CPU misses, due to high memory subsystem contention").
        """
        misses = self.miss_counts.cpu_misses
        if not misses:
            return 0.0
        return sum(c.miss_wait_cycles for c in self.per_cpu) / misses

    @property
    def bus_utilization(self) -> float:
        """Fraction of execution time the contended resource was busy."""
        return self.bus.utilization(self.exec_cycles)

    @property
    def processor_utilization(self) -> float:
        """Mean fraction of time CPUs spent doing useful work.

        Computed against the run's execution time, so CPUs idling after
        finishing early count as idle (matches the intuition behind the
        paper's "best any latency-hiding technique can do is bring
        processor utilization to 1").
        """
        if not self.exec_cycles or not self.per_cpu:
            return 0.0
        return sum(c.busy_cycles for c in self.per_cpu) / (
            self.exec_cycles * len(self.per_cpu)
        )

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-safe rendering of the full result.

        Unlike :meth:`describe` (a flat summary of derived rates), this
        keeps every raw counter so :meth:`from_dict` reconstructs an
        *equal* object -- the contract the disk cache and the
        process-parallel runner rely on to make cached/parallel runs
        indistinguishable from in-process ones.
        """
        data = _RUN_FIELDS.encode(self)
        data["per_cpu"] = [c.to_dict() for c in self.per_cpu]
        data["bus"] = self.bus.to_dict()
        if self.audit is not None:
            data["audit"] = self.audit.to_dict()
        if self.obs is not None:
            data["obs"] = self.obs.to_dict()
        return data

    def to_row(self) -> dict[str, Any]:
        """The compact form the disk cache stores.

        :meth:`to_dict` with every per-CPU and bus record as a row, and
        :data:`ROW_SCHEMA` under ``"row_schema"`` first.  The six run
        fields stay keyed: they cost a few dozen bytes, and a loaded
        entry's ``exec_cycles`` or ``machine`` reads by name.  Carries
        no ``audit`` or ``obs`` payload (such runs bypass the cache).
        """
        data = {"row_schema": ROW_SCHEMA, **_RUN_FIELDS.encode(self)}
        data["per_cpu"] = [c.to_row() for c in self.per_cpu]
        data["bus"] = self.bus.to_row()
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunMetrics":
        """Exact inverse of :meth:`to_dict` and of :meth:`to_row`.

        Raises ValueError when any record's keys (or a row's length)
        differ from this version's fields, or a row form's
        ``row_schema`` is not :data:`ROW_SCHEMA`, so a stored result of
        another schema never decodes to a partial or zero-filled object.
        """
        if "row_schema" in data:
            values = _ROW_FIELDS.decode(data)
            if values[0] != ROW_SCHEMA:
                raise ValueError(f"row schema {values[0]!r} is not {ROW_SCHEMA!r}")
            run = cls(*values[1:])
        else:
            run = cls(*_RUN_FIELDS.decode(data))
        cpu_from_dict = CpuMetrics.from_dict
        run.per_cpu = [cpu_from_dict(cpu) for cpu in run.per_cpu]
        run.bus = BusStats.from_dict(run.bus)
        # The payload classes load with the first payload that carries one.
        if run.audit is not None:
            from repro.audit.report import AuditReport

            run.audit = AuditReport.from_dict(run.audit)
        if run.obs is not None:
            from repro.obs.sampler import ObsReport

            run.obs = ObsReport.from_dict(run.obs)
        return run

    def describe(self) -> dict[str, Any]:
        """Flat summary dict (JSON-friendly; used by reports and caching)."""
        mc = self.miss_counts
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "exec_cycles": self.exec_cycles,
            "demand_refs": self.demand_refs,
            "cpu_miss_rate": self.cpu_miss_rate,
            "adjusted_cpu_miss_rate": self.adjusted_cpu_miss_rate,
            "total_miss_rate": self.total_miss_rate,
            "invalidation_miss_rate": self.invalidation_miss_rate,
            "false_sharing_miss_rate": self.false_sharing_miss_rate,
            "bus_utilization": self.bus_utilization,
            "avg_miss_latency": self.avg_miss_latency,
            "processor_utilization": self.processor_utilization,
            "prefetches_issued": self.prefetches_issued,
            "prefetch_fills": self.prefetch_fills,
            "prefetch_dropped": self.prefetch_drops,
            "upgrades": self.upgrades,
            "miss_components": {
                "nonsharing_unprefetched": mc.nonsharing_unprefetched,
                "nonsharing_prefetched": mc.nonsharing_prefetched,
                "inval_true_unprefetched": mc.inval_true_unprefetched,
                "inval_true_prefetched": mc.inval_true_prefetched,
                "inval_false_unprefetched": mc.inval_false_unprefetched,
                "inval_false_prefetched": mc.inval_false_prefetched,
                "prefetch_in_progress": mc.prefetch_in_progress,
            },
        }


#: Each record's field table: its ``to_dict``, ``to_row`` and ``from_dict`` read it.
_MISS_FIELDS = FieldTable.of(MissCounts)
_CPU_FIELDS = FieldTable.of(CpuMetrics)
_RUN_FIELDS = FieldTable.of(RunMetrics, optional=("audit", "obs"))
_ROW_FIELDS = FieldTable("RunMetrics row", ("row_schema", *_RUN_FIELDS.names))
_MISSES_AT = _CPU_FIELDS.names.index("misses")

#: The tag of :meth:`RunMetrics.to_row`: a hash of the ordered field
#: names of every record a row nests.  Rows carry no names, so a row
#: written under other tables (a field renamed, added, dropped or
#: moved) is refused by this tag, not misread by position.
ROW_SCHEMA = schema_tag(_MISS_FIELDS, _CPU_FIELDS, _BUS_FIELDS, _KIND_FIELDS, _RUN_FIELDS)
