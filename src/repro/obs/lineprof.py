"""Dynamic per-cache-line heat attribution (a ``perf c2c`` analogue).

:class:`LineProfiler` is an :class:`~repro.obs.taps.EngineObserver`
subclass: it rides the existing tap sites -- ``on_miss_stall``,
``on_snoop``, ``on_prefetch``, ``on_mshr_start/finish``, ``on_bus_grant``
-- with zero engine edits, so unobserved runs stay bit-identical and
``ENGINE_VERSION`` stays "2".  The engine keeps constructing
``EngineObserver(self)``; the base class's ``__new__`` swaps in a
``LineProfiler`` when ``SimulationConfig.observe_lines`` is set.

Per cache line it accumulates (tap -> counter mapping; see DESIGN.md
section 5f):

* **miss causes** mirroring the 7 ``MissCounts`` buckets, via
  snapshot-deltas of the per-CPU counters taken at the taps that fire
  immediately after the engine classifies a miss (``on_mshr_start`` for
  demand fills, ``on_prefetch("merge", ...)`` for in-progress merges,
  ``on_miss_stall`` for sync merges, which have no tap at increment
  time but complete before any other access of that CPU can classify);
* **CPU-observed stall cycles**, computed at ``on_miss_stall`` with the
  engine's own formula ``max(0, end - start - 1)`` for non-sync
  accesses (upgrade stalls attribute to the upgraded line; sync-access
  stalls are tracked separately and excluded from reconciliation, as
  the engine excludes them from ``miss_wait_cycles``);
* **bus-slice cycles** by arbitration tier, ``txn.occupancy`` per grant
  at ``on_bus_grant`` (the bus adds exactly ``occupancy`` to
  ``BusStats.busy_cycles`` per grant, so the per-line sums reconcile);
* **invalidation ping-pong chains**: consecutive distinct-writer
  handoffs observed through ``on_snoop("invalidate", ...)`` taps,
  deduplicated per invalidating grant, with inter-handoff distances
  and a per-window invalidation series for sparkline rendering;
* a **prefetch efficacy ledger** classifying every issued prefetch into
  exactly one of six buckets -- ``useful`` / ``late`` / ``squashed`` /
  ``wasted`` / ``harmful`` / ``throttled`` -- via a small
  per-(cpu, block) state machine (below).

Prefetch efficacy state machine
-------------------------------

``prefetches_issued`` splits at the prefetch dispatch tap: ``drop``
actions (the ADAPT bandwidth throttle shed the prefetch before any
cache probe) count as **throttled**; ``squash`` and ``hit`` actions (no
bus fill: the block is already in flight or already resident) count as
**squashed**; ``issue`` creates a *pending* record keyed (cpu, block).  A ``merge`` tap (a demand access finding
the prefetch still in flight) marks the pending record *demanded*.  At
``on_mshr_finish`` the fill resolves: poisoned (invalidated while in
flight) -> **harmful**; demanded -> **late**; otherwise the block is
*installed* awaiting its first use.  Installed records resolve as
**useful** at the first demand access of the block by the prefetching
CPU (the engine tests the block of every access cycle -- hits,
victim-cache recoveries and upgrade completions -- against
``unused_prefetches`` and fires ``on_prefetch_used`` on a match), as
**harmful** when an ``invalidate`` snoop destroys the line before use,
and as **wasted** when the line leaves the cache unused (a later fill
for the same (cpu, block) proves the eviction) or is still unused at
end of run.

Known asymmetry (documented, tested): a *sync* access merging with an
in-flight prefetch has no ``merge`` tap, so the prefetch resolves
through the installed-record path -- ``useful`` once the sync access
retires -- instead of ``late``.  Every prefetch still lands in exactly
one bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any

from repro.obs.taps import EngineObserver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bus.transaction import BusTransaction
    from repro.sim.engine import SimulationEngine

__all__ = ["LineProfile", "LineProfiler", "LineStats", "MISS_BUCKETS"]

#: The 7 raw ``MissCounts`` buckets, in declaration order.  Per-line
#: miss counters are stored as a parallel list indexed by this tuple.
MISS_BUCKETS: tuple[str, ...] = (
    "nonsharing_unprefetched",
    "nonsharing_prefetched",
    "inval_true_unprefetched",
    "inval_true_prefetched",
    "inval_false_unprefetched",
    "inval_false_prefetched",
    "prefetch_in_progress",
)

#: A ``MissCounts``'s buckets as a tuple parallel to :data:`MISS_BUCKETS`.
_bucket_counts = attrgetter(*MISS_BUCKETS)

#: Prefetch efficacy buckets (every issued prefetch lands in exactly one).
EFFICACY_BUCKETS: tuple[str, ...] = (
    "useful",
    "late",
    "squashed",
    "wasted",
    "harmful",
    "throttled",
)


class LineStats:
    """Everything attributed to one cache line over a run.

    Attributes (all integers unless noted):
        block: the line's block address.
        misses: per-bucket miss counts, parallel to :data:`MISS_BUCKETS`.
        sync_misses: misses on sync accesses to this line.
        stall_cycles: demand-access stall cycles (the engine's
            ``miss_wait_cycles`` formula), attributed per line.
        sync_stall_cycles: stall cycles of sync accesses (informational;
            the engine excludes these from ``miss_wait_cycles``).
        bus_demand_cycles / bus_writeback_cycles / bus_prefetch_cycles:
            contended-bus occupancy consumed by this line's
            transactions, split by arbitration tier.
        bus_ops: granted bus transactions for this line.
        invalidations: invalidate snoops received (victim count).
        handoffs: deduplicated distinct-writer ownership handoffs.
        handoff_gaps / handoff_distance_sum / handoff_distance_min:
            inter-handoff distance statistics (cycles between
            consecutive handoffs).
        max_chain: longest run of consecutive distinct-writer handoffs
            (the ping-pong chain length).
        useful / late / squashed / wasted / harmful / throttled:
            prefetch efficacy.
        inval_windows: sparse ``{window_index: invalidations}`` map for
            sparkline rendering.
    """

    __slots__ = (
        "block",
        "misses",
        "sync_misses",
        "stall_cycles",
        "sync_stall_cycles",
        "bus_demand_cycles",
        "bus_writeback_cycles",
        "bus_prefetch_cycles",
        "bus_ops",
        "invalidations",
        "handoffs",
        "handoff_gaps",
        "handoff_distance_sum",
        "handoff_distance_min",
        "max_chain",
        "useful",
        "late",
        "squashed",
        "wasted",
        "harmful",
        "throttled",
        "inval_windows",
        "_last_writer",
        "_last_grant",
        "_last_handoff_time",
        "_chain",
    )

    def __init__(self, block: int) -> None:
        self.block = block
        self.misses = [0] * len(MISS_BUCKETS)
        self.sync_misses = 0
        self.stall_cycles = 0
        self.sync_stall_cycles = 0
        self.bus_demand_cycles = 0
        self.bus_writeback_cycles = 0
        self.bus_prefetch_cycles = 0
        self.bus_ops = 0
        self.invalidations = 0
        self.handoffs = 0
        self.handoff_gaps = 0
        self.handoff_distance_sum = 0
        self.handoff_distance_min = -1
        self.max_chain = 0
        self.useful = 0
        self.late = 0
        self.squashed = 0
        self.wasted = 0
        self.harmful = 0
        self.throttled = 0
        self.inval_windows: dict[int, int] = {}
        self._last_writer = -1
        self._last_grant = (-1, -1)
        self._last_handoff_time = -1
        self._chain = 0

    # ------------------------------------------------------------- derived

    @property
    def cpu_misses(self) -> int:
        """All demand CPU misses on this line (incl. prefetch-in-progress)."""
        return sum(self.misses)

    @property
    def invalidation_misses(self) -> int:
        """Invalidation misses (true + false sharing) on this line."""
        return self.misses[2] + self.misses[3] + self.misses[4] + self.misses[5]

    @property
    def false_sharing_misses(self) -> int:
        """False-sharing invalidation misses on this line."""
        return self.misses[4] + self.misses[5]

    @property
    def bus_cycles(self) -> int:
        """Total contended-bus occupancy attributed to this line."""
        return self.bus_demand_cycles + self.bus_writeback_cycles + self.bus_prefetch_cycles

    @property
    def prefetches(self) -> int:
        """Issued prefetches classified on this line (all six buckets)."""
        return (
            self.useful
            + self.late
            + self.squashed
            + self.wasted
            + self.harmful
            + self.throttled
        )

    @property
    def mean_handoff_distance(self) -> float:
        """Mean cycles between consecutive writer handoffs (0 if < 2)."""
        return self.handoff_distance_sum / self.handoff_gaps if self.handoff_gaps else 0.0

    @property
    def heat(self) -> int:
        """Ranking key: cycles of harm (stall + bus occupancy)."""
        return self.stall_cycles + self.bus_cycles

    # --------------------------------------------------------- wire format

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-safe rendering (windows keyed by str index)."""
        return {
            "block": self.block,
            "misses": list(self.misses),
            "sync_misses": self.sync_misses,
            "stall_cycles": self.stall_cycles,
            "sync_stall_cycles": self.sync_stall_cycles,
            "bus_demand_cycles": self.bus_demand_cycles,
            "bus_writeback_cycles": self.bus_writeback_cycles,
            "bus_prefetch_cycles": self.bus_prefetch_cycles,
            "bus_ops": self.bus_ops,
            "invalidations": self.invalidations,
            "handoffs": self.handoffs,
            "handoff_gaps": self.handoff_gaps,
            "handoff_distance_sum": self.handoff_distance_sum,
            "handoff_distance_min": self.handoff_distance_min,
            "max_chain": self.max_chain,
            "useful": self.useful,
            "late": self.late,
            "squashed": self.squashed,
            "wasted": self.wasted,
            "harmful": self.harmful,
            "throttled": self.throttled,
            "inval_windows": {str(w): n for w, n in self.inval_windows.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LineStats":
        """Exact inverse of :meth:`to_dict` (transients reset)."""
        line = cls(data["block"])
        line.misses = list(data["misses"])
        line.sync_misses = data["sync_misses"]
        line.stall_cycles = data["stall_cycles"]
        line.sync_stall_cycles = data["sync_stall_cycles"]
        line.bus_demand_cycles = data["bus_demand_cycles"]
        line.bus_writeback_cycles = data["bus_writeback_cycles"]
        line.bus_prefetch_cycles = data["bus_prefetch_cycles"]
        line.bus_ops = data["bus_ops"]
        line.invalidations = data["invalidations"]
        line.handoffs = data["handoffs"]
        line.handoff_gaps = data["handoff_gaps"]
        line.handoff_distance_sum = data["handoff_distance_sum"]
        line.handoff_distance_min = data["handoff_distance_min"]
        line.max_chain = data["max_chain"]
        line.useful = data["useful"]
        line.late = data["late"]
        line.squashed = data["squashed"]
        line.wasted = data["wasted"]
        line.harmful = data["harmful"]
        # .get: artifacts written before the throttled bucket existed.
        line.throttled = data.get("throttled", 0)
        line.inval_windows = {int(w): n for w, n in data["inval_windows"].items()}
        return line


@dataclass
class LineProfile:
    """The per-line attribution payload attached to ``ObsReport.lines``.

    Attributes:
        block_size: cache-line size in bytes (address -> line geometry).
        window_cycles: invalidation-sparkline window width.
        lines: per-line stats keyed by block address; only lines that
            saw any attributable activity are present.
    """

    block_size: int
    window_cycles: int
    lines: dict[int, LineStats] = field(default_factory=dict)

    @property
    def num_lines(self) -> int:
        """Lines with attributed activity."""
        return len(self.lines)

    def total(self, attr: str) -> int:
        """Sum an integer :class:`LineStats` attribute over all lines."""
        return sum(getattr(line, attr) for line in self.lines.values())

    def miss_bucket_totals(self) -> list[int]:
        """Per-bucket miss sums over all lines (parallel to MISS_BUCKETS)."""
        totals = [0] * len(MISS_BUCKETS)
        for line in self.lines.values():
            for i, n in enumerate(line.misses):
                totals[i] += n
        return totals

    def hottest(self, n: int = 20) -> list[LineStats]:
        """The ``n`` hottest lines by stall + bus cycles (ties by address)."""
        return sorted(self.lines.values(), key=lambda s: (-s.heat, s.block))[:n]

    def inval_window_series(self, blocks: "list[int] | None" = None) -> list[int]:
        """Dense per-window invalidation counts (summed over ``blocks``;
        all lines when None).  Empty when nothing was invalidated."""
        selected = (
            self.lines.values()
            if blocks is None
            else [self.lines[b] for b in blocks if b in self.lines]
        )
        last = -1
        for line in selected:
            if line.inval_windows:
                last = max(last, max(line.inval_windows))
        series = [0] * (last + 1)
        for line in selected:
            for w, count in line.inval_windows.items():
                series[w] += count
        return series

    # --------------------------------------------------------- reconciliation

    def reconcile(self, metrics: Any) -> list[str]:
        """Check per-line sums against end-of-run aggregates, exactly.

        ``metrics`` is the run's ``RunMetrics`` (duck-typed).  The
        identities (all exact, integer equality):

        * per-bucket miss sums == summed ``MissCounts`` buckets;
        * line ``sync_misses`` sum == summed ``CpuMetrics.sync_misses``;
        * line ``stall_cycles`` sum == summed ``miss_wait_cycles``;
        * line bus-cycle sum == ``BusStats.busy_cycles`` (and the
          demand/writeback/prefetch split partitions it);
        * ``useful + late + wasted + harmful`` == summed
          ``prefetch_fills``; ``squashed`` == summed
          ``prefetch_hits + prefetch_squashed``; ``throttled`` ==
          summed ``prefetch_dropped``; all six == summed
          ``prefetches_issued``.
        """
        problems: list[str] = []
        bucket_totals = self.miss_bucket_totals()
        agg = metrics.miss_counts
        for i, name in enumerate(MISS_BUCKETS):
            expect = getattr(agg, name)
            if bucket_totals[i] != expect:
                problems.append(
                    f"line miss bucket {name}: {bucket_totals[i]} != aggregate {expect}"
                )
        per_cpu = metrics.per_cpu
        checks = [
            ("sync_misses", self.total("sync_misses"), sum(c.sync_misses for c in per_cpu)),
            (
                "stall_cycles vs miss_wait_cycles",
                self.total("stall_cycles"),
                sum(c.miss_wait_cycles for c in per_cpu),
            ),
            ("bus_cycles vs busy_cycles", self.total("bus_cycles"), metrics.bus.busy_cycles),
            (
                "prefetch fills (useful+late+wasted+harmful)",
                self.total("useful") + self.total("late") + self.total("wasted") + self.total("harmful"),
                sum(c.prefetch_fills for c in per_cpu),
            ),
            (
                "prefetch squashed (hits+squashes)",
                self.total("squashed"),
                sum(c.prefetch_hits + c.prefetch_squashed for c in per_cpu),
            ),
            (
                "prefetch throttled (drops)",
                self.total("throttled"),
                sum(c.prefetch_dropped for c in per_cpu),
            ),
            (
                "prefetch efficacy total vs prefetches_issued",
                self.total("prefetches"),
                sum(c.prefetches_issued for c in per_cpu),
            ),
        ]
        for name, got, expect in checks:
            if got != expect:
                problems.append(f"line {name}: {got} != aggregate {expect}")
        return problems

    # ------------------------------------------------------------ wire format

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-safe rendering (lines keyed by str address)."""
        return {
            "block_size": self.block_size,
            "window_cycles": self.window_cycles,
            "lines": {str(block): line.to_dict() for block, line in self.lines.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LineProfile":
        """Exact inverse of :meth:`to_dict`."""
        return cls(
            block_size=data["block_size"],
            window_cycles=data["window_cycles"],
            lines={
                int(block): LineStats.from_dict(entry)
                for block, entry in data["lines"].items()
            },
        )


class LineProfiler(EngineObserver):
    """An :class:`EngineObserver` that also attributes heat per line.

    Every hook first forwards to the base class (the windowed sampler
    and timeline tracer behave identically), then updates the per-line
    ledgers.  All engine state access is read-only peeking.
    """

    def __init__(self, engine: "SimulationEngine") -> None:
        super().__init__(engine)
        num_cpus = engine.machine.num_cpus
        self.profile = LineProfile(
            block_size=engine.machine.cache.block_size,
            window_cycles=engine.sim_config.observe_window,
        )
        self._procs = engine.procs
        # Per-CPU snapshot of the 7 MissCounts buckets + sync_misses,
        # diffed at the taps that directly follow miss classification.
        self._miss_snap = [[0] * (len(MISS_BUCKETS) + 1) for _ in range(num_cpus)]
        # Prefetch efficacy: in-flight prefetch fills (value: demanded?)
        # and installed-but-unused prefetched blocks, per CPU.
        self._pending: dict[tuple[int, int], bool] = {}
        self.unused_prefetches: list[set[int]] = [set() for _ in range(num_cpus)]

    # ------------------------------------------------------------- internals

    def _line(self, block: int) -> LineStats:
        line = self.profile.lines.get(block)
        if line is None:
            line = self.profile.lines[block] = LineStats(block)
        return line

    def _flush_miss_delta(self, cpu: int, block: int) -> None:
        """Attribute any new miss classifications of ``cpu`` to ``block``.

        The engine classifies at most one access between consecutive
        flush points of a CPU (classification sites are followed by a
        tap, and sync merges -- the one site without a tap -- stall the
        CPU until its ``on_miss_stall``), so the delta belongs entirely
        to the access the tap names.
        """
        snap = self._miss_snap[cpu]
        metrics = self._procs[cpu].metrics
        line = None
        for i, now in enumerate(_bucket_counts(metrics.misses)):
            if now != snap[i]:
                if line is None:
                    line = self._line(block)
                line.misses[i] += now - snap[i]
                snap[i] = now
        sync_now = metrics.sync_misses
        if sync_now != snap[-1]:
            if line is None:
                line = self._line(block)
            line.sync_misses += sync_now - snap[-1]
            snap[-1] = sync_now

    def _resolve_installed(self, cpu: int, block: int, bucket: str) -> bool:
        """Pop an installed-unused record and credit ``bucket``."""
        installed = self.unused_prefetches[cpu]
        if block not in installed:
            return False
        installed.discard(block)
        line = self._line(block)
        setattr(line, bucket, getattr(line, bucket) + 1)
        return True

    # ------------------------------------------------------------- CPU cycles

    def on_prefetch_used(self, cpu: int, block: int) -> None:
        self._resolve_installed(cpu, block, "useful")

    def on_miss_stall(self, cpu: int, block: int, start: int, end: int, sync: bool) -> None:
        super().on_miss_stall(cpu, block, start, end, sync)
        self._flush_miss_delta(cpu, block)
        stall = end - start - 1
        if stall < 0:
            stall = 0
        line = self._line(block)
        if sync:
            line.sync_stall_cycles += stall
        else:
            line.stall_cycles += stall

    # --------------------------------------------------------------- prefetch

    def on_prefetch(self, cpu: int, action: str, block: int, now: int) -> None:
        super().on_prefetch(cpu, action, block, now)
        if action == "merge":
            self._flush_miss_delta(cpu, block)
            key = (cpu, block)
            if key in self._pending:
                self._pending[key] = True
        elif action == "squash" or action == "hit":
            self._line(block).squashed += 1
        elif action == "drop":
            self._line(block).throttled += 1

    # ------------------------------------------------------------------- MSHR

    def on_mshr_start(self, cpu: int, fill: "BusTransaction", now: int) -> None:
        super().on_mshr_start(cpu, fill, now)
        block = fill.block
        # A new fill for a block with an installed-unused prefetch record
        # proves the line silently left the cache: the old prefetch was
        # wasted (a prefetch to a still-resident line would have been a
        # prefetch hit, never reaching the MSHR).
        self._resolve_installed(cpu, block, "wasted")
        if fill.is_demand:
            self._flush_miss_delta(cpu, block)
        else:
            self._pending[(cpu, block)] = False

    def on_mshr_finish(self, cpu: int, fill: "BusTransaction", now: int) -> None:
        super().on_mshr_finish(cpu, fill, now)
        if fill.is_demand:
            return
        demanded = self._pending.pop((cpu, fill.block), False)
        line = self._line(fill.block)
        if fill.poisoned:
            line.harmful += 1
        elif demanded:
            line.late += 1
        else:
            self.unused_prefetches[cpu].add(fill.block)

    # -------------------------------------------------------------- coherence

    def on_snoop(self, victim_cpu: int, by_cpu: int, block: int, now: int, kind: str) -> None:
        super().on_snoop(victim_cpu, by_cpu, block, now, kind)
        if kind != "invalidate":
            return
        self._resolve_installed(victim_cpu, block, "harmful")
        line = self._line(block)
        line.invalidations += 1
        window = now // self.profile.window_cycles
        line.inval_windows[window] = line.inval_windows.get(window, 0) + 1
        # One invalidating grant snoops every caching CPU; dedupe so the
        # handoff ledger sees each grant once.
        if line._last_grant == (by_cpu, now):
            return
        line._last_grant = (by_cpu, now)
        if line._last_writer < 0:
            line._last_writer = by_cpu
        elif line._last_writer != by_cpu:
            line.handoffs += 1
            if line._last_handoff_time >= 0:
                gap = now - line._last_handoff_time
                line.handoff_gaps += 1
                line.handoff_distance_sum += gap
                if line.handoff_distance_min < 0 or gap < line.handoff_distance_min:
                    line.handoff_distance_min = gap
            line._last_handoff_time = now
            line._chain += 1
            if line._chain > line.max_chain:
                line.max_chain = line._chain
            line._last_writer = by_cpu
        else:
            line._chain = 0

    # -------------------------------------------------------------------- bus

    def on_bus_grant(self, txn: "BusTransaction", depth: int) -> None:
        super().on_bus_grant(txn, depth)
        line = self._line(txn.block)
        line.bus_ops += 1
        tier = txn.tier
        if tier == 0:
            line.bus_demand_cycles += txn.occupancy
        elif tier == 1:
            line.bus_writeback_cycles += txn.occupancy
        else:
            line.bus_prefetch_cycles += txn.occupancy

    # --------------------------------------------------------------- finalize

    def finalize(self, exec_cycles: int):
        """Resolve open prefetch records, attach the profile, freeze."""
        report = super().finalize(exec_cycles)
        # The bus drains before the run ends, so pending fills should be
        # empty; resolve defensively so every prefetch lands in a bucket.
        for (cpu, block), demanded in self._pending.items():
            line = self._line(block)
            if demanded:
                line.late += 1
            else:
                line.wasted += 1
        self._pending.clear()
        for installed in self.unused_prefetches:
            for block in installed:
                self._line(block).wasted += 1
            installed.clear()
        report.lines = self.profile
        return report
