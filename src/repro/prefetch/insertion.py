"""Off-line prefetch insertion into traces (the paper's section 3.1).

The pass consumes a *clean* (NP) :class:`~repro.trace.stream.MultiTrace`
and produces a new trace with :class:`~repro.trace.events.Prefetch`
events inserted and target references marked ``prefetched``.  Marking
is *copy-on-mark*: each target is replaced in the new event lists by a
fresh clone carrying the mark, and every other event is the input's own
object.  The input trace is never mutated, so one workload generation
serves every strategy, and since the engine never writes to an event,
annotated traces may share events with the clean trace and with each
other.

The result depends only on the clean trace, the strategy and the cache
geometry, never on the bus, so :func:`insert_prefetches` memoises it
for the most recent clean trace, keyed by ``(strategy, cache)``: a grid
that runs one strategy on several buses annotates once, while every
caller still asks per run.  The memo holds that trace through a weak
reference, so its annotations die with the trace, as soon as a different
trace is annotated, or when :func:`forget_annotations` is called.

Placement: the candidate reference's position on an *estimated* cycle
timeline (one cycle per instruction plus one per access, all hits --
the compile-time view) is computed, and the prefetch is inserted before
the earliest event whose estimated time is within ``distance`` cycles of
the target access.  This mirrors the paper's "estimated number of CPU
cycles between the prefetch and the actual access".
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.common.config import CacheConfig
from repro.prefetch.filter import FilterCache
from repro.prefetch.strategies import PrefetchStrategy
from repro.prefetch.wsfilter import AssociativeFilter, find_write_shared_blocks
from repro.trace.events import MemRef, Prefetch, TraceEvent
from repro.trace.stream import CpuTrace, MultiTrace

__all__ = [
    "InsertionReport",
    "estimate_access_times",
    "forget_annotations",
    "insert_prefetches",
    "place_prefetches",
]


@dataclass
class InsertionReport:
    """What the insertion pass did, per strategy application.

    Attributes:
        strategy: the strategy name.
        candidates: references identified as filter-cache misses.
        ws_extras: additional PWS candidates from the write-shared filter.
        inserted: prefetch instructions actually inserted.
        exclusive: prefetches marked exclusive-mode.
        per_cpu_inserted: insertion counts by CPU.
    """

    strategy: str
    candidates: int = 0
    ws_extras: int = 0
    inserted: int = 0
    exclusive: int = 0
    per_cpu_inserted: list[int] = field(default_factory=list)


#: The annotation memo: a weak reference to the most recent clean trace
#: and its insertion results by ``(strategy, cache)``; None when empty.
_memo: tuple[weakref.ref, dict[tuple, tuple[MultiTrace, InsertionReport]]] | None = None


def _forget_dead(ref: weakref.ref) -> None:
    """Weak-reference callback: the memo's trace died, so drop the memo."""
    global _memo
    memo = _memo
    if memo is not None and memo[0] is ref:
        _memo = None


def forget_annotations() -> None:
    """Drop the memo, for a caller about to build a new clean trace."""
    global _memo
    _memo = None


def insert_prefetches(
    trace: MultiTrace,
    strategy: PrefetchStrategy,
    cache_config: CacheConfig,
) -> tuple[MultiTrace, InsertionReport]:
    """Apply ``strategy`` to ``trace``; returns ``(new_trace, report)``.

    The new trace's event lists are fresh, but only marked targets are
    new objects; every other event is shared with ``trace``.  For NP the
    lists hold exactly the input's events and the report is empty.

    A repeat call with the same ``trace`` object, strategy and cache
    returns the same pair from the memo, so treat both as read-only.
    The memo is read once into a local: a concurrent call on another
    trace can cost a re-insertion, never another trace's annotation.
    """
    global _memo
    memo = _memo
    if memo is None or memo[0]() is not trace:
        memo = _memo = (weakref.ref(trace, _forget_dead), {})
    key = (strategy, cache_config)
    result = memo[1].get(key)
    if result is None:
        result = memo[1][key] = _annotate(trace, strategy, cache_config)
    return result


def _annotate(
    trace: MultiTrace,
    strategy: PrefetchStrategy,
    cache_config: CacheConfig,
) -> tuple[MultiTrace, InsertionReport]:
    report = InsertionReport(strategy=strategy.name)
    if not strategy.enabled:
        cpu_traces = [CpuTrace(t.cpu, t.events) for t in trace]
        report.per_cpu_inserted = [0] * trace.num_cpus
        return MultiTrace(trace.name, cpu_traces, metadata=dict(trace.metadata)), report

    ws_blocks: set[int] = set()
    if strategy.write_shared_extra:
        ws_blocks = find_write_shared_blocks(trace, cache_config.block_size)

    new_cpu_traces: list[CpuTrace] = []
    for cpu_trace in trace:
        new_cpu_traces.append(
            _insert_for_cpu(
                cpu_trace.cpu, cpu_trace.events, strategy, cache_config, ws_blocks, report
            )
        )
    new_trace = MultiTrace(trace.name, new_cpu_traces, metadata=dict(trace.metadata))
    return new_trace, report


def _insert_for_cpu(
    cpu: int,
    events: list[TraceEvent],
    strategy: PrefetchStrategy,
    cache_config: CacheConfig,
    ws_blocks: set[int],
    report: InsertionReport,
) -> CpuTrace:
    # Estimated access-start time of each event on the all-hits timeline.
    est_access = estimate_access_times(events)

    # Oracle candidates: uniprocessor filter-cache misses over demand refs.
    filter_cache = FilterCache(cache_config)
    candidates: dict[int, bool] = {}  # event index -> exclusive mode
    ws_filter = AssociativeFilter(strategy.ws_filter_lines, cache_config.block_size)
    block_mask = ~(cache_config.block_size - 1)

    for index, event in enumerate(events):
        if type(event) is not MemRef:
            continue
        hit = filter_cache.access(event.addr)
        exclusive = strategy.exclusive_writes and event.is_write
        if not hit:
            # A non-snooping prefetch buffer (private_only) cannot hold
            # shared data safely, so shared misses go uncovered.
            if not (strategy.private_only and event.shared):
                candidates[index] = exclusive
                report.candidates += 1
        if strategy.write_shared_extra and (event.addr & block_mask) in ws_blocks:
            ws_hit = ws_filter.access(event.addr)
            if not ws_hit and index not in candidates:
                # Redundant (uniprocessor-sense) prefetch of a write-shared
                # line with poor temporal locality.  Never exclusive: PWS
                # differs from PREF only in *which* lines it prefetches.
                candidates[index] = False
                report.ws_extras += 1

    merged, inserted, exclusive = place_prefetches(
        events, candidates, strategy.distance, est_access
    )
    report.inserted += inserted
    report.exclusive += exclusive

    while len(report.per_cpu_inserted) <= cpu:
        report.per_cpu_inserted.append(0)
    report.per_cpu_inserted[cpu] = inserted
    return CpuTrace(cpu, merged)


def estimate_access_times(events: list[TraceEvent]) -> list[int]:
    """Access-start times on the all-hits compile-time timeline."""
    est: list[int] = []
    clock = 0
    for event in events:
        est.append(clock + event.gap)
        clock += event.gap + 1
    return est


def place_prefetches(
    events: list[TraceEvent],
    candidates: dict[int, bool],
    distance: int,
    est_access: list[int] | None = None,
) -> tuple[list[TraceEvent], int, int]:
    """Insert prefetches ``distance`` estimated cycles before targets.

    ``candidates`` maps target event index -> exclusive mode.  The
    merged list holds a ``prefetched`` clone of each target in its
    place; ``events`` is left untouched and its other events are shared.
    Returns the merged event list and the (inserted, exclusive) counts.
    Shared by the compiler-emulation pass and the perfect-knowledge
    oracle (:mod:`repro.prefetch.oracle`).
    """
    if est_access is None:
        est_access = estimate_access_times(events)
    inserts_before: dict[int, list[Prefetch]] = {}
    marked: dict[int, MemRef] = {}
    inserted = 0
    exclusive_count = 0
    for index in sorted(candidates):
        target = events[index]
        assert type(target) is MemRef
        insert_cycle = est_access[index] - distance
        position = bisect_left(est_access, insert_cycle)
        if position > index:
            position = index
        prefetch = Prefetch(target.addr, exclusive=candidates[index], gap=0)
        inserts_before.setdefault(position, []).append(prefetch)
        clone = MemRef(target.addr, target.is_write, target.gap, target.size, target.shared)
        clone.prefetched = True
        marked[index] = clone
        inserted += 1
        if candidates[index]:
            exclusive_count += 1

    # Splice: copy the unchanged runs between split points as slices.
    merged: list[TraceEvent] = []
    start = 0
    for index in sorted(inserts_before.keys() | marked.keys()):
        merged.extend(events[start:index])
        merged.extend(inserts_before.get(index, ()))
        start = index
        clone = marked.get(index)
        if clone is not None:
            merged.append(clone)
            start = index + 1
    merged.extend(events[start:])
    return merged, inserted, exclusive_count
