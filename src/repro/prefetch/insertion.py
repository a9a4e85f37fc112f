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

The pass runs in two stages:

* a **plan** per (clean trace, cache geometry): the indices of the
  references that miss in the uniprocessor filter cache
  (:class:`~repro.prefetch.filter.FilterCache`) and, for write-shared
  strategies, those that miss in the PWS temporal-locality filter
  (:class:`~repro.prefetch.wsfilter.AssociativeFilter`).  The filters
  see every reference whatever the strategy, so every strategy on one
  trace and geometry shares one filter pass;
* per strategy, **candidate selection** from the plan (exclusive mode,
  private-only, write-shared extras) and then :func:`place_prefetches`.

The result depends only on the clean trace, the strategy fields the
pass reads and the cache geometry, never on the bus, so
:func:`insert_prefetches` memoises plans and annotations for the most
recent clean trace: a grid that runs one strategy on several buses
annotates once, and strategies that insert alike share one annotated
trace -- ADAPT "inserts exactly PWS's prefetches", so it gets PWS's
trace with a report that names ADAPT.  Every caller still asks per run.
The memo holds that trace through a weak reference, so its plans (index
arrays only) and annotations die with the trace, as soon as a different
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
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import accumulate, count
from operator import add, attrgetter

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


Annotation = tuple[MultiTrace, InsertionReport]


class _Memo:
    """Everything memoised for one clean trace.

    Attributes:
        ref: weak reference to the trace.
        plans: per-CPU filter-miss index arrays, keyed by
            ``("filter", size, block size, associativity)`` and, for the
            PWS filter, ``("ws", block size, filter lines)``.
        annotated: annotations by :func:`_insertion_key`.
        pairs: the pair returned per ``(strategy, cache)``, so a repeat
            call returns the very same pair.
    """

    __slots__ = ("ref", "plans", "annotated", "pairs")

    def __init__(self, ref: weakref.ref) -> None:
        self.ref = ref
        self.plans: dict[tuple, list[array]] = {}
        self.annotated: dict[tuple | None, Annotation] = {}
        self.pairs: dict[tuple[PrefetchStrategy, CacheConfig], Annotation] = {}


#: The memo of the most recent clean trace; None when empty.
_memo: _Memo | None = None


def _forget_dead(ref: weakref.ref) -> None:
    """Weak-reference callback: the memo's trace died, so drop the memo."""
    global _memo
    memo = _memo
    if memo is not None and memo.ref is ref:
        _memo = None


def forget_annotations() -> None:
    """Drop the memo, for a caller about to build a new clean trace."""
    global _memo
    _memo = None


def _memo_of(trace: MultiTrace) -> _Memo:
    """``trace``'s memo, replacing another trace's.

    The memo is read once into a local: a concurrent call on another
    trace can cost a recomputation, never another trace's entry.
    """
    global _memo
    memo = _memo
    if memo is None or memo.ref() is not trace:
        memo = _memo = _Memo(weakref.ref(trace, _forget_dead))
    return memo


def _insertion_key(strategy: PrefetchStrategy, cache: CacheConfig) -> tuple | None:
    """The strategy fields and cache geometry the pass reads (None: NP,
    which inserts nothing whatever the cache)."""
    if not strategy.enabled:
        return None
    return (
        strategy.distance,
        strategy.exclusive_writes,
        strategy.private_only,
        strategy.ws_filter_lines if strategy.write_shared_extra else 0,
        cache.size_bytes,
        cache.block_size,
        cache.associativity,
    )


def insert_prefetches(
    trace: MultiTrace,
    strategy: PrefetchStrategy,
    cache_config: CacheConfig,
) -> Annotation:
    """Apply ``strategy`` to ``trace``; returns ``(new_trace, report)``.

    The new trace's event lists are fresh, but only marked targets are
    new objects; every other event is shared with ``trace``.  For NP the
    lists hold exactly the input's events and the report is empty.

    A repeat call with the same ``trace`` object, strategy and cache
    returns the same pair from the memo, and strategies that insert
    alike share the new trace, so treat both as read-only.
    """
    memo = _memo_of(trace)
    pair = memo.pairs.get((strategy, cache_config))
    if pair is None:
        key = _insertion_key(strategy, cache_config)
        shared = memo.annotated.get(key)
        if shared is None:
            pair = memo.annotated[key] = _annotate(trace, strategy, cache_config)
        else:
            annotated, report = shared
            per_cpu = list(report.per_cpu_inserted)
            pair = (annotated, replace(report, strategy=strategy.name, per_cpu_inserted=per_cpu))
        memo.pairs[(strategy, cache_config)] = pair
    return pair


def _compact(indices: list[int]) -> array:
    """An index list as 4-byte machine integers: a plan lives as long as
    its trace, and ``int`` objects would cost it 36 bytes an entry."""
    return array("I", indices)


def _filter_misses(trace: MultiTrace, cache: CacheConfig) -> list[array]:
    """Per CPU, the indices of the references that miss in the oracle's
    uniprocessor filter: the plan, computed once per cache geometry."""
    plans = _memo_of(trace).plans
    key = ("filter", cache.size_bytes, cache.block_size, cache.associativity)
    misses = plans.get(key)
    if misses is None:
        misses = plans[key] = [_compact(FilterCache(cache).miss_indices(t.events)) for t in trace]
    return misses


def _ws_filter_misses(trace: MultiTrace, cache: CacheConfig, lines: int) -> list[array]:
    """Per CPU, the indices of the write-shared references that miss in
    a ``lines``-line PWS filter: the plan's write-shared part."""
    plans = _memo_of(trace).plans
    key = ("ws", cache.block_size, lines)
    misses = plans.get(key)
    if misses is None:
        blocks = find_write_shared_blocks(trace, cache.block_size)
        misses = plans[key] = [
            _compact(AssociativeFilter(lines, cache.block_size).miss_indices(t.events, blocks))
            for t in trace
        ]
    return misses


def _annotate(
    trace: MultiTrace,
    strategy: PrefetchStrategy,
    cache: CacheConfig,
) -> Annotation:
    report = InsertionReport(strategy=strategy.name, per_cpu_inserted=[0] * trace.num_cpus)
    if not strategy.enabled:
        cpu_traces = [CpuTrace(t.cpu, t.events) for t in trace]
        return MultiTrace(trace.name, cpu_traces, metadata=dict(trace.metadata)), report

    # Oracle candidates: uniprocessor filter-cache misses over demand refs.
    filter_misses = _filter_misses(trace, cache)
    ws_misses = None
    if strategy.write_shared_extra:
        ws_misses = _ws_filter_misses(trace, cache, strategy.ws_filter_lines)

    new_cpu_traces: list[CpuTrace] = []
    for cpu_trace in trace:
        cpu = cpu_trace.cpu
        events = cpu_trace.events
        misses = filter_misses[cpu]
        if strategy.private_only:
            # A non-snooping prefetch buffer cannot hold shared data
            # safely, so shared misses go uncovered.
            misses = [index for index in misses if not events[index].shared]
        if strategy.exclusive_writes:
            candidates = {index: events[index].is_write for index in misses}
        else:
            candidates = dict.fromkeys(misses, False)
        report.candidates += len(candidates)
        if ws_misses is not None:
            # Redundant (uniprocessor-sense) prefetches of write-shared
            # lines with poor temporal locality.  Never exclusive: PWS
            # differs from PREF only in *which* lines it prefetches.
            for index in ws_misses[cpu]:
                if index not in candidates:
                    candidates[index] = False
                    report.ws_extras += 1
        merged, inserted, exclusive = place_prefetches(events, candidates, strategy.distance)
        report.inserted += inserted
        report.exclusive += exclusive
        report.per_cpu_inserted[cpu] = inserted
        new_cpu_traces.append(CpuTrace(cpu, merged))
    return MultiTrace(trace.name, new_cpu_traces, metadata=dict(trace.metadata)), report


_gap_of = attrgetter("gap")


def estimate_access_times(events: list[TraceEvent]) -> list[int]:
    """Access-start times on the all-hits compile-time timeline.

    Event ``i`` starts its access after every earlier event's gap and
    access cycle and its own gap: the running sum of gaps plus ``i``.
    """
    return list(map(add, accumulate(map(_gap_of, events)), count()))


def place_prefetches(
    events: list[TraceEvent],
    candidates: dict[int, bool],
    distance: int,
) -> tuple[list[TraceEvent], int, int]:
    """Insert prefetches ``distance`` estimated cycles before targets.

    ``candidates`` maps target event index -> exclusive mode.  The
    merged list holds a ``prefetched`` clone of each target in its
    place; ``events`` is left untouched and its other events are shared.
    Returns the merged event list and the (inserted, exclusive) counts.
    Shared by the compiler-emulation pass and the perfect-knowledge
    oracle (:mod:`repro.prefetch.oracle`).
    """
    est_access = estimate_access_times(events)
    targets = sorted(candidates)
    # Estimated times strictly increase, so the insert positions of the
    # sorted targets never decrease, and a prefetch never lands after
    # its own target.
    positions = [min(bisect_left(est_access, est_access[i] - distance), i) for i in targets]
    prefetches = [Prefetch(events[i].addr, candidates[i], 0) for i in targets]
    clones = [events[i].marked() for i in targets]  # only a MemRef has marked()
    merged: list[TraceEvent] = []
    extend = merged.extend
    append = merged.append
    start = 0  # events[start:] are not yet copied
    pending = 0  # prefetches[pending:] are not yet emitted
    inserted = len(targets)
    for index, clone in zip(targets, clones):
        # Prefetches placed at or before this target, in target order.
        while pending < inserted and positions[pending] <= index:
            position = positions[pending]
            extend(events[start:position])
            start = position
            append(prefetches[pending])
            pending += 1
        extend(events[start:index])
        append(clone)
        start = index + 1
    extend(events[start:])
    return merged, inserted, sum(map(bool, candidates.values()))
