"""Trace containers: one event list per CPU, plus validation.

A :class:`MultiTrace` is the unit handed from a workload generator to the
prefetch-insertion pass and then to the simulator.  Validation checks the
synchronization structure (balanced lock pairs, consistent barrier
sequences) once, up front, so the simulation engine can assume it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.common.errors import TraceError
from repro.trace.events import Barrier, LockAcquire, LockRelease, MemRef, Prefetch, TraceEvent

__all__ = ["CpuTrace", "MultiTrace"]


class CpuTrace:
    """The ordered event stream of a single CPU.

    Attributes:
        cpu: the CPU index this stream belongs to.
        events: the event list.  Treat it and its events as read-only:
            the insertion pass builds new lists that share the unmarked
            events, and annotated traces are memoised across runs.
    """

    __slots__ = ("cpu", "events")

    def __init__(self, cpu: int, events: Iterable[TraceEvent] = ()) -> None:
        self.cpu = cpu
        self.events: list[TraceEvent] = list(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self.events[index]

    def append(self, event: TraceEvent) -> None:
        """Append one event to the stream."""
        self.events.append(event)

    def count_memrefs(self) -> int:
        """Number of demand data references (lock/barrier RMWs excluded)."""
        return sum(1 for e in self.events if type(e) is MemRef)

    def count_prefetches(self) -> int:
        """Number of prefetch instructions in the stream."""
        return sum(1 for e in self.events if type(e) is Prefetch)

    def validate(self) -> None:
        """Raise :class:`TraceError` if the stream is locally malformed.

        Checks: no lock released that is not held, no lock left held at
        the end of the stream, no nested acquire of the same lock.
        """
        held: set[int] = set()
        for i, event in enumerate(self.events):
            if type(event) is MemRef:
                continue  # the bulk of every stream; no lock state
            if isinstance(event, LockAcquire):
                if event.lock_id in held:
                    raise TraceError(
                        f"cpu {self.cpu} event {i}: lock {event.lock_id} acquired while already held"
                    )
                held.add(event.lock_id)
            elif isinstance(event, LockRelease):
                if event.lock_id not in held:
                    raise TraceError(
                        f"cpu {self.cpu} event {i}: lock {event.lock_id} released but not held"
                    )
                held.discard(event.lock_id)
        if held:
            raise TraceError(f"cpu {self.cpu}: locks still held at end of trace: {sorted(held)}")

    def barrier_sequence(self) -> list[int]:
        """The ordered list of barrier ids this CPU participates in."""
        # Exact types, as the engine dispatches.
        return [e.barrier_id for e in self.events if type(e) is Barrier]


class MultiTrace:
    """A complete multiprocessor trace: one :class:`CpuTrace` per CPU.

    Attributes:
        name: human-readable label (workload name), used in reports.
        cpus: per-CPU traces, indexed by CPU id.
        metadata: free-form workload facts (data-set size, shared bytes,
            ...) surfaced by the Table 1 experiment.
    """

    def __init__(
        self,
        name: str,
        cpu_traces: Sequence[CpuTrace],
        metadata: dict[str, object] | None = None,
    ) -> None:
        if not cpu_traces:
            raise TraceError("a MultiTrace needs at least one CPU trace")
        for i, trace in enumerate(cpu_traces):
            if trace.cpu != i:
                raise TraceError(f"cpu trace at position {i} is labelled cpu {trace.cpu}")
        self.name = name
        self.cpus: list[CpuTrace] = list(cpu_traces)
        self.metadata: dict[str, object] = dict(metadata or {})

    @property
    def num_cpus(self) -> int:
        """Number of processors in the trace."""
        return len(self.cpus)

    def __iter__(self) -> Iterator[CpuTrace]:
        return iter(self.cpus)

    def __getitem__(self, cpu: int) -> CpuTrace:
        return self.cpus[cpu]

    def total_memrefs(self) -> int:
        """Total demand references across all CPUs."""
        return sum(t.count_memrefs() for t in self.cpus)

    def total_prefetches(self) -> int:
        """Total prefetch instructions across all CPUs."""
        return sum(t.count_prefetches() for t in self.cpus)

    def validate(self) -> None:
        """Validate every CPU stream and the cross-CPU barrier structure.

        All CPUs must execute the same sequence of barrier ids (every
        barrier is global in this model); anything else would deadlock the
        simulator.
        """
        for trace in self.cpus:
            trace.validate()
        sequences = {tuple(t.barrier_sequence()) for t in self.cpus}
        if len(sequences) > 1:
            raise TraceError(
                f"trace '{self.name}': CPUs disagree on the barrier sequence; "
                f"saw {len(sequences)} distinct sequences"
            )
