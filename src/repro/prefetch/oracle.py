"""The perfect-knowledge prefetcher: an upper bound on prediction.

Section 2 of the paper notes that "predicting invalidation misses so
that they can be accurately prefetched will be more difficult than
predicting other types of misses, due to the non-deterministic nature
of invalidation traffic" -- the paper's oracle predicts only
*non-sharing* misses.  This module asks the complementary question the
paper leaves open: **if a prefetcher could predict every miss,
including invalidations, how much would it win?**

Construction: simulate the NP trace once on the target machine,
recording which references missed, then insert a prefetch ``distance``
estimated cycles before *exactly those references*.  This is strictly
stronger than any realizable predictor (it reads the future of the
actual multiprocessor interleaving), so whatever gap remains between it
and NP utilization 1.0 is attributable to the *machine* -- bus
occupancy, queuing, prefetch-in-progress latency, re-invalidation --
not to prediction quality.  The `perfect_prediction_bound` benchmark
shows that even this oracle stays well under the utilization bound on a
bus-based machine, sharpening the paper's conclusion.

Caveat: prefetching perturbs the interleaving, so the second run's
misses are not literally the recorded set; the construction is the
standard one-pass approximation (the paper's own filter has the same
property for conflict misses).
"""

from __future__ import annotations

from repro.common.config import MachineConfig, SimulationConfig
from repro.prefetch.insertion import InsertionReport, place_prefetches
from repro.sim.engine import SimulationEngine
from repro.trace.events import MemRef
from repro.trace.stream import CpuTrace, MultiTrace

__all__ = ["insert_perfect_prefetches"]


def insert_perfect_prefetches(
    trace: MultiTrace,
    machine: MachineConfig,
    distance: int = 100,
    exclusive_writes: bool = False,
) -> tuple[MultiTrace, InsertionReport]:
    """Annotate ``trace`` with prefetches for every miss of an NP run.

    Args:
        trace: the clean (NP) trace.
        machine: the machine whose NP run defines the miss set; the
            annotated trace should then be simulated on this machine.
        distance: prefetch distance in estimated CPU cycles.
        exclusive_writes: prefetch missing writes in exclusive mode.

    Returns ``(annotated_trace, report)`` like
    :func:`~repro.prefetch.insertion.insert_prefetches`; the report's
    strategy name is ``"ORACLE"``.
    """
    # Pass 1: a recording NP run over the clean trace (the engine never
    # writes to an event, so it needs no private copy).
    engine = SimulationEngine(trace, machine, SimulationConfig(record_miss_indices=True))
    engine.run()

    misses_by_cpu: dict[int, list[int]] = {}
    for cpu, index in engine.miss_indices:
        misses_by_cpu.setdefault(cpu, []).append(index)

    # Pass 2: place prefetches for exactly the recorded misses over the
    # clean events (copy-on-mark, see place_prefetches).
    report = InsertionReport(strategy="ORACLE", per_cpu_inserted=[0] * trace.num_cpus)
    new_traces: list[CpuTrace] = []
    for cpu_trace in trace:
        events = cpu_trace.events
        candidates: dict[int, bool] = {}
        for index in misses_by_cpu.get(cpu_trace.cpu, ()):
            event = events[index]
            if type(event) is not MemRef:  # pragma: no cover - engine invariant
                continue
            candidates[index] = exclusive_writes and event.is_write
        merged, inserted, exclusive = place_prefetches(events, candidates, distance)
        report.candidates += len(candidates)
        report.inserted += inserted
        report.exclusive += exclusive
        report.per_cpu_inserted[cpu_trace.cpu] = inserted
        new_traces.append(CpuTrace(cpu_trace.cpu, merged))

    return MultiTrace(trace.name, new_traces, metadata=dict(trace.metadata)), report
