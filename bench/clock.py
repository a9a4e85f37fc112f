"""Host-speed normalization of measured intervals.

The machines this benchmark runs on are shared: the speed of one vCPU
drifts by 10-30 % over minutes and dips in sub-second bursts, and the
program's host time moves with it.  Ten untraced runs of a workload
spread by up to 28 % (IQR over median) from that alone, wider than any
regression bound worth having.

A fixed pure-Python reference unit, timed on the same thread as the
measured work, is slowed by the same drift: over 10-s windows of
warm-cache passes the two correlate at 0.99, and the normalized pass
time spreads 1.2 % against 9.8 % raw.  So every interval the workloads
report is followed by reference units adding up to ``SAMPLE_SHARE`` of
it (at least one) and rescaled by ``REFERENCE_SECONDS`` over their
mean time: reported times are in *reference-host seconds*, the time the
interval would have taken on a host running the unit in
``REFERENCE_SECONDS``.

The unit shares the program's interpreter and heap, so it runs with the
cyclic garbage collector off: a collection made due by the program's
allocations, whose cost grows with the program's live heap, then runs
in the program's next interval rather than inside the unit.  The unit's
time therefore does not depend on the program, and a change to the
program moves the normalized numbers as it moves the raw ones.  Raw
times are kept in every report.
"""

from __future__ import annotations

import gc
import heapq
import json
import statistics
import time
from typing import Any

#: Time of one :func:`reference_unit` on the reference host (its median
#: there: Intel Xeon, 2 vCPUs, Python 3.11.7; see bench/README.md).  A
#: fixed scale: reported times are host times x this / the mean unit.
REFERENCE_SECONDS = 0.0055

#: Share of each measured interval spent sampling the host after it.
SAMPLE_SHARE = 0.05

#: A disk-cache-entry-shaped document for the unit's JSON half.
_DOC = json.dumps(
    {
        "per_cpu": [{f"counter{i}": i * 37 for i in range(40)} for _ in range(12)],
        "bus": {"busy_cycles": 123456, "transactions": 7890, "utilization": 0.75},
    }
)


class _Line:
    __slots__ = ("tag", "state", "owner")

    def __init__(self, tag: int, state: int, owner: int) -> None:
        self.tag = tag
        self.state = state
        self.owner = owner


def reference_unit() -> int:
    """Fixed interpreter-bound work shaped like the program's hot paths.

    A miniature event-driven snooping-cache simulation (8 CPUs, 256
    sets, 3000 events: heap, dicts, small objects, branches) followed by
    JSON parsing of a cache-entry sized document.  Deterministic: the
    same work on every call.  The cyclic collector is off while it runs
    (see the module docstring); its objects hold no cycles, so reference
    counting frees them all when it returns.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _simulate_and_parse()
    finally:
        if was_enabled:
            gc.enable()


def _simulate_and_parse() -> int:
    sets = 256
    caches: list[dict[int, _Line]] = [{} for _ in range(8)]
    heap = [(0, cpu) for cpu in range(8)]
    x, hits, bus_free = 12345, 0, 0
    for _ in range(3000):
        now, cpu = heapq.heappop(heap)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (x >> 4) % 4096
        line = caches[cpu].get(addr % sets)
        if line is not None and line.tag == addr:
            hits += 1
            now += 1
        else:
            start = max(now, bus_free)
            bus_free = start + 8
            now = start + 100
            caches[cpu][addr % sets] = _Line(addr, 1, cpu)
            if x & 1:
                for other in caches:
                    victim = other.get(addr % sets)
                    if victim is not None and victim.tag == addr and victim.owner != cpu:
                        victim.state = 0
        heapq.heappush(heap, (now, cpu))
    for _ in range(20):
        hits += len(json.loads(_DOC)["per_cpu"])
    return hits


def sample_units(count: int) -> list[float]:
    """Host seconds of ``count`` back-to-back reference units."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - t0)
    return times


def speed_factor(units: list[float]) -> float:
    """Reference-host seconds per host second, read from unit times.

    The mean, not the median: the host's slow moments slow the program
    too, in proportion to their share of the time, and the mean unit
    weighs them so (see bench/README.md).
    """
    return REFERENCE_SECONDS / statistics.fmean(units)


class Clock:
    """Normalizes measured intervals by the reference units right after each.

    ``tracer`` (a :class:`bench.layers.LayerTracer`) spans the units as
    ``bench.reference`` when tracing is on.

    Attributes:
        raw_s / norm_s: summed raw and normalized interval seconds.
        ref_s: host seconds spent in reference units (in no interval).
    """

    def __init__(self, tracer: Any) -> None:
        self._tracer = tracer
        self.raw_s = 0.0
        self.norm_s = 0.0
        self.ref_s = 0.0

    def measured(self, seconds: float) -> float:
        """Sample the host after an interval of ``seconds``; return it normalized.

        The units run until they add up to ``SAMPLE_SHARE`` of the
        interval, at least one, so a long interval is read from as
        large a share of host time as a short one.
        """
        units: list[float] = []
        with self._tracer.span("bench.reference"):
            while not units or sum(units) < SAMPLE_SHARE * seconds:
                units += sample_units(1)
        self.ref_s += sum(units)
        return self._add(seconds, speed_factor(units))

    def rest(self, seconds: float) -> float:
        """Normalize time between intervals by the mean factor so far."""
        return self._add(seconds, self.factor)

    @property
    def factor(self) -> float:
        """Normalized over raw seconds so far (1 before any interval)."""
        return self.norm_s / self.raw_s if self.raw_s else 1.0

    def _add(self, seconds: float, factor: float) -> float:
        self.raw_s += seconds
        self.norm_s += seconds * factor
        return seconds * factor
