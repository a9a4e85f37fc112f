"""Windowed telemetry: lossless per-window time series.

The :class:`WindowedSampler` folds every cycle-accounted quantity the
engine produces into fixed-width time windows, *exactly*: each busy
slice, bus occupancy slice and sync wait is split across the window
boundaries it crosses, so summing a series over all windows recovers
the end-of-run aggregate to the cycle.  The reconciliation identities
(checked by :meth:`ObsReport.reconcile` and the test suite):

* ``sum(bus_busy)  == BusStats.busy_cycles``
* ``bus_demand + bus_writeback + bus_prefetch == bus_busy`` per window
  (partition by arbitration tier);
* per CPU: ``sum(cpu_busy[i]) == CpuMetrics.busy_cycles``,
  ``sum(cpu_sync[i]) == CpuMetrics.sync_wait_cycles``,
  ``sum(cpu_stall[i]) == CpuMetrics.stall_cycles``, and per window
  ``busy + stall + sync == overlap(window, [0, finish_time))``.

CPU busy time is not tapped per slice.  A CPU's busy cycles follow one
another from the moment it resumes after a stall (a fill, an upgrade, a
full prefetch buffer, a lock or barrier wait) until it stalls again, so
the sampler hears only of resumptions (:meth:`WindowedSampler.resume`)
and places the busy cycles accrued since the last one, read off the
CPU's running total, right after the CPU's open busy run.

Occupancy-style quantities (outstanding MSHR fills, prefetch-buffer
slots, bus queue depth) are step functions of time; the sampler stores
their per-window *integrals* in unit-cycles, so ``integral / window``
is the time-weighted mean occupancy of that window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ObsReport", "WindowedSampler"]


def _acc(series: list[int], window: int, start: int, end: int, weight: int = 1) -> None:
    """Add ``weight`` per cycle of ``[start, end)`` into ``series``.

    The interval is split exactly at window boundaries; ``series`` grows
    as needed.  Integer arithmetic throughout -- no rounding, ever.
    """
    if end <= start or weight == 0:
        return
    first = start // window
    last = (end - 1) // window
    if last >= len(series):
        series.extend([0] * (last + 1 - len(series)))
    if first == last:
        series[first] += (end - start) * weight
        return
    series[first] += ((first + 1) * window - start) * weight
    for w in range(first + 1, last):
        series[w] += window * weight
    series[last] += (end - last * window) * weight


class _Step:
    """A step function accumulated into per-window integrals."""

    __slots__ = ("series", "t", "level", "peak")

    def __init__(self) -> None:
        self.series: list[int] = []
        self.t = 0
        self.level = 0
        self.peak = 0

    def move(self, window: int, now: int, new_level: int) -> None:
        """The level changes to ``new_level`` at time ``now``."""
        if now > self.t and self.level:
            _acc(self.series, window, self.t, now, self.level)
        self.t = now
        self.level = new_level
        if new_level > self.peak:
            self.peak = new_level

    def flush(self, window: int, end: int) -> None:
        """Integrate the final level through ``end``."""
        self.move(window, max(end, self.t), self.level)


@dataclass
class ObsReport:
    """End-of-run observability payload attached to ``RunMetrics.obs``.

    All series have exactly ``num_windows`` entries; window ``w`` covers
    simulated cycles ``[w * window_cycles, (w+1) * window_cycles)``
    (the last window is padded past ``exec_cycles``, and the
    ``*_span`` helper accounts for the partial coverage).

    Attributes:
        window_cycles: window width in cycles.
        exec_cycles: the run's execution time.
        bus_busy: contended-resource occupancy per window (cycles).
        bus_demand / bus_writeback / bus_prefetch: ``bus_busy``
            partitioned by arbitration tier.
        bus_queue: queued-transaction integral per window
            (transaction-cycles; divide by the window span for mean
            queue depth).
        mshr: outstanding-fill integral per window, summed over CPUs.
        pfbuf: outstanding-prefetch integral per window, summed over CPUs.
        cpu_busy / cpu_stall / cpu_sync: per-CPU cycle series (outer
            index = CPU).
        finish_times: per-CPU finish time (stall derivation input).
        peak_mshr / peak_pfbuf / peak_queue: run-wide maxima of the
            step quantities.
        timeline: retained ring-buffer events (may be truncated).
        timeline_dropped: events evicted from the ring.
        lines: per-cache-line heat attribution
            (:class:`~repro.obs.lineprof.LineProfile`) when the run
            executed with ``SimulationConfig.observe_lines``; None
            otherwise.
    """

    window_cycles: int
    exec_cycles: int
    bus_busy: list[int]
    bus_demand: list[int]
    bus_writeback: list[int]
    bus_prefetch: list[int]
    bus_queue: list[int]
    mshr: list[int]
    pfbuf: list[int]
    cpu_busy: list[list[int]]
    cpu_stall: list[list[int]]
    cpu_sync: list[list[int]]
    finish_times: list[int]
    peak_mshr: int = 0
    peak_pfbuf: int = 0
    peak_queue: int = 0
    timeline: list = field(default_factory=list)  # list[ObsEvent]
    timeline_dropped: int = 0
    lines: Any = None  # LineProfile | None (avoids an import cycle)

    # ------------------------------------------------------------- geometry

    @property
    def num_windows(self) -> int:
        """Number of telemetry windows."""
        return len(self.bus_busy)

    @property
    def num_cpus(self) -> int:
        """Processor count."""
        return len(self.cpu_busy)

    def window_span(self, w: int) -> int:
        """Cycles of ``[0, exec_cycles)`` covered by window ``w``."""
        start = w * self.window_cycles
        return max(0, min(self.exec_cycles, start + self.window_cycles) - start)

    # ------------------------------------------------------- derived series

    def bus_utilization_series(self) -> list[float]:
        """Bus utilization per window (occupancy / window span)."""
        return [
            self.bus_busy[w] / span if (span := self.window_span(w)) else 0.0
            for w in range(self.num_windows)
        ]

    def demand_share_series(self) -> list[float]:
        """Demand fraction of each window's bus occupancy (0 when idle)."""
        return [
            self.bus_demand[w] / busy if (busy := self.bus_busy[w]) else 0.0
            for w in range(self.num_windows)
        ]

    def prefetch_share_series(self) -> list[float]:
        """Prefetch fraction of each window's bus occupancy."""
        return [
            self.bus_prefetch[w] / busy if (busy := self.bus_busy[w]) else 0.0
            for w in range(self.num_windows)
        ]

    def mean_mshr_series(self) -> list[float]:
        """Time-weighted mean outstanding fills per window (all CPUs)."""
        return [
            self.mshr[w] / span if (span := self.window_span(w)) else 0.0
            for w in range(self.num_windows)
        ]

    def mean_pfbuf_series(self) -> list[float]:
        """Time-weighted mean outstanding prefetches per window."""
        return [
            self.pfbuf[w] / span if (span := self.window_span(w)) else 0.0
            for w in range(self.num_windows)
        ]

    def mean_queue_series(self) -> list[float]:
        """Time-weighted mean bus queue depth per window."""
        return [
            self.bus_queue[w] / span if (span := self.window_span(w)) else 0.0
            for w in range(self.num_windows)
        ]

    def cpu_busy_share_series(self) -> list[float]:
        """Mean fraction of CPU time spent busy, per window."""
        n = self.num_cpus
        return [
            sum(c[w] for c in self.cpu_busy) / (span * n) if (span := self.window_span(w)) and n else 0.0
            for w in range(self.num_windows)
        ]

    # --------------------------------------------------------- reconciliation

    def reconcile(self, metrics: Any) -> list[str]:
        """Check every windowed series against its end-of-run aggregate.

        ``metrics`` is the run's ``RunMetrics`` (duck-typed to avoid an
        import cycle).  Returns a list of mismatch descriptions; empty
        means every identity holds exactly.
        """
        problems: list[str] = []
        if sum(self.bus_busy) != metrics.bus.busy_cycles:
            problems.append(
                f"bus_busy windows sum to {sum(self.bus_busy)} != "
                f"busy_cycles {metrics.bus.busy_cycles}"
            )
        for w in range(self.num_windows):
            tiered = self.bus_demand[w] + self.bus_writeback[w] + self.bus_prefetch[w]
            if tiered != self.bus_busy[w]:
                problems.append(
                    f"window {w}: tier partition {tiered} != bus_busy {self.bus_busy[w]}"
                )
                break
        for cpu in metrics.per_cpu:
            i = cpu.cpu
            if sum(self.cpu_busy[i]) != cpu.busy_cycles:
                problems.append(
                    f"cpu {i}: busy windows sum to {sum(self.cpu_busy[i])} != "
                    f"busy_cycles {cpu.busy_cycles}"
                )
            if sum(self.cpu_sync[i]) != cpu.sync_wait_cycles:
                problems.append(
                    f"cpu {i}: sync windows sum to {sum(self.cpu_sync[i])} != "
                    f"sync_wait_cycles {cpu.sync_wait_cycles}"
                )
            if sum(self.cpu_stall[i]) != cpu.stall_cycles:
                problems.append(
                    f"cpu {i}: stall windows sum to {sum(self.cpu_stall[i])} != "
                    f"stall_cycles {cpu.stall_cycles}"
                )
            for w in range(self.num_windows):
                start = w * self.window_cycles
                live = max(0, min(cpu.finish_time, start + self.window_cycles) - start)
                acc = self.cpu_busy[i][w] + self.cpu_stall[i][w] + self.cpu_sync[i][w]
                if acc != live:
                    problems.append(
                        f"cpu {i} window {w}: busy+stall+sync {acc} != "
                        f"live cycles {live}"
                    )
                    break
        if self.lines is not None:
            problems.extend(self.lines.reconcile(metrics))
        return problems

    # ------------------------------------------------------------ wire format

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-safe rendering (timeline as event dicts)."""
        data = {
            "window_cycles": self.window_cycles,
            "exec_cycles": self.exec_cycles,
            "bus_busy": self.bus_busy,
            "bus_demand": self.bus_demand,
            "bus_writeback": self.bus_writeback,
            "bus_prefetch": self.bus_prefetch,
            "bus_queue": self.bus_queue,
            "mshr": self.mshr,
            "pfbuf": self.pfbuf,
            "cpu_busy": self.cpu_busy,
            "cpu_stall": self.cpu_stall,
            "cpu_sync": self.cpu_sync,
            "finish_times": self.finish_times,
            "peak_mshr": self.peak_mshr,
            "peak_pfbuf": self.peak_pfbuf,
            "peak_queue": self.peak_queue,
            "timeline": [event.to_dict() for event in self.timeline],
            "timeline_dropped": self.timeline_dropped,
        }
        if self.lines is not None:
            data["lines"] = self.lines.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ObsReport":
        """Exact inverse of :meth:`to_dict`."""
        from repro.obs.lineprof import LineProfile
        from repro.obs.tracer import ObsEvent

        lines_data = data.get("lines")
        return cls(
            window_cycles=data["window_cycles"],
            exec_cycles=data["exec_cycles"],
            bus_busy=data["bus_busy"],
            bus_demand=data["bus_demand"],
            bus_writeback=data["bus_writeback"],
            bus_prefetch=data["bus_prefetch"],
            bus_queue=data["bus_queue"],
            mshr=data["mshr"],
            pfbuf=data["pfbuf"],
            cpu_busy=data["cpu_busy"],
            cpu_stall=data["cpu_stall"],
            cpu_sync=data["cpu_sync"],
            finish_times=data["finish_times"],
            peak_mshr=data["peak_mshr"],
            peak_pfbuf=data["peak_pfbuf"],
            peak_queue=data["peak_queue"],
            timeline=[ObsEvent.from_dict(e) for e in data["timeline"]],
            timeline_dropped=data["timeline_dropped"],
            lines=LineProfile.from_dict(lines_data) if lines_data is not None else None,
        )


class WindowedSampler:
    """Accumulates the engine's cycle accounting into fixed windows.

    Args:
        num_cpus: processor count (per-CPU series).
        window: window width in simulated cycles.
    """

    def __init__(self, num_cpus: int, window: int) -> None:
        self.num_cpus = num_cpus
        self.window = window
        self.bus_busy: list[int] = []
        self.bus_tiers: tuple[list[int], list[int], list[int]] = ([], [], [])
        self.cpu_busy: list[list[int]] = [[] for _ in range(num_cpus)]
        self.cpu_sync: list[list[int]] = [[] for _ in range(num_cpus)]
        # Each CPU's open busy run [start, end), not yet in cpu_busy, and
        # the CPU's busy-cycle total the runs account for so far.
        self._busy_start = [0] * num_cpus
        self._busy_end = [0] * num_cpus
        self._busy_seen = [0] * num_cpus
        self._queue = _Step()
        self._mshr = _Step()
        self._pfbuf = _Step()

    # ------------------------------------------------------------ interval taps

    def resume(self, cpu: int, now: int, busy: int) -> None:
        """The CPU runs again from ``now``, having accrued ``busy`` busy cycles.

        ``busy`` is the CPU's running busy-cycle total.  A CPU's busy
        cycles follow one another from its last resumption until it
        stalls, so the ones not seen yet extend the open run.  When
        ``now`` does not continue the run, the run is closed into
        ``cpu_busy`` and a new one opens at ``now``.  Exact, because
        :func:`_acc` is additive over splits of an interval.
        """
        end = self._busy_end[cpu] + busy - self._busy_seen[cpu]
        self._busy_seen[cpu] = busy
        if now != end:
            _acc(self.cpu_busy[cpu], self.window, self._busy_start[cpu], end)
            self._busy_start[cpu] = end = now
        self._busy_end[cpu] = end

    def add_sync_wait(self, cpu: int, start: int, end: int, busy: int) -> None:
        """A lock/barrier wait from ``start`` to ``end``; the CPU resumes at ``end``.

        ``busy`` is the CPU's busy-cycle total at the wake-up (see
        :meth:`resume`).
        """
        _acc(self.cpu_sync[cpu], self.window, start, end)
        self.resume(cpu, end, busy)

    def add_bus_slice(self, start: int, end: int, tier: int) -> None:
        """A granted bus occupancy slice in arbitration tier ``tier``."""
        _acc(self.bus_busy, self.window, start, end)
        _acc(self.bus_tiers[tier], self.window, start, end)

    # ---------------------------------------------------------------- step taps

    def set_queue_depth(self, now: int, depth: int) -> None:
        """The bus queue depth changed to ``depth`` at ``now``."""
        self._queue.move(self.window, now, depth)

    def mshr_change(self, now: int, delta: int, is_prefetch: bool) -> None:
        """An outstanding fill started (+1) or finished (-1) at ``now``."""
        self._mshr.move(self.window, now, self._mshr.level + delta)
        if is_prefetch:
            self._pfbuf.move(self.window, now, self._pfbuf.level + delta)

    # ------------------------------------------------------------------ finalize

    def finalize(
        self,
        exec_cycles: int,
        finish_times: list[int],
        busy_totals: list[int],
        timeline: list,
        timeline_dropped: int,
    ) -> ObsReport:
        """Freeze the series into an :class:`ObsReport`.

        Closes each CPU's open busy run, extended by the cycles of its
        end-of-run busy total (``busy_totals``, see :meth:`resume`) not
        seen yet.  Pads every series to the common window count,
        integrates the step functions through ``exec_cycles`` and
        derives the per-CPU stall series from the cycle identity ``busy
        + stall + sync == live`` (live = the window's overlap with
        ``[0, finish_time)``), which is exactly how end-of-run stall
        cycles are derived.
        """
        window = self.window
        for cpu, series in enumerate(self.cpu_busy):
            end = self._busy_end[cpu] + busy_totals[cpu] - self._busy_seen[cpu]
            _acc(series, window, self._busy_start[cpu], end)
            self._busy_start[cpu] = self._busy_end[cpu] = end
            self._busy_seen[cpu] = busy_totals[cpu]
        for step in (self._queue, self._mshr, self._pfbuf):
            step.flush(window, exec_cycles)
        num_windows = max(1, -(-exec_cycles // window)) if exec_cycles else 1

        def pad(series: list[int]) -> list[int]:
            series.extend([0] * (num_windows - len(series)))
            return series

        cpu_busy = [pad(s) for s in self.cpu_busy]
        cpu_sync = [pad(s) for s in self.cpu_sync]
        cpu_stall: list[list[int]] = []
        for i in range(self.num_cpus):
            finish = finish_times[i]
            stalls = []
            for w in range(num_windows):
                start = w * window
                live = max(0, min(finish, start + window) - start)
                stalls.append(live - cpu_busy[i][w] - cpu_sync[i][w])
            cpu_stall.append(stalls)

        return ObsReport(
            window_cycles=window,
            exec_cycles=exec_cycles,
            bus_busy=pad(self.bus_busy),
            bus_demand=pad(self.bus_tiers[0]),
            bus_writeback=pad(self.bus_tiers[1]),
            bus_prefetch=pad(self.bus_tiers[2]),
            bus_queue=pad(self._queue.series),
            mshr=pad(self._mshr.series),
            pfbuf=pad(self._pfbuf.series),
            cpu_busy=cpu_busy,
            cpu_stall=cpu_stall,
            cpu_sync=cpu_sync,
            finish_times=list(finish_times),
            peak_mshr=self._mshr.peak,
            peak_pfbuf=self._pfbuf.peak,
            peak_queue=self._queue.peak,
            timeline=timeline,
            timeline_dropped=timeline_dropped,
        )
