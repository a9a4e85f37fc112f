"""Ring-buffered timeline of typed simulation events.

The tracer records *what happened when* at cycle resolution: spans
(things with a duration -- bus occupancy slices, MSHR allocate-to-fill
lifetimes, miss stalls, lock/barrier waits) and instants (point events
-- prefetch issues/merges/drops, coherence downgrades and
invalidations).  Events live in a bounded ring buffer so an arbitrarily
long simulation keeps the most recent ``capacity`` events and counts,
rather than stores, the rest; the windowed telemetry in
:mod:`repro.obs.sampler` is the lossless aggregate view.

Events map 1:1 onto the Chrome trace-event format exported by
:mod:`repro.obs.export` (``"X"`` complete events and ``"i"`` instants),
with the simulated cycle count as the timestamp unit.  Tracks:

========  ===========  ================================================
``pid``   process      content
========  ===========  ================================================
0         ``cpu``      per-CPU stalls and sync waits (``tid`` = CPU id)
1         ``mshr``     per-CPU fill lifetimes (``tid`` = CPU id)
2         ``bus``      the single contended resource (``tid`` = 0)
========  ===========  ================================================
"""

from __future__ import annotations

from collections import deque
from typing import Any

__all__ = ["ObsEvent", "PID_BUS", "PID_CPU", "PID_MSHR", "TimelineTracer"]

#: Chrome-trace "process" ids -- really tracks of the one simulated machine.
PID_CPU = 0
PID_MSHR = 1
PID_BUS = 2

PROCESS_NAMES = {PID_CPU: "cpu", PID_MSHR: "mshr", PID_BUS: "bus"}


class ObsEvent:
    """One timeline event (span or instant).

    Attributes:
        ph: Chrome trace phase: ``"X"`` (complete span) or ``"i"``
            (instant).
        cat: event taxonomy bucket (``bus``, ``mshr``, ``cpu``,
            ``sync``, ``prefetch``, ``coherence``).
        name: event name within the category.
        ts: start time in simulated cycles.
        dur: duration in cycles (0 for instants).
        pid / tid: track ids (see module docstring).
        args: JSON-safe extra payload (block address, cpu, flags).
    """

    __slots__ = ("ph", "cat", "name", "ts", "dur", "pid", "tid", "args")

    def __init__(
        self,
        ph: str,
        cat: str,
        name: str,
        ts: int,
        dur: int,
        pid: int,
        tid: int,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.ph = ph
        self.cat = cat
        self.name = name
        self.ts = ts
        self.dur = dur
        self.pid = pid
        self.tid = tid
        self.args = args

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict (the Chrome trace-event rendering)."""
        data: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.ph == "X":
            data["dur"] = self.dur
        elif self.ph == "i":
            data["s"] = "t"  # thread-scoped instant
        if self.args:
            data["args"] = self.args
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ObsEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            ph=data["ph"],
            cat=data.get("cat", ""),
            name=data["name"],
            ts=data["ts"],
            dur=data.get("dur", 0),
            pid=data["pid"],
            tid=data["tid"],
            args=data.get("args"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ObsEvent({self.ph} {self.cat}/{self.name} ts={self.ts} "
            f"dur={self.dur} pid={self.pid} tid={self.tid})"
        )


class TimelineTracer:
    """Bounded ring buffer of :class:`ObsEvent`.

    Args:
        capacity: events retained (oldest evicted first).  0 disables
            event recording entirely (the sampler still runs); the drop
            counter then counts every event.  The engine's observer
            builds no event for a zero-capacity ring: it adds to
            :attr:`total` directly.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._ring: deque[ObsEvent] = deque(maxlen=max(capacity, 0))
        self.total = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events evicted from (or never admitted to) the ring."""
        return self.total - len(self._ring)

    def span(
        self,
        cat: str,
        name: str,
        ts: int,
        dur: int,
        pid: int,
        tid: int,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a complete span (``"X"`` event)."""
        self.total += 1
        self._ring.append(ObsEvent("X", cat, name, ts, dur, pid, tid, args))

    def instant(
        self,
        cat: str,
        name: str,
        ts: int,
        pid: int,
        tid: int,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a point event (``"i"`` instant)."""
        self.total += 1
        self._ring.append(ObsEvent("i", cat, name, ts, 0, pid, tid, args))

    def events(self) -> list[ObsEvent]:
        """The retained events in recording order."""
        return list(self._ring)
