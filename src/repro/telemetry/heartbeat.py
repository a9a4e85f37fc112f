"""Live worker heartbeats, fleet progress aggregation and a watchdog.

Parallel grid sweeps through
:class:`~repro.experiments.runner.ExperimentRunner` were a black box: a
stalled worker looked exactly like a slow one.  This module adds the
missing signal path:

* workers stream :class:`Heartbeat` messages (job label, simulated
  cycles completed, trace events retired, phase) over a
  ``multiprocessing`` queue at a bounded rate;
* the parent-side :class:`FleetMonitor` drains the queue on a thread,
  folds beats into per-job :class:`JobProgress`, renders a one-line
  fleet progress view with an ETA, and
* a :class:`Watchdog` inside the monitor flags -- and optionally kills
  -- workers whose beats stall for longer than ``stall_timeout``.

The sender side is deliberately engine-agnostic: rather than hooking the
simulation loop (which would cost cycles even when telemetry is off),
the worker samples the *running engine's* public counters
(``engine.now``, per-processor program counters) from a daemon thread.
A wedged engine therefore still produces silence -- exactly the signal
the watchdog needs -- while a healthy one pays nothing on its hot path.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "EngineSampler",
    "FleetMonitor",
    "Heartbeat",
    "HeartbeatSender",
    "JobProgress",
    "Watchdog",
    "render_fleet_progress",
]

#: Default seconds between worker heartbeats.
DEFAULT_BEAT_INTERVAL = 0.25

#: Default seconds of heartbeat silence before the watchdog flags a worker.
DEFAULT_STALL_TIMEOUT = 60.0


@dataclass(frozen=True)
class Heartbeat:
    """One progress message from a worker.

    Attributes:
        job: index of the job in the batch (parent-assigned).
        label: human-readable grid-point label.
        pid: worker process id (watchdog kill target).
        phase: ``"generate"``, ``"insert"``, ``"simulate"`` or ``"done"``.
        cycles: simulated cycles completed so far.
        events: trace events retired so far.
        total_events: trace events in the job (0 until known).
    """

    job: int
    label: str
    pid: int
    phase: str
    cycles: int = 0
    events: int = 0
    total_events: int = 0


class HeartbeatSender:
    """Worker-side heartbeat emitter with rate limiting.

    Wraps any queue-like object with a ``put`` method (a
    ``multiprocessing.Manager().Queue()`` in the real fleet; a plain
    list-backed stub in tests).  ``emit`` drops beats arriving faster
    than ``interval`` apart -- except phase changes, which always go
    out -- so a fast worker cannot flood the parent.
    """

    def __init__(self, queue: Any, interval: float = DEFAULT_BEAT_INTERVAL) -> None:
        self.queue = queue
        self.interval = interval
        self._last_sent = 0.0
        self._last_phase: str | None = None

    def emit(self, beat: Heartbeat, now: float | None = None) -> bool:
        """Send ``beat`` unless rate-limited; returns True when sent."""
        now = time.monotonic() if now is None else now
        phase_change = beat.phase != self._last_phase
        if not phase_change and now - self._last_sent < self.interval:
            return False
        try:
            self.queue.put(beat)
        except Exception:
            return False  # parent gone (shutdown race); beats are best-effort
        self._last_sent = now
        self._last_phase = beat.phase
        return True


class EngineSampler:
    """Samples a running :class:`~repro.sim.engine.SimulationEngine`.

    A daemon thread wakes every ``interval`` seconds, reads the engine's
    simulated clock and per-CPU program counters (safe under the GIL --
    both are plain attribute reads of int fields) and emits a heartbeat.
    The engine's hot loop is untouched: zero cost when telemetry is off,
    and a hung engine stops producing *progress* while the thread keeps
    running -- so stalls are visible as unchanged counters or, if the
    whole process died, as queue silence.
    """

    def __init__(
        self,
        engine: Any,
        sender: HeartbeatSender,
        job: int,
        label: str,
        total_events: int,
        interval: float = DEFAULT_BEAT_INTERVAL,
    ) -> None:
        self.engine = engine
        self.sender = sender
        self.job = job
        self.label = label
        self.total_events = total_events
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _beat(self, phase: str) -> Heartbeat:
        engine = self.engine
        return Heartbeat(
            job=self.job,
            label=self.label,
            pid=os.getpid(),
            phase=phase,
            cycles=engine.now,
            events=sum(proc.pc for proc in engine.procs),
            total_events=self.total_events,
        )

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sender.emit(self._beat("simulate"))

    def __enter__(self) -> "EngineSampler":
        self.sender.emit(self._beat("simulate"))
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self.sender.emit(self._beat("done"))


@dataclass
class JobProgress:
    """Parent-side progress state of one job."""

    job: int
    label: str
    key: str = ""
    pid: int = 0
    phase: str = "pending"
    cycles: int = 0
    events: int = 0
    total_events: int = 0
    last_beat: float = 0.0
    stalled: bool = False

    @property
    def fraction(self) -> float:
        """Events retired over total, clamped to [0, 1] (0 when unknown)."""
        if self.total_events <= 0:
            return 0.0
        return min(1.0, self.events / self.total_events)


@dataclass
class StallEvent:
    """One watchdog detection: a worker went silent past the timeout."""

    job: int
    label: str
    pid: int
    silent_seconds: float
    killed: bool = False


class Watchdog:
    """Flags (and optionally kills) workers whose heartbeats stall.

    Args:
        stall_timeout: seconds of silence before a job counts as stalled.
        kill: send SIGKILL to the silent worker's PID.  With a process
            pool this deliberately breaks the pool -- the runner treats
            the resulting ``BrokenProcessPool`` as a structured failure
            of the unfinished grid points, which beats hanging forever.
        on_stall: callback per new stall (progress line, logging).

    Clock injection (``clock=``) keeps the stall arithmetic testable
    without real sleeping.
    """

    def __init__(
        self,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        kill: bool = False,
        on_stall: Callable[[StallEvent], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.stall_timeout = stall_timeout
        self.kill = kill
        self.on_stall = on_stall
        self.clock = clock
        self.stalls: list[StallEvent] = []

    def check(self, jobs: dict[int, JobProgress]) -> list[StallEvent]:
        """Scan running jobs; returns stalls newly detected this call."""
        now = self.clock()
        fresh: list[StallEvent] = []
        for progress in jobs.values():
            if progress.stalled or progress.phase in ("pending", "done"):
                continue
            if progress.last_beat and now - progress.last_beat > self.stall_timeout:
                progress.stalled = True
                event = StallEvent(
                    job=progress.job,
                    label=progress.label,
                    pid=progress.pid,
                    silent_seconds=now - progress.last_beat,
                )
                if self.kill and progress.pid:
                    event.killed = self._kill(progress.pid)
                self.stalls.append(event)
                fresh.append(event)
                if self.on_stall is not None:
                    self.on_stall(event)
        return fresh

    @staticmethod
    def _kill(pid: int) -> bool:
        try:
            os.kill(pid, signal.SIGKILL)
            return True
        except (OSError, ProcessLookupError):
            return False


class FleetMonitor:
    """Parent-side aggregator: queue drain, progress, ETA, watchdog.

    Args:
        queue: the heartbeat queue shared with the workers.
        labels: job-index -> label for the whole batch (jobs not yet
            started render as pending).
        watchdog: optional :class:`Watchdog` run on every poll tick.
        render: callback fed the rendered progress line (e.g. print to
            stderr); None disables rendering.
        poll_interval: queue-drain and watchdog period in seconds.
        clock: time source (injectable for tests).
        span_sink: callback fed worker-emitted trace spans (the
            ``{"kind": "span", "span": {...}}`` messages that share the
            heartbeat queue; see :mod:`repro.telemetry.tracing`).  None
            drops them -- tracing is strictly opt-in.
        keys: job-index -> the job's identity (its ``config_key``),
            kept on each :class:`JobProgress` as ``key``; labels need
            not be unique, keys are.

    Use as a context manager around the pool lifetime; or drive
    :meth:`feed` / :meth:`tick` by hand for deterministic tests.
    """

    def __init__(
        self,
        queue: Any,
        labels: dict[int, str],
        watchdog: Watchdog | None = None,
        render: Callable[[str], None] | None = None,
        poll_interval: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
        span_sink: Callable[[dict[str, Any]], None] | None = None,
        keys: dict[int, str] | None = None,
    ) -> None:
        self.queue = queue
        self.watchdog = watchdog
        self.render = render
        self.poll_interval = poll_interval
        self.clock = clock
        self.span_sink = span_sink
        self.jobs: dict[int, JobProgress] = {
            job: JobProgress(job=job, label=label, key=(keys or {}).get(job, ""))
            for job, label in labels.items()
        }
        self.done: set[int] = set()
        self.started_at = clock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------- ingestion

    def feed(self, beat: Heartbeat) -> None:
        """Fold one heartbeat into the fleet state."""
        with self._lock:
            progress = self.jobs.get(beat.job)
            if progress is None:
                progress = self.jobs[beat.job] = JobProgress(beat.job, beat.label)
            progress.pid = beat.pid
            progress.phase = beat.phase
            progress.cycles = max(progress.cycles, beat.cycles)
            progress.events = max(progress.events, beat.events)
            if beat.total_events:
                progress.total_events = beat.total_events
            progress.last_beat = self.clock()
            progress.stalled = False  # any beat clears a stale flag
            if beat.phase == "done":
                self.done.add(beat.job)

    def mark_done(self, job: int) -> None:
        """Record a job's completion observed out of band (future result)."""
        with self._lock:
            progress = self.jobs.get(job)
            if progress is not None:
                progress.phase = "done"
            self.done.add(job)

    def tick(self) -> None:
        """One poll cycle: drain the queue, run the watchdog, render.

        The queue carries two message kinds: :class:`Heartbeat` objects
        (progress) and, when tracing is on, finished-span dicts tagged
        ``{"kind": "span"}``.  Spans route to :attr:`span_sink`;
        anything unrecognized is dropped, never fatal.
        """
        while True:
            try:
                beat = self.queue.get_nowait()
            except Exception:
                break  # Empty (or manager shutting down)
            if isinstance(beat, Heartbeat):
                self.feed(beat)
            elif isinstance(beat, dict) and beat.get("kind") == "span":
                if self.span_sink is not None:
                    try:
                        self.span_sink(beat.get("span") or {})
                    except Exception:
                        pass  # tracing is best-effort; progress is not
        if self.watchdog is not None:
            with self._lock:
                self.watchdog.check(
                    {j: p for j, p in self.jobs.items() if j not in self.done}
                )
        if self.render is not None:
            self.render(self.progress_line())

    # ------------------------------------------------------------- reporting

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time fleet summary (JSON-safe)."""
        with self._lock:
            running = [p for j, p in self.jobs.items() if j not in self.done and p.phase != "pending"]
            return {
                "jobs": len(self.jobs),
                "done": len(self.done),
                "running": len(running),
                "stalled": sum(1 for p in self.jobs.values() if p.stalled),
                "events": sum(p.events for p in self.jobs.values()),
                "cycles": sum(p.cycles for p in self.jobs.values()),
                "elapsed": self.clock() - self.started_at,
            }

    def eta_seconds(self) -> float | None:
        """Remaining-time estimate from completed-job throughput.

        Uses completed jobs as the unit of work (grid points are
        similar-sized within a sweep); None until the first completes.
        """
        done = len(self.done)
        if not done:
            return None
        elapsed = self.clock() - self.started_at
        remaining = len(self.jobs) - done
        return (elapsed / done) * remaining

    def progress_line(self) -> str:
        """The one-line fleet progress view."""
        snap = self.snapshot()
        eta = self.eta_seconds()
        from repro.metrics.charts import progress_bar

        bar = progress_bar(snap["done"], snap["jobs"], width=24)
        parts = [
            f"fleet {bar} {snap['done']}/{snap['jobs']}",
            f"{snap['running']} running",
        ]
        if snap["stalled"]:
            parts.append(f"{snap['stalled']} STALLED")
        parts.append(f"{snap['elapsed']:.0f}s elapsed")
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        return " | ".join(parts)

    # ------------------------------------------------------------- lifecycle

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            self.tick()
        self.tick()  # final drain

    def __enter__(self) -> "FleetMonitor":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()


def render_fleet_progress(line: str) -> None:
    """Default progress renderer: overwrite one stderr line in place."""
    import sys

    sys.stderr.write("\r" + line + "\x1b[K")
    sys.stderr.flush()
