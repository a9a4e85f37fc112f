"""Live worker heartbeats, fleet progress aggregation and stall flags.

Parallel grid sweeps through
:class:`~repro.experiments.runner.ExperimentRunner` were a black box: a
stalled worker looked exactly like a slow one.  This module adds the
missing signal path:

* workers stream :class:`Heartbeat` messages (job label, simulated
  cycles completed, trace events retired, phase) over a
  ``multiprocessing`` queue at a bounded rate -- nothing else crosses
  it: a run's result and its trace-span readings come home on its
  :class:`~repro.experiments.runner.Execution`;
* the parent-side :class:`FleetMonitor` drains the queue on a thread,
  folds beats into per-job :class:`JobProgress`, renders a one-line
  fleet progress view with an ETA, and flags jobs whose beats fall
  silent for longer than ``stall_timeout``.

The sender side is deliberately engine-agnostic: rather than hooking the
simulation loop (which would cost cycles even when telemetry is off),
the worker samples the *running engine's* public counters
(``engine.now``, per-processor program counters) from a daemon thread,
so a healthy engine pays nothing on its hot path.  Flags read silence
only: a dead or GIL-starved worker goes silent, but a pure-Python hang
keeps its sampler beating.  A stall flag is a report, never an action;
``job_timeout`` (see :mod:`repro.telemetry.fleet`) is the one deadline
that ends a pool worker's job.
"""

from __future__ import annotations

import os
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
    "render_fleet_progress",
]

#: Default seconds between worker heartbeats.
DEFAULT_BEAT_INTERVAL = 0.25

#: Default seconds of heartbeat silence before a worker is flagged stalled.
DEFAULT_STALL_TIMEOUT = 60.0


@dataclass(frozen=True)
class Heartbeat:
    """One progress message from a worker.

    Attributes:
        job: index of the job in the batch (parent-assigned).
        label: human-readable grid-point label.
        pid: worker process id (the ``job_timeout`` kill target).
        phase: ``"generate"`` (a pool worker's first beat, sent before
            generation and insertion), ``"simulate"`` or ``"done"``.
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
    The engine's hot loop is untouched: zero cost when telemetry is off.
    The thread keeps beating while the engine runs, whether or not the
    engine makes progress; only a dead process falls silent.
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


class FleetMonitor:
    """Parent-side aggregator: queue drain, progress, ETA, stall flags.

    Args:
        queue: the heartbeat queue shared with the workers.
        labels: job-index -> label for the whole batch (jobs not yet
            started render as pending).
        stall_timeout: seconds of heartbeat silence after which every
            :meth:`tick` flags a running job ``stalled`` (None flags
            nothing).  Any later beat clears the flag.
        render: callback fed the rendered progress line (e.g. print to
            stderr); None disables rendering.
        poll_interval: queue-drain and stall-check period in seconds.
        clock: time source (injectable for tests).
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
        stall_timeout: float | None = None,
        render: Callable[[str], None] | None = None,
        poll_interval: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
        keys: dict[int, str] | None = None,
    ) -> None:
        self.queue = queue
        self.stall_timeout = stall_timeout
        self.render = render
        self.poll_interval = poll_interval
        self.clock = clock
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
        """One poll cycle: drain the queue, flag silent jobs, render.

        The queue carries :class:`Heartbeat` objects only; a run's
        results and trace readings come home on its
        :class:`~repro.experiments.runner.Execution`.
        """
        while True:
            try:
                beat = self.queue.get_nowait()
            except Exception:
                break  # Empty (or manager shutting down)
            self.feed(beat)
        if self.stall_timeout is not None:
            self._flag_stalls()
        if self.render is not None:
            self.render(self.progress_line())

    def _flag_stalls(self) -> None:
        now = self.clock()
        with self._lock:
            for j, progress in self.jobs.items():
                if (
                    j not in self.done
                    and progress.phase not in ("pending", "done")
                    and progress.last_beat
                    and now - progress.last_beat > self.stall_timeout
                ):
                    progress.stalled = True

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
