"""Run accounting, provenance, statistics and set-up probes.

Every workload reports through one :class:`Run`: the operations it
attempted and how many failed (a result not delivered or a correctness
check that did not hold), the named checks, and the phase measurements
that become the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TypeVar

from bench import ROOT, WORK
from bench.clock import speed_factor
from bench.layers import LayerTracer

T = TypeVar("T")

#: The benchmark's declaration: workloads, metrics, units, bounds.
DECLARATION = ROOT / "BENCHMARK.json"
#: Result digests recorded at seed 42, keyed by ENGINE_VERSION then workload.
DIGESTS = Path(__file__).with_name("digests.json")

#: The seed whose result digests are pinned.
PAPER_SEED = 42


def declared(kind: str) -> dict[str, str]:
    """``{metric name: unit}`` for ``"end_to_end"`` or ``"per_layer"``."""
    spec = json.loads(DECLARATION.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def declared_workloads() -> list[str]:
    spec = json.loads(DECLARATION.read_text(encoding="utf-8"))
    return [workload["name"] for workload in spec["workloads"]]


# ------------------------------------------------------------------ accounting


@dataclass
class Phase:
    """One measured phase of a workload.

    Attributes:
        setup_s: seconds from process start to ready (the median of
            several set-ups where a set-up is cheap enough to repeat).
        wall_s: the measured phase's time in reference-host seconds
            (see :mod:`bench.clock`), reference units excluded; on
            ``serve`` only the server's batch time is rescaled.
        raw_wall_s: the same phase in host seconds.
        results: results delivered in the measured phase.
        latencies_ms: milliseconds per pass (per request, for ``serve``),
            normalized as ``wall_s`` is.
        exec_cycles: simulated cycles summed over one pass's distinct
            results -- identical traced or untraced, on any host.
        bus_utilization_mean: simulated bus utilization, mean over them.
        peak_rss_mb: peak resident set of the process that did the work,
            read when the measured phase ended.
        layers: per-layer metrics a workload measures itself (service
            scrapes, flag overheads); merged into the traced report.
        trace_groups: spans recorded in other processes, as
            ``(track label, spans)`` groups for the Chrome trace.
        base: on a traced run, the untraced phase measured before the
            traced one (see :func:`measure_phases`).
    """

    setup_s: float
    wall_s: float
    raw_wall_s: float
    results: int
    latencies_ms: list[float]
    exec_cycles: int
    bus_utilization_mean: float
    peak_rss_mb: float
    layers: dict[str, float] = field(default_factory=dict)
    trace_groups: list[tuple[str, list[Any]]] = field(default_factory=list)
    base: Phase | None = None


@dataclass
class Run:
    """Accounting for one workload run."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    checks: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    def deliver(self, attempted: int, failed: int = 0) -> None:
        """Count results attempted in a measured phase, and the failures."""
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Count one correctness check as an operation; returns ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def exit_code(self) -> int:
        """0 when every operation succeeded, else 1."""
        return 0 if self.failed == 0 and self.attempted > 0 else 1

    def result_line(self, kind: str) -> dict[str, Any]:
        """The contract's last-line object, metrics in declaration order."""
        units = declared(kind)
        return {
            "correct": self.exit_code == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_ratio": self.error_ratio,
            "metrics": self.metrics,
            "checks": self.checks,
            "provenance": self.provenance,
            "details": self.details,
        }


def end_to_end(phase: Phase, run: Run) -> dict[str, float]:
    """The user-visible metrics of an untraced phase."""
    return {
        "points_per_s": phase.results / phase.wall_s,
        "latency_p50_ms": percentile(phase.latencies_ms, 0.50),
        "latency_p90_ms": percentile(phase.latencies_ms, 0.90),
        "setup_s": phase.setup_s,
        "peak_rss_mb": phase.peak_rss_mb,
        "success_ratio": 1.0 - run.error_ratio,
    }


def another_pass(started: float, passes: int, seconds: float) -> bool:
    """Whether a pass loop begun at ``started`` (``perf_counter``) runs one more pass.

    The first pass always runs; later ones only while one more mean
    pass is expected to end within ``seconds``.  A workload whose pass
    takes about the run length thus measures one pass on a fast host
    as on a slow one, instead of two on a fast one.
    """
    if not passes:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / passes <= seconds


def measure_phases(
    seconds: float, tracer: LayerTracer, measure: Callable[[float, LayerTracer], tuple[Phase, T]]
) -> tuple[Phase, T]:
    """``measure(seconds, tracer)``: the workload's measured phase, after its set-up.

    Traced, an untraced base phase and then the traced phase share
    ``seconds`` and the one set-up, and the base is attached to the
    traced phase, so the tracing overhead compares like with like
    without paying for the set-up twice.  Returns what the last call
    returned: its :class:`Phase` and whatever the workload checks.
    """
    if not tracer.enabled:
        return measure(seconds, tracer)
    base, _ = measure(seconds / 2, LayerTracer(enabled=False))
    phase, kept = measure(seconds / 2, tracer)
    phase.base = base
    return phase, kept


# ------------------------------------------------------------------ statistics


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (inclusive); a lone value is itself."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(result: Any) -> dict[str, Any]:
    """A run's simulated result without its observation payloads."""
    return dataclasses.replace(result, obs=None, audit=None).to_dict()


def digest(results: Sequence[dict[str, Any]]) -> str:
    """SHA-256 of canonical result dicts (see :func:`canonical`), in order."""
    blob = json.dumps(list(results), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def recorded_digest(workload: str) -> str | None:
    """The digest pinned for ``workload`` at seed 42 on this engine version."""
    from repro.sim.engine import ENGINE_VERSION

    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(ENGINE_VERSION, {}).get(workload)


# ------------------------------------------------------------------- set-up


#: Fresh interpreters timed per start-up probe; the median is reported.
STARTUP_PROBES = 5
#: Reference units each start-up times to read its host's speed.
PROBE_UNITS = 5


def startup_probe(modules: Sequence[str]) -> float:
    """Median reference-host seconds for a fresh interpreter to import ``modules``.

    This is the set-up every invocation of the program pays before its
    first result: interpreter start plus the imports of the layers the
    workload drives.  Each probe is a separate process from this
    checkout, so one slow start does not decide the figure; the probe
    times reference units after its imports, on its own CPU, and its
    start-up is normalized by them (see :mod:`bench.clock`).
    """
    code = (
        "import bench; bench.use_checkout_sources(); import " + ", ".join(modules) + "\n"
        f"from bench.clock import sample_units; print(sample_units({PROBE_UNITS}))"
    )
    times = []
    for _ in range(STARTUP_PROBES):
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
        )
        times.append(normalized_start(time.perf_counter() - t0, json.loads(proc.stdout)))
    return statistics.median(times)


def normalized_start(seconds: float, units: list[float]) -> float:
    """A start-up that ended with ``units``, without them, in reference-host seconds."""
    return (seconds - sum(units)) * speed_factor(units)


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under ``bench/.tmp/``, removed after."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------- provenance


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int) -> dict[str, Any]:
    """The machine and program fingerprint stamped on every report."""
    from repro.sim.engine import ENGINE_VERSION

    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc:
        print(
            f"bench: warning: 1-min load average {load:.2f} exceeds nproc={nproc}; "
            "timings will be inflated",
            file=sys.stderr,
        )
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "engine_version": ENGINE_VERSION,
        "commit": _git_commit(),
        "load_1m_before": load,
    }
