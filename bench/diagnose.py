"""The diagnose workload: observed runs as ``repro c2c`` and ``repro timeline`` do.

Ten points -- every workload once as ``repro c2c`` runs it (PWS on an
8-cycle bus) and once as ``repro timeline`` does (PREF on a 32-cycle
bus), 12 CPUs at scale 0.05 -- each one ``ExperimentRunner.run`` on a
fresh runner, as one CLI invocation makes it.  The c2c points run the
per-line profiler and the sharing analysis (``attribute_lines`` then
``cross_reference(advise(...))``); the timeline points record the
ring-buffered timeline and export it with ``write_chrome_trace``.
Observed runs take the engine's generic path and bypass the disk cache,
so the obs taps, the analysis and the export dominate.

A latency sample is one pass over the ten points.  A single point
(0.3-0.6 s) carries host jitter that the reference units run after it
cannot see: normalized, the same point at the same seed varies by
11-16 % (coefficient of variation), and the 90th percentile over a
run's points spread 17-19 % from run to run.  Over a pass that jitter
averages out.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import dataclass
from typing import Any

import repro.analysis as analysis
from repro.analysis import dynamic
from repro.common.config import SimulationConfig
from repro.experiments.runner import ExperimentRunner
from repro.metrics.results import RunMetrics
from repro.obs import export
from repro.prefetch.insertion import insert_prefetches
from repro.prefetch.strategies import strategy_by_name
from repro.sim.engine import simulate
from repro.telemetry.fleet import TelemetryConfig
from repro.workloads.registry import ALL_WORKLOAD_NAMES, generate_workload

from bench.clock import Clock
from bench.harness import (
    Phase,
    Run,
    another_pass,
    canonical,
    digest,
    measure_phases,
    peak_rss_mb,
    scratch_dir,
    startup_probe,
)
from bench.layers import LayerTracer

#: Modules a diagnostic CLI run imports before its first result.
_MODULES = ("repro.experiments.runner", "repro.analysis.dynamic", "repro.obs.export")

#: The ``repro c2c`` and ``repro timeline`` defaults.
C2C_CONFIG = SimulationConfig(
    observe=True, observe_lines=True, observe_window=4096, observe_trace_capacity=0
)
TIMELINE_CONFIG = SimulationConfig(
    observe=True, observe_window=4096, observe_trace_capacity=65536
)

#: Keys every exported ``"X"`` event must carry.
_X_KEYS = frozenset({"name", "ph", "ts", "dur", "pid", "tid"})

#: Strategy and bus transfer cycles of the points run as ``repro c2c`` does.
C2C_POINT = ("PWS", 8)
#: Strategy and bus transfer cycles of the points run as ``repro timeline`` does.
TIMELINE_POINT = ("PREF", 32)


@dataclass(frozen=True)
class DiagnoseFrame:
    num_cpus: int
    scale: float
    workloads: tuple[str, ...]

    def points(self) -> list[tuple[str, str, int]]:
        return [
            (workload, strategy, cycles)
            for workload in self.workloads
            for strategy, cycles in (C2C_POINT, TIMELINE_POINT)
        ]

    def machine(self, cycles: int) -> Any:
        return ExperimentRunner(num_cpus=self.num_cpus).base_machine().with_transfer_cycles(cycles)


#: At scale 0.05 a pass over the 10 points takes ~4 s on the reference
#: host, so a run measures whole passes and ends near ``--seconds`` on a
#: slow host as on a fast one.  (A 12-CPU observed point costs ~0.3 s
#: however short its trace.)
FRAME = DiagnoseFrame(num_cpus=12, scale=0.05, workloads=tuple(ALL_WORKLOAD_NAMES))


def _c2c(frame: DiagnoseFrame, seed: int, workload: str, strategy: str, cycles: int) -> Any:
    runner = ExperimentRunner(frame.num_cpus, seed, frame.scale, sim_config=C2C_CONFIG)
    result = runner.run(workload, strategy_by_name(strategy), frame.machine(cycles))
    arrays = runner.trace_metadata(workload).get("arrays") or []
    dynamic.cross_reference(
        dynamic.attribute_lines(result.obs.lines, arrays),
        analysis.advise(runner.clean_trace(workload)),
    )
    return result


def _timeline(frame: DiagnoseFrame, seed: int, workload: str, strategy: str, cycles: int) -> Any:
    runner = ExperimentRunner(frame.num_cpus, seed, frame.scale, sim_config=TIMELINE_CONFIG)
    return runner.run(workload, strategy_by_name(strategy), frame.machine(cycles))


def diagnose(
    run: Run,
    seconds: float,
    tracer: LayerTracer,
    frame: DiagnoseFrame = FRAME,
    expected_digest: str | None = None,
) -> Phase:
    """Whole passes over the observed points for ``seconds`` (see :func:`another_pass`)."""
    setup_s = 0.0 if tracer.enabled else startup_probe(_MODULES)
    points = frame.points()
    problems: list[str] = []
    with scratch_dir("diagnose-") as work:
        exported = []

        def measure(seconds: float, tracer: LayerTracer) -> tuple[Phase, list[list[dict]]]:
            clock = Clock(tracer)
            passes: list[list[dict[str, Any]]] = []
            walls: list[float] = []
            with tracer.installed(), tracer.span("bench.measure"):
                t0 = time.perf_counter()
                while another_pass(t0, len(passes), seconds):
                    results = []
                    before = clock.norm_s
                    for workload, strategy, cycles in points:
                        p0 = time.perf_counter()
                        if (strategy, cycles) == C2C_POINT:
                            result = _c2c(frame, run.seed, workload, strategy, cycles)
                        else:
                            result = _timeline(frame, run.seed, workload, strategy, cycles)
                        label = f"{workload}/{strategy}@{cycles}c"
                        problems.extend(f"{label}: {p}" for p in result.obs.reconcile(result))
                        if (strategy, cycles) == TIMELINE_POINT:
                            path = work / f"{len(exported)}.json"
                            exported.append(export.write_chrome_trace(result.obs, path, label=label))
                        clock.measured(time.perf_counter() - p0)
                        results.append(canonical(result))
                        # Each point is one CLI process's work: free its
                        # observation payloads before the next one starts.
                        del result
                        gc.collect()
                    passes.append(results)
                    walls.append(clock.norm_s - before)
            run.deliver(len(points) * len(passes))
            phase = Phase(
                setup_s=setup_s,
                wall_s=clock.norm_s,
                raw_wall_s=clock.raw_s,
                results=len(points) * len(passes),
                latencies_ms=[w * 1e3 for w in walls],
                exec_cycles=sum(r["exec_cycles"] for r in passes[0]),
                bus_utilization_mean=statistics.fmean(
                    RunMetrics.from_dict(r).bus_utilization for r in passes[0]
                ),
                peak_rss_mb=peak_rss_mb(),
            )
            return phase, passes

        phase, passes = measure_phases(seconds, tracer, measure)
        run.check("every point reconciles", not problems, "; ".join(problems[:3]))
        for path in exported:
            run.check(f"chrome trace {path.name} parses", _trace_ok(path))

    first = json.dumps(passes[0], sort_keys=True)
    run.check("passes agree", all(json.dumps(p, sort_keys=True) == first for p in passes))
    run.details["digest"] = got = digest(passes[0])
    if expected_digest is not None:
        run.check("digest", got == expected_digest, got)

    if tracer.enabled:
        phase.layers = flag_overheads(frame, run.seed)
    return phase


def _trace_ok(path: Any) -> bool:
    """The export parses and every complete event is fully keyed."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        return False
    return all(_X_KEYS <= event.keys() for event in events if event.get("ph") == "X")


#: Flag overheads are timed on the c2c points of the frame's last three
#: workloads (by default LocusRoute, Pverify and Water, the cheapest):
#: on all five, the timing took ~18 s of a 37-s traced run on a host
#: 1.5x slower than the reference.
FLAG_WORKLOADS = 3


def flag_overheads(frame: DiagnoseFrame, seed: int) -> dict[str, float]:
    """Observation-flag costs on c2c points (PWS on the 8-cycle bus).

    Each ratio is the flagged ``simulate`` time over the fast-path time
    on the same annotated traces (generation and insertion untimed);
    ``telemetry.overhead_ratio`` compares ``run_many`` with a default
    :class:`TelemetryConfig` against ``None`` on fresh runners.  Every
    timed call is normalized by the reference units after it (see
    :mod:`bench.clock`); the fast path runs before and after the flagged
    runs of each trace and telemetry off-on-on-off, so a drift in
    machine speed does not land on one side of a ratio.
    """
    workloads = frame.workloads[-FLAG_WORKLOADS:]
    strategy = strategy_by_name(C2C_POINT[0])
    machine = frame.machine(C2C_POINT[1])
    flags = {
        "obs": SimulationConfig(observe=True),
        "lineprof": SimulationConfig(observe=True, observe_lines=True),
        "audit": SimulationConfig(audit=True),
    }
    fast = SimulationConfig()
    clock = Clock(LayerTracer(enabled=False))
    spent = dict.fromkeys(["fast", *flags], 0.0)
    for workload in workloads:
        trace = generate_workload(workload, num_cpus=frame.num_cpus, seed=seed, scale=frame.scale)
        annotated, _report = insert_prefetches(trace, strategy, machine.cache)
        for name, config in [("fast", fast), *flags.items(), ("fast", fast)]:
            t0 = time.perf_counter()
            simulate(annotated, machine, strategy.name, sim_config=config)
            spent[name] += clock.measured(time.perf_counter() - t0)
    spent["fast"] /= 2
    jobs = [(workload, strategy, machine) for workload in workloads]
    telemetry = {"off": 0.0, "on": 0.0}
    for name in ("off", "on", "on", "off"):
        config = TelemetryConfig() if name == "on" else None
        t0 = time.perf_counter()
        ExperimentRunner(frame.num_cpus, seed, frame.scale).run_many(jobs, telemetry=config)
        telemetry[name] += clock.measured(time.perf_counter() - t0)
    ratios = {f"{name}.overhead_ratio": spent[name] / spent["fast"] for name in flags}
    ratios["telemetry.overhead_ratio"] = telemetry["on"] / telemetry["off"]
    return ratios
