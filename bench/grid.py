"""The grid workloads: a drift-shaped grid on an empty cache, and a warm re-run.

``grid-cold`` is the path ``repro drift`` takes: one serial
``ExperimentRunner.run_many`` over a grid shaped like the quick drift
frame with an empty disk cache.  Trace generation, prefetch insertion
and fast-path simulation do the work; the cache is only written.  The
frame's paper claims are not evaluated: their bands are calibrated at
the quick frame's full strategy set and trace scale.

``grid-warm`` is the CI re-run path over the same grid: the cache is
filled during set-up and the measured phase re-runs the grid through
fresh runners, so disk-cache reads, ``content_key``,
``RunMetrics.from_dict`` and runner bookkeeping do all the work.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.common.config import SimulationConfig
from repro.experiments.runner import ExperimentRunner
from repro.prefetch.strategies import strategy_by_name
from repro.telemetry import drift
from repro.workloads.registry import ALL_WORKLOAD_NAMES

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

#: Modules a grid run imports before its first result.
_MODULES = ("repro.experiments.runner", "repro.telemetry.drift")

#: Points re-simulated on the generic (observed) path per grid-cold run.
_OBSERVED_CHECKS = 5


@dataclass(frozen=True)
class GridFrame:
    """The grid a workload runs: runner frame plus the point axes."""

    num_cpus: int
    scale: float
    workloads: tuple[str, ...]
    strategies: tuple[str, ...]
    latencies: tuple[int, ...]

    def runner(self, seed: int, **kwargs: Any) -> ExperimentRunner:
        return ExperimentRunner(num_cpus=self.num_cpus, seed=seed, scale=self.scale, **kwargs)

    def jobs(self) -> tuple[list[tuple], list[tuple[str, str, int]]]:
        """``run_many`` jobs and their summary keys, in drift's grid order."""
        jobs, keys = [], []
        base = ExperimentRunner(num_cpus=self.num_cpus).base_machine()
        for workload in self.workloads:
            for cycles in self.latencies:
                machine = base.with_transfer_cycles(cycles)
                for name in self.strategies:
                    jobs.append((workload, strategy_by_name(name), machine))
                    keys.append((workload, name, cycles))
        return jobs, keys


#: The quick drift frame's CPUs, workloads and buses with the baseline,
#: the paper's prefetcher and its write-shared variant, at a twentieth of
#: the paper's trace length: 30 points, a pass of ~5 s on the reference
#: host.  At the frame's own scale (0.25) and five strategies a pass
#: takes ~21 s, and a traced run (an untraced and a traced pass) would
#: overrun the benchmark's time budget on a slow host.  Smaller scales
#: save little: a 12-CPU point costs ~0.15 s however short its trace,
#: mostly bus arbitration in the start-up burst of misses.
FRAME = GridFrame(
    num_cpus=drift.QUICK_FRAME.num_cpus,
    scale=0.05,
    workloads=tuple(ALL_WORKLOAD_NAMES),
    strategies=("NP", "PREF", "PWS"),
    latencies=drift.QUICK_FRAME.transfer_latencies,
)


def _simulated(results: list[Any]) -> tuple[int, float]:
    return (
        sum(r.exec_cycles for r in results),
        statistics.fmean(r.bus_utilization for r in results),
    )


def grid_cold(
    run: Run,
    seconds: float,
    tracer: LayerTracer,
    frame: GridFrame = FRAME,
    expected_digest: str | None = None,
) -> Phase:
    """Cold grid passes (fresh runner, empty cache each) for ``seconds``.

    A run measures the whole passes that fit (see :func:`another_pass`).
    """
    setup_s = 0.0 if tracer.enabled else startup_probe(_MODULES)
    jobs, keys = frame.jobs()
    caches = 0

    with scratch_dir("grid-cold-") as work:

        def measure(seconds: float, tracer: LayerTracer) -> tuple[Phase, list[list[Any]]]:
            nonlocal caches
            clock = Clock(tracer)
            walls: list[float] = []
            passes: list[list[Any]] = []
            with tracer.installed(), tracer.span("bench.measure"):
                t0 = time.perf_counter()
                while another_pass(t0, len(walls), seconds):
                    caches += 1
                    runner = frame.runner(
                        run.seed, max_workers=1, disk_cache=work / f"cache{caches}"
                    )
                    _time_points(runner, clock)
                    before = (clock.raw_s, clock.norm_s, clock.ref_s)
                    p0 = time.perf_counter()
                    passes.append(runner.run_many(jobs))
                    elapsed = time.perf_counter() - p0
                    # Pass time outside the points (memo and disk checks)
                    # takes the mean normalization factor so far.
                    clock.rest(elapsed - (clock.raw_s - before[0]) - (clock.ref_s - before[2]))
                    walls.append(clock.norm_s - before[1])
                raw_wall = time.perf_counter() - t0 - clock.ref_s
            run.deliver(len(jobs) * len(walls))
            cycles, bus = _simulated(passes[0])
            phase = Phase(
                setup_s=setup_s,
                wall_s=clock.norm_s,
                raw_wall_s=raw_wall,
                results=len(jobs) * len(walls),
                latencies_ms=[w * 1e3 for w in walls],
                exec_cycles=cycles,
                bus_utilization_mean=bus,
                peak_rss_mb=peak_rss_mb(),
            )
            return phase, passes

        phase, passes = measure_phases(seconds, tracer, measure)

    results = passes[0]
    run.details["digest"] = got = digest([canonical(r) for r in results])
    run.check(
        "passes agree",
        all(digest([canonical(r) for r in again]) == got for again in passes[1:]),
        f"{len(passes)} passes",
    )
    if expected_digest is not None:
        run.check("digest", got == expected_digest, got)
    # The generic engine path must agree with the fast path the grid took.
    observed = frame.runner(run.seed, sim_config=SimulationConfig(observe=True))
    picks = random.Random(run.seed).sample(range(len(jobs)), min(_OBSERVED_CHECKS, len(jobs)))
    for i in sorted(picks):
        again = observed.run(*jobs[i])
        run.check(f"observed path {keys[i]}", canonical(again) == canonical(results[i]))
    return phase


def _time_points(runner: ExperimentRunner, clock: Clock) -> None:
    """Time each point ``runner`` simulates, then sample the host.

    ``run_many`` runs a serial batch's new points through ``self.run``;
    shadowing that method on this one runner object gives each point
    its own interval, normalized by the reference units right after it.
    """
    run_point = runner.run

    def timed(*args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        result = run_point(*args, **kwargs)
        clock.measured(time.perf_counter() - t0)
        return result

    runner.run = timed  # type: ignore[method-assign]


def _fill(frame: GridFrame, seed: int, cache: Path) -> list[Any]:
    # Two workers fill the cache: serially, the set-up's distinct
    # simulations would take a third of the measured phase.
    return frame.runner(seed, max_workers=2, disk_cache=cache).run_many(frame.jobs()[0])


def grid_warm(
    run: Run,
    seconds: float,
    tracer: LayerTracer,
    frame: GridFrame = FRAME,
    expected_digest: str | None = None,
) -> Phase:
    """Warm re-runs of a pre-filled cache through fresh runners for ``seconds``.

    A warm pass takes milliseconds, so the passes fill the run length.
    """
    jobs, _keys = frame.jobs()
    checked: list[tuple[str, tuple[list[Any], Any]]] = []
    with scratch_dir("grid-warm-") as work:
        cache = work / "cache"
        t0 = time.perf_counter()
        cold = _fill(frame, run.seed, cache)
        fill_s = time.perf_counter() - t0
        cycles, bus = _simulated(cold)

        def measure(seconds: float, tracer: LayerTracer) -> tuple[Phase, Clock]:
            clock = Clock(tracer)
            walls: list[float] = []
            first = last = None
            with tracer.installed(), tracer.span("bench.measure"):
                t0 = time.perf_counter()
                while another_pass(t0, len(walls), seconds):
                    p0 = time.perf_counter()
                    runner = frame.runner(run.seed, max_workers=1, disk_cache=cache)
                    results = runner.run_many(jobs)
                    walls.append(clock.measured(time.perf_counter() - p0))
                    last = (results, runner.disk_cache)
                    first = first or last
            run.deliver(len(jobs) * len(walls))
            checked[:] = [("first", first), ("last", last)]
            phase = Phase(
                setup_s=0.0,
                wall_s=clock.norm_s,
                raw_wall_s=clock.raw_s,
                results=len(jobs) * len(walls),
                latencies_ms=[w * 1e3 for w in walls],
                exec_cycles=cycles,
                bus_utilization_mean=bus,
                peak_rss_mb=peak_rss_mb(),
            )
            return phase, clock

        phase, clock = measure_phases(seconds, tracer, measure)
    if not tracer.enabled:
        # The fill's two workers leave no CPU for reference units beside
        # the points, so the fill takes the factor of the phase after it.
        phase.setup_s = startup_probe(_MODULES) + fill_s * clock.factor

    run.details["digest"] = want = digest([canonical(r) for r in cold])
    if expected_digest is not None:
        run.check("set-up digest", want == expected_digest, want)
    for label, (results, disk) in checked:
        got = digest([canonical(r) for r in results])
        run.check(f"{label} pass digest", got == want, got)
        run.check(
            f"{label} pass served from cache",
            (disk.hits, disk.misses, disk.stores) == (len(jobs), 0, 0),
            f"hits={disk.hits} misses={disk.misses} stores={disk.stores}",
        )
    return phase
