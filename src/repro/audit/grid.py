"""The 294-configuration audited verification grid.

The grid crosses every axis that reaches a distinct engine code path:

* 7 workload variants -- the five paper workloads plus the two
  restructured variants (Topopt, Pverify; section 4.4);
* 7 prefetch strategies -- NP, PREF, EXCL, LPD, PWS plus the PBUF
  (private-only prefetching) and ADAPT (bandwidth-feedback throttling)
  extensions;
* 2 data-bus transfer latencies -- 4 (bandwidth-rich) and 16
  (contended), bracketing the paper's sweep;
* 3 machine variants -- the default Illinois machine, a 4-line victim
  cache, and the MSI protocol ablation.

7 x 7 x 2 x 3 = 294 points, extending the differential grid that
validated the PR 1 fast path.  ``repro audit`` sweeps it with
``SimulationConfig.audit`` enabled and fails on any violation.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.audit.report import AuditReport
from repro.common.config import BusConfig, CacheConfig, MachineConfig, SimulationConfig
from repro.experiments.runner import RunJob, execute, process_trace
from repro.prefetch.strategies import strategy_by_name
from repro.workloads.registry import ALL_WORKLOAD_NAMES, RESTRUCTURABLE_WORKLOAD_NAMES

__all__ = [
    "GRID_MACHINE_VARIANTS",
    "GRID_STRATEGY_NAMES",
    "GRID_TRANSFER_LATENCIES",
    "GridPoint",
    "PointOutcome",
    "audit_grid",
    "machine_for",
    "quick_grid",
    "verification_grid",
]

#: Strategy axis (the five paper disciplines plus the PBUF and ADAPT
#: extensions).
GRID_STRATEGY_NAMES: tuple[str, ...] = (
    "NP",
    "PREF",
    "EXCL",
    "LPD",
    "PWS",
    "PBUF",
    "ADAPT",
)

#: Transfer-latency axis (cycles of contended data-bus occupancy).
GRID_TRANSFER_LATENCIES: tuple[int, ...] = (4, 16)

#: Machine-variant axis.
GRID_MACHINE_VARIANTS: tuple[str, ...] = ("illinois", "victim", "msi")

#: Victim-cache lines used by the "victim" machine variant.
_VICTIM_LINES = 4


@dataclass(frozen=True)
class GridPoint:
    """One audited configuration."""

    workload: str
    restructured: bool
    strategy: str
    machine_variant: str
    transfer_cycles: int

    @property
    def label(self) -> str:
        """Compact unique label (progress lines, violation reports)."""
        workload = self.workload + ("+R" if self.restructured else "")
        return (
            f"{workload}/{self.strategy}/{self.machine_variant}"
            f"/t{self.transfer_cycles}"
        )


@dataclass
class PointOutcome:
    """Audit result of one grid point."""

    point: GridPoint
    report: AuditReport
    exec_cycles: int

    @property
    def passed(self) -> bool:
        """True when the point's audit found no violation."""
        return self.report.passed


def machine_for(point: GridPoint, num_cpus: int) -> MachineConfig:
    """The :class:`MachineConfig` a grid point runs on."""
    cache = CacheConfig(
        victim_cache_lines=_VICTIM_LINES if point.machine_variant == "victim" else 0
    )
    protocol = "msi" if point.machine_variant == "msi" else "illinois"
    return MachineConfig(
        num_cpus=num_cpus,
        cache=cache,
        bus=BusConfig(transfer_cycles=point.transfer_cycles),
        protocol=protocol,
    )


def _workload_variants() -> tuple[tuple[str, bool], ...]:
    base = tuple((name, False) for name in ALL_WORKLOAD_NAMES)
    restructured = tuple((name, True) for name in RESTRUCTURABLE_WORKLOAD_NAMES)
    return base + restructured


def verification_grid() -> tuple[GridPoint, ...]:
    """All 294 points, grouped by workload variant (trace-cache friendly)."""
    return tuple(
        GridPoint(workload, restructured, strategy, variant, cycles)
        for workload, restructured in _workload_variants()
        for strategy in GRID_STRATEGY_NAMES
        for cycles in GRID_TRANSFER_LATENCIES
        for variant in GRID_MACHINE_VARIANTS
    )


def quick_grid() -> tuple[GridPoint, ...]:
    """A 24-point CI-smoke subset covering every axis value.

    Two workloads (one restructured), four strategies spanning
    {none, shared-mode, exclusive-mode, throttled} prefetching, both
    latencies and all three machine variants appear at least once.
    """
    return tuple(
        GridPoint(workload, restructured, strategy, variant, cycles)
        for workload, restructured in (("Water", False), ("Pverify", True))
        for strategy in ("NP", "PWS", "EXCL", "ADAPT")
        for cycles, variant in (
            (4, "illinois"),
            (16, "victim"),
            (16, "msi"),
        )
    )


# --------------------------------------------------------------- execution


def run_point(
    point: GridPoint, num_cpus: int, seed: int, scale: float
) -> PointOutcome:
    """Simulate one grid point with audits enabled.

    Grid points for one workload variant are contiguous, so the
    process's clean-trace LRU serves serial runs and chunked workers.
    """
    job = RunJob(
        point.workload,
        strategy_by_name(point.strategy),
        machine_for(point, num_cpus),
        point.restructured,
        num_cpus,
        seed,
        scale,
    )
    result = execute(job, SimulationConfig(audit=True), process_trace(job)).metrics
    assert result.audit is not None  # audit=True guarantees a report
    return PointOutcome(point=point, report=result.audit, exec_cycles=result.exec_cycles)


def _run_point_job(
    point: GridPoint, num_cpus: int, seed: int, scale: float
) -> dict[str, Any]:
    """Picklable worker wrapper returning a plain dict."""
    outcome = run_point(point, num_cpus, seed, scale)
    return {
        "point": point,
        "report": outcome.report.to_dict(),
        "exec_cycles": outcome.exec_cycles,
    }


def audit_grid(
    points: Iterable[GridPoint],
    num_cpus: int = 4,
    seed: int = 42,
    scale: float = 0.2,
    workers: int = 0,
    progress: Callable[[PointOutcome], None] | None = None,
) -> list[PointOutcome]:
    """Run audited simulations for ``points``; outcomes in point order.

    ``workers > 1`` fans the points over a process pool (results still
    come back in order); ``progress`` is called once per completed
    point.
    """
    points = list(points)
    outcomes: list[PointOutcome] = []
    if workers and workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
            futures = [
                pool.submit(_run_point_job, point, num_cpus, seed, scale)
                for point in points
            ]
            for future in futures:
                data = future.result()
                outcome = PointOutcome(
                    point=data["point"],
                    report=AuditReport.from_dict(data["report"]),
                    exec_cycles=data["exec_cycles"],
                )
                outcomes.append(outcome)
                if progress is not None:
                    progress(outcome)
    else:
        for point in points:
            outcome = run_point(point, num_cpus, seed, scale)
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
    return outcomes
