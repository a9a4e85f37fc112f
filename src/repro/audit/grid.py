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
validated the fast path.  ``repro audit`` sweeps it with
``SimulationConfig.audit`` enabled, as one
:meth:`~repro.experiments.runner.ExperimentRunner.run_many` batch, and
fails on any violation or on any point whose run raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.audit.report import AuditReport, AuditViolation
from repro.common.config import BusConfig, CacheConfig, MachineConfig, SimulationConfig
from repro.experiments.runner import ExperimentRunner
from repro.prefetch.strategies import strategy_by_name
from repro.telemetry.fleet import FleetError, JobFailure
from repro.workloads.registry import ALL_WORKLOAD_NAMES, RESTRUCTURABLE_WORKLOAD_NAMES

__all__ = [
    "GRID_MACHINE_VARIANTS",
    "GRID_STRATEGY_NAMES",
    "GRID_TRANSFER_LATENCIES",
    "GridPoint",
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


def audit_grid(
    points: Iterable[GridPoint],
    num_cpus: int = 4,
    seed: int = 42,
    scale: float = 0.2,
    workers: int = 0,
) -> list[AuditReport]:
    """Each point's :class:`AuditReport`, in point order.

    The points run as one :meth:`ExperimentRunner.run_many` batch with
    ``SimulationConfig.audit`` set (audits bypass the disk cache);
    ``workers > 1`` fans it over the runner's process pool.  Points of
    one workload variant are contiguous, so the runner's (or each
    worker's) clean-trace LRU serves them.  A point whose run raised
    reports one ``run.error`` (or ``run.timeout``) violation carrying
    the cause, and the other points keep their reports.
    """
    runner = ExperimentRunner(
        num_cpus, seed, scale, max_workers=workers, sim_config=SimulationConfig(audit=True)
    )
    jobs = [
        (p.workload, strategy_by_name(p.strategy), machine_for(p, num_cpus), p.restructured)
        for p in points
    ]
    failed: dict[str, JobFailure] = {}
    try:
        results = runner.run_many(jobs)
    except FleetError as exc:
        results, failed = exc.results, {f.config_key: f for f in exc.failures}
    reports = []
    for job, result in zip(jobs, results):
        if result is None:
            failure = failed[runner.job(*job).config_key]
            violation = AuditViolation(f"run.{failure.kind}", 0, failure.message)
            reports.append(AuditReport(violations=[violation]))
        else:
            reports.append(result.audit)
    return reports
