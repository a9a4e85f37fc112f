"""Dynamic line attribution vs. Table 4 restructuring (extension).

The paper's restructuring story (section 4.4, Tables 4/5) says: the
invalidation misses that cap prefetching come from a small set of
falsely-shared structures, and the Jeremiassen–Eggers transformations
remove them.  This experiment closes the loop *dynamically*: run the
restructurable workloads with the per-line heat profiler
(:mod:`repro.obs.lineprof`), fold the measured misses onto named
structures (:mod:`repro.analysis.dynamic`), and check that

* the structures the dynamic profiler blames for false-sharing misses
  are exactly the ones the static advisor says to transform, and
* re-running on the restructured layout collapses those structures'
  false-sharing misses -- the measured counterpart of Table 4's
  miss-rate drops.

It is also the one home of the two observed runs the diagnostic front
ends share: :func:`profile_lines` feeds ``repro c2c`` and the service's
``?view=c2c``, and :func:`record_timeline` feeds ``repro timeline`` and
the service's engine trace.  Each caller picks its own window and label.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.advisor import advise
from repro.analysis.dynamic import (
    StructureHeat,
    attribute_lines,
    blamed_families,
    cross_reference,
)
from repro.common.config import SimulationConfig
from repro.experiments.runner import ExperimentRunner, RunJob
from repro.metrics.formatting import format_table
from repro.metrics.results import RunMetrics
from repro.obs.lineprof import EFFICACY_BUCKETS
from repro.prefetch.strategies import strategy_by_name
from repro.workloads.registry import RESTRUCTURABLE_WORKLOAD_NAMES

__all__ = [
    "FamilyDelta", "LineAttributionResult", "WorkloadLineAttribution", "profile_lines",
    "record_timeline", "render", "run",
]

#: The strategy profiled: PWS is the paper's best prefetcher on these
#: workloads, so its residual misses are the ones restructuring targets.
DEFAULT_STRATEGY = "PWS"


@dataclass
class FamilyDelta:
    """One structure's measured heat, original vs. restructured layout."""

    family: str
    advised_action: str
    fs_misses: int
    fs_misses_restructured: int
    invalidation_misses: int
    invalidation_misses_restructured: int
    handoffs: int
    handoffs_restructured: int
    stall_cycles: int
    stall_cycles_restructured: int

    @property
    def fs_reduction(self) -> float:
        """Fraction of false-sharing misses the restructuring removed."""
        if not self.fs_misses:
            return 0.0
        return 1.0 - self.fs_misses_restructured / self.fs_misses


@dataclass
class WorkloadLineAttribution:
    """One workload's dynamic-blame vs. restructuring comparison."""

    workload: str
    strategy: str
    blamed: list[str]
    advised: dict[str, str]
    matched: list[str]
    families: list[FamilyDelta]
    efficacy: dict[str, int]
    reconcile_problems: int


@dataclass
class LineAttributionResult:
    """All workloads of the line-attribution experiment."""

    num_cpus: int
    scale: float
    strategy: str
    cells: dict[str, WorkloadLineAttribution]


def _family_index(heats: list[StructureHeat]) -> dict[str, StructureHeat]:
    return {h.name: h for h in heats}


def profile_lines(job: RunJob, window: int) -> tuple[RunMetrics, list[StructureHeat]]:
    """Run ``job`` with the per-line heat profiler on.

    Returns the observed result and its line heat folded onto the
    trace's named structures, cross-referenced with the static advisor.
    ``window`` is the invalidation-series window in cycles.  Observed
    runs bypass the caches, so the runner is private to the run.
    """
    config = SimulationConfig(
        observe=True, observe_lines=True, observe_window=window, observe_trace_capacity=0
    )
    runner = ExperimentRunner(job.num_cpus, job.seed, job.scale, sim_config=config)
    result = runner.run(job.workload, job.strategy, job.machine, job.restructured)
    arrays = runner.trace_metadata(job.workload, job.restructured).get("arrays") or []
    heats = cross_reference(
        attribute_lines(result.obs.lines, arrays),
        advise(runner.clean_trace(job.workload, restructured=job.restructured)),
    )
    return result, heats


def record_timeline(job: RunJob, window: int, events: int) -> RunMetrics:
    """Run ``job`` with the observability taps on: ``window``-cycle
    telemetry windows and an ``events``-deep timeline ring buffer."""
    config = SimulationConfig(observe=True, observe_window=window, observe_trace_capacity=events)
    runner = ExperimentRunner(job.num_cpus, job.seed, job.scale, sim_config=config)
    return runner.run(job.workload, job.strategy, job.machine, job.restructured)


def run(
    runner: ExperimentRunner | None = None,
    workloads: tuple[str, ...] = RESTRUCTURABLE_WORKLOAD_NAMES,
    strategy: str = DEFAULT_STRATEGY,
    window: int = 4096,
) -> LineAttributionResult:
    """Profile each workload's lines on the original and restructured
    layouts and fold the measurements onto named structures.

    ``runner`` only contributes the frame (CPU count, seed, scale): the
    observed runs go through :func:`profile_lines`, since
    telemetry-bearing results bypass the caches.
    """
    frame = runner or ExperimentRunner()
    strat = strategy_by_name(strategy)
    machine = frame.base_machine()
    cells: dict[str, WorkloadLineAttribution] = {}
    for workload in workloads:
        heats: dict[bool, list[StructureHeat]] = {}
        problems = 0
        efficacy: dict[str, int] = {}
        for restructured in (False, True):
            result, heats[restructured] = profile_lines(
                frame.job(workload, strat, machine, restructured), window
            )
            problems += len(result.obs.reconcile(result))
            if not restructured:
                efficacy = {b: result.obs.lines.total(b) for b in EFFICACY_BUCKETS}
        recommendations = advise(frame.clean_trace(workload, restructured=False))
        blamed = blamed_families(heats[False])
        advised = {r.array: r.action for r in recommendations if r.action != "keep"}
        matched = [name for name in blamed if name in advised]

        after = _family_index(heats[True])
        deltas = []
        for name in dict.fromkeys(blamed + list(advised)):
            before = _family_index(heats[False]).get(name, StructureHeat(name, True))
            post = after.get(name, StructureHeat(name, True))
            deltas.append(
                FamilyDelta(
                    family=name,
                    advised_action=advised.get(name, "keep"),
                    fs_misses=before.false_sharing_misses,
                    fs_misses_restructured=post.false_sharing_misses,
                    invalidation_misses=before.invalidation_misses,
                    invalidation_misses_restructured=post.invalidation_misses,
                    handoffs=before.handoffs,
                    handoffs_restructured=post.handoffs,
                    stall_cycles=before.stall_cycles,
                    stall_cycles_restructured=post.stall_cycles,
                )
            )
        cells[workload] = WorkloadLineAttribution(
            workload=workload,
            strategy=strategy,
            blamed=blamed,
            advised=advised,
            matched=matched,
            families=deltas,
            efficacy=efficacy,
            reconcile_problems=problems,
        )
    return LineAttributionResult(
        num_cpus=frame.num_cpus,
        scale=frame.scale,
        strategy=strategy,
        cells=cells,
    )


def render(result: LineAttributionResult) -> str:
    """Text report: per workload, the blamed structures and the measured
    effect of restructuring on them."""
    parts = [
        f"Dynamic line attribution vs. restructuring: {result.strategy}, "
        f"{result.num_cpus} CPUs, scale {result.scale}"
    ]
    for workload, cell in result.cells.items():
        rows = [
            [
                d.family,
                d.advised_action,
                d.fs_misses,
                d.fs_misses_restructured,
                f"{d.fs_reduction:.0%}" if d.fs_misses else "-",
                d.invalidation_misses,
                d.invalidation_misses_restructured,
                d.handoffs,
                d.handoffs_restructured,
                d.stall_cycles,
                d.stall_cycles_restructured,
            ]
            for d in cell.families
        ]
        parts.append(
            format_table(
                [
                    "Structure",
                    "Advisor",
                    "FS miss",
                    "FS rest.",
                    "Removed",
                    "Inval",
                    "Inval rest.",
                    "Hoff",
                    "Hoff rest.",
                    "Stall",
                    "Stall rest.",
                ],
                rows,
                title=f"{workload}: measured heat, original vs. restructured layout",
            )
        )
        eff = cell.efficacy
        parts.append(
            f"{workload}: dynamic blame {', '.join(cell.blamed) or '(none)'}; "
            f"advisor transforms {', '.join(cell.advised) or '(none)'}; "
            f"agreement on {', '.join(cell.matched) or '(none)'}"
        )
        parts.append(
            f"{workload}: prefetch efficacy (original) "
            + " ".join(f"{b}={eff.get(b, 0)}" for b in EFFICACY_BUCKETS)
            + f"; reconciliation mismatches {cell.reconcile_problems}"
        )
    return "\n\n".join(parts) + "\n"
