"""Map measured per-line heat back to named data structures.

The static half of :mod:`repro.analysis` predicts sharing from the
trace; this module closes the loop with the *dynamic* measurements of
:class:`~repro.obs.lineprof.LineProfiler`: which structures' lines
actually missed, stalled, occupied the bus and ping-ponged on the
simulated machine, and how their prefetches fared.  The rendered
report is the moral equivalent of ``perf c2c report`` for the
simulated multiprocessor, with the advisor's static verdict
cross-referenced per structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.advisor import Recommendation
from repro.analysis.attribution import OTHER, ArrayRanges
from repro.metrics.charts import sparkline
from repro.metrics.formatting import format_table
from repro.obs.lineprof import EFFICACY_BUCKETS, LineProfile, LineStats

__all__ = [
    "StructureHeat",
    "attribute_lines",
    "blamed_families",
    "cross_reference",
    "render_c2c",
    "c2c_to_dict",
]


@dataclass
class StructureHeat:
    """Dynamic heat aggregated over one named data structure (family).

    Attributes:
        name: family name (per-CPU instances folded), or the
            ``<sync/other>`` fallback for lines outside every array.
        shared: declared shared in the layout metadata.
        lines: distinct cache lines with attributed activity.
        cpu_misses / invalidation_misses / false_sharing_misses /
        sync_misses: summed per-line miss counts.
        stall_cycles: summed demand stall cycles.
        bus_cycles: summed contended-bus occupancy.
        invalidations: invalidate snoops received.
        handoffs: distinct-writer ownership handoffs.
        max_chain: longest ping-pong chain over the structure's lines.
        handoff_distance_sum / handoff_gaps: inter-handoff distance
            aggregate (mean = sum / gaps).
        useful / late / squashed / wasted / harmful / throttled:
            prefetch efficacy.
        blocks: the structure's attributed block addresses (sparkline
            selection input).
        advised_action: the static advisor's verdict for this family
            (``pad`` / ``group`` / ``keep``; empty when the advisor was
            not consulted or does not know the family).
    """

    name: str
    shared: bool
    lines: int = 0
    cpu_misses: int = 0
    invalidation_misses: int = 0
    false_sharing_misses: int = 0
    sync_misses: int = 0
    stall_cycles: int = 0
    bus_cycles: int = 0
    invalidations: int = 0
    handoffs: int = 0
    max_chain: int = 0
    handoff_distance_sum: int = 0
    handoff_gaps: int = 0
    useful: int = 0
    late: int = 0
    squashed: int = 0
    wasted: int = 0
    harmful: int = 0
    throttled: int = 0
    blocks: list[int] = field(default_factory=list)
    advised_action: str = ""

    @property
    def heat(self) -> int:
        """Ranking key: stall + bus cycles attributed to the structure."""
        return self.stall_cycles + self.bus_cycles

    @property
    def mean_handoff_distance(self) -> float:
        """Mean cycles between consecutive writer handoffs."""
        return self.handoff_distance_sum / self.handoff_gaps if self.handoff_gaps else 0.0

    @property
    def prefetches(self) -> int:
        """Issued prefetches classified on the structure's lines."""
        return (
            self.useful
            + self.late
            + self.squashed
            + self.wasted
            + self.harmful
            + self.throttled
        )

    def _absorb(self, line: LineStats) -> None:
        self.lines += 1
        self.cpu_misses += line.cpu_misses
        self.invalidation_misses += line.invalidation_misses
        self.false_sharing_misses += line.false_sharing_misses
        self.sync_misses += line.sync_misses
        self.stall_cycles += line.stall_cycles
        self.bus_cycles += line.bus_cycles
        self.invalidations += line.invalidations
        self.handoffs += line.handoffs
        self.handoff_distance_sum += line.handoff_distance_sum
        self.handoff_gaps += line.handoff_gaps
        if line.max_chain > self.max_chain:
            self.max_chain = line.max_chain
        self.useful += line.useful
        self.late += line.late
        self.squashed += line.squashed
        self.wasted += line.wasted
        self.harmful += line.harmful
        self.throttled += line.throttled
        self.blocks.append(line.block)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (blocks omitted: an implementation detail)."""
        return {
            "name": self.name,
            "shared": self.shared,
            "lines": self.lines,
            "cpu_misses": self.cpu_misses,
            "invalidation_misses": self.invalidation_misses,
            "false_sharing_misses": self.false_sharing_misses,
            "sync_misses": self.sync_misses,
            "stall_cycles": self.stall_cycles,
            "bus_cycles": self.bus_cycles,
            "invalidations": self.invalidations,
            "handoffs": self.handoffs,
            "max_chain": self.max_chain,
            "mean_handoff_distance": self.mean_handoff_distance,
            "useful": self.useful,
            "late": self.late,
            "squashed": self.squashed,
            "wasted": self.wasted,
            "harmful": self.harmful,
            "throttled": self.throttled,
            "advised_action": self.advised_action,
        }


def attribute_lines(profile: LineProfile, arrays: list[dict]) -> list[StructureHeat]:
    """Fold the profile's per-line heat into per-structure summaries.

    ``arrays`` is the layout metadata (``trace.metadata["arrays"]``);
    per-CPU instances fold into families, lines outside every array
    land in ``<sync/other>``.  Sorted hottest first (stall + bus
    cycles, ties by name).
    """
    layout = ArrayRanges(arrays)
    heats: dict[str, StructureHeat] = {}
    for _base, _end, name, shared in layout.ranges:
        if name not in heats:
            heats[name] = StructureHeat(name=name, shared=shared)
    heats.setdefault(OTHER, StructureHeat(name=OTHER, shared=True))

    for line in profile.lines.values():
        heats[layout.family_of(line.block)]._absorb(line)

    out = [h for h in heats.values() if h.lines]
    out.sort(key=lambda h: (-h.heat, h.name))
    return out


def cross_reference(
    heats: list[StructureHeat], recommendations: list[Recommendation]
) -> list[StructureHeat]:
    """Annotate each structure with the static advisor's verdict."""
    actions = {r.array: r.action for r in recommendations}
    for heat in heats:
        heat.advised_action = actions.get(heat.name, "")
    return heats


def blamed_families(heats: list[StructureHeat], metric: str = "false_sharing_misses") -> list[str]:
    """Family names the dynamic profiler blames (``metric`` > 0), hottest
    first by that metric.  The fallback bucket is excluded: blame needs
    a name."""
    blamed = [h for h in heats if h.name != OTHER and getattr(h, metric) > 0]
    blamed.sort(key=lambda h: (-getattr(h, metric), h.name))
    return [h.name for h in blamed]


def _efficacy_cell(item: "LineStats | StructureHeat") -> str:
    if not item.prefetches:
        return "-"
    return (
        f"u{item.useful}/l{item.late}/s{item.squashed}"
        f"/w{item.wasted}/h{item.harmful}/t{item.throttled}"
    )


def render_c2c(
    profile: LineProfile,
    heats: list[StructureHeat],
    top_lines: int = 15,
    label: str = "",
) -> str:
    """The textual "c2c report": hot lines, hot structures, sparkline."""
    parts: list[str] = []
    title = "Cache-line heat report" + (f" -- {label}" if label else "")
    parts.append(title)
    parts.append(
        f"{profile.num_lines} lines touched"
        f" ({profile.block_size}-byte blocks, {profile.window_cycles}-cycle windows)"
    )

    owners: dict[int, str] = {}
    for heat in heats:
        for block in heat.blocks:
            owners[block] = heat.name
    line_rows = [
        [
            f"{line.block:#x}",
            owners.get(line.block, "?"),
            line.cpu_misses,
            line.invalidation_misses,
            line.false_sharing_misses,
            line.stall_cycles,
            line.bus_cycles,
            line.handoffs,
            line.max_chain,
            _efficacy_cell(line),
        ]
        for line in profile.hottest(top_lines)
    ]
    parts.append(
        format_table(
            ["Line", "Structure", "Miss", "Inval", "FS", "Stall", "Bus", "Hoff", "Chain", "Prefetch u/l/s/w/h/t"],
            line_rows,
            title=f"Hottest {len(line_rows)} lines (by stall + bus cycles)",
        )
    )

    struct_rows = [
        [
            h.name,
            "shared" if h.shared else "private",
            h.lines,
            h.cpu_misses,
            h.invalidation_misses,
            h.false_sharing_misses,
            h.stall_cycles,
            h.bus_cycles,
            h.handoffs,
            h.max_chain,
            f"{h.mean_handoff_distance:.0f}" if h.handoff_gaps else "-",
            _efficacy_cell(h),
            h.advised_action or "-",
        ]
        for h in heats
    ]
    parts.append(
        format_table(
            [
                "Structure",
                "Region",
                "Lines",
                "Miss",
                "Inval",
                "FS",
                "Stall",
                "Bus",
                "Hoff",
                "Chain",
                "Hoff dist",
                "Prefetch u/l/s/w/h/t",
                "Advisor",
            ],
            struct_rows,
            title="Heat by data structure (advisor verdict cross-referenced)",
        )
    )

    series = profile.inval_window_series()
    if any(series):
        parts.append(
            f"invalidations per {profile.window_cycles}-cycle window "
            f"(peak {max(series)}):\n  {sparkline(series)}"
        )
    else:
        parts.append("no invalidations observed")
    return "\n\n".join(parts) + "\n"


def c2c_to_dict(
    profile: LineProfile,
    heats: list[StructureHeat],
    label: str = "",
    top_lines: int = 50,
) -> dict[str, Any]:
    """JSON export: run context, hottest lines, structures, sparkline."""
    owners: dict[int, str] = {}
    for heat in heats:
        for block in heat.blocks:
            owners[block] = heat.name
    return {
        "label": label,
        "block_size": profile.block_size,
        "window_cycles": profile.window_cycles,
        "num_lines": profile.num_lines,
        "efficacy_totals": {b: profile.total(b) for b in EFFICACY_BUCKETS},
        "hot_lines": [
            dict(line.to_dict(), structure=owners.get(line.block, "?"))
            for line in profile.hottest(top_lines)
        ],
        "structures": [h.to_dict() for h in heats],
        "inval_window_series": profile.inval_window_series(),
        "blamed_families": blamed_families(heats),
    }
