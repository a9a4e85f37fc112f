"""Attribute sharing behaviour to named program data structures.

Workload traces carry their memory map (``metadata["arrays"]``, written
by the layout); combining it with a
:class:`~repro.analysis.sharing.SharingProfile` answers the question an
engineer actually asks: *which array is falsely shared?*
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.analysis.sharing import SharingProfile
from repro.metrics.formatting import format_table
from repro.trace.stream import MultiTrace

__all__ = [
    "OTHER",
    "ArrayRanges",
    "ArraySharingSummary",
    "attribute_sharing",
    "render_attribution",
]

#: The family of a line outside every array (locks, barrier counters).
OTHER = "<sync/other>"


@dataclass
class ArraySharingSummary:
    """Sharing facts aggregated over one named array.

    ``name`` may be a per-CPU instance name like ``cost_table[cpu3]``;
    :func:`attribute_sharing` folds such instances into their family
    name (``cost_table``) so reports stay readable.
    """

    name: str
    shared: bool
    bytes: int = 0
    lines: int = 0
    refs: int = 0
    writes: int = 0
    write_shared_lines: int = 0
    false_sharing_lines: int = 0
    false_sharing_refs: int = 0

    @property
    def false_sharing_line_fraction(self) -> float:
        """Fraction of the array's touched lines with FS potential."""
        return self.false_sharing_lines / self.lines if self.lines else 0.0


def _family(name: str) -> str:
    return name.split("[", 1)[0]


class ArrayRanges:
    """A layout's arrays as address ranges, and the owner of a block.

    ``arrays`` is the layout metadata (``trace.metadata["arrays"]``).
    :attr:`ranges` holds one ``(base, end, family, shared)`` tuple per
    array, sorted; per-CPU instances such as ``cost_table[cpu3]`` name
    their family (``cost_table``).
    """

    def __init__(self, arrays: list[dict]) -> None:
        self.ranges: list[tuple[int, int, str, bool]] = sorted(
            (
                int(a["base"]),
                int(a["base"]) + int(a["size"]),
                _family(str(a["name"])),
                bool(a["shared"]),
            )
            for a in arrays
        )
        self._bases = [base for base, _end, _name, _shared in self.ranges]

    def family_of(self, block: int) -> str:
        """The family of the last range starting at or below ``block``
        when it holds the block, else :data:`OTHER`."""
        i = bisect_right(self._bases, block)
        if i and block < self.ranges[i - 1][1]:
            return self.ranges[i - 1][2]
        return OTHER


def attribute_sharing(trace: MultiTrace, profile: SharingProfile) -> list[ArraySharingSummary]:
    """Fold the profile's per-line facts into per-array summaries.

    Arrays are taken from ``trace.metadata["arrays"]``; lines outside
    every array (locks, barrier counters) land in a ``<sync/other>``
    bucket.  Returns summaries sorted by false-sharing refs, then refs.
    """
    layout = ArrayRanges(trace.metadata.get("arrays") or [])
    summaries: dict[str, ArraySharingSummary] = {}
    for base, end, name, shared in layout.ranges:
        summary = summaries.get(name)
        if summary is None:
            summaries[name] = ArraySharingSummary(name=name, shared=shared, bytes=end - base)
        else:
            summary.bytes += end - base
    summaries.setdefault(OTHER, ArraySharingSummary(name=OTHER, shared=True))

    for block_entry in profile.blocks.values():
        summary = summaries[layout.family_of(block_entry.block)]
        summary.lines += 1
        summary.refs += block_entry.refs
        summary.writes += block_entry.writes
        if block_entry.is_write_shared:
            summary.write_shared_lines += 1
        if block_entry.has_false_sharing_potential:
            summary.false_sharing_lines += 1
            summary.false_sharing_refs += block_entry.refs

    out = [s for s in summaries.values() if s.lines]
    out.sort(key=lambda s: (-s.false_sharing_refs, -s.refs))
    return out


def render_attribution(summaries: list[ArraySharingSummary]) -> str:
    """Text table of the attribution report."""
    rows = [
        [
            s.name,
            "shared" if s.shared else "private",
            s.lines,
            s.refs,
            s.write_shared_lines,
            s.false_sharing_lines,
            f"{s.false_sharing_line_fraction:.0%}",
        ]
        for s in summaries
    ]
    return format_table(
        ["Array", "Region", "Lines", "Refs", "Write-shared", "FS-potential", "FS line frac"],
        rows,
        title="Sharing attribution by data structure",
    )
