"""Tests for the sharing profiler, attribution and advisor."""

import pytest

from repro.analysis import advise, attribute_sharing, profile_sharing, render_advice
from repro.analysis.attribution import render_attribution
from repro.trace.events import MemRef
from repro.trace.stream import CpuTrace, MultiTrace
from repro.workloads.registry import generate_workload


def trace_of(refs_by_cpu, metadata=None):
    cpu_traces = [
        CpuTrace(cpu, [MemRef(addr, w, shared=True) for addr, w in refs])
        for cpu, refs in enumerate(refs_by_cpu)
    ]
    return MultiTrace("t", cpu_traces, metadata=metadata or {})


class TestSharingProfiler:
    def test_private_line_not_shared(self):
        profile = profile_sharing(trace_of([[(0x1000, True)], []]))
        entry = profile.blocks[0x1000]
        assert not entry.is_shared
        assert not entry.has_false_sharing_potential

    def test_write_shared_detection(self):
        profile = profile_sharing(trace_of([[(0x1000, True)], [(0x1000, False)]]))
        assert profile.blocks[0x1000].is_write_shared

    def test_read_only_sharing_not_write_shared(self):
        profile = profile_sharing(trace_of([[(0x1000, False)], [(0x1000, False)]]))
        entry = profile.blocks[0x1000]
        assert entry.is_shared and not entry.is_write_shared

    def test_false_sharing_potential_disjoint_words(self):
        # CPU0 writes word 0; CPU1 reads word 4 of the same line.
        profile = profile_sharing(trace_of([[(0x1000, True)], [(0x1010, False)]]))
        entry = profile.blocks[0x1000]
        assert entry.has_false_sharing_potential

    def test_true_sharing_same_word(self):
        profile = profile_sharing(trace_of([[(0x1000, True)], [(0x1000, False)]]))
        entry = profile.blocks[0x1000]
        assert not entry.has_false_sharing_potential

    def test_mixed_sharing(self):
        # CPU1 reads both the written word and its own word: overlapping.
        profile = profile_sharing(
            trace_of([[(0x1000, True)], [(0x1000, False), (0x1010, False)]])
        )
        entry = profile.blocks[0x1000]
        assert not entry.has_false_sharing_potential

    def test_disjoint_writer_ownership(self):
        profile = profile_sharing(trace_of([[(0x1000, True)], [(0x1010, True)]]))
        assert profile.blocks[0x1000].has_disjoint_writer_ownership

    def test_overlapping_writers_not_owned(self):
        profile = profile_sharing(trace_of([[(0x1000, True)], [(0x1000, True)]]))
        assert not profile.blocks[0x1000].has_disjoint_writer_ownership

    def test_hottest_sorted_by_refs(self):
        profile = profile_sharing(
            trace_of([[(0x1000, False)] * 5 + [(0x2000, False)] * 2, []])
        )
        hottest = profile.hottest(1)
        assert hottest[0].block == 0x1000

    def test_fs_ref_fraction(self):
        profile = profile_sharing(
            trace_of([[(0x1000, True), (0x2000, False)], [(0x1010, False)]])
        )
        assert profile.false_sharing_ref_fraction == pytest.approx(2 / 3)


class TestAttribution:
    def _meta(self):
        return {
            "arrays": [
                {"name": "a", "base": 0x1000, "size": 0x100, "stride": 4, "count": 64, "shared": True},
                {"name": "b[cpu0]", "base": 0x2000, "size": 0x40, "stride": 4, "count": 16, "shared": True},
                {"name": "b[cpu1]", "base": 0x2040, "size": 0x40, "stride": 4, "count": 16, "shared": True},
            ]
        }

    def test_family_folding(self):
        trace = trace_of([[(0x2000, True)], [(0x2050, False)]], metadata=self._meta())
        summaries = attribute_sharing(trace, profile_sharing(trace))
        names = {s.name for s in summaries}
        assert "b" in names and "b[cpu0]" not in names

    def test_out_of_range_goes_to_fallback(self):
        trace = trace_of([[(0x9000, True)], []], metadata=self._meta())
        summaries = attribute_sharing(trace, profile_sharing(trace))
        assert any(s.name == "<sync/other>" and s.refs == 1 for s in summaries)

    def test_fs_attribution(self):
        trace = trace_of(
            [[(0x1000, True)], [(0x1010, False)]], metadata=self._meta()
        )
        summaries = attribute_sharing(trace, profile_sharing(trace))
        a = next(s for s in summaries if s.name == "a")
        assert a.false_sharing_lines == 1
        assert a.false_sharing_refs == 2

    def test_render(self):
        trace = trace_of([[(0x1000, True)], []], metadata=self._meta())
        text = render_attribution(attribute_sharing(trace, profile_sharing(trace)))
        assert "Array" in text and "a" in text


class TestAdvisor:
    def test_pverify_advice_targets_values_and_stats(self):
        trace = generate_workload("Pverify", scale=0.15)
        recs = {r.array: r for r in advise(trace)}
        assert recs["gate_values"].action in ("pad", "group")
        assert recs["process_stats"].action in ("pad", "group")
        assert recs["gate_structs"].action == "keep"
        assert recs["queue_head"].action == "keep"

    def test_restructured_pverify_is_clean(self):
        trace = generate_workload("Pverify", scale=0.15, restructured=True)
        recs = advise(trace)
        actionable = [r for r in recs if r.action != "keep"]
        # The repaired layout should need (almost) nothing.
        assert sum(r.fs_refs for r in actionable) < 0.02 * trace.total_memrefs()

    def test_topopt_cells_flagged(self):
        trace = generate_workload("Topopt", scale=0.15)
        recs = {r.array: r for r in advise(trace)}
        assert recs["cells"].action in ("pad", "group")

    def test_water_mostly_clean(self):
        trace = generate_workload("Water", scale=0.15)
        actionable = [r for r in advise(trace) if r.action != "keep"]
        assert sum(r.fs_refs for r in actionable) < 0.05 * trace.total_memrefs()

    def test_render(self):
        trace = generate_workload("Pverify", scale=0.1)
        text = render_advice(advise(trace))
        assert "Restructuring advice" in text
