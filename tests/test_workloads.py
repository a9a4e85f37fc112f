"""Tests for the five workload kernels (small scales for speed)."""

import random

import pytest

from repro.common.errors import ConfigurationError, TraceError
from repro.layout.arrays import ArrayHandle
from repro.layout.records import FieldSpec, RecordType
from repro.trace.events import MemRef
from repro.trace.stats import compute_stats
from repro.workloads.base import TraceBuilder
from repro.workloads.registry import (
    ALL_WORKLOAD_NAMES,
    RESTRUCTURABLE_WORKLOAD_NAMES,
    generate_workload,
    get_workload,
)

SCALE = 0.12  # keep the test suite fast; characteristics shrink gracefully


@pytest.fixture(scope="module")
def traces():
    return {name: generate_workload(name, scale=SCALE) for name in ALL_WORKLOAD_NAMES}


class TestRegistry:
    def test_all_names_resolve(self):
        for name in ALL_WORKLOAD_NAMES:
            assert get_workload(name).name == name

    def test_case_insensitive(self):
        assert get_workload("mp3d").name == "Mp3d"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_workload("nope")

    def test_restructurable_subset(self):
        assert set(RESTRUCTURABLE_WORKLOAD_NAMES) <= set(ALL_WORKLOAD_NAMES)


class TestGeneratedTraces:
    def test_traces_validate(self, traces):
        for trace in traces.values():
            trace.validate()  # balanced locks, consistent barriers

    def test_determinism(self):
        a = generate_workload("Water", scale=SCALE, seed=7)
        b = generate_workload("Water", scale=SCALE, seed=7)
        for ta, tb in zip(a, b):
            assert len(ta) == len(tb)
            for ea, eb in zip(ta, tb):
                assert type(ea) is type(eb)
                assert getattr(ea, "addr", None) == getattr(eb, "addr", None)
                assert ea.gap == eb.gap

    def test_seed_changes_trace(self):
        a = generate_workload("Mp3d", scale=SCALE, seed=1)
        b = generate_workload("Mp3d", scale=SCALE, seed=2)
        addrs_a = [e.addr for e in a[0] if type(e) is MemRef]
        addrs_b = [e.addr for e in b[0] if type(e) is MemRef]
        assert addrs_a != addrs_b

    def test_scale_controls_work_not_data(self, traces):
        small = traces["Water"]
        big = generate_workload("Water", scale=2 * SCALE)
        assert big.total_memrefs() > 1.5 * small.total_memrefs()
        # Footprint (data size) stays put.
        s_small = compute_stats(small)
        s_big = compute_stats(big)
        assert abs(s_big.footprint_blocks - s_small.footprint_blocks) < 0.25 * s_small.footprint_blocks

    def test_every_workload_has_shared_and_private(self, traces):
        for name, trace in traces.items():
            stats = compute_stats(trace)
            assert stats.shared_refs > 0, name
            if name != "Mp3d":  # Mp3d is all-shared (SPLASH style)
                assert stats.shared_refs < stats.total_refs, name

    def test_every_workload_write_shares(self, traces):
        for name, trace in traces.items():
            stats = compute_stats(trace)
            assert stats.write_shared_blocks > 0, name

    def test_barriers_present(self, traces):
        for name, trace in traces.items():
            stats = compute_stats(trace)
            assert stats.barriers >= 1, name

    def test_locks_where_expected(self, traces):
        for name in ("Topopt", "Water", "LocusRoute"):
            stats = compute_stats(traces[name])
            assert stats.lock_acquires > 0, name

    def test_cpu_counts(self):
        trace = generate_workload("Pverify", num_cpus=4, scale=SCALE)
        assert trace.num_cpus == 4

    def test_metadata_populated(self, traces):
        for name, trace in traces.items():
            assert trace.metadata["workload"] == name
            assert "data_set" in trace.metadata
            assert int(trace.metadata["shared_bytes"]) > 0


class TestWorkloadCharacter:
    """Coarse character checks that survive small scales."""

    def test_water_is_the_light_workload(self, traces):
        water = compute_stats(traces["Water"])
        mp3d = compute_stats(traces["Mp3d"])
        # Water's shared footprint fits the 32 KB cache; Mp3d's exceeds it.
        assert water.footprint_bytes < 48 * 1024
        assert mp3d.footprint_bytes > 64 * 1024

    def test_topopt_shared_data_is_small(self, traces):
        stats = compute_stats(traces["Topopt"])
        # "The exception is Topopt ... small shared data set size."
        assert int(traces["Topopt"].metadata["shared_bytes"]) < 32 * 1024

    def test_mean_gap_reasonable(self, traces):
        for name, trace in traces.items():
            stats = compute_stats(trace)
            per_ref = stats.instruction_cycles / stats.total_refs
            assert 0.5 < per_ref < 12, name


class TestRestructuring:
    def test_restructured_variants_generate(self):
        for name in RESTRUCTURABLE_WORKLOAD_NAMES:
            trace = generate_workload(name, scale=SCALE, restructured=True)
            trace.validate()
            assert trace.metadata["restructured"] is True

    def test_non_restructurable_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_workload("Water", scale=SCALE, restructured=True)

    def test_same_work_different_layout(self):
        plain = generate_workload("Pverify", scale=SCALE)
        restr = generate_workload("Pverify", scale=SCALE, restructured=True)
        # Same reference volume (layout-only transformation) ...
        assert abs(plain.total_memrefs() - restr.total_memrefs()) < 0.01 * plain.total_memrefs()
        # ... but a different address mapping.
        a = [e.addr for e in plain[0] if type(e) is MemRef][:200]
        b = [e.addr for e in restr[0] if type(e) is MemRef][:200]
        assert a != b


_RECORD = RecordType("rec", [FieldSpec("a", 4), FieldSpec("pos", 4, 3), FieldSpec("wide", 8)])


class TestTraceBuilder:
    """The emitter builds exactly what ``MemRef(array.addr(...), ...)``
    with a ``randint`` gap built, and fails as the layout checks fail."""

    @pytest.mark.parametrize("mean_gap", [1, 2, 3, 5])
    def test_matches_the_reference_construction(self, mean_gap):
        shared = ArrayHandle("s", 0x10000, _RECORD, 50, True)
        private = ArrayHandle("p", 0x800, _RECORD, 7, False)
        builder = TraceBuilder(0, random.Random(9), mean_gap=mean_gap)
        reference = random.Random(9)
        plan = random.Random(mean_gap)
        expected = []
        for _ in range(2000):
            array = plan.choice((shared, private))
            index = plan.randrange(array.count)
            field = plan.choice((None, "a", "pos", "wide"))
            element = plan.randrange(3) if field == "pos" else 0
            gap = plan.choice((None, None, 0, 7))
            is_write = plan.random() < 0.4
            (builder.write if is_write else builder.read)(array, index, field, element, gap)
            if gap is None:
                gap = reference.randint(max(0, mean_gap - 1), mean_gap + 1)
            size = array.field_size(field) if field is not None else 4
            expected.append(MemRef(array.addr(index, field, element), is_write, gap, size, array.shared))
            builder.lock((1, 0x40), None)
            reference.randint(max(0, mean_gap - 1), mean_gap + 1)
        emitted = [e for e in builder.finish() if type(e) is MemRef]
        slots = ("addr", "is_write", "gap", "size", "shared", "prefetched")
        assert [tuple(getattr(e, a) for a in slots) for e in emitted] == [
            tuple(getattr(e, a) for a in slots) for e in expected
        ]
        assert builder.rng.getstate() == reference.getstate()

    @pytest.mark.parametrize(
        "args",
        [(50, "a", 0), (-1, None, 0), (0, "nope", 0), (0, "pos", 3), (0, "a", 1), (0, "pos", -1)],
    )
    def test_layout_errors_are_the_layouts(self, args):
        array = ArrayHandle("s", 0x10000, _RECORD, 50, True)
        with pytest.raises(ConfigurationError) as expected:
            array.addr(*args)
        builder = TraceBuilder(0, random.Random(1))
        for emit in (builder.read, builder.write):
            with pytest.raises(ConfigurationError) as raised:
                emit(array, *args)
            assert str(raised.value) == str(expected.value)
        assert builder.events == []

    def test_whole_record_ignores_element_and_bad_gaps_fail(self):
        array = ArrayHandle("s", 0x10000, _RECORD, 50, True)
        builder = TraceBuilder(0, random.Random(1))
        builder.read(array, 3, None, 99, gap=1)
        assert builder.events[0].addr == array.addr(3) and builder.events[0].size == 4
        with pytest.raises(TraceError, match="gap must be non-negative"):
            builder.write(array, 3, "a", gap=-1)
        with pytest.raises(TraceError, match="address must be non-negative"):
            builder.read(ArrayHandle("n", -64, _RECORD, 2, False), 0, gap=1)
