"""Unit tests for the prefetch-insertion pass."""

import sys
import threading
from array import array

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.prefetch import insertion
from repro.prefetch.insertion import insert_prefetches
from repro.prefetch.oracle import insert_perfect_prefetches
from repro.prefetch.strategies import ADAPT, EXCL, LPD, NP, PREF, PWS, PrefetchStrategy
from repro.trace.events import MemRef, Prefetch
from repro.trace.stream import CpuTrace, MultiTrace
from repro.workloads.registry import generate_workload


def trace_of(events_by_cpu):
    return MultiTrace(
        "t", [CpuTrace(cpu, events) for cpu, events in enumerate(events_by_cpu)]
    )


def prefetches(cpu_trace):
    return [e for e in cpu_trace if type(e) is Prefetch]


def memrefs(cpu_trace):
    return [e for e in cpu_trace if type(e) is MemRef]


def attributes(event):
    """An event's slot values by name."""
    return {a: getattr(event, a) for k in type(event).__mro__ for a in getattr(k, "__slots__", ())}


def snapshot(trace):
    """Every event's type and attribute values, per CPU."""
    return [[(type(e), attributes(e)) for e in cpu_trace] for cpu_trace in trace]


class TestNP:
    def test_np_inserts_nothing_and_shares(self):
        original = trace_of([[MemRef(0x1000, gap=1)]])
        annotated, report = insert_prefetches(original, NP, CacheConfig())
        assert annotated.total_prefetches() == 0
        assert report.inserted == 0
        # New lists over the input's own events.
        assert annotated[0].events is not original[0].events
        assert annotated[0].events[0] is original[0].events[0]


def _perfect(trace, cache):
    return insert_perfect_prefetches(trace, MachineConfig(num_cpus=trace.num_cpus))


@pytest.fixture(scope="module")
def mp3d():
    return generate_workload("Mp3d", num_cpus=4, scale=0.05)


class TestCopyOnMark:
    """Insertion never writes to its input: marks go on fresh clones."""

    ANNOTATORS = {
        s.name: (lambda trace, cache, s=s: insert_prefetches(trace, s, cache))
        for s in (NP, PREF, EXCL, LPD, PWS, ADAPT)
    }
    ANNOTATORS["ORACLE"] = _perfect

    @pytest.mark.parametrize("name", sorted(ANNOTATORS))
    def test_input_untouched_unmarked_shared_marked_fresh(self, mp3d, name):
        before = snapshot(mp3d)
        annotated, report = self.ANNOTATORS[name](mp3d, CacheConfig())
        assert snapshot(mp3d) == before
        marked = 0
        for clean, out in zip(mp3d, annotated):
            inputs = {id(e) for e in clean}
            assert out.events is not clean.events
            for event in out:
                if type(event) is MemRef and event.prefetched:
                    assert id(event) not in inputs
                    marked += 1
                elif type(event) is not Prefetch:
                    assert id(event) in inputs
            # Dropping the inserted prefetches gives back the input,
            # event for event, up to the marked clones.
            demand = [e for e in out if type(e) is not Prefetch]
            assert len(demand) == len(clean.events)
            for original, event in zip(clean, demand):
                assert event is original or (
                    attributes(event) == {**attributes(original), "prefetched": True}
                )
        assert marked == report.inserted
        if name != "NP":
            assert marked > 0


class TestMemo:
    """Insertion results are memoised for the most recent clean trace."""

    def test_repeat_call_returns_the_same_pair(self, mp3d):
        first = insert_prefetches(mp3d, PREF, CacheConfig())
        assert insert_prefetches(mp3d, PREF, CacheConfig()) is first
        assert insert_prefetches(mp3d, PWS, CacheConfig()) is not first

    def test_never_returns_another_traces_annotation(self):
        one = trace_of([[MemRef(0x1000, gap=1)]])
        two = trace_of([[MemRef(0x2000, gap=1)]])
        for trace in (one, two, one):
            annotated, _ = insert_prefetches(trace, PREF, CacheConfig())
            assert prefetches(annotated[0])[0].addr == trace[0].events[0].addr

    def test_threads_never_see_another_traces_annotation(self):
        # Two CPUs touch each trace's own block, one writing it, so PWS and
        # ADAPT see a write-shared line and PREF does not.
        traces = [
            trace_of([[MemRef(0x1000 * (n + 1), True, gap=1)], [MemRef(0x1000 * (n + 1), gap=1)]])
            for n in range(8)
        ]
        wrong = []

        def annotate(trace, offset):
            strategies = (PREF, PWS, ADAPT)
            for step in range(300):
                strategy = strategies[(step + offset) % 3]
                annotated, report = insert_prefetches(trace, strategy, CacheConfig())
                addr = trace[0].events[0].addr
                if (
                    report.strategy != strategy.name
                    or any(p.addr != addr for cpu in annotated for p in prefetches(cpu))
                    or not prefetches(annotated[1])
                ):
                    wrong.append((trace, strategy))

        threads = [
            threading.Thread(target=annotate, args=(t, n)) for n, t in enumerate(traces * 2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_adapt_shares_pws_annotation_with_its_own_report(self, mp3d):
        for first, second in ((PWS, ADAPT), (ADAPT, PWS)):
            insertion.forget_annotations()
            one, one_report = insert_prefetches(mp3d, first, CacheConfig())
            two, two_report = insert_prefetches(mp3d, second, CacheConfig())
            assert two is one
            assert (one_report.strategy, two_report.strategy) == (first.name, second.name)
            assert vars(two_report) == {**vars(one_report), "strategy": second.name}
            assert two_report.per_cpu_inserted is not one_report.per_cpu_inserted

    def test_strategies_differing_in_a_field_the_pass_reads_do_not_share(self, mp3d):
        insertion.forget_annotations()
        pref, _ = insert_prefetches(mp3d, PREF, CacheConfig())
        renamed, report = insert_prefetches(mp3d, PrefetchStrategy("MINE"), CacheConfig())
        assert renamed is pref and report.strategy == "MINE"
        for other in (EXCL, LPD, PWS, PREF.with_distance(101)):
            assert insert_prefetches(mp3d, other, CacheConfig())[0] is not pref
        assert insert_prefetches(mp3d, PREF, CacheConfig(associativity=2))[0] is not pref

    def test_one_filter_pass_per_trace_and_geometry(self, mp3d, monkeypatch):
        calls = []
        original = insertion.FilterCache.miss_indices

        def counting(self, events):
            calls.append(len(events))
            return original(self, events)

        monkeypatch.setattr(insertion.FilterCache, "miss_indices", counting)
        insertion.forget_annotations()
        for strategy in (PREF, EXCL, LPD, PWS, ADAPT, PREF.with_distance(400)):
            insert_prefetches(mp3d, strategy, CacheConfig())
        assert len(calls) == mp3d.num_cpus
        insert_prefetches(mp3d, PREF, CacheConfig(victim_cache_lines=4))  # same geometry
        assert len(calls) == mp3d.num_cpus
        insert_prefetches(mp3d, PREF, CacheConfig(associativity=2))
        assert len(calls) == 2 * mp3d.num_cpus

    def test_the_plan_holds_index_arrays_and_dies_with_the_memo(self, mp3d):
        insertion.forget_annotations()
        insert_prefetches(mp3d, PWS, CacheConfig())
        plans = insertion._memo.plans
        assert {key[0] for key in plans} == {"filter", "ws"}
        for per_cpu in plans.values():
            assert len(per_cpu) == mp3d.num_cpus
            assert all(type(misses) is array for misses in per_cpu)
        insertion.forget_annotations()
        assert insertion._memo is None

    def test_forget_annotations_reinserts(self, mp3d):
        first = insert_prefetches(mp3d, PREF, CacheConfig())
        insertion.forget_annotations()
        again = insert_prefetches(mp3d, PREF, CacheConfig())
        assert again is not first
        assert snapshot(again[0]) == snapshot(first[0])


class TestEstimatedTimeline:
    def test_matches_the_running_clock(self):
        events = [MemRef(0x40 * i, gap=(i * 7) % 5) for i in range(200)]
        est, clock = [], 0
        for event in events:
            est.append(clock + event.gap)
            clock += event.gap + 1
        assert insertion.estimate_access_times(events) == est


class TestPREF:
    def test_miss_gets_prefetch_and_mark(self):
        original = trace_of([[MemRef(0x1000, gap=1)]])
        annotated, report = insert_prefetches(original, PREF, CacheConfig())
        pfs = prefetches(annotated[0])
        assert len(pfs) == 1
        assert pfs[0].addr == 0x1000
        assert not pfs[0].exclusive
        assert memrefs(annotated[0])[0].prefetched
        assert report.candidates == 1 and report.inserted == 1

    def test_hit_not_prefetched(self):
        original = trace_of([[MemRef(0x1000), MemRef(0x1004)]])
        annotated, _ = insert_prefetches(original, PREF, CacheConfig())
        refs = memrefs(annotated[0])
        assert refs[0].prefetched
        assert not refs[1].prefetched  # same block: filter hit
        assert annotated.total_prefetches() == 1

    def test_prefetch_placed_at_distance(self):
        # 60 hits (2 cycles each) then a miss: with distance 100, the
        # prefetch should land ~50 events before the target.
        events = [MemRef(0x1000 + (i % 8) * 4, gap=1) for i in range(60)]
        events.append(MemRef(0x9000, gap=1))
        annotated, _ = insert_prefetches(trace_of([events]), PREF, CacheConfig())
        stream = annotated[0].events
        target_pos = next(i for i, e in enumerate(stream) if type(e) is MemRef and e.addr == 0x9000)
        pf_positions = [i for i, e in enumerate(stream) if type(e) is Prefetch and e.addr == 0x9000]
        assert len(pf_positions) == 1
        distance_events = target_pos - pf_positions[0]
        # ~100 cycles at ~2 cycles per event, +/- placement slack.
        assert 40 <= distance_events <= 60

    def test_prefetch_never_after_target(self):
        events = [MemRef(0x1000 * i, gap=1) for i in range(1, 30)]
        annotated, _ = insert_prefetches(trace_of([events]), PREF, CacheConfig())
        stream = annotated[0].events
        seen_targets: set[int] = set()
        pf_pending: set[int] = set()
        for event in stream:
            if type(event) is Prefetch:
                assert event.addr not in seen_targets
                pf_pending.add(event.addr)
            elif type(event) is MemRef and event.prefetched:
                assert event.addr in pf_pending
                seen_targets.add(event.addr)

    def test_conflict_misses_predicted(self):
        # Two blocks one cache-size apart alternate: all conflict misses
        # after the first round trip, all predicted by the filter.
        events = []
        for _ in range(4):
            events.append(MemRef(0x0, gap=1))
            events.append(MemRef(32 * 1024, gap=1))
        annotated, report = insert_prefetches(trace_of([events]), PREF, CacheConfig())
        assert report.candidates == 8  # every access misses


class TestEXCL:
    def test_write_miss_prefetched_exclusive(self):
        original = trace_of([[MemRef(0x1000, True, gap=1)]])
        annotated, report = insert_prefetches(original, EXCL, CacheConfig())
        assert prefetches(annotated[0])[0].exclusive
        assert report.exclusive == 1

    def test_read_miss_stays_shared(self):
        original = trace_of([[MemRef(0x1000, False, gap=1)]])
        annotated, report = insert_prefetches(original, EXCL, CacheConfig())
        assert not prefetches(annotated[0])[0].exclusive
        assert report.exclusive == 0

    def test_pref_never_exclusive_even_for_writes(self):
        original = trace_of([[MemRef(0x1000, True, gap=1)]])
        annotated, _ = insert_prefetches(original, PREF, CacheConfig())
        assert not prefetches(annotated[0])[0].exclusive


class TestLPD:
    def test_longer_distance_places_earlier(self):
        events = [MemRef(0x1000 + (i % 8) * 4, gap=1) for i in range(300)]
        events.append(MemRef(0x9000, gap=1))
        pref_annotated, _ = insert_prefetches(trace_of([events]), PREF, CacheConfig())
        lpd_annotated, _ = insert_prefetches(trace_of([events]), LPD, CacheConfig())

        def pf_gap(annotated):
            stream = annotated[0].events
            tpos = next(
                i for i, e in enumerate(stream) if type(e) is MemRef and e.addr == 0x9000
            )
            ppos = next(
                i for i, e in enumerate(stream) if type(e) is Prefetch and e.addr == 0x9000
            )
            return tpos - ppos

        assert pf_gap(lpd_annotated) > pf_gap(pref_annotated) * 2


class TestPWS:
    def _ws_trace(self):
        # All 21 blocks are write-shared (cpu0 writes each, cpu1 reads).
        # cpu1 returns to block 0x10000000 with 20 other write-shared
        # blocks between touches, so the 16-line PWS filter misses on
        # every return even though the 32 KB filter cache hits.
        blocks = [0x10000000 + j * 32 for j in range(21)]
        cpu0 = [MemRef(b, True, gap=1, shared=True) for b in blocks for _ in range(2)]
        cpu1 = []
        for _ in range(4):
            for b in blocks:
                cpu1.append(MemRef(b, False, gap=1, shared=True))
        return trace_of([cpu0, cpu1])

    def test_redundant_prefetches_added(self):
        trace = self._ws_trace()
        _, pref_report = insert_prefetches(trace, PREF, CacheConfig())
        _, pws_report = insert_prefetches(trace, PWS, CacheConfig())
        assert pws_report.ws_extras > 0
        assert pws_report.inserted > pref_report.inserted

    def test_ws_extras_cover_cache_resident_data(self):
        # The PWS extras are "redundant in the uniprocessor sense":
        # they target refs the filter cache says would hit.
        trace = self._ws_trace()
        annotated, report = insert_prefetches(trace, PWS, CacheConfig())
        assert report.ws_extras >= 3  # the repeated returns by cpu1

    def test_good_locality_suppresses_extras(self):
        # Consecutive accesses to the same write-shared line hit the
        # 16-line filter: no redundant prefetches.
        cpu0 = [MemRef(0x10000000, True, gap=1, shared=True)]
        cpu1 = [MemRef(0x10000000, False, gap=1, shared=True) for _ in range(10)]
        _, report = insert_prefetches(trace_of([cpu0, cpu1]), PWS, CacheConfig())
        assert report.ws_extras <= 1


class TestDistanceKnob:
    def test_with_distance_builds_variant(self):
        variant = PREF.with_distance(250)
        assert variant.distance == 250
        assert variant.enabled
        assert "250" in variant.name

    def test_custom_strategy_applies(self):
        events = [MemRef(0x1000 * i, gap=1) for i in range(1, 10)]
        strategy = PrefetchStrategy("T", distance=1)
        annotated, report = insert_prefetches(trace_of([events]), strategy, CacheConfig())
        assert report.inserted == 9
