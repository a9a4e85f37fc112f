"""Bit-for-bit goldens of the stages before ``simulate()``.

Every clean trace (the five workloads plus the restructured Topopt and
Pverify variants, at two seeds and two CPU counts) and every annotation
of it (each strategy on two cache geometries, with its insertion
report) is pinned by a SHA-256 digest over every event field.  Any
change to workload generation, the trace builder or the insertion pass
that moves a single gap, address, flag or prefetch placement fails
here, whatever the simulator makes of it.

Generation draws every gap from ``random.Random``, so the trace digests
also pin the interpreter's draw sequence for the calls the builder
makes.
"""

from __future__ import annotations

import copy
import hashlib
import json
from operator import attrgetter

import pytest

from repro.common.config import CacheConfig
from repro.prefetch import insertion
from repro.prefetch.insertion import insert_prefetches
from repro.prefetch.strategies import ADAPT, EXCL, LPD, NP, PBUF, PREF, PWS
from repro.trace.events import Barrier, LockAcquire, LockRelease, MemRef, Prefetch
from repro.trace.stream import CpuTrace, MultiTrace
from repro.workloads.registry import ALL_WORKLOAD_NAMES, RESTRUCTURABLE_WORKLOAD_NAMES, generate_workload

#: Every field of every event type, in digest order.
FIELDS = {
    MemRef: ("addr", "is_write", "gap", "size", "shared", "prefetched"),
    Prefetch: ("addr", "exclusive", "gap"),
    LockAcquire: ("lock_id", "addr", "gap"),
    LockRelease: ("lock_id", "addr", "gap"),
    Barrier: ("barrier_id", "addr", "gap"),
}

VARIANTS = [(name, False) for name in ALL_WORKLOAD_NAMES] + [
    (name, True) for name in RESTRUCTURABLE_WORKLOAD_NAMES
]
FRAMES = [(seed, cpus) for seed in (42, 7) for cpus in (12, 4)]
SCALE = 0.05

STRATEGIES = (NP, PREF, EXCL, LPD, PWS, PBUF, ADAPT, PREF.with_distance(400))
CACHES = {
    "default": CacheConfig(),
    "4way-8k": CacheConfig(size_bytes=8 * 1024, associativity=4),
}


_GETTERS = {kind: attrgetter(*fields) for kind, fields in FIELDS.items()}


def trace_digest(trace: MultiTrace) -> str:
    """SHA-256 over the trace's name, metadata and every event field."""
    h = hashlib.sha256()
    h.update(f"{trace.name}\n{json.dumps(trace.metadata, sort_keys=True)}\n".encode())
    for cpu_trace in trace:
        rows = [(type(e).__name__, _GETTERS[type(e)](e)) for e in cpu_trace.events]
        h.update(f"cpu {cpu_trace.cpu} {rows!r}\n".encode())
    return h.hexdigest()


def report_counts(report: insertion.InsertionReport) -> dict:
    return {
        "strategy": report.strategy,
        "candidates": report.candidates,
        "ws_extras": report.ws_extras,
        "inserted": report.inserted,
        "exclusive": report.exclusive,
        "per_cpu_inserted": list(report.per_cpu_inserted),
    }


def _variant_id(name: str, restructured: bool, seed: int, cpus: int) -> str:
    return f"{name}{'+r' if restructured else ''}/s{seed}/{cpus}c"


#: ``trace_digest`` of every clean trace, by variant id.
TRACE_GOLDENS = {
    "Topopt/s42/12c": "ad263b8c52a9d5366b3ff32eb691eea40da7badfe465d07d40088096ba8b04b0",
    "Topopt/s42/4c": "27fd6d647d1e891f471b1fa8a02b6a0890a01ba23421e4de636bb0679af2598d",
    "Topopt/s7/12c": "9c3ca9b1689df06ef8fec9146e3f9af1bed9bd4f5bddcf8927ddf7ea816e9319",
    "Topopt/s7/4c": "d3b188384ae2b59a070ce4bb8d8bf48d5892c35ce6bd50f8c0c7583e0d602dfe",
    "Mp3d/s42/12c": "b5615a97bf4a7f1d47f6d8bc9e579775ba09675694bd0877ff17ea7b8a6f614c",
    "Mp3d/s42/4c": "70ddc4e90b94fd47444e4d11b99eac6bcbb835079ca3de00a88fb359ce7273d8",
    "Mp3d/s7/12c": "6a38e01a8beb1054a2c1a7479f85d2f0b2e72bf89754c7c63db0f0375574263d",
    "Mp3d/s7/4c": "cbfb9705e2b37893a860983aa1a88dd4b2c54f6c32dca7980a64964aed819148",
    "LocusRoute/s42/12c": "30c904c4b7f293985fb0c3b45395bc1473f44376c05f1319109ebda237200b77",
    "LocusRoute/s42/4c": "24f2e4b7c355974eee1cd93bb8ac749dbccbde3909f3d5b47e788e3e34ed9f4d",
    "LocusRoute/s7/12c": "97b7ba4460a80f5fe2e473c87324e455dcb434eae907d23648b8df76ed9584f4",
    "LocusRoute/s7/4c": "995df97eaa389aa26981b1d90982fa8d8784004e0f35920820e499730c86cfa7",
    "Pverify/s42/12c": "1f1ac8f31e91cb0588ff71b166ebcd55c80fe543b3f5c7754f476071121726b3",
    "Pverify/s42/4c": "bbb8e2c4887154ad98b3445a7c7a67864b52827793b27b74ade7707999603523",
    "Pverify/s7/12c": "3211572323201de34308663e1087419899483cb5e2444b9e80c81d0c201eb055",
    "Pverify/s7/4c": "d28e17fa88bdbcb7de5d75987d5171f75f1b5d1b33169da018e3eb8ac87caaf3",
    "Water/s42/12c": "088fd22e329aaba0332825565a26baee45a97929e685d3741183ad6e1be03fda",
    "Water/s42/4c": "4d91940a692d5166dcac7b09a502fd6eb7fbe683972e2f6bb6d11301430687cc",
    "Water/s7/12c": "d36a7521b0830e40ffb81dcfd8a81d098ecb821f3c974437f6d499c5610a6cf6",
    "Water/s7/4c": "6be7e97c9df1c3e7d92f3d8fb75b19cc35ac7abd73b2d85d2a9767a425970cf9",
    "Topopt+r/s42/12c": "fec415dd7f31483866d5a79fd211daa59d8a8505886fd5792ef3b77afc7cfda1",
    "Topopt+r/s42/4c": "ea19d1f4f060a9e4bf1a69e9186c2812f4789fc727bb68daedc58ce118d5dc54",
    "Topopt+r/s7/12c": "dba80aa9de81fcf452f05e53ec42dadd158f93ecf815f111ffd87998d12b038b",
    "Topopt+r/s7/4c": "6d44ec466a34819cb4a868527e1467179f62f5d22d5cfb6fb2711b084dc4da1b",
    "Pverify+r/s42/12c": "591c175bad4205ccc1eecd6042e5bb5900455fe17d25209a362ea22e4ac2e14a",
    "Pverify+r/s42/4c": "93aa71376697ecf3d737e0406475c1f2487438b5c987ee1bb19b54232ba025dc",
    "Pverify+r/s7/12c": "f98d05dd0e8940878f71ad55c0ee95ebf9162f7a7131c976423a338f88e5de7e",
    "Pverify+r/s7/4c": "bfae93b97d19edc9132c79ab16c498df1cb17dd856100dfb3419e45fd5a4caa0",
}

#: One digest per (strategy, cache) over every clean trace's annotated
#: trace and report counts, in ``VARIANTS`` x ``FRAMES`` order (recorded
#: with each annotation computed on its own).
ANNOTATION_GOLDENS = {
    "NP/default": "4cfb6b388b91048b5005720c3511e7e548da57871b3dc3ccf6e783bca2d7e7a3",
    "PREF/default": "72fc11602fb561ed8ea0546981b10fcd5b66739aa5885fc5c6f9eb6c0eb1fce7",
    "EXCL/default": "6359e61ce8608e63379023766edf71c5a83902513751b22db06184096ba863cc",
    "LPD/default": "0e72e1eda08dcd07a326a08b295f0b1aa7f0868adfeb48742feb715df32efed4",
    "PWS/default": "218d4824cf29f99c958a1109d4bce4fc09fd96f6bc46e28f64b15fcbede3ef40",
    "PBUF/default": "650c27f38003a7a6b57ccf4b9d5a9ef367be73e0ddc40e28f2d3efdd88566a1a",
    "ADAPT/default": "2a99f2810e9dbe133184455e075bbc907e9e5bc0ff22027226b6b6ec8e19d389",
    "PREF(d=400)/default": "d3e2ae1f9cb71bf6abcc7930720b27db0468e8ba50b86e61af9c18adaf9cbccd",
    "NP/4way-8k": "4cfb6b388b91048b5005720c3511e7e548da57871b3dc3ccf6e783bca2d7e7a3",
    "PREF/4way-8k": "eb2ad8eae616b2a484bc9fd78744c566665dc8c6d8d0b0cf2f493491f457e562",
    "EXCL/4way-8k": "b0bfb61c0f87719ac7f965f0bf3f1547316f196d59763249999e5a99b7ef26b0",
    "LPD/4way-8k": "cf63bce3bcc07d42f8a6d8ef389a9ab4c0a992fd1e3f6c4553eba6c4b324185e",
    "PWS/4way-8k": "f3e70e791ebc36d5c1536b01a5cd4e2d40d14b435d677b23dd4aa2f4edeebf2a",
    "PBUF/4way-8k": "f7e5b55525d909230f06a1e19abb12d960deefc47348696100aaf085ac150b89",
    "ADAPT/4way-8k": "229187e502c5c8dd2fe1f1effb92f95fe1980a66bafc728f4552cd60ca4824c8",
    "PREF(d=400)/4way-8k": "2f9dd89f52479ace8f26b678f87aab5973e48bb92d697c91fbf5bd1ca41bec8a",
}


@pytest.fixture(scope="module")
def clean_traces():
    traces = {}
    for name, restructured in VARIANTS:
        for seed, cpus in FRAMES:
            traces[_variant_id(name, restructured, seed, cpus)] = generate_workload(
                name, num_cpus=cpus, seed=seed, scale=SCALE, restructured=restructured
            )
    return traces


class TestDigestCoversEveryField:
    """Must-fail controls: the digest sees every field of every event."""

    @pytest.mark.parametrize("kind", list(FIELDS), ids=lambda k: k.__name__)
    def test_fields_are_every_slot(self, kind):
        slots = {a for k in kind.__mro__ for a in getattr(k, "__slots__", ())}
        assert slots == set(FIELDS[kind])

    def test_flipping_any_field_moves_the_digest(self):
        events = [
            MemRef(0x1000, False, 2, 4, True),
            Prefetch(0x2000, False, 0),
            LockAcquire(1, 0x3000, 1),
            LockRelease(1, 0x3000, 1),
            Barrier(0, 0x4000, 3),
        ]
        base = trace_digest(MultiTrace("t", [CpuTrace(0, events)]))
        for position, event in enumerate(events):
            for name in FIELDS[type(event)]:
                mutated = copy.copy(event)
                value = getattr(event, name)
                setattr(mutated, name, (not value) if isinstance(value, bool) else value + 1)
                flipped = events[:position] + [mutated] + events[position + 1:]
                digest = trace_digest(MultiTrace("t", [CpuTrace(0, flipped)]))
                assert digest != base, f"{type(event).__name__}.{name}"

    def test_one_gap_or_one_mark_in_a_real_trace_moves_the_digest(self, clean_traces):
        trace = clean_traces["Mp3d/s42/4c"]
        base = trace_digest(trace)
        annotated, _ = insert_prefetches(trace, PREF, CacheConfig())
        annotated_base = trace_digest(annotated)
        for target, field, before in ((trace, "gap", base), (annotated, "prefetched", annotated_base)):
            events = target[1].events
            index = next(i for i, e in enumerate(events) if type(e) is MemRef and i > len(events) // 2)
            original = events[index]
            mutated = copy.copy(original)
            setattr(mutated, field, (not original.prefetched) if field == "prefetched" else original.gap + 1)
            events[index] = mutated
            try:
                assert trace_digest(target) != before
            finally:
                events[index] = original
            assert trace_digest(target) == before


class TestCleanTraceGoldens:
    @pytest.mark.parametrize(
        "variant",
        [_variant_id(n, r, s, c) for n, r in VARIANTS for s, c in FRAMES],
    )
    def test_trace_digest(self, clean_traces, variant):
        assert trace_digest(clean_traces[variant]) == TRACE_GOLDENS[variant]


@pytest.fixture(scope="module")
def annotation_digests(clean_traces):
    """Digests per (strategy, cache), annotating trace by trace so that
    every strategy after the first shares the trace's memo (its filter
    plans, and ADAPT PWS's annotation)."""
    hashers = {
        f"{strategy.name}/{cache}": hashlib.sha256() for cache in CACHES for strategy in STRATEGIES
    }
    for variant, trace in clean_traces.items():
        insertion.forget_annotations()
        for cache, config in CACHES.items():
            for strategy in STRATEGIES:
                annotated, report = insert_prefetches(trace, strategy, config)
                counts = json.dumps(report_counts(report), sort_keys=True)
                hashers[f"{strategy.name}/{cache}"].update(
                    f"{variant} {trace_digest(annotated)} {counts}\n".encode()
                )
    return {key: h.hexdigest() for key, h in hashers.items()}


class TestAnnotationGoldens:
    @pytest.mark.parametrize("cache", list(CACHES))
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_annotation_digest(self, annotation_digests, strategy, cache):
        key = f"{strategy.name}/{cache}"
        assert annotation_digests[key] == ANNOTATION_GOLDENS[key]
