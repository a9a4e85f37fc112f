"""Test-only references for the handlers both engine paths share.

``TestFastPathMatchesGenericPath`` holds the hit-streak fast path to
:class:`tests.engines.GenericPathEngine`, but both sides call the same
code for everything but the inline hit and the streak guard: the demand
access (``_try_access`` and the ``_merge``, ``_miss``, ``_upgrade`` and
``_complete_hit`` transitions it shares with the fast path), the upgrade
grant, the fill grant, the fill landing (``_fill_done``) and the fill
install (``CoherentCache.install``).  A bug there makes both sides
agree, so only the goldens would see it.  As ``tests/test_bus.py``'s
``LinearScanArbiter`` does for arbitration, the references here restate
each handler in its plainest form: fully allocated sets of plain
records, the seven-bucket classification and the Illinois snoop rules
written out.  Derandomized hypothesis schedules drive the handler and
its reference side by side.  The must-fail controls mutate one rule of
a reference and show that a fixed schedule then fails the comparison.
"""

from __future__ import annotations

import copy
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bus.transaction import TransactionKind
from repro.cache.coherent import CoherentCache
from repro.coherence.protocol import BusOp, LineState
from repro.common.config import CacheConfig, MachineConfig, SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.processor import CpuStatus
from repro.trace.events import MemRef
from repro.trace.stream import CpuTrace, MultiTrace
from tests.engines import snoop

settings.register_profile("repro-ci", derandomize=True)
settings.load_profile("repro-ci")

INVALID, SHARED, PRIVATE, MODIFIED = (
    LineState.INVALID,
    LineState.SHARED,
    LineState.PRIVATE,
    LineState.MODIFIED,
)
VALID_STATES = (SHARED, PRIVATE, MODIFIED)

# --------------------------------------------------------------------------
# The fill install
# --------------------------------------------------------------------------

#: A 1 KB cache of 32-byte blocks: 32 frames, so a few tags per set
#: fill every associativity tested here.
SIZE, BLOCK = 1024, 32


class Way:
    """One way of a fully allocated set; tag -1 until first filled."""

    __slots__ = ("block", "state", "words", "remote", "last_use")

    def __init__(self) -> None:
        self.block = -1
        self.state = INVALID
        self.words = 0
        self.remote = 0
        self.last_use = 0

    def fields(self) -> tuple:
        return (self.block, self.state, self.words, self.remote, self.last_use)


class ReferenceCache:
    """The install rule over fully allocated sets, LRU and a victim FIFO.

    A fill picks the first INVALID way of its set (never-filled ways are
    INVALID and come last), else the least recently used way, the first
    one on a tie.  The tag map entry of the victim way's old tag is
    dropped whether or not it still names that way: that is the stale
    tag bug ``tests/test_cache.py::TestStaleTag`` pins.  A valid victim
    is parked in the victim buffer, or written back if dirty when there
    is none; a dirty line the buffer pushes out is written back.

    ``lru_first``, ``fix_stale_tag`` and ``drop_pushed_out`` are the
    must-fail mutations.
    """

    def __init__(
        self,
        config: CacheConfig,
        *,
        lru_first: bool = False,
        fix_stale_tag: bool = False,
        drop_pushed_out: bool = False,
    ):
        self.num_sets = config.num_sets
        self.block_size = config.block_size
        self.sets = [[Way() for _ in range(config.associativity)] for _ in range(self.num_sets)]
        self.tags: dict[int, tuple[int, int]] = {}
        self.victim_lines = config.victim_cache_lines
        self.victim: OrderedDict[int, list] = OrderedDict()
        self.lru_first = lru_first
        self.fix_stale_tag = fix_stale_tag
        self.drop_pushed_out = drop_pushed_out

    def set_of(self, block: int) -> int:
        return (block // self.block_size) % self.num_sets

    def way_of(self, block: int) -> Way | None:
        where = self.tags.get(block)
        return None if where is None else self.sets[where[0]][where[1]]

    def has_valid_copy(self, block: int) -> bool:
        way = self.way_of(block)
        if way is not None and way.state is not INVALID:
            return True
        entry = self.victim.get(block)
        return entry is not None and entry[0] is not INVALID

    def park(self, block: int, state: LineState, words: int, remote: int) -> int | None:
        """VictimCache.insert: the dirty block pushed out, if any."""
        if self.victim_lines == 0 or state is INVALID:
            return None
        pushed = None
        if block in self.victim:
            del self.victim[block]
        elif len(self.victim) >= self.victim_lines:
            old, entry = self.victim.popitem(last=False)
            if entry[0] is MODIFIED and not self.drop_pushed_out:
                pushed = old
        self.victim[block] = [state, words, remote]
        return pushed

    def install(self, block: int, state: LineState, now: int) -> tuple | None:
        """Fill ``block``; returns ``(block, dirty)`` to write back, or None."""
        s = self.set_of(block)
        ways = self.sets[s]
        invalid = [w for w, way in enumerate(ways) if way.state is INVALID]
        lru = min(range(len(ways)), key=lambda w: ways[w].last_use)
        if self.lru_first and all(way.block >= 0 for way in ways):
            choice = lru
        else:
            choice = invalid[0] if invalid else lru
        way = ways[choice]
        writeback = None
        if way.block >= 0:
            if not self.fix_stale_tag or self.tags.get(way.block) == (s, choice):
                self.tags.pop(way.block, None)
            if way.state is not INVALID:
                if self.victim_lines == 0:
                    if way.state is MODIFIED:
                        writeback = (way.block, True)
                else:
                    pushed = self.park(way.block, way.state, way.words, way.remote)
                    if pushed is not None:
                        writeback = (pushed, True)
        way.block, way.state, way.words, way.remote = block, state, 0, 0
        way.last_use = now
        self.tags[block] = (s, choice)
        return writeback

    def install_poisoned(self, block: int, remote: int, now: int) -> tuple | None:
        writeback = self.install(block, INVALID, now)
        self.way_of(block).remote = remote
        return writeback

    def snoop(self, block: int, op: BusOp, mask: int) -> None:
        """A remote READ downgrades valid copies; READ_EX invalidates them."""
        for entry in (self.way_of(block), self.victim.get(block)):
            if entry is None:
                continue
            if isinstance(entry, Way):
                if entry.state is INVALID:
                    continue
                if op is BusOp.READ:
                    entry.state = SHARED
                else:
                    entry.state, entry.remote = INVALID, mask
            elif entry[0] is not INVALID:
                entry[0] = SHARED if op is BusOp.READ else INVALID
                if op is not BusOp.READ:
                    entry[2] = mask

    def touch(self, block: int, mask: int, now: int) -> None:
        way = self.way_of(block)
        if way is not None:
            way.words |= mask
            way.last_use = now

    def remote_write(self, block: int, mask: int) -> None:
        way = self.way_of(block)
        if way is not None:
            if way.state is INVALID:
                way.remote |= mask
        elif block in self.victim and self.victim[block][0] is INVALID:
            self.victim[block][2] |= mask

    def lookup(self, block: int, mask: int, now: int) -> tuple:
        """lookup_demand as ``(hit, invalidation, false_sharing, victim_hit, writeback)``."""
        way = self.way_of(block)
        if way is not None:
            if way.state is not INVALID:
                way.last_use = now
                return (True, False, False, False, None)
            return (False, True, way.remote & (way.words | mask) == 0, False, None)
        entry = self.victim.get(block)
        if entry is not None and entry[0] is not INVALID:
            del self.victim[block]
            writeback = self.install(block, entry[0], now)
            way = self.way_of(block)
            way.words, way.remote = entry[1], entry[2]
            return (True, False, False, True, writeback)
        if entry is not None:
            del self.victim[block]
            return (False, True, entry[2] & (entry[1] | mask) == 0, False, None)
        return (False, False, False, False, None)


def _evicted(line) -> tuple | None:
    return None if line is None else (line.block, line.dirty)


def _lookup_fields(result) -> tuple:
    return (
        result.hit,
        result.invalidation_miss,
        result.false_sharing,
        result.victim_hit,
        _evicted(result.writeback),
    )


class FrameTracker:
    """Maps the cache's frames to ``(set, way)`` without reading its sets.

    A frame is created only by an install, which maps it at once, so a
    frame object first seen in the tag map is the next way of its set.
    """

    def __init__(self, reference: ReferenceCache) -> None:
        self.reference = reference
        self.where: dict[int, tuple[int, int]] = {}
        self.frames: list = []
        self.allocated = [0] * reference.num_sets

    def update(self, cache: CoherentCache) -> None:
        for block, frame in cache._by_block.items():
            if id(frame) not in self.where:
                s = self.reference.set_of(block)
                self.where[id(frame)] = (s, self.allocated[s])
                self.allocated[s] += 1
                self.frames.append(frame)

    def check(self, cache: CoherentCache) -> None:
        ref = self.reference
        self.update(cache)
        assert {b: self.where[id(f)] for b, f in cache._by_block.items()} == ref.tags
        for frame in self.frames:
            s, w = self.where[id(frame)]
            got = (
                frame.block,
                frame.state,
                frame.words_accessed,
                frame.remote_written,
                frame.last_use,
            )
            assert got == ref.sets[s][w].fields(), (s, w)
        # A way the cache has not allocated is one a fill never chose.
        for s, ways in enumerate(ref.sets):
            assert all(way.block == -1 for way in ways[self.allocated[s]:]), s
        assert [
            (b, e.state, e.words_accessed, e.remote_written)
            for b, e in cache.victim._entries.items()
        ] == [(b, *entry) for b, entry in ref.victim.items()]


def _block(config: CacheConfig, index: int) -> int:
    """Block ``index`` of 12: six tags in each of sets 0 and 1."""
    return (index % 6) * config.num_sets * BLOCK + (index // 6) * BLOCK


_FILL_STEP = st.tuples(st.just("fill"), st.integers(0, 11), st.sampled_from(VALID_STATES))
#: Fills weigh double: every rule under test needs full sets.
_INSTALL_STEP = st.one_of(
    _FILL_STEP,
    _FILL_STEP,
    st.tuples(st.just("poisoned"), st.integers(0, 11), st.integers(1, 255)),
    st.tuples(
        st.just("snoop"), st.integers(0, 11), st.sampled_from([BusOp.READ, BusOp.READ_EX]),
        st.integers(0, 255),
    ),
    st.tuples(st.just("touch"), st.integers(0, 11), st.integers(1, 255)),
    st.tuples(st.just("remote_write"), st.integers(0, 11), st.integers(1, 255)),
    st.tuples(st.just("lookup"), st.integers(0, 11), st.integers(1, 255)),
)


def run_install_schedule(config: CacheConfig, steps, **mutation) -> None:
    """Drive a cache and its reference through ``steps``, comparing all
    state after each one.  A fill is skipped when the block has a valid
    copy (the engine starts fills only for lines it cannot use)."""
    # CPU 0's cache, and CPU 1 to snoop it and report remote writes
    # through the engine's own fill grant and note.
    engine = SimulationEngine(
        MultiTrace("install", [CpuTrace(c, [MemRef(0x100000)]) for c in range(2)]),
        MachineConfig(num_cpus=2, cache=config),
        SimulationConfig(),
    )
    cache = engine.procs[0].cache
    ref = ReferenceCache(config, **mutation)
    tracker = FrameTracker(ref)
    now = 0
    for step in steps:
        now += 1
        op, block = step[0], _block(config, step[1])
        if op in ("fill", "poisoned") and ref.has_valid_copy(block):
            continue
        if op == "fill":
            got = _evicted(cache.install(block, step[2], now))
            assert got == ref.install(block, step[2], now)
        elif op == "poisoned":
            got = _evicted(cache.install_poisoned(block, step[2], now))
            assert got == ref.install_poisoned(block, step[2], now)
        elif op == "snoop":
            snoop(engine, block, step[2], step[3], now)
            ref.snoop(block, step[2], step[3])
        elif op == "touch":
            # What the engine's completion of an access writes.
            frame = cache._by_block.get(block)
            if frame is not None:
                frame.words_accessed |= step[2]
                frame.last_use = now
            ref.touch(block, step[2], now)
        elif op == "remote_write":
            engine._note_remote_write(1, block, step[2])
            ref.remote_write(block, step[2])
        else:
            assert _lookup_fields(cache.lookup_demand(block, step[2], now)) == ref.lookup(
                block, step[2], now
            )
        tracker.check(cache)


#: Four tags into one 4-way set; the invalidated one is not the LRU way.
INVALID_BEATS_LRU = [("fill", i, SHARED) for i in range(4)] + [
    ("snoop", 2, BusOp.READ_EX, 1),
    ("fill", 4, SHARED),
]

#: TestStaleTag's schedule on a 2-way set: X gets a second way while its
#: stale INVALID tag sits in the first, then W reuses the stale way.
STALE_TAG = [
    ("fill", 0, SHARED),  # Z
    ("fill", 1, SHARED),  # X
    ("snoop", 0, BusOp.READ_EX, 1),
    ("snoop", 1, BusOp.READ_EX, 1),
    ("fill", 1, MODIFIED),  # X into Z's way
    ("fill", 2, SHARED),  # W into X's stale way
]

#: Direct-mapped with a 2-line victim buffer: the dirty first line is
#: parked, then pushed out by the third eviction and written back.
VICTIM_PUSH_OUT = [("fill", 0, MODIFIED)] + [("fill", i, SHARED) for i in range(1, 4)]


class TestInstallReference:
    @settings(max_examples=150, deadline=None)
    @given(
        associativity=st.sampled_from([1, 2, 4]),
        victim_lines=st.sampled_from([0, 2]),
        steps=st.lists(_INSTALL_STEP, max_size=80),
    )
    @example(associativity=4, victim_lines=0, steps=INVALID_BEATS_LRU)
    @example(associativity=2, victim_lines=0, steps=STALE_TAG)
    @example(associativity=1, victim_lines=2, steps=VICTIM_PUSH_OUT)
    def test_matches_reference(self, associativity, victim_lines, steps):
        config = CacheConfig(
            size_bytes=SIZE, block_size=BLOCK, associativity=associativity,
            victim_cache_lines=victim_lines,
        )
        run_install_schedule(config, steps)

    @pytest.mark.parametrize(
        "steps, associativity, victim_lines, mutation",
        [
            (INVALID_BEATS_LRU, 4, 0, {"lru_first": True}),
            (STALE_TAG, 2, 0, {"fix_stale_tag": True}),
            (VICTIM_PUSH_OUT, 1, 2, {"drop_pushed_out": True}),
        ],
        ids=["lru-over-invalid", "stale-tag-fixed", "pushed-out-line-dropped"],
    )
    def test_a_mutated_reference_fails(self, steps, associativity, victim_lines, mutation):
        config = CacheConfig(
            size_bytes=SIZE, block_size=BLOCK, associativity=associativity,
            victim_cache_lines=victim_lines,
        )
        run_install_schedule(config, steps)
        with pytest.raises(AssertionError):
            run_install_schedule(config, steps, **mutation)


# --------------------------------------------------------------------------
# The upgrade grant
# --------------------------------------------------------------------------


class TapRecorder:
    """An observer stand-in that records every tap call in order."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def __getattr__(self, name: str):
        if not name.startswith("on_"):
            raise AttributeError(name)
        return lambda *args: self.calls.append((name, *args))


#: The upgraded block and a bystander in another set.
TARGET, BYSTANDER = 0x4000, 0x4020

_FRAME = st.one_of(
    st.none(),
    st.tuples(st.sampled_from((INVALID,) + VALID_STATES), st.integers(0, 255), st.integers(0, 255)),
)
_PARKED = st.one_of(
    st.none(),
    st.tuples(st.sampled_from((INVALID,) + VALID_STATES), st.integers(0, 255), st.integers(0, 255)),
)
#: An in-flight fill: (prefetch, exclusive, granted, poisoned, poison mask).
_FILL = st.one_of(
    st.none(),
    st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.integers(0, 255)),
)


@st.composite
def upgrade_scenarios(draw):
    num_cpus = draw(st.integers(2, 4))
    victim_lines = draw(st.sampled_from([0, 2]))
    remotes = []
    for _ in range(num_cpus - 1):
        frame = draw(_FRAME)
        parked = draw(_PARKED) if victim_lines and frame is None else None
        remotes.append((frame, parked, draw(_FILL), draw(_FRAME)))
    return {
        "num_cpus": num_cpus,
        "victim_lines": victim_lines,
        "protocol": draw(st.sampled_from(["illinois", "msi"])),
        "writer": draw(st.integers(0, num_cpus - 1)),
        "writer_state": draw(st.sampled_from([SHARED, INVALID, None])),
        "mask": draw(st.integers(1, 255)),
        "sync": draw(st.booleans()),
        "stall": draw(st.integers(0, 300)),
        "remotes": remotes,
    }


def build_upgrade(sc: dict) -> tuple[SimulationEngine, object]:
    """An engine whose writer is stalled on a granted UPGRADE of TARGET."""
    n = sc["num_cpus"]
    machine = MachineConfig(
        num_cpus=n,
        cache=CacheConfig(victim_cache_lines=sc["victim_lines"]),
        protocol=sc["protocol"],
    )
    trace = MultiTrace("upgrade", [CpuTrace(c, [MemRef(0x100000)]) for c in range(n)])
    engine = SimulationEngine(trace, machine, SimulationConfig())
    engine._obs = TapRecorder()

    others = [c for c in range(n) if c != sc["writer"]]
    for cpu, (frame, parked, fill, bystander) in zip(others, sc["remotes"]):
        cache = engine.procs[cpu].cache
        place_frame(cache, TARGET, frame, 1)
        place_frame(cache, BYSTANDER, bystander, 2)
        if parked is not None:
            state, words, remote = parked
            cache.victim.insert(TARGET, SHARED, words, remote)
            cache.victim._entries[TARGET].state = state
        if fill is not None:
            is_prefetch, exclusive, granted, poisoned, poison_mask = fill
            started = start_fill(engine, cpu, is_prefetch, exclusive, 3, granted)
            started.poisoned, started.poisoned_word_mask = poisoned, poison_mask

    writer = engine.procs[sc["writer"]]
    if sc["writer_state"] is not None:
        writer.cache.install(TARGET, SHARED, 4)
        writer.cache._by_block[TARGET].state = sc["writer_state"]
    start = 10
    writer.begin_access(
        block=TARGET, is_write=True, word_mask=sc["mask"], cont="retire",
        now=start, sync=sc["sync"],
    )
    writer.acc_counted = writer.acc_missed = True
    writer.status = CpuStatus.STALLED_UPGRADE
    writer.waiting_block = TARGET
    txn = engine.bus.make_upgrade(writer.cpu, TARGET, start, sc["mask"])
    engine.bus.request(txn)
    granted = engine.bus.arbitrate(txn.eligible_time + sc["stall"])
    assert granted is txn
    return engine, txn


def snapshot(engine: SimulationEngine) -> dict:
    """Everything an upgrade grant may touch, as plain data."""
    cpus = []
    for proc in engine.procs:
        m = proc.metrics
        cpus.append(
            {
                "frames": {
                    b: [f.state, f.words_accessed, f.remote_written, f.last_use]
                    for b, f in proc.cache._by_block.items()
                },
                "parked": {
                    b: [e.state, e.words_accessed, e.remote_written]
                    for b, e in proc.cache.victim._entries.items()
                },
                "fills": {
                    f.block: [f.grant_time >= 0, f.poisoned, f.poisoned_word_mask, f.fill_state]
                    for f in proc.mshr.outstanding_fills()
                },
                "proc": [
                    proc.status, proc.waiting_block, proc.pc, proc.in_access, proc.scheduled,
                    m.busy_cycles, m.demand_refs, m.sync_refs, m.miss_wait_cycles,
                ],
            }
        )
    heap = sorted((t, kind, a, b) for t, _seq, kind, a, b in engine._heap)
    return {"cpus": cpus, "heap": heap, "taps": list(engine._obs.calls)}


def reference_upgrade(
    before: dict, writer: int, mask: int, sync: bool, now: int, done: int, start: int,
    *, poison_ungranted: bool = False, skip_remote_note: bool = False,
) -> dict:
    """What granting the writer's UPGRADE of TARGET must leave behind.

    Every other CPU, in CPU order: a valid copy (main array or victim
    buffer) turns INVALID with the written words as its remote mask (tap
    ``invalidate``), and a fill already granted on the bus is poisoned,
    accumulating the words (tap ``poison``).  Then, if the writer still
    holds a valid line, the write completes at the grant: MODIFIED, its
    words recorded, one busy cycle, and -- unless it is a sync access --
    every other cache's INVALID tag (or invalidated parked copy, when the
    main array has no tag) accumulates the words; the CPU resumes at the
    upgrade's completion.  Otherwise the race is lost and the CPU is
    rescheduled at completion to retry the access.
    """
    after = copy.deepcopy(before)
    taps = after["taps"]
    cpus = after["cpus"]
    others = [c for c in range(len(cpus)) if c != writer]
    for cpu in others:
        had = False
        for entry in (cpus[cpu]["frames"].get(TARGET), cpus[cpu]["parked"].get(TARGET)):
            if entry is not None and entry[0] is not INVALID:
                entry[0], entry[2] = INVALID, mask
                had = True
        if had:
            taps.append(("on_snoop", cpu, writer, TARGET, now, "invalidate"))
        fill = cpus[cpu]["fills"].get(TARGET)
        if fill is not None and (fill[0] or poison_ungranted):
            fill[1] = True
            fill[2] |= mask
            taps.append(("on_snoop", cpu, writer, TARGET, now, "poison"))
    own = cpus[writer]["frames"].get(TARGET)
    proc = cpus[writer]["proc"]
    if own is not None and own[0] is not INVALID:
        own[0] = MODIFIED
        own[1] |= mask
        own[3] = now
        if not sync and not skip_remote_note:
            for cpu in others:
                frame = cpus[cpu]["frames"].get(TARGET)
                parked = cpus[cpu]["parked"].get(TARGET)
                if frame is not None:
                    if frame[0] is INVALID:
                        frame[2] |= mask
                elif parked is not None and parked[0] is INVALID:
                    parked[2] |= mask
        taps += [("on_resume", writer, now), ("on_resume", writer, done)]
        taps.append(("on_miss_stall", writer, TARGET, start, done, sync))
        proc[5] += 1
        if sync:
            proc[7] += 1
        else:
            proc[6] += 1
            proc[8] += max(0, done - start - 1)
        proc[2] += 1
        proc[3] = False
    proc[0], proc[1], proc[4] = CpuStatus.RUNNING, -1, True
    after["heap"] = sorted(after["heap"] + [(done, 0, writer, 0)])
    return after


def run_upgrade(sc: dict, **mutation) -> None:
    engine, txn = build_upgrade(sc)
    before = snapshot(engine)
    now = txn.grant_time
    engine._grant_upgrade(txn, now)
    expected = reference_upgrade(
        before, sc["writer"], sc["mask"], sc["sync"], now, txn.completion_time, 10, **mutation
    )
    assert snapshot(engine) == expected


def _scenario(**overrides) -> dict:
    """Three CPUs, no victim buffer; CPU 0 upgrades a SHARED line."""
    sc = {
        "num_cpus": 3,
        "victim_lines": 0,
        "protocol": "illinois",
        "writer": 0,
        "writer_state": SHARED,
        "mask": 0b10,
        "sync": False,
        "stall": 0,
        "remotes": [(None, None, None, None), (None, None, None, None)],
    }
    sc.update(overrides)
    return sc


class TestUpgradeGrantReference:
    @settings(max_examples=200, deadline=None)
    @given(sc=upgrade_scenarios())
    def test_matches_reference(self, sc):
        run_upgrade(sc)

    @pytest.mark.parametrize(
        "sc, mutation",
        [
            # CPU 1 has a fill queued but not granted: it must not be poisoned.
            (
                _scenario(remotes=[(None, None, (False, False, False, False, 0), None)] * 2),
                {"poison_ungranted": True},
            ),
            # CPU 2 holds an INVALID tag: the completed write adds to its mask.
            (
                _scenario(
                    remotes=[(None, None, None, None), ((INVALID, 1, 4), None, None, None)]
                ),
                {"skip_remote_note": True},
            ),
        ],
        ids=["poison-ignores-granted", "no-remote-write-note"],
    )
    def test_a_mutated_reference_fails(self, sc, mutation):
        run_upgrade(sc)
        with pytest.raises(AssertionError):
            run_upgrade(sc, **mutation)


# --------------------------------------------------------------------------
# The demand access: classification, merge, upgrade and completion
# --------------------------------------------------------------------------


def engine_state(engine: SimulationEngine) -> dict:
    """Everything a CPU-side transition may touch, as plain data.

    Taps that pass an MSHR entry name it by its block.
    """
    cpus = []
    for proc in engine.procs:
        cpus.append(
            {
                "frames": {
                    b: [f.state, f.words_accessed, f.remote_written, f.last_use]
                    for b, f in proc.cache._by_block.items()
                },
                "parked": {
                    b: [e.state, e.words_accessed, e.remote_written]
                    for b, e in proc.cache.victim._entries.items()
                },
                "fills": {
                    f.block: [
                        not f.is_demand, f.kind is TransactionKind.FILL_EX, f.word_mask,
                        f.grant_time >= 0, f.poisoned, f.poisoned_word_mask, f.fill_state,
                    ]
                    for f in proc.mshr.outstanding_fills()
                },
                "proc": {
                    "status": proc.status,
                    "waiting": proc.waiting_block,
                    "pc": proc.pc,
                    "in_access": proc.in_access,
                    "scheduled": proc.scheduled,
                    "counted": proc.acc_counted,
                    "missed": proc.acc_missed,
                },
                "metrics": proc.metrics.to_dict(),
            }
        )
    return {
        "cpus": cpus,
        # Arbitration events are the bus's timing: only whether one is due.
        "heap": sorted((t, kind, a, b) for t, _seq, kind, a, b in engine._heap if kind != 1),
        "arbitration": engine._arb_time is not None,
        "bus": sorted(
            (t.kind.name, t.cpu, t.block, t.word_mask, t.is_demand, t.issue_time)
            for t in engine.bus._pending.values()
        ),
        "pfbuf": list(engine._pfbuf_waiters),
        "miss_indices": list(engine.miss_indices),
        "taps": [
            tuple(getattr(arg, "block", arg) for arg in call) for call in engine._obs.calls
        ],
    }


def blank_engine(num_cpus: int, victim_lines: int = 0, protocol: str = "illinois",
                 record: bool = False) -> SimulationEngine:
    """An engine with its tap recorder, before any event has run."""
    machine = MachineConfig(
        num_cpus=num_cpus, cache=CacheConfig(victim_cache_lines=victim_lines), protocol=protocol
    )
    trace = MultiTrace("handler", [CpuTrace(c, [MemRef(0x100000)]) for c in range(num_cpus)])
    engine = SimulationEngine(trace, machine, SimulationConfig(record_miss_indices=record))
    engine._obs = TapRecorder()
    return engine


def place_frame(cache: CoherentCache, block: int, frame, now: int) -> None:
    """Install ``block`` with ``frame``'s (state, words, remote)."""
    if frame is None:
        return
    state, words, remote = frame
    cache.install(block, SHARED, now)
    installed = cache._by_block[block]
    installed.state, installed.words_accessed, installed.remote_written = state, words, remote


def start_fill(
    engine: SimulationEngine, cpu: int, prefetch: bool, exclusive: bool, now: int,
    granted: bool = False, mask: int = 0,
):
    """Register ``cpu``'s fill of TARGET, issued at ``now``, as ``_miss``
    and ``_prefetch`` do; a granted one carries a grant time."""
    fill = engine.bus.make_fill(cpu, TARGET, exclusive, not prefetch, now, mask)
    engine.procs[cpu].mshr.start(fill)
    if granted:
        fill.grant_time = now
    return fill


def park(cache: CoherentCache, block: int, parked) -> None:
    """Park ``block`` in the victim buffer with (state, words, remote)."""
    if parked is None:
        return
    state, words, remote = parked
    cache.victim.insert(block, SHARED, words, remote)
    cache.victim._entries[block].state = state


def ref_note_remote_write(after: dict, writer: int, block: int, mask: int) -> None:
    """Every other cache's INVALID tag (or, with no tag, its invalidated
    parked copy) accumulates the written words."""
    for cpu, other in enumerate(after["cpus"]):
        if cpu == writer:
            continue
        frame = other["frames"].get(block)
        parked = other["parked"].get(block)
        if frame is not None:
            if frame[0] is INVALID:
                frame[2] |= mask
        elif parked is not None and parked[0] is INVALID:
            parked[2] |= mask


def ref_complete(
    after: dict, cpu: int, block: int, access: dict, now: int, done: int, note: bool = True
) -> None:
    """A ``retire`` access completes on the line: one busy cycle at ``now``.

    A write turns a valid line MODIFIED (a poisoned fill's INVALID line
    stays so) and, unless it is a sync access, reaches every other
    cache's remote-write masks.  The CPU steps to its next event at
    ``done``.
    """
    me = after["cpus"][cpu]
    line = me["frames"][block]
    if access["write"]:
        if line[0] is not INVALID:
            line[0] = MODIFIED
        if not access["sync"] and note:
            ref_note_remote_write(after, cpu, block, access["mask"])
    line[1] |= access["mask"]
    line[3] = now
    metrics, proc = me["metrics"], me["proc"]
    metrics["busy_cycles"] += 1
    if access["missed"]:
        after["taps"].append(("on_miss_stall", cpu, block, access["start"], done, access["sync"]))
    if access["sync"]:
        metrics["sync_refs"] += 1
    else:
        metrics["demand_refs"] += 1
        if access["missed"]:
            metrics["miss_wait_cycles"] += max(0, done - access["start"] - 1)
    proc.update(status=CpuStatus.RUNNING, waiting=-1, in_access=False, scheduled=True)
    proc["pc"] += 1
    after["heap"] = sorted(after["heap"] + [(done, 0, cpu, 0)])


def ref_stall(after: dict, cpu: int, block: int, status: CpuStatus) -> None:
    after["cpus"][cpu]["proc"].update(status=status, waiting=block, missed=True)


def ref_bucket(line, mask: int, prefetched: bool, *, swap_sharing: bool = False) -> str:
    """The Figure 3 bucket of a classified demand miss.

    ``line`` is the (words, remote) masks of the INVALID tag or parked
    copy the access found, None when it found none: a non-sharing miss.
    An invalidation miss is true sharing iff a remote write since the
    invalidation touched a word the CPU had accessed or accesses now.
    """
    coverage = "prefetched" if prefetched else "unprefetched"
    if line is None:
        return f"nonsharing_{coverage}"
    words, remote = line
    true_sharing = bool(remote & (words | mask))
    if swap_sharing:
        true_sharing = not true_sharing
    return f"inval_{'true' if true_sharing else 'false'}_{coverage}"


@st.composite
def access_scenarios(draw):
    victim_lines = draw(st.sampled_from([0, 2]))
    frame = draw(_FRAME)
    return {
        "victim_lines": victim_lines,
        "protocol": draw(st.sampled_from(["illinois", "msi"])),
        "frame": frame,
        "parked": draw(_PARKED) if victim_lines and frame is None else None,
        # An in-flight fill of the block: (prefetch, exclusive).
        "fill": draw(st.one_of(st.none(), st.tuples(st.booleans(), st.booleans()))),
        "remote": draw(_FRAME),
        "write": draw(st.booleans()),
        "mask": draw(st.integers(1, 255)),
        "prefetched": draw(st.booleans()),
        "sync": draw(st.booleans()),
        # Already classified: a write that lost its upgrade race retries.
        "counted": draw(st.booleans()),
        "record": draw(st.booleans()),
    }


#: The access starts at START and is attempted at NOW.
START, NOW = 40, 50


def build_access(sc: dict) -> SimulationEngine:
    """CPU 0 attempts an access to TARGET; CPU 1 may hold a copy."""
    engine = blank_engine(2, sc["victim_lines"], sc["protocol"], sc["record"])
    me, other = engine.procs
    place_frame(me.cache, TARGET, sc["frame"], 1)
    park(me.cache, TARGET, sc["parked"])
    place_frame(other.cache, TARGET, sc["remote"], 2)
    if sc["fill"] is not None:
        start_fill(engine, 0, sc["fill"][0], sc["fill"][1], 3)
    me.pc = 3
    me.begin_access(
        block=TARGET, is_write=sc["write"], word_mask=sc["mask"], cont="retire",
        now=START, sync=sc["sync"], prefetched=sc["prefetched"],
    )
    me.acc_counted = me.acc_missed = sc["counted"]
    return engine


def reference_access(before: dict, sc: dict, *, swap_sharing: bool = False) -> dict:
    """What attempting CPU 0's access at NOW must leave behind.

    A fill in flight for the block: the access waits for it, counted
    once as a sync miss or, behind a prefetch, as prefetch-in-progress
    (tap ``merge``).  Otherwise a valid line hits (a valid parked copy
    is swapped back in first: a victim hit, one more busy cycle), and a
    write to a SHARED line stalls on an UPGRADE.  Anything else misses:
    classified once (sync, or a Figure 3 bucket, with its event index
    when recorded), then an MSHR fill and a demand fill request.
    """
    after = copy.deepcopy(before)
    _reference_access(after, sc, swap_sharing)
    after["arbitration"] = bool(after["bus"])
    return after


def _reference_access(after: dict, sc: dict, swap_sharing: bool) -> None:
    me = after["cpus"][0]
    metrics, proc = me["metrics"], me["proc"]
    write, mask, sync = sc["write"], sc["mask"], sc["sync"]
    fill = me["fills"].get(TARGET)
    if fill is not None:
        if not proc["counted"]:
            proc["counted"] = True
            if sync:
                metrics["sync_misses"] += 1
            elif fill[0]:
                metrics["misses"]["prefetch_in_progress"] += 1
                after["taps"].append(("on_prefetch", 0, "merge", TARGET, NOW))
        ref_stall(after, 0, TARGET, CpuStatus.STALLED_FILL)
        return

    line = me["frames"].get(TARGET)
    found = None if line is None or line[0] is not INVALID else (line[1], line[2])
    swap = 0
    if line is None:
        parked = me["parked"].pop(TARGET, None)
        if parked is not None and parked[0] is not INVALID:
            line = me["frames"][TARGET] = [parked[0], parked[1], parked[2], NOW]
            metrics["victim_hits"] += 1
            swap = 1
        elif parked is not None:
            found = (parked[1], parked[2])
    if line is None or line[0] is INVALID:
        if not proc["counted"]:
            proc["counted"] = True
            if sync:
                metrics["sync_misses"] += 1
            else:
                if sc["record"]:
                    after["miss_indices"].append((0, 3))
                bucket = ref_bucket(found, mask, sc["prefetched"], swap_sharing=swap_sharing)
                metrics["misses"][bucket] += 1
        me["fills"][TARGET] = [False, write, mask if write else 0, False, False, 0, INVALID]
        after["taps"].append(("on_mshr_start", 0, TARGET, NOW))
        kind = "FILL_EX" if write else "FILL"
        after["bus"] = sorted(after["bus"] + [(kind, 0, TARGET, mask if write else 0, True, NOW)])
        ref_stall(after, 0, TARGET, CpuStatus.STALLED_FILL)
    elif write and line[0] is SHARED:
        line[3] = NOW
        metrics["upgrades"] += 1
        after["bus"] = sorted(after["bus"] + [("UPGRADE", 0, TARGET, mask, True, NOW)])
        ref_stall(after, 0, TARGET, CpuStatus.STALLED_UPGRADE)
    else:
        metrics["busy_cycles"] += swap
        access = {"write": write, "mask": mask, "sync": sync, "missed": sc["counted"],
                  "start": START}
        ref_complete(after, 0, TARGET, access, NOW, NOW + 1 + swap)


def run_access(sc: dict, **mutation) -> None:
    engine = build_access(sc)
    before = engine_state(engine)
    engine.now = NOW
    engine._try_access(engine.procs[0], NOW)
    assert engine_state(engine) == reference_access(before, sc, **mutation)


def _access(**overrides) -> dict:
    """CPU 0 reads word 1 of a line it had read word 0 of before CPU 1's
    write of word 1 invalidated it: a true-sharing miss."""
    sc = {
        "victim_lines": 0, "protocol": "illinois", "frame": (INVALID, 0b1, 0b10),
        "parked": None, "fill": None, "remote": None, "write": False, "mask": 0b10,
        "prefetched": False, "sync": False, "counted": False, "record": True,
    }
    sc.update(overrides)
    return sc


class TestAccessReference:
    """``_try_access`` and the transitions it shares with the fast path:
    ``_merge``, ``_miss`` (the Figure 3 buckets), ``_upgrade`` and
    ``_complete_hit``."""

    @settings(max_examples=300, deadline=None)
    @given(sc=access_scenarios())
    @example(sc=_access())
    @example(sc=_access(frame=(INVALID, 0b1, 0b100), prefetched=True))
    @example(sc=_access(frame=None, victim_lines=2, parked=(INVALID, 0b1, 0b10)))
    @example(sc=_access(fill=(True, False)))
    def test_matches_reference(self, sc):
        run_access(sc)

    @pytest.mark.parametrize(
        "sc",
        [_access(), _access(frame=None, victim_lines=2, parked=(INVALID, 0b1, 0b10))],
        ids=["main-array-tag", "parked-copy"],
    )
    def test_swapped_sharing_fails(self, sc):
        """Must-fail control: a reference that swaps true and false
        sharing disagrees on a true-sharing miss."""
        run_access(sc)
        with pytest.raises(AssertionError):
            run_access(sc, swap_sharing=True)


# --------------------------------------------------------------------------
# The fill grant
# --------------------------------------------------------------------------

_VALID = st.sampled_from(VALID_STATES)
#: A remote in-flight fill: (prefetch, exclusive, granted, poisoned,
#: poison mask, fill state).
_REMOTE_FILL = st.one_of(
    st.none(),
    st.tuples(
        st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.integers(0, 255), _VALID
    ),
)


@st.composite
def grant_scenarios(draw):
    num_cpus = draw(st.integers(2, 4))
    victim_lines = draw(st.sampled_from([0, 2]))
    remotes = []
    for _ in range(num_cpus - 1):
        frame = draw(_FRAME)
        parked = draw(_PARKED) if victim_lines and frame is None else None
        remotes.append((frame, parked, draw(_REMOTE_FILL)))
    return {
        "num_cpus": num_cpus,
        "victim_lines": victim_lines,
        "protocol": draw(st.sampled_from(["illinois", "msi"])),
        "requester": draw(st.integers(0, num_cpus - 1)),
        "prefetch": draw(st.booleans()),
        "exclusive": draw(st.booleans()),
        "mask": draw(st.integers(1, 255)),
        "stall": draw(st.integers(0, 300)),
        "remotes": remotes,
    }


def build_grant(sc: dict):
    """An engine whose requester's fill of TARGET has just won the bus."""
    engine = blank_engine(sc["num_cpus"], sc["victim_lines"], sc["protocol"])
    requester = sc["requester"]
    others = [c for c in range(sc["num_cpus"]) if c != requester]
    for cpu, (frame, parked, fill) in zip(others, sc["remotes"]):
        proc = engine.procs[cpu]
        place_frame(proc.cache, TARGET, frame, 1)
        park(proc.cache, TARGET, parked)
        if fill is not None:
            is_prefetch, exclusive, granted, poisoned, poison_mask, state = fill
            started = start_fill(engine, cpu, is_prefetch, exclusive, 2, granted)
            started.poisoned, started.poisoned_word_mask = poisoned, poison_mask
            started.fill_state = state
    exclusive, mask = sc["exclusive"], sc["mask"]
    txn = start_fill(engine, requester, sc["prefetch"], exclusive, 5, mask=mask if exclusive else 0)
    engine.bus.request(txn)
    assert engine.bus.arbitrate(txn.eligible_time + sc["stall"]) is txn
    return engine, txn


def reference_grant(
    before: dict, sc: dict, now: int, done: int,
    *, ignore_fills_in_flight: bool = False, downgrade_keeps_exclusive: bool = False,
) -> dict:
    """What granting the requester's fill of TARGET must leave behind.

    Every other CPU, in CPU order: a valid copy (main array or victim
    buffer) is invalidated by an exclusive fill, taking the written
    words as its remote mask, or downgraded to SHARED by a read (tap
    ``invalidate`` or ``downgrade``); a granted, unpoisoned fill in
    flight is a copy too, poisoned by an exclusive fill (tap ``poison``)
    or, if it would land exclusive, turned SHARED by a read.  The
    requester's fill is granted: a read lands SHARED when another copy
    exists or the protocol is MSI, PRIVATE otherwise; an exclusive
    prefetch lands PRIVATE and an exclusive demand fill MODIFIED.  Its
    completion is due at ``done``.
    """
    after = copy.deepcopy(before)
    requester, exclusive, mask = sc["requester"], sc["exclusive"], sc["mask"]
    others_have = False
    for cpu, data in enumerate(after["cpus"]):
        if cpu == requester:
            continue
        had = False
        for entry in (data["frames"].get(TARGET), data["parked"].get(TARGET)):
            if entry is not None and entry[0] is not INVALID:
                had = True
                if exclusive:
                    entry[0], entry[2] = INVALID, mask
                elif not downgrade_keeps_exclusive:
                    entry[0] = SHARED
        if had:
            others_have = True
            kind = "invalidate" if exclusive else "downgrade"
            after["taps"].append(("on_snoop", cpu, requester, TARGET, now, kind))
        fill = data["fills"].get(TARGET)
        if fill is not None and fill[3] and not fill[4] and not ignore_fills_in_flight:
            others_have = True
            if exclusive:
                fill[4] = True
                fill[5] |= mask
                after["taps"].append(("on_snoop", cpu, requester, TARGET, now, "poison"))
            elif fill[6] in (PRIVATE, MODIFIED):
                fill[6] = SHARED
    own = after["cpus"][requester]["fills"][TARGET]
    own[3] = True
    if not exclusive:
        own[6] = SHARED if others_have or sc["protocol"] == "msi" else PRIVATE
    else:
        own[6] = PRIVATE if sc["prefetch"] else MODIFIED
    after["heap"] = sorted(after["heap"] + [(done, 2, requester, TARGET)])
    return after


def run_grant(sc: dict, **mutation) -> None:
    engine, txn = build_grant(sc)
    before = engine_state(engine)
    engine._grant_fill(txn, txn.grant_time)
    expected = reference_grant(before, sc, txn.grant_time, txn.completion_time, **mutation)
    assert engine_state(engine) == expected


def _grant(**overrides) -> dict:
    """CPU 0's demand read; CPU 1 holds nothing but a granted read fill
    that would land PRIVATE."""
    sc = {
        "num_cpus": 2, "victim_lines": 0, "protocol": "illinois", "requester": 0,
        "prefetch": False, "exclusive": False, "mask": 0b1, "stall": 0,
        "remotes": [(None, None, (False, False, True, False, 0, PRIVATE))],
    }
    sc.update(overrides)
    return sc


class TestFillGrantReference:
    @settings(max_examples=200, deadline=None)
    @given(sc=grant_scenarios())
    @example(sc=_grant())
    @example(sc=_grant(remotes=[((MODIFIED, 1, 0), None, None)]))
    def test_matches_reference(self, sc):
        run_grant(sc)

    @pytest.mark.parametrize(
        "sc, mutation",
        [
            (_grant(), {"ignore_fills_in_flight": True}),
            (
                _grant(remotes=[((MODIFIED, 1, 0), None, None)]),
                {"downgrade_keeps_exclusive": True},
            ),
        ],
        ids=["fill-in-flight-not-a-copy", "read-leaves-modified-copy"],
    )
    def test_a_mutated_reference_fails(self, sc, mutation):
        run_grant(sc)
        with pytest.raises(AssertionError):
            run_grant(sc, **mutation)


# --------------------------------------------------------------------------
# The fill completion
# --------------------------------------------------------------------------

#: A block in TARGET's direct-mapped set (one default 32 KB cache away).
RIVAL = TARGET + 32 * 1024


@st.composite
def landing_scenarios(draw):
    num_cpus = draw(st.integers(2, 3))
    victim_lines = draw(st.sampled_from([0, 2]))
    remotes = []
    for _ in range(num_cpus - 1):
        frame = draw(_FRAME)
        remotes.append((frame, draw(_PARKED) if victim_lines and frame is None else None))
    return {
        "num_cpus": num_cpus,
        "victim_lines": victim_lines,
        "protocol": draw(st.sampled_from(["illinois", "msi"])),
        # What TARGET's set holds: nothing, TARGET's own INVALID tag, or
        # another block the fill displaces.
        "occupant": draw(
            st.one_of(
                st.none(),
                st.tuples(st.just(TARGET), st.just(INVALID), st.integers(0, 255)),
                st.tuples(st.just(RIVAL), st.sampled_from((INVALID,) + VALID_STATES),
                          st.integers(0, 255)),
            )
        ),
        "prefetch": draw(st.booleans()),
        "exclusive": draw(st.booleans()),
        "state": draw(_VALID),
        "poisoned": draw(st.booleans()),
        "poison_mask": draw(st.integers(0, 255)),
        # CPU 0 stalled on the fill with an access: (write, mask, sync).
        "access": draw(
            st.one_of(st.none(), st.tuples(st.booleans(), st.integers(1, 255), st.booleans()))
        ),
        "pfbuf_waiter": draw(st.booleans()),
        "remotes": remotes,
    }


#: The access began at LAND_START; the fill lands at LAND.
LAND_START, LAND = 20, 130


def build_landing(sc: dict) -> SimulationEngine:
    """CPU 0's granted fill of TARGET, about to land."""
    engine = blank_engine(sc["num_cpus"], sc["victim_lines"], sc["protocol"])
    me = engine.procs[0]
    for proc, (frame, parked) in zip(engine.procs[1:], sc["remotes"]):
        place_frame(proc.cache, TARGET, frame, 1)
        park(proc.cache, TARGET, parked)
    if sc["occupant"] is not None:
        block, state, words = sc["occupant"]
        place_frame(me.cache, block, (state, words, 0), 2)
    fill = start_fill(engine, 0, sc["prefetch"], sc["exclusive"], 10, granted=True)
    fill.fill_state, fill.completion_time = sc["state"], LAND
    fill.poisoned, fill.poisoned_word_mask = sc["poisoned"], sc["poison_mask"]
    me.pc = 7
    if sc["access"] is not None:
        write, mask, sync = sc["access"]
        me.begin_access(
            block=TARGET, is_write=write, word_mask=mask, cont="retire",
            now=LAND_START, sync=sync,
        )
        me.acc_counted = me.acc_missed = True
        me.status, me.waiting_block = CpuStatus.STALLED_FILL, TARGET
    else:
        me.scheduled = True
    if sc["pfbuf_waiter"]:
        waiter = engine.procs[1]
        waiter.status = CpuStatus.STALLED_PFBUF
        engine._pfbuf_waiters.append(1)
    return engine


def reference_landing(
    before: dict, sc: dict, *, poisoned_write_modifies: bool = False,
    skip_remote_note: bool = False,
) -> dict:
    """What landing CPU 0's fill of TARGET at LAND must leave behind.

    The MSHR entry retires (tap ``on_mshr_finish``) and the block is
    installed over whatever its set held: a valid displaced line is
    parked in the victim buffer, or written back when dirty and there is
    none.  A poisoned fill installs an INVALID tag carrying the poison
    mask.  A landed prefetch wakes the first prefetch-buffer waiter.  A
    CPU stalled on the fill resumes: a write that lands SHARED stalls
    again on an UPGRADE; any other access completes on the line.
    """
    after = copy.deepcopy(before)
    me = after["cpus"][0]
    metrics = me["metrics"]
    me["fills"].pop(TARGET)
    after["taps"].append(("on_mshr_finish", 0, TARGET, LAND))
    occupant = sc["occupant"]
    if occupant is not None and occupant[0] == RIVAL:
        displaced = me["frames"].pop(RIVAL)
        if displaced[0] is not INVALID:
            if sc["victim_lines"]:
                me["parked"][RIVAL] = [displaced[0], displaced[1], displaced[2]]
            elif displaced[0] is MODIFIED:
                metrics["writebacks"] += 1
                after["bus"] = sorted(after["bus"] + [("WRITEBACK", 0, RIVAL, 0, False, LAND)])
    if sc["poisoned"]:
        me["frames"][TARGET] = [INVALID, 0, sc["poison_mask"], LAND]
    else:
        me["frames"][TARGET] = [sc["state"], 0, 0, LAND]
    if sc["prefetch"] and after["pfbuf"]:
        waiter = after["pfbuf"].pop(0)
        after["taps"].append(("on_resume", waiter, LAND))
        after["cpus"][waiter]["proc"].update(status=CpuStatus.RUNNING, scheduled=True)
        after["heap"] = sorted(after["heap"] + [(LAND, 0, waiter, 0)])
    if sc["access"] is not None:
        write, mask, sync = sc["access"]
        after["taps"].append(("on_resume", 0, LAND))
        if write and not sc["poisoned"] and sc["state"] is SHARED:
            metrics["upgrades"] += 1
            after["bus"] = sorted(after["bus"] + [("UPGRADE", 0, TARGET, mask, True, LAND)])
            ref_stall(after, 0, TARGET, CpuStatus.STALLED_UPGRADE)
        else:
            access = {"write": write, "mask": mask, "sync": sync, "missed": True,
                      "start": LAND_START}
            ref_complete(after, 0, TARGET, access, LAND, LAND + 1, note=not skip_remote_note)
            if poisoned_write_modifies and write and sc["poisoned"]:
                me["frames"][TARGET][0] = MODIFIED
    after["arbitration"] = bool(after["bus"])
    return after


def run_landing(sc: dict, **mutation) -> None:
    engine = build_landing(sc)
    before = engine_state(engine)
    engine.now = LAND
    engine._fill_done(engine.procs[0], TARGET, LAND)
    assert engine_state(engine) == reference_landing(before, sc, **mutation)


def _landing(**overrides) -> dict:
    """CPU 0's write of word 1 waits on a demand fill; CPU 2 holds an
    INVALID tag of the block."""
    sc = {
        "num_cpus": 3, "victim_lines": 0, "protocol": "illinois", "occupant": None,
        "prefetch": False, "exclusive": True, "state": MODIFIED, "poisoned": False,
        "poison_mask": 0, "access": (True, 0b10, False), "pfbuf_waiter": False,
        "remotes": [(None, None), ((INVALID, 1, 4), None)],
    }
    sc.update(overrides)
    return sc


class TestFillDoneReference:
    @settings(max_examples=200, deadline=None)
    @given(sc=landing_scenarios())
    @example(sc=_landing())
    @example(sc=_landing(poisoned=True, poison_mask=0b1))
    @example(sc=_landing(occupant=(RIVAL, MODIFIED, 1)))
    @example(sc=_landing(prefetch=True, pfbuf_waiter=True, access=None))
    def test_matches_reference(self, sc):
        run_landing(sc)

    @pytest.mark.parametrize(
        "sc, mutation",
        [
            (_landing(poisoned=True, poison_mask=0b1), {"poisoned_write_modifies": True}),
            (_landing(), {"skip_remote_note": True}),
        ],
        ids=["poisoned-write-turns-modified", "no-remote-write-note"],
    )
    def test_a_mutated_reference_fails(self, sc, mutation):
        run_landing(sc)
        with pytest.raises(AssertionError):
            run_landing(sc, **mutation)
