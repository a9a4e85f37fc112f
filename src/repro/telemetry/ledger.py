"""Append-only run ledger: one structured JSONL record per simulation.

The disk cache (:mod:`repro.perf.diskcache`) remembers *results*; the
ledger remembers *that a run happened* -- when, how long, in which
worker, from cache or fresh, and whether it succeeded.  It is the
fleet-level flight recorder: ``repro drift`` replays paper comparisons
from it, ``repro ledger`` queries history, and every telemetered
:class:`~repro.experiments.runner.ExperimentRunner` batch appends to it.

Format: one JSON object per line in ``runs.jsonl`` under
``results/ledger/`` by default, written and read through the
append-only JSONL store (:mod:`repro.telemetry.jsonl`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.telemetry import jsonl

__all__ = [
    "DEFAULT_LEDGER_DIR",
    "LEDGER_SCHEMA_VERSION",
    "LedgerEntry",
    "RunLedger",
]

#: Default ledger directory (relative to the invoking directory).
DEFAULT_LEDGER_DIR = "results/ledger"

#: Bumped whenever the entry schema changes incompatibly; readers skip
#: entries from future schemas instead of misinterpreting them.
LEDGER_SCHEMA_VERSION = 1


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-percentile of exact samples (0.0 when
    empty) -- numpy's default 'linear' method, dependency-free."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return round(ordered[0], 3)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    fraction = rank - lo
    return round(ordered[lo] + (ordered[hi] - ordered[lo]) * fraction, 3)


@dataclass
class LedgerEntry:
    """One simulation run, as recorded in the ledger.

    Attributes:
        config_key: content hash of the full simulation input (the disk
            cache's key) -- two entries with equal keys ran the same
            configuration on the same engine version.
        workload / restructured / strategy: grid-point identity.
        machine: flat machine description (``MachineConfig.describe()``).
        num_cpus / seed / scale: the runner frame.
        engine_version: :data:`repro.sim.engine.ENGINE_VERSION` at run time.
        outcome: ``"ok"``, ``"error"`` or ``"timeout"``.
        cache: ``"hit"`` (served from disk), ``"miss"`` (simulated and
            stored), or ``"off"`` (no disk cache configured).
        wall_seconds: wall time of the run (0.0 for cache hits).
        events: trace events retired (0 when unknown, e.g. cache hits).
        events_per_sec: ``events / wall_seconds`` (0.0 when either is 0).
        worker_pid: PID of the process that executed the run.
        error: one-line error description when ``outcome != "ok"``.
        summary: compact result summary (exec cycles, miss rates, bus
            utilization -- see :meth:`repro.metrics.results.RunMetrics.describe`);
            empty for failed runs.
        trace_id: end-to-end request trace this run belongs to (see
            :mod:`repro.telemetry.tracing`); None for untraced runs,
            in which case the key is omitted from the line entirely so
            pre-tracing ledgers and untraced runs stay byte-identical.
        timestamp: UTC ISO-8601 wall-clock time of the record.
        schema: ledger schema version (see :data:`LEDGER_SCHEMA_VERSION`).
    """

    config_key: str
    workload: str
    restructured: bool
    strategy: str
    machine: dict[str, Any]
    num_cpus: int
    seed: int
    scale: float
    engine_version: str
    outcome: str = "ok"
    cache: str = "off"
    wall_seconds: float = 0.0
    events: int = 0
    events_per_sec: float = 0.0
    worker_pid: int = 0
    error: str | None = None
    summary: dict[str, Any] = field(default_factory=dict)
    trace_id: str | None = None
    timestamp: str = ""
    schema: int = LEDGER_SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict (the exact line format).

        ``trace_id`` is additive: absent (not null) when the run was
        untraced, so lines written by untraced fleets are identical to
        pre-tracing ones.
        """
        data = asdict(self)
        if data.get("trace_id") is None:
            del data["trace_id"]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LedgerEntry":
        """Exact inverse of :meth:`to_dict` (unknown keys ignored so old
        readers survive additive schema growth)."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


class RunLedger:
    """Reader/writer for an append-only JSONL run ledger.

    Args:
        root: ledger directory (created lazily on first append); the
            ledger is its ``runs.jsonl``.

    One :class:`RunLedger` may be shared across processes: the store's
    appends never interleave records mid-line.  The instance is
    picklable (it holds only the path), which lets pool workers append
    directly.
    """

    def __init__(self, root: str | Path = DEFAULT_LEDGER_DIR) -> None:
        self.root = Path(root)

    @property
    def path(self) -> Path:
        """The ledger file."""
        return self.root / "runs.jsonl"

    # -------------------------------------------------------------- writing

    def append(self, entry: LedgerEntry) -> LedgerEntry:
        """Record one run as one line of the store; returns the entry
        with its timestamp filled."""
        if not entry.timestamp:
            entry.timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        jsonl.append(self.path, entry.to_dict())
        return entry

    # -------------------------------------------------------------- reading

    def entries(self) -> Iterator[LedgerEntry]:
        """Every readable entry, oldest first.

        :func:`~repro.telemetry.jsonl.records` skips torn lines and
        future-schema records; records without a usable ``config_key``
        (lines older than content keying; foreign JSONL may lack one
        entirely) or without the identity fields are skipped too, never
        fatal -- every query/summarize/hydration path sits on top of
        this reader, so tolerating mixed schemas here fixes them all at
        once.
        """
        for data in jsonl.records([self.path], LEDGER_SCHEMA_VERSION):
            if not isinstance(data.get("config_key"), str) or not data["config_key"]:
                continue  # pre-content-key record: no usable identity
            try:
                yield LedgerEntry.from_dict(data)
            except TypeError:
                continue  # missing required identity fields

    def query(
        self,
        workload: str | None = None,
        strategy: str | None = None,
        outcome: str | None = None,
        engine_version: str | None = None,
        predicate: Callable[[LedgerEntry], bool] | None = None,
    ) -> list[LedgerEntry]:
        """Entries matching every given filter, oldest first."""
        out = []
        for entry in self.entries():
            if workload is not None and entry.workload != workload:
                continue
            if strategy is not None and entry.strategy != strategy:
                continue
            if outcome is not None and entry.outcome != outcome:
                continue
            if engine_version is not None and entry.engine_version != engine_version:
                continue
            if predicate is not None and not predicate(entry):
                continue
            out.append(entry)
        return out

    def tail(self, n: int = 10) -> list[LedgerEntry]:
        """The ``n`` most recent entries, oldest of them first."""
        return list(self.entries())[-n:]

    def summarize(self) -> dict[str, Any]:
        """Aggregate ledger statistics (``repro ledger`` banner).

        Throughput aggregates (``wall_seconds``, ``events``,
        ``mean_events_per_sec``, the wall-time percentiles and the
        per-strategy breakdown) cover *simulated* runs only: cache hits
        record ``wall_seconds == 0.0`` and would otherwise drag the
        fleet's mean events/sec toward zero on warm-cache sweeps.  They
        are counted separately as ``cache_hits``.
        """
        total = 0
        outcomes: dict[str, int] = {}
        cache: dict[str, int] = {}
        simulated = 0
        cache_hits = 0
        wall = 0.0
        events = 0
        walls: list[float] = []
        strategies: dict[str, dict[str, float]] = {}
        engines: set[str] = set()
        first = last = None
        for entry in self.entries():
            total += 1
            outcomes[entry.outcome] = outcomes.get(entry.outcome, 0) + 1
            cache[entry.cache] = cache.get(entry.cache, 0) + 1
            if entry.wall_seconds > 0.0:
                simulated += 1
                wall += entry.wall_seconds
                events += entry.events
                walls.append(entry.wall_seconds)
                bucket = strategies.setdefault(
                    entry.strategy, {"runs": 0, "wall_seconds": 0.0, "events": 0}
                )
                bucket["runs"] += 1
                bucket["wall_seconds"] += entry.wall_seconds
                bucket["events"] += entry.events
            else:
                cache_hits += 1
            engines.add(entry.engine_version)
            if first is None:
                first = entry.timestamp
            last = entry.timestamp
        strategy_summary = {
            name: {
                "runs": int(bucket["runs"]),
                "wall_seconds": round(bucket["wall_seconds"], 3),
                "events": int(bucket["events"]),
                "events_per_sec": (
                    round(bucket["events"] / bucket["wall_seconds"], 1)
                    if bucket["wall_seconds"] > 0.0
                    else 0.0
                ),
            }
            for name, bucket in sorted(strategies.items())
        }
        return {
            "entries": total,
            "outcomes": outcomes,
            "cache": cache,
            "simulated_runs": simulated,
            "cache_hits": cache_hits,
            "wall_seconds": round(wall, 3),
            "events": events,
            "mean_events_per_sec": round(events / wall, 1) if wall > 0.0 else 0.0,
            "wall_p50": _percentile(walls, 0.5),
            "wall_p95": _percentile(walls, 0.95),
            "strategies": strategy_summary,
            "engine_versions": sorted(engines),
            "first": first,
            "last": last,
        }
