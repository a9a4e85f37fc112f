"""Append-only metrics time-series store (the repo's tiny TSDB).

The :class:`~repro.telemetry.registry.MetricsRegistry` is point-in-time:
``/metrics`` answers "what are the counters *now*" and forgets the
answer the moment it is scraped.  The paper's central claim is a
*trend* -- prefetching quietly eats bus headroom until speedup collapses
-- and judging the service for the same slow-creep degradation needs
retention.  This module provides it without any dependency:

* **Storage** -- JSONL *segments* under ``results/tsdb/``.  One line per
  *snapshot*: the full registry rendered by
  :meth:`~repro.telemetry.registry.MetricsRegistry.to_json`, plus
  synthetic gauge families derived from the run ledger (fleet
  throughput, cache-hit counts) so longitudinal rules can watch them
  like any scraped series.  Appends are single ``os.write`` calls on an
  ``O_APPEND`` fd (the ledger's concurrency discipline); segments
  rotate at a size cap so retention trimming is file-granular.
* **Restart handling** -- every writer stamps its lines with a random
  ``session`` id.  Counters reset to zero when a service restarts;
  :meth:`TimeSeriesStore.counter_series` is *delta-aware*: it carries
  the last pre-restart total forward (the ``increase()`` discipline),
  so cumulative series are monotone across restarts while raw values
  remain exactly what ``/metrics`` exposed at snapshot time.
* **Query** -- by family name, label subset and time range; histogram
  windows are re-aggregated from per-snapshot bucket deltas, so a p95
  over the last hour is computed from exactly the observations that
  fell in that hour.
* **Downsampling** -- :func:`downsample` buckets any series to a fixed
  width by means (the sparkline/dashboard resampling primitive).

The store is deliberately schema-tolerant on read (torn lines, future
fields) and strictly additive on write, like the run ledger.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "DEFAULT_TSDB_DIR",
    "TSDB_SCHEMA_VERSION",
    "TimeSeriesStore",
    "downsample",
    "ledger_families",
    "seed_bench_history",
]

#: Default store root (relative to the invoking directory).
DEFAULT_TSDB_DIR = "results/tsdb"

#: Bumped whenever the snapshot line schema changes incompatibly;
#: readers skip lines from future schemas instead of misreading them.
TSDB_SCHEMA_VERSION = 1

#: Segment rotation threshold.  At the service's default 15 s cadence a
#: snapshot line is a few KB, so 4 MiB keeps segments to roughly a few
#: hours each -- big enough to stay rare, small enough to trim.
DEFAULT_SEGMENT_BYTES = 4 << 20


def _utc_iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, timezone.utc).isoformat(timespec="seconds")


def downsample(values: Sequence[float], width: int) -> list[float]:
    """Resample ``values`` to at most ``width`` points by bucket means.

    The dashboard/sparkline primitive: each output point averages a
    contiguous slice, so a narrow spike dims rather than disappears.
    Series already at or under ``width`` return unchanged (as a list).
    """
    if width <= 0 or len(values) <= width:
        return list(values)
    n = len(values)
    out = []
    for i in range(width):
        lo, hi = i * n // width, (i + 1) * n // width
        chunk = values[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out


def _labels_match(sample_labels: Mapping[str, Any], wanted: Mapping[str, str] | None) -> bool:
    """True when every wanted label pair is present in the sample's."""
    if not wanted:
        return True
    return all(str(sample_labels.get(k)) == str(v) for k, v in wanted.items())


def ledger_families(summary: Mapping[str, Any]) -> dict[str, Any]:
    """Synthetic gauge families derived from ``RunLedger.summarize()``.

    The ledger is the service's long-term memory of *what ran*; folding
    its aggregates into each snapshot as ordinary gauge families makes
    fleet throughput (events/sec), cache effectiveness and failure
    counts first-class series the SLO engine can watch -- including the
    events/sec floor against the recorded grid-cold baseline.
    """

    def gauge(value: float, help_text: str, **labels: str) -> dict[str, Any]:
        return {
            "type": "gauge",
            "help": help_text,
            "samples": [{"labels": dict(labels), "value": float(value)}],
        }

    families = {
        "repro_ledger_entries": gauge(
            summary.get("entries", 0), "Run-ledger entries on disk"
        ),
        "repro_ledger_simulated_runs": gauge(
            summary.get("simulated_runs", 0), "Ledgered runs that actually simulated"
        ),
        "repro_ledger_cache_hits": gauge(
            summary.get("cache_hits", 0), "Ledgered runs served from the disk cache"
        ),
        "repro_ledger_events": gauge(
            summary.get("events", 0), "Trace events retired by ledgered simulations"
        ),
        "repro_ledger_wall_seconds": gauge(
            summary.get("wall_seconds", 0.0), "Wall seconds of ledgered simulations"
        ),
    }
    # Mean throughput over zero simulated runs is undefined, not zero:
    # omitting the sample lets throughput-floor SLO rules skip (no
    # data) on a fresh ledger instead of false-breaching at 0 ev/s.
    if summary.get("simulated_runs"):
        families["repro_ledger_events_per_sec"] = gauge(
            summary.get("mean_events_per_sec", 0.0),
            "Mean fleet simulation throughput (cache hits excluded)",
        )
    outcome_samples = [
        {"labels": {"outcome": str(outcome)}, "value": float(count)}
        for outcome, count in sorted((summary.get("outcomes") or {}).items())
    ]
    if outcome_samples:
        families["repro_ledger_outcomes"] = {
            "type": "gauge",
            "help": "Ledgered runs by outcome",
            "samples": outcome_samples,
        }
    return families


class TimeSeriesStore:
    """Reader/writer for an append-only JSONL snapshot store.

    Args:
        root: store directory (created lazily on first append).
        max_segment_bytes: rotate to a fresh segment past this size.

    One line per snapshot::

        {"ts": ..., "iso": ..., "session": "1f2e3d4c", "source": "service",
         "schema": 1, "families": {<MetricsRegistry.to_json() shape>}}

    ``families`` uses exactly the registry's JSON export shape, so a
    snapshot is byte-for-byte reconcilable against the ``/metrics``
    exposition taken at the same instant.
    """

    def __init__(
        self,
        root: str | Path = DEFAULT_TSDB_DIR,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        self.root = Path(root)
        self.max_segment_bytes = max_segment_bytes
        self.session = os.urandom(4).hex()

    # -------------------------------------------------------------- segments

    def segments(self) -> list[Path]:
        """Segment files, oldest first (index order)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("segment-*.jsonl"))

    def _write_segment(self) -> Path:
        """The segment new snapshots append to (rotating if oversized)."""
        existing = self.segments()
        if existing:
            newest = existing[-1]
            try:
                if newest.stat().st_size < self.max_segment_bytes:
                    return newest
            except OSError:
                pass
            index = int(newest.stem.split("-")[1]) + 1
        else:
            index = 1
        return self.root / f"segment-{index:06d}.jsonl"

    # -------------------------------------------------------------- writing

    def append_snapshot(
        self,
        registry: Any = None,
        ledger: Any = None,
        extra_families: Mapping[str, Any] | None = None,
        ts: float | None = None,
        source: str = "service",
    ) -> dict[str, Any]:
        """Record one snapshot; returns the line that was written.

        ``registry`` contributes every metric family it currently holds
        (via ``to_json``); ``ledger`` contributes the synthetic
        :func:`ledger_families`; ``extra_families`` are merged last.
        The registry export is retried a few times because other
        threads (the executor running a batch) may mutate families
        mid-iteration -- a snapshot is always of *some* consistent
        instant, never a crash.
        """
        import time as time_module

        families: dict[str, Any] = {}
        if registry is not None:
            for _ in range(3):
                try:
                    families.update(registry.to_json())
                    break
                except RuntimeError:
                    continue
        if ledger is not None:
            try:
                families.update(ledger_families(ledger.summarize()))
            except OSError:
                pass
        if extra_families:
            families.update(extra_families)
        stamp = time_module.time() if ts is None else ts
        line = {
            "ts": round(stamp, 3),
            "iso": _utc_iso(stamp),
            "session": self.session,
            "source": source,
            "schema": TSDB_SCHEMA_VERSION,
            "families": families,
        }
        data = (json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self._write_segment(), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        return line

    # -------------------------------------------------------------- reading

    def snapshots(
        self, start: float | None = None, end: float | None = None
    ) -> Iterator[dict[str, Any]]:
        """Every readable snapshot in ``[start, end]``, oldest first.

        Torn lines, non-object lines and future-schema lines are
        skipped, never fatal (the ledger reader's discipline).
        """
        for segment in self.segments():
            try:
                fh = segment.open("r", encoding="utf-8")
            except OSError:
                continue
            with fh:
                for raw in fh:
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        line = json.loads(raw)
                    except ValueError:
                        continue  # torn line from a crashed writer
                    if not isinstance(line, dict) or not isinstance(line.get("ts"), (int, float)):
                        continue
                    if line.get("schema", 1) > TSDB_SCHEMA_VERSION:
                        continue  # written by a future version of this code
                    if not isinstance(line.get("families"), dict):
                        continue
                    ts = line["ts"]
                    if start is not None and ts < start:
                        continue
                    if end is not None and ts > end:
                        continue
                    yield line

    def last_snapshot(self) -> dict[str, Any] | None:
        """The most recent snapshot, or None on an empty store."""
        last = None
        for snapshot in self.snapshots():
            last = snapshot
        return last

    def names(self) -> dict[str, str]:
        """Every family name ever snapshotted, mapped to its kind."""
        out: dict[str, str] = {}
        for snapshot in self.snapshots():
            for name, family in snapshot["families"].items():
                out.setdefault(name, family.get("type", "untyped"))
        return out

    def index(self) -> dict[str, Any]:
        """Store-level inventory: names, label sets, snapshot counts."""
        names: dict[str, dict[str, Any]] = {}
        count = 0
        first = last = None
        sessions: set[str] = set()
        for snapshot in self.snapshots():
            count += 1
            sessions.add(str(snapshot.get("session", "")))
            if first is None:
                first = snapshot["ts"]
            last = snapshot["ts"]
            for name, family in snapshot["families"].items():
                entry = names.setdefault(
                    name,
                    {"kind": family.get("type", "untyped"), "snapshots": 0, "label_sets": []},
                )
                entry["snapshots"] += 1
                for sample in family.get("samples", []):
                    labels = sample.get("labels") or {}
                    if labels and labels not in entry["label_sets"]:
                        entry["label_sets"].append(labels)
        return {
            "root": str(self.root),
            "segments": len(self.segments()),
            "snapshots": count,
            "sessions": len(sessions),
            "first_ts": first,
            "last_ts": last,
            "series": names,
        }

    # ------------------------------------------------------------- querying

    def _sample_points(
        self,
        name: str,
        labels: Mapping[str, str] | None,
        start: float | None,
        end: float | None,
    ) -> list[tuple[float, str, dict[str, Any]]]:
        """``(ts, session, family)`` for snapshots carrying ``name``."""
        out = []
        for snapshot in self.snapshots(start, end):
            family = snapshot["families"].get(name)
            if family is None:
                continue
            out.append((snapshot["ts"], str(snapshot.get("session", "")), family))
        return out

    def series(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        start: float | None = None,
        end: float | None = None,
    ) -> list[tuple[float, float]]:
        """Raw ``(ts, value)`` points for a counter/gauge family.

        Matching samples (every given label pair must be present) are
        *summed* per snapshot -- the standard aggregation across label
        sets; pass the full label set to pin one sample.  Histograms
        yield their cumulative observation count (use
        :meth:`histogram_window` for quantiles).
        """
        points: list[tuple[float, float]] = []
        for ts, _session, family in self._sample_points(name, labels, start, end):
            total = 0.0
            seen = False
            for sample in family.get("samples", []):
                if not _labels_match(sample.get("labels") or {}, labels):
                    continue
                seen = True
                if "value" in sample:
                    total += float(sample["value"])
                else:
                    total += float(sample.get("count", 0))
            if seen:
                points.append((ts, total))
        return points

    def counter_series(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        start: float | None = None,
        end: float | None = None,
    ) -> list[tuple[float, float]]:
        """Cumulative ``(ts, value)`` points, monotone across restarts.

        Raw counter values reset to zero when the writing process
        restarts.  This view detects a reset (new session id, or a
        value moving backwards within one) and carries the previous
        total forward, so deltas and rates computed on it are correct
        across any number of restarts.
        """
        raw: list[tuple[float, str, float]] = []
        for ts, session, family in self._sample_points(name, labels, start, end):
            total = 0.0
            seen = False
            for sample in family.get("samples", []):
                if not _labels_match(sample.get("labels") or {}, labels):
                    continue
                seen = True
                total += float(sample.get("value", sample.get("count", 0)))
            if seen:
                raw.append((ts, session, total))
        out: list[tuple[float, float]] = []
        base = 0.0
        prev_session: str | None = None
        prev_value = 0.0
        for ts, session, value in raw:
            if prev_session is not None and (session != prev_session or value < prev_value):
                base += prev_value
            out.append((ts, base + value))
            prev_session, prev_value = session, value
        return out

    def rate(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        window: float = 300.0,
        at: float | None = None,
    ) -> float | None:
        """Per-second increase of a counter over the trailing window.

        None when fewer than two points fall in the window (a rate
        needs an interval).
        """
        end = at if at is not None else self._now()
        points = self.counter_series(name, labels, start=end - window, end=end)
        if len(points) < 2:
            return None
        (t0, v0), (t1, v1) = points[0], points[-1]
        if t1 <= t0:
            return None
        return max(0.0, v1 - v0) / (t1 - t0)

    def histogram_window(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        start: float | None = None,
        end: float | None = None,
    ) -> dict[str, Any] | None:
        """Bucket/count/sum *increase* over a time window, reset-aware.

        Walks consecutive snapshot pairs inside the window; same-session
        monotone pairs contribute their difference, a restart (or
        backwards count) contributes the later snapshot's full state --
        the counter discipline applied per bucket.  Returns ``{bounds,
        counts, count, sum}`` or None when the family never appears.
        """
        states: list[tuple[str, list[float], float, float, list[float]]] = []
        for _ts, session, family in self._sample_points(name, labels, start, end):
            bounds: list[float] | None = None
            counts: list[float] | None = None
            total = 0.0
            sum_ = 0.0
            for sample in family.get("samples", []):
                if not _labels_match(sample.get("labels") or {}, labels):
                    continue
                sample_counts = [float(c) for c in sample.get("counts", [])]
                if bounds is None:
                    bounds = [float(b) for b in family.get("buckets", [])]
                    counts = [0.0] * len(sample_counts)
                if counts is not None and len(sample_counts) == len(counts):
                    counts = [a + b for a, b in zip(counts, sample_counts)]
                total += float(sample.get("count", 0))
                sum_ += float(sample.get("sum", 0.0))
            if bounds is not None and counts is not None:
                states.append((session, counts, total, sum_, bounds))
        if not states:
            return None
        bounds = states[-1][4]
        agg_counts = [0.0] * len(states[-1][1])
        agg_total = 0.0
        agg_sum = 0.0
        for prev, cur in zip(states, states[1:]):
            prev_session, prev_counts, prev_total, prev_sum, _ = prev
            session, counts, total, sum_, _ = cur
            fresh = session != prev_session or total < prev_total
            if fresh:
                delta_counts = counts
                delta_total = total
                delta_sum = sum_
            else:
                delta_counts = [max(0.0, c - p) for c, p in zip(counts, prev_counts)]
                delta_total = max(0.0, total - prev_total)
                delta_sum = max(0.0, sum_ - prev_sum)
            if len(delta_counts) == len(agg_counts):
                agg_counts = [a + d for a, d in zip(agg_counts, delta_counts)]
            agg_total += delta_total
            agg_sum += delta_sum
        return {"bounds": bounds, "counts": agg_counts, "count": agg_total, "sum": agg_sum}

    def quantile_over(
        self,
        name: str,
        q: float,
        labels: Mapping[str, str] | None = None,
        start: float | None = None,
        end: float | None = None,
    ) -> float | None:
        """Estimated ``q``-quantile of a histogram family over a window.

        Uses the shared bucket-interpolation estimator
        (:func:`repro.telemetry.registry.quantile_from_buckets`) on the
        windowed bucket increases; None when no observation fell in the
        window.
        """
        from repro.telemetry.registry import quantile_from_buckets

        window = self.histogram_window(name, labels, start, end)
        if window is None or window["count"] <= 0:
            return None
        return quantile_from_buckets(
            window["bounds"], window["counts"], window["count"], q
        )

    @staticmethod
    def _now() -> float:
        import time as time_module

        return time_module.time()


def seed_bench_history(
    store: TimeSeriesStore, history: Sequence[Mapping[str, Any]] | None
) -> int:
    """Replay ``BENCH_history.json`` into the store; returns the number
    of snapshots appended.

    Each untraced entry (one carrying the host-normalised
    ``points_per_s``) becomes one snapshot at its ``recorded`` time,
    holding a ``repro_bench_points_per_s`` gauge labelled by workload
    and engine version -- the benchmark trajectory the dashboard
    charts.  Entries already present (same time and labels) are
    skipped, so re-seeding is idempotent.
    """
    existing: set[tuple[float, str, str]] = set()
    for snapshot in store.snapshots():
        family = snapshot["families"].get("repro_bench_points_per_s") or {}
        for sample in family.get("samples", []):
            labels = sample.get("labels") or {}
            existing.add(
                (
                    round(float(snapshot["ts"]), 3),
                    str(labels.get("workload", "")),
                    str(labels.get("engine_version", "")),
                )
            )
    appended = 0
    for entry in history or ():
        if not isinstance(entry, Mapping):
            continue
        value = (entry.get("metrics") or {}).get("points_per_s")
        stamp = entry.get("recorded")
        if not stamp or not isinstance(value, (int, float)):
            continue
        try:
            ts = datetime.fromisoformat(str(stamp)).timestamp()
        except ValueError:
            continue
        labels = {
            "workload": str(entry.get("workload", "")),
            "engine_version": str((entry.get("provenance") or {}).get("engine_version", "")),
        }
        key = (round(ts, 3), labels["workload"], labels["engine_version"])
        if key in existing:
            continue
        store.append_snapshot(
            extra_families={
                "repro_bench_points_per_s": {
                    "type": "gauge",
                    "help": "Recorded python -m bench throughput (host-normalised points/s)",
                    "samples": [{"labels": labels, "value": float(value)}],
                }
            },
            ts=ts,
            source="bench",
        )
        existing.add(key)
        appended += 1
    return appended
