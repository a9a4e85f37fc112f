"""Declarative SLOs and burn-rate alerting over the time-series store.

An :class:`SloRule` watches one stored series (any family the
:class:`~repro.telemetry.timeseries.TimeSeriesStore` has snapshotted)
through an *aggregate* (last/mean/min/max, counter delta or rate, or a
histogram quantile) over a trailing window, and judges it in one of two
modes:

* **Threshold mode** (no ``objective``): the aggregated value must
  satisfy ``op threshold`` -- e.g. "p95 request latency <= 2 s over the
  last hour" or "queue depth <= 32".
* **Burn-rate mode** (``objective`` set): every snapshot interval in
  the window votes good/bad against ``op threshold``; the error rate is
  divided by the rule's error *budget* (``1 - objective``) to get the
  burn rate, and the rule breaches when that exceeds
  ``max_burn_rate`` -- the standard multiwindow-burn-rate alerting
  discipline, collapsed to the single window the store retains.

Rules load from TOML (``[[slo]]`` tables, stdlib ``tomllib``) or JSON;
:func:`default_rules` derives a sane built-in set, including an
events/sec floor at a tenth of the newest traced grid-cold
``sim.events_per_s`` recorded in ``BENCH_history.json`` for the
running engine version -- the throughput sentinel.  The engine is
pure functions over the store: `repro serve` evaluates it on the
snapshot cadence, ``repro slo check`` evaluates it once and exits
nonzero on breach so CI can gate on it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.common.errors import ConfigurationError
from repro.telemetry.timeseries import TimeSeriesStore

__all__ = [
    "SloRule",
    "SloResult",
    "SloReport",
    "load_rules",
    "default_rules",
    "evaluate",
    "evaluate_slo",
]

_OPS = {
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    ">": lambda value, threshold: value > threshold,
}

_AGGREGATES = ("last", "mean", "min", "max", "delta", "rate")
_QUANTILE_RE = re.compile(r"^p(\d{1,2}(?:\.\d+)?)$")


@dataclass(frozen=True)
class SloRule:
    """One declarative objective over a stored series."""

    name: str
    series: str
    aggregate: str = "last"
    op: str = "<="
    threshold: float = 0.0
    labels: Mapping[str, str] | None = None
    window_seconds: float = 3600.0
    objective: float | None = None
    max_burn_rate: float = 1.0
    min_samples: int = 1
    on_missing: str = "skip"
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigurationError(
                f"SLO rule {self.name!r}: unknown op {self.op!r} (use one of {sorted(_OPS)})"
            )
        if self.aggregate not in _AGGREGATES and not _QUANTILE_RE.match(self.aggregate):
            raise ConfigurationError(
                f"SLO rule {self.name!r}: unknown aggregate {self.aggregate!r} "
                f"(use {', '.join(_AGGREGATES)} or pNN e.g. p95)"
            )
        if self.objective is not None and not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                f"SLO rule {self.name!r}: objective must be in (0, 1), got {self.objective}"
            )
        if self.window_seconds <= 0:
            raise ConfigurationError(
                f"SLO rule {self.name!r}: window_seconds must be positive"
            )
        if self.on_missing not in ("skip", "breach"):
            raise ConfigurationError(
                f"SLO rule {self.name!r}: on_missing must be 'skip' or 'breach'"
            )

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "SloRule":
        if not isinstance(raw, Mapping):
            raise ConfigurationError(f"SLO rule must be a table/object, got {type(raw).__name__}")
        known = {
            "name", "series", "aggregate", "op", "threshold", "labels",
            "window_seconds", "objective", "max_burn_rate", "min_samples",
            "on_missing", "description",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(
                f"SLO rule {raw.get('name', '?')!r}: unknown keys {sorted(unknown)}"
            )
        if "name" not in raw or "series" not in raw:
            raise ConfigurationError("SLO rule needs at least 'name' and 'series'")
        name = str(raw["name"])

        def number(key: str, default: Any, kind: type = float) -> Any:
            value = raw.get(key, default)
            try:
                result = kind(value)
            except (TypeError, ValueError, OverflowError):
                result = None
            if result is None or result != result:  # NaN: every comparison with it is false
                raise ConfigurationError(
                    f"SLO rule {name!r}: {key} must be a number, got {value!r}"
                )
            return result

        labels = raw.get("labels")
        if labels is not None:
            if not isinstance(labels, Mapping):
                raise ConfigurationError(
                    f"SLO rule {name!r}: labels must be a table/object, got {labels!r}"
                )
            labels = {str(k): str(v) for k, v in labels.items()}
        return cls(
            name=name,
            series=str(raw["series"]),
            aggregate=str(raw.get("aggregate", "last")),
            op=str(raw.get("op", "<=")),
            threshold=number("threshold", 0.0),
            labels=labels,
            window_seconds=number("window_seconds", 3600.0),
            objective=None if raw.get("objective") is None else number("objective", None),
            max_burn_rate=number("max_burn_rate", 1.0),
            min_samples=number("min_samples", 1, int),
            on_missing=str(raw.get("on_missing", "skip")),
            description=str(raw.get("description", "")),
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "series": self.series,
            "aggregate": self.aggregate,
            "op": self.op,
            "threshold": self.threshold,
            "window_seconds": self.window_seconds,
            "max_burn_rate": self.max_burn_rate,
            "min_samples": self.min_samples,
            "on_missing": self.on_missing,
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        if self.objective is not None:
            out["objective"] = self.objective
        if self.description:
            out["description"] = self.description
        return out


@dataclass
class SloResult:
    """Judgement of one rule at one evaluation instant."""

    rule: SloRule
    ok: bool
    skipped: bool = False
    value: float | None = None
    burn_rate: float | None = None
    samples: int = 0
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.rule.name,
            "series": self.rule.series,
            "aggregate": self.rule.aggregate,
            "ok": self.ok,
            "skipped": self.skipped,
            "value": self.value,
            "burn_rate": self.burn_rate,
            "threshold": self.rule.threshold,
            "op": self.rule.op,
            "window_seconds": self.rule.window_seconds,
            "samples": self.samples,
            "detail": self.detail,
        }


@dataclass
class SloReport:
    """All rule results from one evaluation pass."""

    results: list[SloResult] = field(default_factory=list)
    evaluated_at: float = 0.0

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def breaches(self) -> list[SloResult]:
        return [result for result in self.results if not result.ok]

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "evaluated_at": self.evaluated_at,
            "rules": len(self.results),
            "breaches": len(self.breaches),
            "results": [result.to_dict() for result in self.results],
        }

    def render(self) -> str:
        lines = []
        for result in self.results:
            if result.skipped:
                status = "SKIP "
            elif result.ok:
                status = "OK   "
            else:
                status = "BREACH"
            value = "-" if result.value is None else f"{result.value:.6g}"
            lines.append(
                f"  {status:<6} {result.rule.name:<28} "
                f"{result.rule.aggregate}({result.rule.series}) = {value} "
                f"[{result.rule.op} {result.rule.threshold:g} "
                f"over {result.rule.window_seconds:g}s]"
                + (f" — {result.detail}" if result.detail else "")
            )
        verdict = "OK" if self.ok else f"BREACHED ({len(self.breaches)} rule(s))"
        return "\n".join([f"SLO: {verdict}"] + lines)


def load_rules(path: str | Path) -> list[SloRule]:
    """Load rules from a ``.toml`` (``[[slo]]`` tables) or JSON file."""
    path = Path(path)
    try:
        raw_text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read SLO rules file {path}: {exc}") from exc
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            doc = tomllib.loads(raw_text)
        except (tomllib.TOMLDecodeError, RecursionError) as exc:
            raise ConfigurationError(f"invalid TOML in {path}: {exc}") from exc
        raw_rules = doc.get("slo", [])
    else:
        try:
            doc = json.loads(raw_text)
        except (ValueError, RecursionError) as exc:
            raise ConfigurationError(f"invalid JSON in {path}: {exc}") from exc
        raw_rules = doc.get("slo", doc) if isinstance(doc, dict) else doc
    if not isinstance(raw_rules, list):
        raise ConfigurationError(f"{path}: expected a list of SLO rules")
    rules = [SloRule.from_dict(raw) for raw in raw_rules]
    if not rules:
        raise ConfigurationError(f"{path}: no SLO rules defined")
    names = [rule.name for rule in rules]
    dupes = {name for name in names if names.count(name) > 1}
    if dupes:
        raise ConfigurationError(f"{path}: duplicate SLO rule names {sorted(dupes)}")
    return rules


def default_rules(bench_history: Sequence[Mapping[str, Any]] | None = None) -> list[SloRule]:
    """Built-in rule set used when no rules file is given.

    Request-latency p95, queue depth, run failures and -- when the
    benchmark history (:mod:`repro.perf.history`) holds a traced
    grid-cold entry for the running engine version -- a fleet events/sec
    floor at 10% of that entry's ``sim.events_per_s`` (generous: service
    runs carry telemetry overhead and tiny scales, but a collapse past
    10x is a real regression).
    """
    rules = [
        SloRule(
            name="request-latency-p95",
            series="repro_service_request_seconds",
            aggregate="p95",
            op="<=",
            threshold=5.0,
            window_seconds=3600.0,
            description="p95 HTTP request latency stays under 5s",
        ),
        SloRule(
            name="queue-depth",
            series="repro_service_queue_depth",
            aggregate="max",
            op="<=",
            threshold=128.0,
            window_seconds=900.0,
            description="scheduler backlog never exceeds 128 pending runs",
        ),
        SloRule(
            name="run-failures",
            series="repro_ledger_outcomes",
            labels={"outcome": "error"},
            aggregate="delta",
            op="<=",
            threshold=0.0,
            window_seconds=3600.0,
            description="no ledgered run failures in the window",
        ),
    ]
    baseline = _bench_baseline(bench_history or ())
    if baseline is not None:
        rules.append(
            SloRule(
                name="events-per-sec-floor",
                series="repro_ledger_events_per_sec",
                aggregate="last",
                op=">=",
                # An order-of-magnitude sentinel, not a noise tripwire:
                # quick service runs legitimately sit well below the
                # bench harness's steady-state throughput.
                threshold=round(baseline * 0.1, 3),
                window_seconds=3600.0,
                min_samples=1,
                description=(
                    "fleet simulation throughput stays above 10% of the "
                    f"recorded grid-cold baseline ({baseline:.0f} ev/s)"
                ),
            )
        )
    return rules


def _bench_baseline(history: Sequence[Mapping[str, Any]]) -> float | None:
    """The newest traced grid-cold ``sim.events_per_s`` for this engine."""
    from repro.perf.history import FLOOR_WORKLOAD, newest

    entry = newest(history, FLOOR_WORKLOAD, "sim.events_per_s")
    return None if entry is None else float(entry["metrics"]["sim.events_per_s"])


def _instantaneous_values(
    store: TimeSeriesStore, rule: SloRule, start: float, end: float
) -> list[float]:
    """Per-snapshot values for burn-rate voting.

    Gauges vote with their raw value, counters with the pairwise
    per-second rate, histograms with the per-interval quantile (only
    intervals that saw observations vote).
    """
    kind = store.names().get(rule.series, "untyped")
    quantile_match = _QUANTILE_RE.match(rule.aggregate)
    if kind == "histogram" and quantile_match:
        from repro.telemetry.registry import quantile_from_buckets

        q = float(quantile_match.group(1)) / 100.0
        points = store.snapshots(start, end)
        values: list[float] = []
        prev_ts: float | None = None
        for snapshot in points:
            if rule.series not in snapshot["families"]:
                continue
            if prev_ts is not None:
                window = store.histogram_window(rule.series, rule.labels, prev_ts, snapshot["ts"])
                if window and window["count"] > 0:
                    estimate = quantile_from_buckets(
                        window["bounds"], window["counts"], window["count"], q
                    )
                    if estimate is not None:
                        values.append(estimate)
            prev_ts = snapshot["ts"]
        return values
    if kind == "counter":
        points = store.counter_series(rule.series, rule.labels, start, end)
        values = []
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if t1 > t0:
                values.append(max(0.0, v1 - v0) / (t1 - t0))
        return values
    return [value for _ts, value in store.series(rule.series, rule.labels, start, end)]


def _aggregate_value(
    store: TimeSeriesStore, rule: SloRule, start: float, end: float
) -> tuple[float | None, int]:
    """(aggregated value, sample count) for threshold mode."""
    quantile_match = _QUANTILE_RE.match(rule.aggregate)
    if quantile_match:
        window = store.histogram_window(rule.series, rule.labels, start, end)
        if window is None or window["count"] <= 0:
            return None, 0
        q = float(quantile_match.group(1)) / 100.0
        return (
            store.quantile_over(rule.series, q, rule.labels, start, end),
            int(window["count"]),
        )
    if rule.aggregate in ("delta", "rate"):
        points = store.counter_series(rule.series, rule.labels, start, end)
        if len(points) < 2:
            return None, len(points)
        (t0, v0), (t1, v1) = points[0], points[-1]
        increase = max(0.0, v1 - v0)
        if rule.aggregate == "delta":
            return increase, len(points)
        if t1 <= t0:
            return None, len(points)
        return increase / (t1 - t0), len(points)
    points = store.series(rule.series, rule.labels, start, end)
    if not points:
        return None, 0
    values = [value for _ts, value in points]
    if rule.aggregate == "last":
        return values[-1], len(values)
    if rule.aggregate == "mean":
        return sum(values) / len(values), len(values)
    if rule.aggregate == "min":
        return min(values), len(values)
    return max(values), len(values)


def _evaluate_rule(store: TimeSeriesStore, rule: SloRule, now: float) -> SloResult:
    start = now - rule.window_seconds
    op = _OPS[rule.op]
    if rule.objective is not None:
        values = _instantaneous_values(store, rule, start, now)
        if len(values) < rule.min_samples:
            return _missing(rule, len(values))
        bad = sum(1 for value in values if not op(value, rule.threshold))
        error_rate = bad / len(values)
        budget = 1.0 - rule.objective
        burn = error_rate / budget if budget > 0 else float("inf")
        ok = burn <= rule.max_burn_rate
        return SloResult(
            rule=rule,
            ok=ok,
            value=error_rate,
            burn_rate=round(burn, 4),
            samples=len(values),
            detail=(
                f"burn {burn:.2f}x of budget {budget:g} "
                f"({bad}/{len(values)} intervals violate {rule.op} {rule.threshold:g})"
            ),
        )
    value, samples = _aggregate_value(store, rule, start, now)
    if value is None or samples < rule.min_samples:
        return _missing(rule, samples)
    ok = op(value, rule.threshold)
    detail = "" if ok else (
        f"{rule.series} {rule.aggregate}={value:.6g} violates "
        f"{rule.op} {rule.threshold:g} over trailing {rule.window_seconds:g}s"
    )
    return SloResult(rule=rule, ok=ok, value=value, samples=samples, detail=detail)


def _missing(rule: SloRule, samples: int) -> SloResult:
    if rule.on_missing == "breach":
        return SloResult(
            rule=rule,
            ok=False,
            samples=samples,
            detail=f"no data: {samples} sample(s) in window (< {rule.min_samples}), on_missing=breach",
        )
    return SloResult(
        rule=rule,
        ok=True,
        skipped=True,
        samples=samples,
        detail=f"no data: {samples} sample(s) in window (< {rule.min_samples})",
    )


def evaluate(
    store: TimeSeriesStore,
    rules: Sequence[SloRule],
    now: float | None = None,
) -> SloReport:
    """Judge every rule against the store at instant ``now``."""
    if now is None:
        last = store.last_snapshot()
        now = last["ts"] if last else 0.0
    report = SloReport(evaluated_at=now)
    for rule in rules:
        report.results.append(_evaluate_rule(store, rule, now))
    return report


#: Collision-free alias for package-level re-export (`repro.telemetry`
#: already exports drift's ``evaluate``).
evaluate_slo = evaluate
