"""Fleet metrics registry: counters, gauges, histograms; Prometheus export.

A tiny dependency-free metrics facility in the spirit of
``prometheus_client``: the telemetered
:class:`~repro.experiments.runner.ExperimentRunner` counts runs by
outcome, disk-cache hits and misses, retired events, and observes run
wall times into a histogram; ``repro fleet`` / ``repro drift`` export
the registry as Prometheus text format (scrape-ready, also diffable in
CI artifacts) and as JSON.

Label handling follows the Prometheus model: a metric family holds one
sample per label-value combination; families and label names are fixed
at registration, label values at use.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile_from_buckets",
]

#: Default histogram bucket bounds (seconds-flavoured but unit-free).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name must not start with a digit: {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def quantile_from_buckets(
    bounds: Iterable[float],
    counts: Iterable[float],
    total: float,
    q: float,
) -> float | None:
    """Estimate the ``q``-quantile from per-bucket observation counts.

    ``bounds`` are the finite upper bounds, ``counts`` the
    *non-cumulative* per-bucket counts (the internal / ``to_json``
    representation), ``total`` the overall observation count (which may
    exceed ``sum(counts)`` when observations landed in the implicit
    ``+Inf`` bucket).  Mirrors PromQL ``histogram_quantile``: linear
    interpolation inside the target bucket, the first bucket
    interpolated from zero, and the +Inf bucket clamped to the largest
    finite bound.  Returns None when there are no observations.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    bounds = [float(b) for b in bounds]
    counts = [float(c) for c in counts]
    if len(bounds) != len(counts):
        raise ValueError("bounds and counts must have the same length")
    if total <= 0:
        return None
    rank = q * total
    cumulative = 0.0
    for idx, (bound, count) in enumerate(zip(bounds, counts)):
        if cumulative + count >= rank and count > 0:
            lower = bounds[idx - 1] if idx > 0 else 0.0
            fraction = (rank - cumulative) / count
            return lower + (bound - lower) * fraction
        cumulative += count
    # Rank falls in the +Inf bucket: the bound-free tail.  Clamp to the
    # largest finite bound, like histogram_quantile.
    return bounds[-1] if bounds else None


def _label_key(labels: Mapping[str, str], names: tuple[str, ...]) -> tuple[str, ...]:
    if set(labels) != set(names):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared {sorted(names)}"
        )
    return tuple(str(labels[name]) for name in names)


def _render_labels(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class _Metric:
    """Shared family machinery: name, help text, label names, samples."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Iterable[str] = ()) -> None:
        self.name = _validate_name(name)
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _validate_name(label)

    def header_lines(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Metric):
    """Monotonically increasing count, optionally per label combination."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be >= 0) to the labelled sample."""
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels, self.labelnames)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current count for the labelled sample (0 if never incremented)."""
        return self._values.get(_label_key(labels, self.labelnames), 0.0)

    def render(self) -> list[str]:
        lines = self.header_lines()
        for key in sorted(self._values):
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(self._values[key])}")
        return lines

    def to_json(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help_text,
            "samples": [
                {"labels": dict(zip(self.labelnames, key)), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }


class Gauge(Counter):
    """A value that can go up and down (last-write-wins)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Set the labelled sample to ``value``."""
        self._values[_label_key(labels, self.labelnames)] = float(value)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe`` records one value; export renders ``<name>_bucket`` with
    cumulative counts per upper bound (plus ``+Inf``), ``<name>_sum``
    and ``<name>_count``, per label combination.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts: dict[tuple[str, ...], list[int]] = {}
        self._sums: dict[tuple[str, ...], float] = {}
        self._totals: dict[tuple[str, ...], int] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation."""
        key = _label_key(labels, self.labelnames)
        counts = self._counts.setdefault(key, [0] * len(self.buckets))
        # First bucket whose upper bound is >= value; values above every
        # bound land only in the implicit +Inf bucket.
        idx = bisect_left(self.buckets, value)
        if idx < len(counts):
            counts[idx] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: str) -> int:
        """Observations recorded for the labelled sample."""
        return self._totals.get(_label_key(labels, self.labelnames), 0)

    def sum(self, **labels: str) -> float:
        """Sum of observed values for the labelled sample."""
        return self._sums.get(_label_key(labels, self.labelnames), 0.0)

    def quantile(self, q: float, **labels: str) -> float | None:
        """Estimated ``q``-quantile for the labelled sample.

        Linear interpolation within cumulative buckets (the
        ``histogram_quantile`` estimator); None when the sample has no
        observations.  The estimate's resolution is the bucket layout --
        exact values are unrecoverable from bucket counts by design.
        """
        key = _label_key(labels, self.labelnames)
        total = self._totals.get(key, 0)
        if not total:
            return None
        return quantile_from_buckets(self.buckets, self._counts[key], total, q)

    def render(self) -> list[str]:
        lines = self.header_lines()
        for key in sorted(self._totals):
            cumulative = 0
            for bound, count in zip(self.buckets, self._counts[key]):
                cumulative += count
                labels = _render_labels(
                    self.labelnames + ("le",), key + (_format_value(bound),)
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _render_labels(self.labelnames + ("le",), key + ("+Inf",))
            lines.append(f"{self.name}_bucket{labels} {self._totals[key]}")
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(self._sums[key])}")
            lines.append(f"{self.name}_count{plain} {self._totals[key]}")
        return lines

    def to_json(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help_text,
            "buckets": list(self.buckets),
            "samples": [
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "counts": list(self._counts[key]),
                    "sum": self._sums[key],
                    "count": self._totals[key],
                }
                for key in sorted(self._totals)
            ],
        }


class MetricsRegistry:
    """A named collection of metric families with batch export.

    Re-registering an existing name returns the existing family (so
    helper code can grab metrics idempotently) but raises if the kind
    or labels differ -- silent divergence would corrupt exports.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric) or existing.labelnames != metric.labelnames:
                raise ValueError(
                    f"metric {metric.name!r} already registered with a "
                    f"different kind or labels"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str, labelnames: Iterable[str] = ()) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._register(Counter(name, help_text, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str, labelnames: Iterable[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._register(Gauge(name, help_text, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._register(Histogram(name, help_text, labelnames, buckets))  # type: ignore[return-value]

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict[str, Any]:
        """The whole registry as a JSON-safe dict keyed by family name."""
        return {name: m.to_json() for name, m in sorted(self._metrics.items())}

    def write(self, prom_path: str | None = None, json_path: str | None = None) -> None:
        """Write the Prometheus and/or JSON renderings to files."""
        from pathlib import Path

        if prom_path is not None:
            path = Path(prom_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(self.render_prometheus(), encoding="utf-8")
        if json_path is not None:
            path = Path(json_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
