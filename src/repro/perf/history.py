"""The committed benchmark history, ``BENCH_history.json``.

The file is a JSON list, oldest first.  Each entry is exactly the report
``python -m bench --workload W --out F`` writes (provenance, metrics,
checks and ``details.digest``) plus one ``recorded`` UTC timestamp.
Untraced entries carry the end-to-end metrics (``points_per_s``, host
normalised); traced ones (``--trace 1``) the per-layer metrics
(``sim.events_per_s``).  Three readers take their reference from it:

* :func:`check_floor` -- the CI throughput floor: a fresh grid-cold
  report's ``points_per_s`` against the newest untraced grid-cold entry
  for the running engine version;
* :func:`repro.telemetry.slo.default_rules` -- the served-throughput
  sentinel, from the newest traced grid-cold ``sim.events_per_s``;
* :func:`repro.telemetry.timeseries.seed_bench_history` -- the
  ``repro_bench_points_per_s`` series the dashboard charts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.sim.engine import ENGINE_VERSION

__all__ = [
    "DEFAULT_HISTORY",
    "FLOOR_RATIO",
    "FLOOR_WORKLOAD",
    "check_floor",
    "floor_gate",
    "load_history",
    "newest",
]

#: Default history location (relative to the invoking directory).
DEFAULT_HISTORY = "BENCH_history.json"

#: The workload both the floor and the SLO baseline are read from: the
#: saturated-bus grid the paper's result lives on.
FLOOR_WORKLOAD = "grid-cold"

#: A fresh grid-cold run fails the floor below this fraction of the
#: newest recorded ``points_per_s``.  Forcing every run onto the generic
#: engine path costs about 0.6x on grid-cold, so the floor sits between
#: the two populations (the "Saturated grid digest" CI step's comment
#: gives the runs it was sized on).
FLOOR_RATIO = 0.85


def load_history(path: str | Path = DEFAULT_HISTORY) -> list[dict[str, Any]]:
    """The history's entries, oldest first; empty when absent or unreadable."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return []
    if not isinstance(data, list):
        return []
    return [entry for entry in data if isinstance(entry, dict)]


def newest(
    history: Sequence[Mapping[str, Any]],
    workload: str,
    metric: str,
    engine_version: str = ENGINE_VERSION,
) -> Mapping[str, Any] | None:
    """The newest ``workload`` entry on ``engine_version`` that reports ``metric``."""
    for entry in reversed(history):
        provenance = entry.get("provenance") or {}
        value = (entry.get("metrics") or {}).get(metric)
        if (
            entry.get("workload") == workload
            and str(provenance.get("engine_version")) == engine_version
            and isinstance(value, (int, float))
            and value > 0
        ):
            return entry
    return None


def check_floor(
    report: Mapping[str, Any],
    history: Sequence[Mapping[str, Any]],
    engine_version: str = ENGINE_VERSION,
) -> tuple[bool, str]:
    """Whether an untraced grid-cold ``report`` clears the throughput floor.

    Returns ``(ok, message)``.  The check fails closed: with no untraced
    grid-cold entry for ``engine_version`` in ``history`` there is
    nothing to compare against, and the message names the recording
    that is missing instead of passing vacuously.
    """
    reference = newest(history, FLOOR_WORKLOAD, "points_per_s", engine_version)
    if reference is None:
        return False, (
            f"no untraced {FLOOR_WORKLOAD} entry for engine version {engine_version} "
            f"in the history: record one with `python -m bench --workload "
            f"{FLOOR_WORKLOAD} --seconds 15 --out F` and append it with a "
            "`recorded` stamp"
        )
    measured = (report.get("metrics") or {}).get("points_per_s")
    if report.get("workload") != FLOOR_WORKLOAD or not isinstance(measured, (int, float)):
        return False, f"not an untraced {FLOOR_WORKLOAD} report: no points_per_s to check"
    recorded = reference["metrics"]["points_per_s"]
    floor = FLOOR_RATIO * recorded
    ok = measured >= floor
    return ok, (
        f"{FLOOR_WORKLOAD} {measured:.2f} points/s is {measured / recorded:.3f}x the "
        f"{recorded:.2f} recorded {reference.get('recorded', '?')} (engine version "
        f"{engine_version}); floor {FLOOR_RATIO:g}x = {floor:.2f}: "
        + ("ok" if ok else "BELOW FLOOR")
    )


def floor_gate(report_path: str | Path, history_path: str | Path = DEFAULT_HISTORY) -> int:
    """Print the floor verdict for the report at ``report_path``; 0 when it holds."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    ok, message = check_floor(report, load_history(history_path))
    print(message)
    return 0 if ok else 1
