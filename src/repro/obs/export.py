"""Chrome trace-event export of a recorded timeline.

Produces the JSON object format of the Chrome trace-event spec (the
format Perfetto and ``chrome://tracing`` load directly): a top-level
``traceEvents`` list of ``"X"`` complete events, ``"i"`` instants and
``"M"`` metadata records naming the tracks.  Timestamps are simulated
*cycles* (the spec nominally uses microseconds; viewers only require a
consistent unit, and cycles keep the export lossless).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.sampler import ObsReport
from repro.obs.tracer import PROCESS_NAMES

__all__ = ["chrome_trace", "write_chrome_trace"]


#: Events per ``json.dumps`` call in :func:`write_chrome_trace`.  Larger
#: chunks are no faster and hold more at once.  For the 17,005 events of
#: Mp3d/PREF@32c (12 CPUs, scale 0.05; Python 3.11 on a 2-vCPU Xeon),
#: 256-event chunks wrote in 0.11 s with 0.45 MiB allocated at the peak,
#: 2048-event chunks in 0.11 s with 3.4 MiB, and one chunk of every
#: event in 0.12 s with 9.8 MiB.
_CHUNK = 256


def _metadata_events(report: ObsReport, label: str) -> list[dict[str, Any]]:
    """The ``"M"`` records naming the three tracks and their threads."""
    events: list[dict[str, Any]] = []
    num_cpus = report.num_cpus
    for pid, name in PROCESS_NAMES.items():
        process = f"{name} -- {label}" if label and label != "repro" else name
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": process}}
        )
        tids = tuple(range(num_cpus)) if name in ("cpu", "mshr") else (0,)
        for tid in tids:
            thread = f"{name}{tid}" if len(tids) > 1 else name
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread},
                }
            )
    return events


def _document(report: ObsReport, label: str, events: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "timestamp_unit": "cycles",
            "window_cycles": report.window_cycles,
            "exec_cycles": report.exec_cycles,
            "timeline_events": len(report.timeline),
            "timeline_dropped": report.timeline_dropped,
        },
    }


def chrome_trace(report: ObsReport, label: str = "repro") -> dict[str, Any]:
    """Render an :class:`ObsReport` timeline as a Chrome trace object.

    Metadata events name the three tracks (``cpu``, ``mshr``, ``bus``)
    and their per-CPU threads; a non-default ``label`` (the CLI passes
    ``workload/strategy``) is folded into every process name so
    Perfetto rows read ``cpu -- Water/PWS`` instead of a bare ``cpu``
    when traces from several runs sit side by side.  The payload events
    come straight from the ring buffer.  ``otherData`` carries
    run-level context (window width, execution time, drop count) for
    humans reading the raw JSON.
    """
    events = _metadata_events(report, label)
    events.extend(event.to_dict() for event in report.timeline)
    return _document(report, label, events)


def write_chrome_trace(report: ObsReport, path: str | Path, label: str = "repro") -> Path:
    """Write the Chrome trace JSON for ``report`` to ``path``.

    The bytes are exactly ``json.dumps(chrome_trace(report, label)) +
    "\n"``.  ``json.dump`` always takes the pure-Python encoder, so the
    events go through ``json.dumps`` (the C encoder) instead, a chunk
    of :data:`_CHUNK` at a time: ``json.dumps(chunk)[1:-1]`` is the
    chunk's events joined by ``", "``.  Neither the whole document's
    string nor every event's dict is ever built at once.
    """
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    # traceEvents is the document's first key, so the event list is the
    # skeleton's first "[]".
    skeleton = json.dumps(_document(report, label, []))
    cut = skeleton.index("[]") + 1
    timeline = report.timeline
    with path.open("w", encoding="utf-8") as fh:
        fh.write(skeleton[:cut])
        fh.write(json.dumps(_metadata_events(report, label))[1:-1])
        for i in range(0, len(timeline), _CHUNK):
            chunk = [event.to_dict() for event in timeline[i : i + _CHUNK]]
            fh.write(", ")
            fh.write(json.dumps(chunk)[1:-1])
        fh.write(skeleton[cut:])
        fh.write("\n")
    return path
