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
    events.extend(event.to_dict() for event in report.timeline)
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


def _split_events(doc: dict[str, Any]) -> tuple[str, list[dict[str, Any]], str]:
    """``(head, events, tail)`` of ``doc``'s JSON around its event list.

    ``json.dumps(doc)`` is ``head + ", ".join(map(json.dumps, events)) +
    tail``: the skeleton is dumped with an empty event list and cut inside
    its first ``[]``, which is the event list's since ``traceEvents`` is
    :func:`chrome_trace`'s first key.
    """
    skeleton = json.dumps({**doc, "traceEvents": []})
    cut = skeleton.index("[]") + 1
    return skeleton[:cut], doc["traceEvents"], skeleton[cut:]


def write_chrome_trace(report: ObsReport, path: str | Path, label: str = "repro") -> Path:
    """Write the Chrome trace JSON for ``report`` to ``path``.

    The bytes are exactly ``json.dumps(chrome_trace(report, label)) +
    "\n"``.  ``json.dump`` always takes the pure-Python encoder, so each
    event is written through ``json.dumps`` (the C encoder) instead, and
    no whole-document string is built.
    """
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    head, events, tail = _split_events(chrome_trace(report, label=label))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(head)
        separator = ""
        for event in events:
            fh.write(separator)
            fh.write(json.dumps(event))
            separator = ", "
        fh.write(tail)
        fh.write("\n")
    return path
