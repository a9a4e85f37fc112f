"""Zero-dependency HTML dashboard over the time-series store.

``GET /dashboard`` renders everything operator-facing in one page with
no JavaScript frameworks, no CDN, no build step: server-side SVG
sparklines for the key series, the latest SLO evaluation, and the most
recent runs with links to their trace documents.  The page embeds the
machine-readable document it was rendered from in a
``<script type="application/json" id="dashboard-data">`` block, so the
tests (and any scraper) can schema-check exactly what a human sees,
and a plain ``<meta http-equiv="refresh">`` keeps it live.

The same document builder feeds the ``repro dash`` terminal dashboard,
which renders the identical series through
:func:`repro.metrics.charts.sparkline` instead of SVG.
"""

from __future__ import annotations

import html
import json
from typing import Any, Mapping, Sequence

from repro.telemetry.timeseries import TimeSeriesStore, downsample

__all__ = ["KEY_SERIES", "build_dashboard_doc", "render_dashboard_html"]

#: Series charted by default, in display order, when present in the
#: store, as ``(name, title, label filter)``.  Counters chart their
#: restart-corrected cumulative view; gauges their raw values;
#: histograms their observation count.  The bench family holds every
#: workload's ``points_per_s``, which share no scale, so one is charted.
KEY_SERIES: tuple[tuple[str, str, Mapping[str, str] | None], ...] = (
    ("repro_service_requests_total", "HTTP requests (cumulative)", None),
    ("repro_service_queue_depth", "scheduler queue depth", None),
    ("repro_service_runs", "runs by status", None),
    ("repro_ledger_events_per_sec", "fleet events/sec (simulated)", None),
    ("repro_ledger_simulated_runs", "ledgered simulated runs", None),
    ("repro_ledger_cache_hits", "ledgered cache hits", None),
    ("repro_bench_points_per_s", "bench grid-cold points/s", {"workload": "grid-cold"}),
)

#: Sparkline sample width (points per chart after downsampling).
CHART_WIDTH = 120


def build_dashboard_doc(
    store: TimeSeriesStore,
    slo_report: Mapping[str, Any] | None = None,
    runs: Sequence[Mapping[str, Any]] | None = None,
    service: Mapping[str, Any] | None = None,
    seconds: float = 3600.0,
    series_names: Sequence[tuple[str, str, Mapping[str, str] | None]] | None = None,
) -> dict[str, Any]:
    """Assemble the machine-readable dashboard document.

    ``slo_report`` is an :class:`~repro.telemetry.slo.SloReport` dict,
    ``runs`` recent run references (newest last), ``service`` live
    service facts (queue depth, run counts).  Series outside the
    trailing ``seconds`` window are clipped; each is downsampled to
    :data:`CHART_WIDTH` points.
    """
    last = store.last_snapshot()
    now = last["ts"] if last else 0.0
    start = now - seconds
    kinds = store.names()
    series_docs: list[dict[str, Any]] = []
    for name, title, labels in (series_names if series_names is not None else KEY_SERIES):
        kind = kinds.get(name)
        if kind is None:
            continue
        if kind == "counter":
            points = store.counter_series(name, labels, start=start, end=now)
        else:
            points = store.series(name, labels, start=start, end=now)
        if not points:
            continue
        values = downsample([value for _ts, value in points], CHART_WIDTH)
        series_docs.append(
            {
                "name": name,
                "title": title,
                "kind": kind,
                "points": len(points),
                "first_ts": points[0][0],
                "last_ts": points[-1][0],
                "current": points[-1][1],
                "min": min(value for _ts, value in points),
                "max": max(value for _ts, value in points),
                "values": [round(value, 6) for value in values],
            }
        )
    doc: dict[str, Any] = {
        "schema": 1,
        "generated_at": now,
        "window_seconds": seconds,
        "tsdb": {
            "root": str(store.root),
            "segments": len(store.segments()),
            "snapshots": sum(1 for _ in store.snapshots()),
        },
        "series": series_docs,
        "slo": dict(slo_report) if slo_report else None,
        "recent_runs": [dict(run) for run in (runs or [])],
        "service": dict(service) if service else None,
    }
    return doc


def _svg_sparkline(values: Sequence[float], width: int = 260, height: int = 48) -> str:
    """A self-contained inline SVG polyline for one series."""
    if not values:
        return "<svg></svg>"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    pad = 2
    points = []
    for i, value in enumerate(values):
        x = pad + (width - 2 * pad) * (i / max(1, n - 1))
        y = height - pad - (height - 2 * pad) * ((value - lo) / span)
        points.append(f"{x:.1f},{y:.1f}")
    polyline = " ".join(points)
    return (
        f'<svg class="spark" viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" preserveAspectRatio="none" role="img">'
        f'<polyline fill="none" stroke="currentColor" stroke-width="1.5" '
        f'points="{polyline}"/></svg>'
    )


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.3f}"


def _slo_rows(slo: Mapping[str, Any] | None) -> str:
    if not slo:
        return '<tr><td colspan="5" class="dim">no SLO evaluation yet</td></tr>'
    rows = []
    for result in slo.get("results", []):
        if result.get("skipped"):
            badge = '<span class="badge skip">SKIP</span>'
        elif result.get("ok"):
            badge = '<span class="badge ok">OK</span>'
        else:
            badge = '<span class="badge breach">BREACH</span>'
        value = result.get("value")
        rows.append(
            "<tr>"
            f"<td>{badge}</td>"
            f"<td>{html.escape(str(result.get('name', '')))}</td>"
            f"<td><code>{html.escape(result.get('aggregate', ''))}"
            f"({html.escape(result.get('series', ''))})</code></td>"
            f"<td>{'-' if value is None else _format_number(float(value))}"
            f" {html.escape(result.get('op', ''))} "
            f"{_format_number(float(result.get('threshold', 0)))}</td>"
            f"<td class=\"dim\">{html.escape(str(result.get('detail', '')))}</td>"
            "</tr>"
        )
    return "".join(rows)


def _run_rows(runs: Sequence[Mapping[str, Any]]) -> str:
    if not runs:
        return '<tr><td colspan="4" class="dim">no runs yet</td></tr>'
    rows = []
    for run in reversed(list(runs)):  # newest first on screen
        run_id = str(run.get("run_id", ""))
        status = str(run.get("status", ""))
        trace_id = run.get("trace_id")
        trace_cell = (
            f'<a href="/runs/{html.escape(run_id)}/trace">trace</a>'
            if trace_id
            else '<span class="dim">-</span>'
        )
        rows.append(
            "<tr>"
            f'<td><a href="/runs/{html.escape(run_id)}"><code>{html.escape(run_id[:16])}</code></a></td>'
            f"<td>{html.escape(str(run.get('label', '')))}</td>"
            f'<td><span class="status {html.escape(status)}">{html.escape(status)}</span></td>'
            f"<td>{trace_cell}</td>"
            "</tr>"
        )
    return "".join(rows)


def render_dashboard_html(doc: Mapping[str, Any], refresh_seconds: int = 15) -> str:
    """Render the dashboard document as a standalone HTML page."""
    series_blocks = []
    for series in doc.get("series", []):
        series_blocks.append(
            '<div class="card">'
            f"<h3>{html.escape(series['title'])}</h3>"
            f"<div class=\"big\">{_format_number(float(series['current']))}</div>"
            f"{_svg_sparkline(series['values'])}"
            f'<div class="dim"><code>{html.escape(series["name"])}</code> · '
            f"{series['points']} pts · min {_format_number(float(series['min']))} · "
            f"max {_format_number(float(series['max']))}</div>"
            "</div>"
        )
    slo = doc.get("slo")
    if slo is None:
        slo_banner = '<span class="badge skip">SLO: no data</span>'
    elif slo.get("ok"):
        slo_banner = '<span class="badge ok">SLO: all objectives met</span>'
    else:
        slo_banner = (
            f'<span class="badge breach">SLO: {slo.get("breaches", 0)} breach(es)</span>'
        )
    service = doc.get("service") or {}
    facts = []
    for key in ("runs_known", "queue_depth"):
        if key in service:
            facts.append(f"{key.replace('_', ' ')}: {_format_number(float(service[key]))}")
    tsdb = doc.get("tsdb", {})
    facts.append(f"snapshots: {tsdb.get('snapshots', 0)}")
    # "</" inside the embedded JSON would close the script element early;
    # the standard JSON-in-HTML escape keeps the parser out of it.
    embedded = json.dumps(doc, sort_keys=True).replace("</", "<\\/")
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="{refresh_seconds}">
<title>repro dashboard</title>
<style>
  body {{ font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
         margin: 1.5rem; background: #0d1117; color: #c9d1d9; }}
  a {{ color: #58a6ff; text-decoration: none; }}
  h1 {{ font-size: 1.2rem; }} h2 {{ font-size: 1rem; margin-top: 1.5rem; }}
  h3 {{ font-size: 0.85rem; margin: 0 0 0.25rem 0; color: #8b949e; }}
  .grid {{ display: flex; flex-wrap: wrap; gap: 1rem; }}
  .card {{ background: #161b22; border: 1px solid #30363d; border-radius: 6px;
           padding: 0.75rem 1rem; min-width: 280px; }}
  .big {{ font-size: 1.4rem; margin-bottom: 0.25rem; }}
  .spark {{ color: #58a6ff; display: block; margin: 0.25rem 0; }}
  .dim {{ color: #8b949e; font-size: 0.75rem; }}
  table {{ border-collapse: collapse; width: 100%; font-size: 0.8rem; }}
  td, th {{ border-bottom: 1px solid #21262d; padding: 0.3rem 0.6rem; text-align: left; }}
  .badge {{ border-radius: 4px; padding: 0.1rem 0.45rem; font-size: 0.75rem; }}
  .badge.ok {{ background: #1f6e35; color: #d2ffd9; }}
  .badge.breach {{ background: #8e1519; color: #ffd7d5; }}
  .badge.skip {{ background: #30363d; color: #8b949e; }}
  .status.completed {{ color: #3fb950; }} .status.failed {{ color: #f85149; }}
  .status.running {{ color: #d29922; }} .status.queued {{ color: #8b949e; }}
</style>
</head>
<body>
<h1>repro dashboard {slo_banner}</h1>
<div class="dim">{html.escape(" · ".join(facts))} · window {doc.get("window_seconds", 0):.0f}s ·
auto-refresh {refresh_seconds}s</div>
<h2>Key series</h2>
<div class="grid">{"".join(series_blocks) or '<div class="dim">no series snapshotted yet</div>'}</div>
<h2>SLO</h2>
<table>
<tr><th></th><th>rule</th><th>series</th><th>value</th><th>detail</th></tr>
{_slo_rows(slo)}
</table>
<h2>Recent runs</h2>
<table>
<tr><th>run</th><th>label</th><th>status</th><th>trace</th></tr>
{_run_rows(doc.get("recent_runs", []))}
</table>
<script type="application/json" id="dashboard-data">{embedded}</script>
</body>
</html>
"""
