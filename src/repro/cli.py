"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``simulate`` -- run one (workload, strategy, machine) configuration
  and print the run summary (optionally against the NP baseline);
* ``sweep`` -- Figure-2-style bus-latency sweep for one workload;
* ``experiment`` -- regenerate a paper table or figure by name;
* ``stats`` -- static trace statistics for a workload;
* ``analyze`` -- sharing attribution and restructuring advice;
* ``timeline`` -- run one configuration with the observability taps on,
  print the windowed telemetry as sparklines and export the event
  timeline as Chrome trace JSON (Perfetto-loadable);
* ``c2c`` -- run one configuration with the per-cache-line heat
  profiler on and render a ``perf c2c``-style report: hottest lines,
  heat by data structure with the static advisor cross-referenced,
  invalidation ping-pong, prefetch efficacy; optional JSON export;
* ``cache`` -- inspect or prune the on-disk result cache;
* ``fleet`` -- run a strategy/latency grid with full fleet telemetry:
  live worker progress + ETA, run-ledger records, heartbeat-silence
  stall flags, a per-job deadline (``--job-timeout``), Prometheus/JSON
  metrics export;
* ``drift`` -- paper-drift gate: replay the key Tullsen & Eggers
  comparisons (speedup extremes, miss-rate directions, bus-utilization
  ordering) against tolerance bands; nonzero exit on divergence;
* ``ledger`` -- query and summarize the append-only run ledger;
* ``serve`` -- simulation-as-a-service HTTP front door: submit
  scenario specs or sweep grids, poll run status, fetch results and
  c2c reports by run id, scrape Prometheus metrics -- duplicate
  submissions dedup by content key onto one simulation; with the
  time-series store on (default), it also snapshots metrics, evaluates
  SLO rules continuously, and serves ``/metrics/history``, ``/slo``
  and an HTML ``/dashboard``;
* ``slo`` -- one-shot SLO evaluation over the time-series store
  (``repro slo check``), nonzero exit on breach: the CI regression
  sentinel;
* ``dash`` -- terminal dashboard: key series sparklines, SLO status
  and recent ledger runs from the same store the service snapshots;
* ``list`` -- available workloads, strategies and experiments.

Per-run flags come from one table over the fields of the service's
:class:`~repro.service.contracts.ScenarioSpec` (``_SPEC_FLAGS``), with
the fields' defaults; each command adds only the fields it uses.
``simulate``, ``timeline`` and ``c2c`` build a ``ScenarioSpec``, and the
last two run the service's observed runs (:mod:`repro.experiments.lineattr`).

Examples::

    python -m repro simulate --workload Mp3d --strategy PWS --transfer 4
    python -m repro experiment figure2 --chart
    python -m repro analyze --workload Pverify
    python -m repro timeline --workload water --quick
    python -m repro c2c --workload pverify --strategy PWS --quick
    python -m repro fleet --workloads Water,Mp3d --workers 4 --job-timeout 600
    python -m repro drift --quick
    python -m repro ledger --tail 5
    python -m repro cache --prune
    python -m repro slo check --snapshot
    python -m repro dash --seconds 7200
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
from typing import Any, Sequence

from repro.common.config import MachineConfig
from repro.common.errors import ConfigurationError, ReproError
from repro.experiments.runner import ExperimentRunner, grid_label
from repro.metrics.formatting import format_run_summary, format_table
from repro.perf.history import DEFAULT_HISTORY, load_history
from repro.prefetch.strategies import (
    ADAPT,
    ALL_STRATEGIES,
    PBUF,
    PrefetchStrategy,
    strategy_by_name,
)
from repro.service.contracts import ScenarioSpec
from repro.telemetry.timeseries import DEFAULT_TSDB_DIR
from repro.workloads.registry import ALL_WORKLOAD_NAMES, resolve_workload

__all__ = ["main"]

#: The ``repro experiment`` tables: each names a module of
#: :mod:`repro.experiments`, imported when the command runs.
_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "figure1",
    "figure2",
    "figure3",
    "headline",
    "utilization",
    "saturation",
    "lineattr",
    "adaptive",
)


def _split_csv(raw: str) -> list[str]:
    """Split a comma-separated CLI list, tolerating whitespace and
    stray commas (``"PREF, PWS"``, ``"PREF,,PWS"``)."""
    return [token.strip() for token in raw.split(",") if token.strip()]


_VALID_STRATEGY_NAMES = ", ".join(s.name for s in ALL_STRATEGIES + (PBUF, ADAPT))


def _parse_strategies(raw: str) -> tuple[PrefetchStrategy, ...]:
    """Parse ``--strategies``; one clear error naming every valid label."""
    tokens = _split_csv(raw)
    if not tokens:
        raise ConfigurationError(
            f"--strategies {raw!r} names no strategies; "
            f"valid names: {_VALID_STRATEGY_NAMES}"
        )
    strategies = []
    for token in tokens:
        try:
            strategies.append(strategy_by_name(token))
        except ConfigurationError:
            raise ConfigurationError(
                f"unknown strategy {token!r} in --strategies {raw!r}; "
                f"valid names: {_VALID_STRATEGY_NAMES} "
                f"(or a derived name like 'PREF(d=400)')"
            ) from None
    return tuple(strategies)


def _parse_latencies(raw: str) -> tuple[int, ...]:
    """Parse ``--latencies`` (comma-separated positive cycle counts)."""
    tokens = _split_csv(raw)
    if not tokens:
        raise ConfigurationError(f"--latencies {raw!r} names no cycle counts")
    latencies = []
    for token in tokens:
        try:
            cycles = int(token)
        except ValueError:
            raise ConfigurationError(
                f"invalid transfer latency {token!r} in --latencies {raw!r}; "
                f"expected comma-separated integers like '4,8,16,32'"
            ) from None
        if cycles < 1:
            raise ConfigurationError(f"transfer latency must be >= 1, got {cycles}")
        latencies.append(cycles)
    return tuple(latencies)


def _parse_workloads(raw: str) -> list[str]:
    """Parse ``--workloads`` (comma-separated, case-insensitive)."""
    tokens = _split_csv(raw)
    if not tokens:
        raise ConfigurationError(
            f"--workloads {raw!r} names no workloads; "
            f"valid names: {', '.join(ALL_WORKLOAD_NAMES)}"
        )
    return [resolve_workload(token) for token in tokens]


def _workload(name: str) -> str:
    """``--workload``: resolved case-insensitively at parse time."""
    try:
        return resolve_workload(name)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: The one flag of each :class:`ScenarioSpec` field, keyed by field.  The
#: argparse dest is the field name and the default is the field's, so the
#: CLI and the service read one definition of a run's inputs.
_SPEC_FLAGS: dict[str, tuple[str, dict[str, Any]]] = {
    "workload": ("--workload", dict(type=_workload, help="workload name (case-insensitive)")),
    "strategy": ("--strategy", dict(help="NP/PREF/EXCL/LPD/PWS/PBUF/ADAPT")),
    "restructured": ("--restructured", dict(action="store_true", help="restructured variant")),
    "num_cpus": ("--cpus", dict(type=int, metavar="CPUS", help="processor count")),
    "seed": ("--seed", dict(type=int, help="workload seed")),
    "scale": ("--scale", dict(type=float, help="workload scale")),
    "transfer_cycles": (
        "--transfer", dict(type=int, metavar="CYCLES", help="data-bus transfer cycles")
    ),
    "protocol": ("--protocol", dict(choices=("illinois", "msi"), help="coherence protocol")),
    "adapt_high": ("--adapt-high", dict(type=float, metavar="UTIL", help=(
        "ADAPT: start dropping prefetches at this windowed bus utilization (default 0.98)"))),
    "adapt_low": ("--adapt-low", dict(type=float, metavar="UTIL", help=(
        "ADAPT: resume issuing below this utilization (default 0.94)"))),
    "adapt_window": ("--adapt-window", dict(type=int, metavar="CYCLES", help=(
        "ADAPT: utilization estimate window in cycles (default 32768)"))),
}
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ScenarioSpec)}

#: The runner frame: the fields every run-making command takes.
_FRAME = ("num_cpus", "seed", "scale")
#: One run's fields besides the workload variant.
_POINT = ("strategy", *_FRAME, "transfer_cycles", "protocol", "adapt_high", "adapt_low",
          "adapt_window")


def _add_spec_args(
    parser: argparse.ArgumentParser, fields: Sequence[str], required: bool = False, **defaults: Any
) -> None:
    """Add the flags of ``fields``; ``defaults`` overrides field defaults
    for this command and ``required`` applies to ``--workload``."""
    for name in fields:
        flag, options = _SPEC_FLAGS[name]
        if name == "workload":
            parser.add_argument(flag, required=required, **options)
            continue
        default = defaults.get(name, _DEFAULTS[name])
        if default not in (None, False):
            options = dict(options, help=options["help"] + " (default %(default)s)")
        parser.add_argument(flag, dest=name, default=default, **options)


def _spec(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario a command's parsed arguments describe."""
    return ScenarioSpec(
        **{name: getattr(args, name) for name in _SPEC_FLAGS if hasattr(args, name)}
    )


def _runner(frame: Any) -> ExperimentRunner:
    """A runner in the frame of parsed arguments or a spec."""
    return ExperimentRunner(num_cpus=frame.num_cpus, seed=frame.seed, scale=frame.scale)


def _cmd_simulate(args: argparse.Namespace) -> int:
    job = _spec(args).job()
    strategy = job.strategy
    result = _runner(job).compare(job.workload, strategy, job.machine, job.restructured)
    if strategy.enabled:
        print(format_run_summary(result.baseline))
        print()
    print(format_run_summary(result.run))
    if strategy.enabled:
        cmp = result.comparison
        print()
        print(
            f"{strategy.name} vs NP: speedup {cmp.speedup:.3f}x, "
            f"CPU miss reduction {cmp.cpu_miss_reduction:.0%}, "
            f"total miss increase {max(0.0, cmp.total_miss_increase):.0%}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    runner = _runner(args)
    strategies = _parse_strategies(args.strategies)
    machine = MachineConfig(num_cpus=args.num_cpus, protocol=args.protocol)
    latencies = _parse_latencies(args.latencies)
    results = runner.sweep(
        args.workload, strategies, machine, transfer_latencies=latencies,
        restructured=args.restructured,
    )
    headers = ["Discipline"] + [f"{c} cycles" for c in latencies]
    baseline = {c: results[c].get("NP") for c in latencies}
    rows = []
    for strategy in strategies:
        row: list[object] = [strategy.name]
        for c in latencies:
            run = results[c][strategy.name]
            base = baseline[c]
            if base is not None and strategy.name != "NP":
                row.append(round(run.exec_cycles / base.exec_cycles, 3))
            else:
                row.append(run.exec_cycles)
        rows.append(row)
    title = f"{args.workload}: execution time (relative to NP where available)"
    print(format_table(headers, rows, title=title))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = _runner(args)
    if args.name == "all":
        from repro.experiments.report import run_all

        print(run_all(runner, charts=args.chart).text)
        return 0
    module = importlib.import_module(f"repro.experiments.{args.name}")
    result = module.run(runner)
    if args.chart and hasattr(module, "render_chart"):
        print(module.render_chart(result))
    else:
        print(module.render(result))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.trace.stats import compute_stats

    runner = _runner(args)
    trace = runner.clean_trace(args.workload, restructured=args.restructured)
    stats = compute_stats(trace)
    rows = [
        ["demand references", stats.total_refs],
        ["writes", f"{stats.total_writes} ({stats.write_fraction:.0%})"],
        ["shared references", f"{stats.shared_refs} ({stats.shared_fraction:.0%})"],
        ["lock acquires", stats.lock_acquires],
        ["barrier episodes", stats.barriers],
        ["instruction cycles", stats.instruction_cycles],
        ["footprint", f"{stats.footprint_blocks} lines ({stats.footprint_bytes // 1024} KB)"],
        ["write-shared lines", stats.write_shared_blocks],
    ]
    print(format_table(["Metric", "Value"], rows, title=f"Trace statistics: {trace.name}"))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import advise, attribute_sharing, profile_sharing, render_advice
    from repro.analysis.attribution import render_attribution

    runner = _runner(args)
    trace = runner.clean_trace(args.workload, restructured=args.restructured)
    profile = profile_sharing(trace)
    print(render_attribution(attribute_sharing(trace, profile)))
    print()
    print(render_advice(advise(trace)))
    print()
    print(
        f"references through falsely-shared lines: "
        f"{profile.false_sharing_ref_fraction:.1%} of {profile.total_refs:,}"
    )
    return 0


def _fetch_trace_document(url: str, run_id: str) -> dict:
    """GET the stitched trace for ``run_id`` from a running service."""
    import json as json_module
    import urllib.error
    import urllib.request

    endpoint = f"{url.rstrip('/')}/runs/{run_id}/trace"
    try:
        with urllib.request.urlopen(endpoint, timeout=30.0) as response:
            return json_module.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        raise RuntimeError(f"{endpoint}: HTTP {exc.code} -- {detail}") from exc
    except urllib.error.URLError as exc:
        raise RuntimeError(
            f"{endpoint}: {exc.reason} (is `repro serve --trace` running?)"
        ) from exc


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace.io import load_multitrace, save_multitrace
    from repro.trace.stats import compute_stats

    if args.run_id or args.load:
        import json as json_module
        from pathlib import Path

        from repro.telemetry.tracing import render_waterfall

        if args.load:
            doc = json_module.loads(Path(args.load).read_text(encoding="utf-8"))
        else:
            try:
                doc = _fetch_trace_document(args.url, args.run_id)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        if args.save:
            path = Path(args.save)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json_module.dumps(doc, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {path} (load it at https://ui.perfetto.dev)")
        print(render_waterfall(doc))
        return 0
    if args.info:
        trace = load_multitrace(args.info)
        stats = compute_stats(trace)
        print(
            f"{trace.name}: {trace.num_cpus} CPUs, {stats.total_refs:,} demand refs, "
            f"{trace.total_prefetches():,} prefetches, {stats.barriers} barriers, "
            f"{stats.footprint_bytes // 1024} KB footprint"
        )
        return 0
    if not (args.workload and args.out):
        print(
            "error: trace requires a RUN_ID (or --load FILE), --info FILE, "
            "or --workload and --out",
            file=sys.stderr,
        )
        return 2
    runner = _runner(args)
    trace = runner.clean_trace(args.workload, restructured=args.restructured)
    save_multitrace(trace, args.out)
    print(f"wrote {args.out}: {trace.num_cpus} CPUs, {trace.total_memrefs():,} demand refs")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.experiments import lineattr
    from repro.metrics.charts import sparkline
    from repro.obs.export import write_chrome_trace

    if args.quick:
        args.num_cpus, args.scale = 4, 0.05
    spec = _spec(args)
    workload, strategy = spec.workload, spec.strategy
    result = lineattr.record_timeline(spec.job(), args.window, args.events)
    obs = result.obs
    width = 64
    print(
        f"{workload} / {strategy}: {result.exec_cycles:,} cycles, "
        f"{spec.num_cpus} CPUs, {spec.transfer_cycles}-cycle transfers, "
        f"{obs.window_cycles}-cycle windows ({obs.num_windows} windows)"
    )
    print(
        f"bus util |{sparkline(obs.bus_utilization_series(), width, max_value=1.0)}| "
        f"avg {result.bus_utilization:.2f}"
    )
    pf = obs.prefetch_share_series()
    if any(pf):
        print(
            f"pf share |{sparkline(pf, width, max_value=1.0)}| "
            f"prefetch fraction of bus occupancy"
        )
    print(
        f"queue    |{sparkline(obs.mean_queue_series(), width)}| "
        f"peak {obs.peak_queue}"
    )
    print(
        f"mshr     |{sparkline(obs.mean_mshr_series(), width)}| "
        f"peak {obs.peak_mshr} (prefetch buffer peak {obs.peak_pfbuf})"
    )
    print(
        f"cpu busy |{sparkline(obs.cpu_busy_share_series(), width, max_value=1.0)}| "
        f"avg {result.processor_utilization:.2f}"
    )
    problems = obs.reconcile(result)
    if problems:
        print(f"reconciliation: {len(problems)} MISMATCHES")
        for problem in problems[:5]:
            print(f"  {problem}")
    else:
        print("reconciliation: every windowed series sums to its aggregate (exact)")
    out = args.out or f"results/timeline_{workload}_{strategy}.json"
    path = write_chrome_trace(obs, out, label=f"{workload}/{strategy}")
    print(
        f"wrote {path} ({len(obs.timeline)} events, {obs.timeline_dropped} dropped; "
        f"load in Perfetto / chrome://tracing)"
    )
    return 1 if problems else 0


def _render_saved_c2c(data: dict) -> None:
    """Summarize a previously exported c2c JSON document."""
    from repro.metrics.charts import sparkline

    label = data.get("label") or "(unlabelled)"
    print(
        f"{label}: {data.get('num_lines', 0)} lines "
        f"({data.get('block_size', '?')}-byte blocks, "
        f"{data.get('window_cycles', '?')}-cycle windows)"
    )
    eff = data.get("efficacy_totals") or {}
    if any(eff.values()):
        print("prefetch efficacy: " + " ".join(f"{k}={v}" for k, v in eff.items()))
    structures = data.get("structures") or []
    rows = [
        [
            s.get("name", "?"),
            s.get("lines", 0),
            s.get("cpu_misses", 0),
            s.get("invalidation_misses", 0),
            s.get("false_sharing_misses", 0),
            s.get("stall_cycles", 0),
            s.get("bus_cycles", 0),
            s.get("handoffs", 0),
            s.get("advised_action") or "-",
        ]
        for s in structures
    ]
    if rows:
        print(
            format_table(
                ["Structure", "Lines", "Miss", "Inval", "FS", "Stall", "Bus", "Hoff", "Advisor"],
                rows,
                title="Heat by data structure (saved profile)",
            )
        )
    series = data.get("inval_window_series") or []
    if any(series):
        print(f"invalidations/window (peak {max(series)}):\n  {sparkline(series)}")
    blamed = data.get("blamed_families") or []
    if blamed:
        print("blamed for false sharing: " + ", ".join(blamed))


def _cmd_c2c(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.dynamic import blamed_families, c2c_to_dict, render_c2c
    from repro.experiments import lineattr

    if args.load:
        path = Path(args.load)
        if not path.exists() or path.stat().st_size == 0:
            print(
                f"{path}: no saved line profile "
                f"(run `repro c2c --workload <name> --json {path}` first)"
            )
            return 0
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            print(f"error: {path} is not a c2c JSON export: {exc}", file=sys.stderr)
            return 2
        _render_saved_c2c(data)
        return 0
    if not args.workload:
        print("error: c2c requires --workload (or --load FILE)", file=sys.stderr)
        return 2
    if args.quick:
        args.num_cpus, args.scale = 4, 0.05
    job = _spec(args).job()
    result, heats = lineattr.profile_lines(job, args.window)
    profile = result.obs.lines
    label = f"{job.workload}/{job.strategy_label}"
    if not profile.lines:
        print(f"{label}: no line activity recorded (nothing missed or used the bus)")
        return 0
    print(render_c2c(profile, heats, top_lines=args.top, label=label))
    blamed = blamed_families(heats)
    if blamed:
        print("blamed for false sharing: " + ", ".join(blamed))
    problems = result.obs.reconcile(result)
    if problems:
        print(f"reconciliation: {len(problems)} MISMATCHES")
        for problem in problems[:5]:
            print(f"  {problem}")
    else:
        print("reconciliation: per-line sums match every end-of-run aggregate (exact)")
    if args.json:
        out = Path(args.json)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(c2c_to_dict(profile, heats, label=label), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote {out}")
    return 1 if problems else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.perf.diskcache import DEFAULT_MAX_BYTES, ResultDiskCache

    cap = DEFAULT_MAX_BYTES if args.max_bytes is None else args.max_bytes
    cache = ResultDiskCache(args.dir, max_bytes=cap)
    entries = len(cache)
    total = cache.total_bytes()
    print(f"{args.dir}: {entries} entries, {total / 1024**2:.1f} MB")
    if args.prune:
        removed, freed = cache.prune()
        print(
            f"pruned {removed} entries ({freed / 1024**2:.1f} MB) "
            f"against a {cap / 1024**2:.0f} MB cap; "
            f"{len(cache)} entries remain"
        )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit.grid import audit_grid, quick_grid, verification_grid

    points = quick_grid() if args.quick else verification_grid()
    label = "quick" if args.quick else "full"
    print(
        f"auditing {len(points)} configurations ({label} grid, "
        f"{args.num_cpus} CPUs, scale {args.scale}, seed {args.seed})"
    )

    reports = audit_grid(
        points,
        num_cpus=args.num_cpus,
        seed=args.seed,
        scale=args.scale,
        workers=args.workers,
    )
    failed = []
    for point, report in zip(points, reports):
        if not report.passed:
            failed.append((point, report))
            print(f"  FAIL {point.label}: {report.summary()}")
        elif args.verbose:
            print(f"  ok   {point.label}: {report.summary()}")
    total_checks = sum(r.total_checks for r in reports)
    print(
        f"{len(reports) - len(failed)}/{len(reports)} configurations passed "
        f"({total_checks:,} checks)"
    )
    for point, report in failed:
        print(f"\n{point.label}:")
        for violation in report.violations:
            print(f"  {violation}")
        if report.truncated:
            print(f"  ... and {report.truncated} more")
    return 1 if failed else 0


def _telemetry_from_args(args: argparse.Namespace, progress: bool) -> "TelemetryConfig":
    from repro.telemetry.fleet import TelemetryConfig
    from repro.telemetry.ledger import RunLedger

    ledger = None if getattr(args, "no_ledger", False) else RunLedger(args.ledger_dir)
    return TelemetryConfig(
        ledger=ledger,
        progress=progress,
        stall_timeout=args.stall_timeout,
        job_timeout=args.job_timeout,
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.telemetry.fleet import FleetError, export_cache_stats

    workloads = _parse_workloads(args.workloads)
    strategies = _parse_strategies(args.strategies)
    latencies = _parse_latencies(args.latencies)
    runner = ExperimentRunner(
        num_cpus=args.num_cpus,
        seed=args.seed,
        scale=args.scale,
        max_workers=args.workers,
        disk_cache=args.cache or None,
    )
    machine = runner.base_machine()
    jobs = [
        (workload, strategy, machine.with_transfer_cycles(cycles))
        for workload in workloads
        for cycles in latencies
        for strategy in strategies
    ]
    # --json is a machine-consumer contract: exactly one JSON document
    # on stdout, so the progress line (and every banner) is suppressed.
    as_json = args.json
    telemetry = _telemetry_from_args(args, progress=not args.no_progress and not as_json)
    tracer = None
    trace_ids: dict[str, str] = {}
    if args.trace:
        from repro.telemetry.tracing import SpanTracer, new_trace_id

        tracer = SpanTracer()
        telemetry.trace_contexts = {}
        for job in (runner.job(*job) for job in jobs):
            trace_ids[job.label] = new_trace_id()
            telemetry.trace_contexts[job.config_key] = (trace_ids[job.label], None)
        telemetry.span_sink = tracer.record
    if not as_json:
        print(
            f"fleet: {len(jobs)} grid points ({len(workloads)} workloads x "
            f"{len(strategies)} strategies x {len(latencies)} latencies), "
            f"{args.workers or 1} worker(s), {args.num_cpus} CPUs, scale {args.scale}"
        )
    code = 0
    failures = []
    try:
        runner.run_many(jobs, telemetry=telemetry)
    except FleetError as exc:
        failures = exc.failures
        if not as_json:
            print(f"FAILED grid points ({len(exc.failures)}):")
            for failure in exc.failures:
                print(f"  {failure.label}: [{failure.kind}] {failure.message}")
        code = 1
    registry = telemetry.registry
    families = telemetry.metrics()
    stats = runner.disk_cache.stats() if runner.disk_cache is not None else None
    if stats is not None:
        export_cache_stats(registry, stats)
    if as_json:
        doc = {
            "grid": {
                "workloads": workloads,
                "strategies": [s.name for s in strategies],
                "latencies": list(latencies),
                "cpus": args.num_cpus,
                "scale": args.scale,
                "seed": args.seed,
                "points": len(jobs),
            },
            "ok": code == 0,
            "runs_ok": int(families["runs"].value(outcome="ok")),
            "events": int(families["events"].value()),
            "wall_seconds": round(families["wall"].sum(), 3),
            "failures": [
                {"label": f.label, "kind": f.kind, "message": f.message}
                for f in failures
            ],
            "cache": stats,
            "ledger": str(telemetry.ledger.path) if telemetry.ledger else None,
            "metrics": registry.to_json(),
        }
        if tracer is not None:
            doc["trace_ids"] = trace_ids
            doc["spans_recorded"] = tracer.recorded
        print(json_module.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"{families['runs'].value(outcome='ok'):.0f} runs ok, "
            f"{families['events'].value():,.0f} events retired, "
            f"{families['wall'].sum():.2f}s simulating"
        )
        if tracer is not None:
            print(
                f"tracing: {tracer.recorded} spans across "
                f"{len(trace_ids)} run traces (ledger entries carry trace_id)"
            )
        if stats is not None:
            print(
                f"disk cache: {stats['hits']} hits / {stats['misses']} misses this "
                f"session; {stats['entries']} entries on disk"
            )
        if telemetry.ledger is not None:
            print(f"ledger: appended to {telemetry.ledger.path}")
    if args.metrics_out:
        out = Path(args.metrics_out)
        registry.write(
            prom_path=str(out.with_suffix(".prom")),
            json_path=str(out.with_suffix(".json")),
        )
        if not as_json:
            print(f"metrics: wrote {out.with_suffix('.prom')} and {out.with_suffix('.json')}")
    return code


def _cmd_drift(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.telemetry.drift import (
        FULL_FRAME,
        QUICK_FRAME,
        collect_summaries,
        evaluate,
        summaries_from_ledger,
    )
    from repro.telemetry.fleet import FleetError
    from repro.telemetry.ledger import RunLedger

    frame = QUICK_FRAME if args.quick else FULL_FRAME
    if args.from_ledger:
        report = evaluate(
            summaries_from_ledger(RunLedger(args.ledger_dir), frame), frame
        )
    else:
        runner = ExperimentRunner(
            num_cpus=frame.num_cpus,
            seed=frame.seed,
            scale=frame.scale,
            max_workers=args.workers,
            disk_cache=args.cache or None,
        )
        telemetry = _telemetry_from_args(args, progress=not args.no_progress)
        try:
            report = evaluate(
                collect_summaries(runner, frame, telemetry=telemetry), frame
            )
        except FleetError as exc:
            print(f"error: drift grid incomplete -- {exc}", file=sys.stderr)
            return 2
        if args.metrics_out:
            out = Path(args.metrics_out)
            telemetry.registry.write(
                prom_path=str(out.with_suffix(".prom")),
                json_path=str(out.with_suffix(".json")),
            )
    print(report.render())
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(
            json_module.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.json}")
    return 0 if report.passed else 1


def _cmd_ledger(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.telemetry.ledger import RunLedger

    ledger = RunLedger(args.ledger_dir)
    if args.json:
        # Machine contract: one JSON document, always -- a missing or
        # empty ledger is data ({"exists": false} / zero entries), not
        # a prose apology scripts would have to parse.
        doc: dict = {"path": str(ledger.path), "exists": ledger.path.exists()}
        if doc["exists"]:
            doc["summary"] = ledger.summarize()
            entries = ledger.query(
                workload=args.workload,
                strategy=args.strategy,
                outcome=args.outcome,
            )
            shown = entries[-args.tail:] if args.tail else entries
            doc["entries"] = [entry.to_dict() for entry in shown]
        print(json_module.dumps(doc, indent=2, sort_keys=True))
        return 0
    if not ledger.path.exists():
        print(
            f"{ledger.path}: no ledger recorded yet "
            f"(run `repro fleet` or `repro drift` to create one)"
        )
        return 0
    summary = ledger.summarize()
    if not summary["entries"]:
        print(f"{ledger.path}: ledger exists but has no readable entries")
        return 0
    outcomes = ", ".join(f"{k}={v}" for k, v in sorted(summary["outcomes"].items()))
    cache = ", ".join(f"{k}={v}" for k, v in sorted(summary["cache"].items()))
    print(
        f"{ledger.path}: {summary['entries']} entries "
        f"({summary['first']} .. {summary['last']})"
    )
    print(f"outcomes: {outcomes}; cache: {cache}")
    print(
        f"engine versions: {', '.join(summary['engine_versions'])}; "
        f"{summary['simulated_runs']} simulated runs "
        f"({summary['wall_seconds']:.1f}s wall, "
        f"{summary['mean_events_per_sec']:.0f} events/s), "
        f"{summary['cache_hits']} cache hits"
    )
    if summary["simulated_runs"]:
        print(
            f"wall time per simulated run: p50 {summary['wall_p50']:.3f}s, "
            f"p95 {summary['wall_p95']:.3f}s"
        )
    if summary["strategies"]:
        print("per-strategy throughput (simulated runs, cache hits excluded):")
        for name, stats in summary["strategies"].items():
            print(
                f"  {name:<8} {stats['runs']:>4} runs  "
                f"{stats['wall_seconds']:>8.1f}s wall  "
                f"{stats['events_per_sec']:>12,.0f} events/sec"
            )
    entries = ledger.query(
        workload=args.workload,
        strategy=args.strategy,
        outcome=args.outcome,
    )
    shown = entries[-args.tail :] if args.tail else []
    if shown:
        print()
        for entry in shown:
            label = grid_label(
                entry.workload,
                entry.strategy,
                entry.restructured,
                entry.machine.get("transfer_cycles", "?"),
            )
            line = f"{entry.timestamp}  {label}  [{entry.outcome}/{entry.cache}]"
            if entry.outcome == "ok" and entry.wall_seconds:
                line += (
                    f"  {entry.wall_seconds:.2f}s, "
                    f"{entry.events_per_sec:,.0f} events/sec"
                )
            elif entry.error:
                line += f"  {entry.error}"
            print(line)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.api import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache or None,
        ledger_dir=None if args.no_ledger else args.ledger_dir,
        hydrate=not args.no_hydrate,
        max_workers=args.workers,
        job_timeout=args.job_timeout,
        max_batch=args.max_batch,
        trace=args.trace,
        drain_timeout=args.drain_timeout,
        tsdb_dir=args.tsdb or None,
        snapshot_interval=args.snapshot_interval,
        slo_rules=args.slo_rules,
    )
    print(
        f"repro service on http://{config.host}:{config.port} "
        f"(cache: {config.cache_dir or 'off'}, ledger: {config.ledger_dir or 'off'}, "
        f"tsdb: {config.tsdb_dir or 'off'}, "
        f"{config.max_workers or 1} sim worker(s), "
        f"tracing {'on' if config.trace else 'off'}) -- Ctrl-C to stop"
    )
    print(
        "  POST /runs  GET /runs  GET /runs/{id}  GET /runs/{id}/result  "
        "GET /runs/{id}/trace  GET /metrics"
    )
    if config.tsdb_dir is not None:
        print("  GET /metrics/history  GET /slo  GET /dashboard")
    serve(config)
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.telemetry.slo import default_rules, evaluate_slo, load_rules
    from repro.telemetry.timeseries import TimeSeriesStore, seed_bench_history

    store = TimeSeriesStore(args.tsdb)
    history = load_history(args.bench_file)
    rules = load_rules(args.rules) if args.rules else default_rules(history)
    if args.snapshot:
        # A fresh ledger-derived + bench snapshot lets the sentinel run
        # against batch fleets (fleet/drift) that never started a
        # service -- the ledger is the source of truth either way.
        from repro.telemetry.ledger import RunLedger

        seeded = seed_bench_history(store, history)
        store.append_snapshot(ledger=RunLedger(args.ledger_dir), source="slo-check")
        print(
            f"{args.tsdb}: appended 1 ledger snapshot"
            + (f", seeded {seeded} bench snapshot(s)" if seeded else "")
        )
    report = evaluate_slo(store, rules)
    print(report.render())
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = report.to_dict()
        doc["rules"] = [rule.to_dict() for rule in rules]
        path.write_text(
            json_module.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.metrics.charts import sparkline
    from repro.service.dashboard import build_dashboard_doc
    from repro.telemetry.ledger import RunLedger
    from repro.telemetry.slo import default_rules, evaluate_slo, load_rules
    from repro.telemetry.timeseries import TimeSeriesStore

    store = TimeSeriesStore(args.tsdb)
    if store.last_snapshot() is None:
        print(
            f"{args.tsdb}: no snapshots yet -- run `repro serve` or "
            "`repro slo check --snapshot` (which also seeds the bench series "
            f"from {args.bench_file}) first"
        )
        return 0
    rules = (
        load_rules(args.rules) if args.rules else default_rules(load_history(args.bench_file))
    )
    report = evaluate_slo(store, rules)
    doc = build_dashboard_doc(store, slo_report=report.to_dict(), seconds=args.seconds)
    tsdb_info = doc["tsdb"]
    print(
        f"repro dash -- {tsdb_info['root']}: {tsdb_info['snapshots']} snapshots in "
        f"{tsdb_info['segments']} segment(s), trailing {args.seconds:g}s window"
    )
    print()
    for series in doc["series"]:
        spark = sparkline(series["values"], width=args.width)
        print(
            f"{series['title']:<36} {spark}  "
            f"{series['current']:>12,.1f} (min {series['min']:,.1f}, "
            f"max {series['max']:,.1f})"
        )
    if not doc["series"]:
        print("(no key series snapshotted yet)")
    print()
    print(report.render())
    ledger = RunLedger(args.ledger_dir)
    recent = ledger.tail(args.tail)
    if recent:
        print()
        print(f"recent runs ({ledger.path}):")
        for entry in recent:
            line = (
                f"  {entry.timestamp}  {entry.workload}/{entry.strategy}  "
                f"[{entry.outcome}/{entry.cache}]"
            )
            if entry.trace_id:
                line += f"  trace={entry.trace_id}"
            print(line)
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("workloads  :", ", ".join(ALL_WORKLOAD_NAMES))
    print(
        "strategies :",
        ", ".join(s.name for s in ALL_STRATEGIES)
        + f", {PBUF.name}, {ADAPT.name} (extensions)",
    )
    print("experiments:", ", ".join(sorted(_EXPERIMENTS)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Tullsen & Eggers, ISCA 1993.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one configuration")
    _add_spec_args(p, ("workload", "restructured", *_POINT), required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="bus-latency sweep for one workload")
    p.add_argument("--strategies", default="NP,PREF,EXCL,LPD,PWS")
    p.add_argument("--latencies", default="4,8,16,32")
    _add_spec_args(p, ("workload", "restructured", *_FRAME, "protocol"), required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=sorted(_EXPERIMENTS) + ["all"])
    p.add_argument("--chart", action="store_true", help="render as a chart where supported")
    _add_spec_args(p, _FRAME)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("stats", help="static trace statistics")
    _add_spec_args(p, ("workload", "restructured", *_FRAME), required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("analyze", help="sharing attribution + restructuring advice")
    _add_spec_args(p, ("workload", "restructured", *_FRAME), required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "trace",
        help="request-trace waterfall for a service run, or workload trace files",
    )
    p.add_argument(
        "run_id", nargs="?",
        help="service run id: fetch its stitched trace and print a waterfall",
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="service base URL (default http://127.0.0.1:8787)",
    )
    p.add_argument("--load", help="render a previously saved trace JSON instead of fetching")
    p.add_argument("--save", help="also write the fetched trace JSON here (Perfetto-loadable)")
    p.add_argument("--out", help="write the generated workload trace to this .gz file")
    p.add_argument("--info", help="print statistics of an existing workload trace file")
    _add_spec_args(p, ("workload", "restructured", *_FRAME))
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "timeline", help="observed run: telemetry sparklines + Chrome trace export"
    )
    _add_spec_args(p, ("workload", *_POINT), required=True)
    p.add_argument(
        "--quick", action="store_true", help="small 4-CPU, 0.05-scale run (CI smoke)"
    )
    p.add_argument(
        "--window", type=int, default=4096, help="telemetry window in cycles (default 4096)"
    )
    p.add_argument(
        "--events", type=int, default=65536,
        help="timeline ring-buffer capacity in events (default 65536)",
    )
    p.add_argument(
        "--out", help="trace JSON path (default results/timeline_<workload>_<strategy>.json)"
    )
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser(
        "c2c", help="per-cache-line heat report (perf c2c analogue)"
    )
    _add_spec_args(p, ("workload", "restructured", *_POINT), strategy="PWS")
    p.add_argument(
        "--quick", action="store_true", help="small 4-CPU, 0.05-scale run (CI smoke)"
    )
    p.add_argument(
        "--top", type=int, default=15, help="hottest lines to print (default 15)"
    )
    p.add_argument(
        "--window", type=int, default=4096,
        help="invalidation sparkline window in cycles (default 4096)",
    )
    p.add_argument("--json", help="write the report JSON here")
    p.add_argument(
        "--load", help="render a previously saved c2c JSON instead of simulating"
    )
    p.set_defaults(func=_cmd_c2c)

    p = sub.add_parser("cache", help="inspect or prune the on-disk result cache")
    p.add_argument("--dir", default="results/.cache", help="cache directory")
    p.add_argument("--prune", action="store_true", help="evict oldest entries over the cap")
    p.add_argument(
        "--max-bytes", type=int, default=None,
        help="size cap in bytes for --prune (default: the built-in 2 GiB cap)",
    )
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("audit", help="audited sweep of the invariant verification grid")
    p.add_argument("--quick", action="store_true", help="24-point smoke subset (CI)")
    p.add_argument("--workers", type=int, default=0, help="worker processes (default serial)")
    _add_spec_args(p, _FRAME, num_cpus=4, scale=0.2)
    p.add_argument("--verbose", action="store_true", help="print every configuration")
    p.set_defaults(func=_cmd_audit)

    def add_telemetry_args(p: argparse.ArgumentParser) -> None:
        from repro.telemetry.heartbeat import DEFAULT_STALL_TIMEOUT
        from repro.telemetry.ledger import DEFAULT_LEDGER_DIR

        p.add_argument("--workers", type=int, default=0, help="worker processes (default serial)")
        p.add_argument(
            "--ledger-dir", default=DEFAULT_LEDGER_DIR,
            help=f"run-ledger directory (default {DEFAULT_LEDGER_DIR})",
        )
        p.add_argument("--no-ledger", action="store_true", help="record nothing to the ledger")
        p.add_argument("--no-progress", action="store_true", help="disable the live progress line")
        p.add_argument(
            "--stall-timeout", type=float, default=DEFAULT_STALL_TIMEOUT,
            help=f"heartbeat silence before a worker is flagged stalled (default {DEFAULT_STALL_TIMEOUT:g}s)",
        )
        p.add_argument(
            "--job-timeout", type=float, default=None,
            help="per-job result deadline in seconds; the worker is killed on expiry "
            "(parallel backend only)",
        )
        p.add_argument(
            "--metrics-out",
            help="metrics export basename (writes <name>.prom and <name>.json)",
        )
        p.add_argument(
            "--cache", default="results/.cache",
            help="result disk cache directory ('' disables; default results/.cache)",
        )

    p = sub.add_parser(
        "fleet", help="run a strategy/latency grid with live fleet telemetry"
    )
    p.add_argument("--workloads", default="Water", help="comma-separated workload names")
    p.add_argument("--strategies", default="NP,PREF,EXCL,LPD,PWS")
    p.add_argument("--latencies", default="4,8,16,32")
    _add_spec_args(p, _FRAME)
    p.add_argument(
        "--json", action="store_true",
        help="emit one JSON document (grid, outcomes, cache, metrics) instead of text",
    )
    p.add_argument(
        "--trace", action="store_true",
        help="record per-run spans; stamps trace_id into ledger entries and --json",
    )
    add_telemetry_args(p)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "drift", help="check paper claims against tolerance bands (nonzero on drift)"
    )
    p.add_argument(
        "--quick", action="store_true",
        help="CI frame: 12 CPUs, scale 0.25, latency extremes only",
    )
    p.add_argument(
        "--from-ledger", action="store_true",
        help="replay grid summaries from the run ledger instead of simulating",
    )
    p.add_argument("--json", help="write the drift report as JSON here")
    add_telemetry_args(p)
    p.set_defaults(func=_cmd_drift)

    p = sub.add_parser("ledger", help="query and summarize the run ledger")
    from repro.telemetry.ledger import DEFAULT_LEDGER_DIR

    p.add_argument(
        "--ledger-dir", default=DEFAULT_LEDGER_DIR,
        help=f"run-ledger directory (default {DEFAULT_LEDGER_DIR})",
    )
    p.add_argument("--tail", type=int, default=10, help="recent entries to print (default 10)")
    p.add_argument("--workload", type=_workload, help="filter by workload (case-insensitive)")
    p.add_argument("--strategy", help="filter by strategy name")
    p.add_argument(
        "--outcome", choices=("ok", "error", "timeout"), help="filter by outcome"
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit one JSON document (path, summary, filtered entries) instead of text",
    )
    p.set_defaults(func=_cmd_ledger)

    p = sub.add_parser(
        "serve", help="HTTP simulation service (submit/poll/fetch runs, /metrics)"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8787, help="bind port (default 8787; 0 picks one)")
    p.add_argument("--workers", type=int, default=0, help="simulation workers per batch (default serial)")
    p.add_argument(
        "--cache", default="results/service/cache",
        help="result disk cache directory ('' disables; default results/service/cache)",
    )
    p.add_argument(
        "--ledger-dir", default="results/service/ledger",
        help="run-ledger directory (default results/service/ledger)",
    )
    p.add_argument("--no-ledger", action="store_true", help="record nothing to the ledger")
    p.add_argument(
        "--no-hydrate", action="store_true",
        help="start with an empty run store instead of replaying ledger history",
    )
    p.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-run result deadline in seconds (parallel backend only)",
    )
    p.add_argument(
        "--max-batch", type=int, default=32,
        help="most queued runs folded into one simulation batch (default 32)",
    )
    p.add_argument(
        "--trace", action="store_true",
        help="record request/stage spans; enables GET /runs/{id}/trace",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to wait for in-flight runs on shutdown (default 30)",
    )
    p.add_argument(
        "--tsdb", default=DEFAULT_TSDB_DIR,
        help="time-series snapshot directory ('' disables snapshots, SLO "
        f"evaluation and /dashboard; default {DEFAULT_TSDB_DIR})",
    )
    p.add_argument(
        "--snapshot-interval", type=float, default=15.0,
        help="seconds between registry snapshots / SLO evaluations (default 15)",
    )
    p.add_argument(
        "--slo-rules",
        help="SLO rules file (.toml [[slo]] tables or JSON; default: built-in rules)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "slo", help="evaluate SLO rules over the time-series store (CI sentinel)"
    )
    p.add_argument(
        "action", choices=("check",),
        help="'check': one-shot evaluation; exits nonzero on any breach",
    )
    p.add_argument(
        "--tsdb", default=DEFAULT_TSDB_DIR,
        help=f"time-series store directory (default {DEFAULT_TSDB_DIR})",
    )
    p.add_argument(
        "--rules",
        help="SLO rules file (.toml [[slo]] tables or JSON; default: built-in rules)",
    )
    p.add_argument(
        "--snapshot", action="store_true",
        help="append a fresh ledger-derived + bench snapshot before evaluating "
        "(lets the sentinel gate batch fleets with no service running)",
    )
    p.add_argument(
        "--ledger-dir", default="results/service/ledger",
        help="run-ledger directory for --snapshot (default results/service/ledger)",
    )
    p.add_argument(
        "--bench-file", default=DEFAULT_HISTORY,
        help="benchmark history feeding default rules and --snapshot seeding "
        f"(default {DEFAULT_HISTORY})",
    )
    p.add_argument("--json", help="write the evaluation report JSON here")
    p.set_defaults(func=_cmd_slo)

    p = sub.add_parser(
        "dash", help="terminal dashboard: key series sparklines + SLO + recent runs"
    )
    p.add_argument(
        "--tsdb", default=DEFAULT_TSDB_DIR,
        help=f"time-series store directory (default {DEFAULT_TSDB_DIR})",
    )
    p.add_argument(
        "--seconds", type=float, default=3600.0,
        help="trailing window to chart (default 3600)",
    )
    p.add_argument(
        "--rules",
        help="SLO rules file (.toml [[slo]] tables or JSON; default: built-in rules)",
    )
    p.add_argument(
        "--bench-file", default=DEFAULT_HISTORY,
        help=f"benchmark history feeding default rules (default {DEFAULT_HISTORY})",
    )
    p.add_argument(
        "--ledger-dir", default="results/service/ledger",
        help="run ledger for the recent-runs list (default results/service/ledger)",
    )
    p.add_argument("--width", type=int, default=48, help="sparkline width (default 48)")
    p.add_argument("--tail", type=int, default=8, help="recent runs to list (default 8)")
    p.set_defaults(func=_cmd_dash)

    p = sub.add_parser("list", help="available workloads/strategies/experiments")
    p.set_defaults(func=_cmd_list)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors (2) and --help (0)
        return exc.code
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
