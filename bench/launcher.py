"""Server-side launcher for the serve workload.

``python -m bench.launcher STATE_FILE TRACE SERVE_ARGS...`` runs
``repro serve SERVE_ARGS...`` in this process through
``repro.cli.main``.  With ``TRACE`` = ``1`` it first installs the
benchmark's layer wrappers (:mod:`bench.layers`) here, so the server's
generation, insertion, simulation, disk-cache, metrics and telemetry
calls are spanned exactly as in the in-process workloads, and it keeps
the service object to export the service's own request spans.

Every ``ExperimentRunner.run_many`` batch the server executes is timed
and followed by reference units on the same thread (see
:mod:`bench.clock`).  Each batch is recorded as ``[start, end, speed
factor, end of its reference units]`` on the system-wide monotonic
clock, which the client reads too, so the client can rescale exactly
the server's batch time inside each of its intervals.

When the server exits (SIGINT drains it gracefully) the launcher writes
``STATE_FILE``: the exit code, this process's peak RSS, the batches,
the reference units timed just before the service started and, traced,
the layer totals and both span sets.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any

from bench import use_checkout_sources


def main(argv: list[str]) -> int:
    state_path, traced, serve_args = argv[0], argv[1] == "1", argv[2:]
    use_checkout_sources()
    from repro import cli
    from repro.experiments.runner import ExperimentRunner
    from repro.service.api import ReproService

    from bench.clock import Clock, sample_units
    from bench.harness import PROBE_UNITS, peak_rss_mb
    from bench.layers import LayerTracer

    tracer = LayerTracer(enabled=traced)
    clock = Clock(tracer)
    # Units before the service starts normalize its start-up time.
    startup_units = sample_units(PROBE_UNITS)
    services: list[Any] = []
    batches: list[tuple[float, float, float, float]] = []
    with tracer.installed():
        if traced:
            tracer.wrap(
                ReproService, "start", "service.start",
                after=lambda _t, _span, args, _result: services.append(args[0]),
            )
        run_many = ExperimentRunner.run_many

        def timed_run_many(self: Any, *args: Any, **kwargs: Any) -> Any:
            start = time.monotonic()
            try:
                return run_many(self, *args, **kwargs)
            finally:
                end = time.monotonic()
                factor = clock.measured(end - start) / (end - start)
                batches.append((start, end, factor, time.monotonic()))

        ExperimentRunner.run_many = timed_run_many  # type: ignore[method-assign]
        try:
            code = cli.main(["serve", *serve_args])
        finally:
            ExperimentRunner.run_many = run_many  # type: ignore[method-assign]
    state: dict[str, Any] = {
        "exit_code": code,
        "peak_rss_mb": peak_rss_mb(),
        "batches": batches,
        "startup_units": startup_units,
    }
    if traced:
        state["layers"] = tracer.state()
        if services:
            service_tracer = services[0].tracer
            runs = {}
            spans = []
            for span in service_tracer.spans():
                # One Chrome-trace row per run: a run's stages nest, runs overlap.
                span.attributes["tid"] = runs.setdefault(span.trace_id, len(runs))
                spans.append(span.to_dict())
            state["service_spans"] = spans
            state["spans_recorded"] = service_tracer.recorded
    with open(state_path, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
