"""``python -m bench``: run one workload, or every workload in fresh processes.

Usage::

    python -m bench --workload grid-cold --seed 42 --seconds 15 --trace 0
    python -m bench --workload diagnose --trace 1      # per-layer metrics
    python -m bench                                    # all workloads

One workload prints its provenance, checks and metrics, then as the last
line one JSON object: ``{"correct", "attempted", "failed", "metrics"}``
with every ``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``)
or every ``per_layer`` metric (``--trace 1``).  ``--trace 1`` is a
separate run: after one set-up it measures the workload untraced, then
again with the layer wrappers installed, the two phases sharing
``--seconds``, and writes a Chrome trace plus a per-layer self-time
JSON to ``--trace-dir``.  The exit code is 1 when any operation or
check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from bench import OUT, ROOT, use_checkout_sources


def _workloads() -> dict[str, Callable[..., Any]]:
    from bench.diagnose import diagnose
    from bench.grid import grid_cold, grid_warm
    from bench.serve import serve

    return {"grid-cold": grid_cold, "grid-warm": grid_warm, "diagnose": diagnose, "serve": serve}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    frame: Any = None,
    expected_digest: str | None = None,
    trace_dir: Path = OUT,
) -> Any:
    """Run one workload and return its :class:`bench.harness.Run`.

    ``frame`` overrides the workload's default grid (the self-tests pass
    tiny ones).  ``expected_digest`` is the result digest to enforce;
    by default, the one pinned in ``bench/digests.json`` when the seed
    is 42 and the frame is the default, and none otherwise.
    """
    from bench.harness import PAPER_SEED, Run, end_to_end, provenance, recorded_digest
    from bench.layers import LayerTracer

    workload = _workloads()[name]
    if expected_digest is None and frame is None and seed == PAPER_SEED:
        expected_digest = recorded_digest(name)
    kwargs: dict[str, Any] = {"expected_digest": expected_digest}
    if frame is not None:
        kwargs["frame"] = frame
    run = Run(workload=name, seed=seed, provenance=provenance(name, seed))

    tracer = LayerTracer(enabled=trace)
    phase = workload(run, seconds, tracer, **kwargs)
    if not trace:
        run.metrics = end_to_end(phase, run)
    else:
        run.metrics = _per_layer(run, tracer, phase, Path(trace_dir))
    run.details["exec_cycles"] = phase.exec_cycles
    run.details["samples"] = len(phase.latencies_ms)
    run.details["raw_wall_s"] = phase.raw_wall_s
    run.details["host_slowdown"] = phase.raw_wall_s / phase.wall_s
    run.provenance["load_1m_after"] = os.getloadavg()[0]
    return run


def _per_layer(run: Any, tracer: Any, phase: Any, trace_dir: Path) -> dict:
    """The traced run's per-layer metrics, its checks and its trace files."""
    from bench.harness import declared
    from bench.layers import chrome_trace, write_json

    base = phase.base
    metrics = dict.fromkeys(declared("per_layer"), 0.0)
    metrics.update(tracer.metrics())
    metrics.update(phase.layers)
    metrics["sim.exec_cycles"] = phase.exec_cycles
    metrics["sim.bus_utilization_mean"] = phase.bus_utilization_mean
    metrics["bench.trace_overhead_ratio"] = (phase.wall_s / phase.results) / (
        base.wall_s / base.results
    )
    run.check(
        "traced and untraced runs simulate the same cycles",
        phase.exec_cycles == base.exec_cycles,
        f"{phase.exec_cycles} vs {base.exec_cycles}",
    )
    layers = tracer.layers()
    self_sum = sum(layer["self_s"] for layer in layers.values())
    traced_wall = tracer.totals["bench.measure"][1]
    if run.workload != "serve":  # serve's client spans overlap across two threads
        # One root span times the phase, so the self times of every
        # span under it must add up to it: none lost, none doubled.
        run.check(
            "layer self times sum to the traced wall",
            abs(self_sum - traced_wall) <= 0.05 * traced_wall,
            f"{self_sum:.3f}s of {traced_wall:.3f}s",
        )
    stem = f"{run.workload}-seed{run.seed}"
    groups = [("bench " + run.workload, tracer.spans.spans())] + phase.trace_groups
    other = {"workload": run.workload, "seed": run.seed, "spans_dropped": tracer.spans.dropped}
    trace_path = write_json(trace_dir / f"{stem}.trace.json", chrome_trace(groups, other))
    layers_path = write_json(
        trace_dir / f"{stem}.layers.json",
        {
            "workload": run.workload,
            "seed": run.seed,
            "traced_wall_s": traced_wall,
            "self_sum_s": self_sum,
            "traced_normalized_s": phase.wall_s,
            "untraced_normalized_s": base.wall_s,
            "layers": layers,
            "counters": dict(tracer.counters),
            "metrics": metrics,
        },
    )
    run.details["trace_files"] = [str(trace_path), str(layers_path)]
    return metrics


def _print_run(run: Any, kind: str) -> None:
    from bench.harness import declared

    print("provenance: " + json.dumps(run.provenance, sort_keys=True))
    for check in run.checks:
        if not check["ok"]:
            print(f"  FAILED check: {check['name']} {check['detail']}")
    print(
        f"{run.workload} seed {run.seed}: {run.attempted - run.failed}/{run.attempted} "
        f"operations ok ({len(run.checks)} checks, error ratio {run.error_ratio:.4f})"
    )
    for name, unit in declared(kind).items():
        print(f"  {name:<34} {run.metrics[name]:>16.6g} {unit}")


def _single(args: argparse.Namespace) -> int:
    run = run_workload(
        args.workload, args.seed, args.seconds, args.trace, trace_dir=args.trace_dir
    )
    kind = "per_layer" if args.trace else "end_to_end"
    if args.out:
        Path(args.out).write_text(json.dumps(run.to_dict(), indent=1, sort_keys=True) + "\n")
    _print_run(run, kind)
    print(json.dumps(run.result_line(kind)), flush=True)
    return run.exit_code


def _all(args: argparse.Namespace) -> int:
    """Every declared workload, each in a fresh interpreter."""
    from bench.harness import declared_workloads

    lines: dict[str, Any] = {}
    code = 0
    for name in declared_workloads():
        cmd = [
            sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0",
            "--trace-dir", str(args.trace_dir),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        try:
            lines[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            lines[name] = None  # crashed before its result line
        print(f"[{name}: exit {proc.returncode} in {time.perf_counter() - t0:.1f}s]\n")
        code = code or (1 if proc.returncode else 0)
    if args.out:
        Path(args.out).write_text(json.dumps(lines, indent=1, sort_keys=True) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    parser.add_argument(
        "--seconds", type=float, default=15.0, help="measured phase length (default 15)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--trace-dir", type=Path, default=OUT, help="where --trace 1 writes")
    parser.add_argument("--out", help="also write the full report JSON here")
    args = parser.parse_args(argv)
    use_checkout_sources()
    if args.workload is None:
        return _all(args)
    if args.workload not in _workloads():
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(_workloads())}")
    return _single(args)


if __name__ == "__main__":
    sys.exit(main())
