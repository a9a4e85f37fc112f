"""The benchmark's own tests: every workload on a tiny frame, plus negative controls.

The frames here are passed as function arguments, never CLI flags, so
the command the benchmark declares cannot be pointed at a toy grid.
The result gates have must-fail controls: a perturbed result injected
through a wrapper, a wrong digest, an unparseable export or a broken
reconciliation must each count as a failed operation and turn the exit
code to 1.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from bench import ROOT
from bench.__main__ import run_workload
from bench.diagnose import DiagnoseFrame
from bench.grid import GridFrame
from bench.harness import declared
from bench.serve import ServeFrame

GRID = GridFrame(
    num_cpus=4,
    scale=0.02,
    workloads=("LocusRoute", "Topopt"),
    strategies=("NP", "PWS"),
    latencies=(4, 32),
)
FRAMES = {
    "grid-cold": GRID,
    "grid-warm": GRID,
    "diagnose": DiagnoseFrame(num_cpus=4, scale=0.02, workloads=("LocusRoute",)),
    "serve": ServeFrame(
        num_cpus=4,
        scale=0.02,
        workloads=("LocusRoute", "Topopt"),
        strategies=("NP", "ADAPT"),
        latencies=(4, 32),
        resubmits=2,
        checked_results=2,
    ),
}


def tiny(name, tmp_path, trace=False, seed=7, **kwargs):
    return run_workload(
        name, seed, 0.2, trace, frame=FRAMES[name], trace_dir=tmp_path, **kwargs
    )


def assert_failed(run):
    assert run.failed > 0
    assert run.error_ratio > 0
    assert run.exit_code == 1
    assert run.result_line("end_to_end")["correct"] is False


@pytest.mark.parametrize("name", list(FRAMES))
def test_untraced_run_reports_exactly_the_declared_end_to_end_metrics(name, tmp_path):
    run = tiny(name, tmp_path)
    assert run.exit_code == 0, [c for c in run.checks if not c["ok"]]
    assert set(run.metrics) == set(declared("end_to_end"))
    assert all(value > 0 for value in run.metrics.values())
    line = run.result_line("end_to_end")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0


@pytest.mark.parametrize("name", list(FRAMES))
def test_traced_run_reports_exactly_the_declared_per_layer_metrics(name, tmp_path):
    run = tiny(name, tmp_path, trace=True)
    assert run.exit_code == 0, [c for c in run.checks if not c["ok"]]
    assert set(run.metrics) == set(declared("per_layer"))
    trace_file, layers_file = map(Path, run.details["trace_files"])
    doc = json.loads(trace_file.read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert spans and all({"name", "ts", "dur", "pid", "tid"} <= e.keys() for e in spans)
    layers = json.loads(layers_file.read_text())
    assert layers["layers"] and run.metrics["bench.trace_overhead_ratio"] > 0
    assert run.metrics["sim.exec_cycles"] == run.details["exec_cycles"] > 0


def test_traced_grid_cold_self_times_partition_the_wall(tmp_path):
    run = tiny("grid-cold", tmp_path, trace=True)
    layers = json.loads(open(run.details["trace_files"][1]).read())
    assert layers["self_sum_s"] == pytest.approx(layers["traced_wall_s"], rel=0.05)
    assert run.metrics["prefetch.insert_calls"] == 8
    assert run.metrics["diskcache.store_calls"] == 8


def test_serve_passes_cover_the_grid_without_repeating_a_spec():
    from bench.serve import FRAME

    def distinct(index):
        specs = {tuple(sorted(s.items())) for s in FRAME.requests(11, index)}
        assert len(FRAME.requests(11, index)) == len(specs) + FRAME.resubmits
        return specs

    passes = [distinct(i) for i in range(len(FRAME.strategies) + 1)]
    grid = set().union(*passes[:-1])
    assert len(grid) == len(FRAME.workloads) * len(FRAME.strategies) * len(FRAME.latencies)
    assert not grid & passes[-1]
    for specs in passes:
        for workload in FRAME.workloads:
            mine = [dict(s) for s in specs if dict(s)["workload"] == workload]
            assert {s["strategy"] for s in mine} == set(FRAME.strategies)
            assert {s["transfer_cycles"] for s in mine} == set(FRAME.latencies)


def test_diagnose_trace_reports_flag_overheads(tmp_path):
    run = tiny("diagnose", tmp_path, trace=True)
    for name in ("obs", "lineprof", "audit", "telemetry"):
        assert run.metrics[f"{name}.overhead_ratio"] > 0


def test_normalization_keeps_a_heap_growing_regression(tmp_path, monkeypatch):
    """A slower, heap-growing ``from_dict`` slows normalized throughput as much as raw.

    The reference unit shares the program's heap; if the collections the
    regression makes due landed in the unit, normalization would divide
    the regression away.  Unperturbed and perturbed runs alternate, and
    each ratio compares neighbours, so the host's drift between runs
    cancels in the medians.
    """
    from repro.metrics.results import RunMetrics

    original = RunMetrics.__dict__["from_dict"].__func__
    kept = []

    def heavy(cls, data):
        kept.append([[] for _ in range(1000)])
        return original(cls, data)

    def throughput(perturbed):
        if perturbed:
            monkeypatch.setattr(RunMetrics, "from_dict", classmethod(heavy))
        run = run_workload("grid-warm", 7, 0.5, False, frame=GRID, trace_dir=tmp_path)
        monkeypatch.undo()
        kept.clear()
        assert run.exit_code == 0
        normalized = run.metrics["points_per_s"]
        return normalized, normalized * run.details["host_slowdown"]

    raw_slowdowns, agreement = [], []
    for _ in range(5):
        (base_norm, base_raw), (slow_norm, slow_raw) = throughput(False), throughput(True)
        raw_slowdowns.append(base_raw / slow_raw)
        agreement.append((base_norm / slow_norm) / (base_raw / slow_raw))
    assert statistics.median(raw_slowdowns) > 2
    assert 0.75 < statistics.median(agreement) < 1.33


# ---------------------------------------------------------- negative controls


def test_wrong_digest_fails_grid_cold(tmp_path):
    assert_failed(tiny("grid-cold", tmp_path, expected_digest="0" * 64))


def test_wrong_digest_fails_diagnose(tmp_path):
    assert_failed(tiny("diagnose", tmp_path, expected_digest="0" * 64))


def test_fast_path_perturbed_by_a_wrapper_fails_grid_cold(tmp_path, monkeypatch):
    from repro.experiments import runner

    original = runner.simulate

    def perturbed(*args, **kwargs):
        result = original(*args, **kwargs)
        if not kwargs["sim_config"].observe:
            result.exec_cycles += 1
        return result

    monkeypatch.setattr(runner, "simulate", perturbed)
    run = tiny("grid-cold", tmp_path)
    assert_failed(run)
    assert any(c["name"].startswith("observed path") and not c["ok"] for c in run.checks)


def test_cache_read_perturbed_by_a_wrapper_fails_grid_warm(tmp_path, monkeypatch):
    from repro.perf.diskcache import ResultDiskCache

    original = ResultDiskCache.load

    def perturbed(self, key):
        data = original(self, key)
        if data is not None:
            data["exec_cycles"] += 1
        return data

    monkeypatch.setattr(ResultDiskCache, "load", perturbed)
    run = tiny("grid-warm", tmp_path)
    assert_failed(run)
    assert not any(c["ok"] for c in run.checks if c["name"].endswith("pass digest"))


def test_unparseable_trace_export_fails_diagnose(tmp_path, monkeypatch):
    from repro.obs import export

    def garbage(report, path, label="repro"):
        path.write_text("{not json")
        return path

    monkeypatch.setattr(export, "write_chrome_trace", garbage)
    assert_failed(tiny("diagnose", tmp_path))


def test_broken_reconcile_fails_diagnose(tmp_path, monkeypatch):
    from repro.obs.sampler import ObsReport

    monkeypatch.setattr(ObsReport, "reconcile", lambda self, metrics: ["broken identity"])
    assert_failed(tiny("diagnose", tmp_path))


def test_served_result_differing_from_in_process_run_fails_serve(tmp_path, monkeypatch):
    from repro.experiments import runner

    original = runner.simulate

    def perturbed(*args, **kwargs):
        result = original(*args, **kwargs)
        result.exec_cycles += 1
        return result

    monkeypatch.setattr(runner, "simulate", perturbed)
    run = tiny("serve", tmp_path)
    assert_failed(run)
    assert any("in-process" in c["name"] and not c["ok"] for c in run.checks)


def test_benchmark_without_the_program_exits_nonzero_without_a_result(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".tmp", ".out")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "grid-cold", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
