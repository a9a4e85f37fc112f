"""Unit tests for metrics containers, comparisons and formatting."""

import pytest

from repro.bus.bus import BusStats
from repro.common.errors import ReproError
from repro.metrics.compare import compare_runs, speedup_table
from repro.metrics.formatting import format_run_summary, format_table
from repro.metrics.results import CpuMetrics, MissCounts, RunMetrics


def make_run(workload="W", strategy="NP", exec_cycles=1000, refs=100, **miss_kwargs):
    misses = MissCounts(**miss_kwargs)
    cpu = CpuMetrics(cpu=0, demand_refs=refs, misses=misses, busy_cycles=400,
                     finish_time=exec_cycles)
    return RunMetrics(
        workload=workload,
        strategy=strategy,
        machine={},
        exec_cycles=exec_cycles,
        per_cpu=[cpu],
        bus=BusStats(busy_cycles=80),
    )


class TestMissCounts:
    def test_aggregates(self):
        mc = MissCounts(
            nonsharing_unprefetched=1,
            nonsharing_prefetched=2,
            inval_true_unprefetched=3,
            inval_true_prefetched=4,
            inval_false_unprefetched=5,
            inval_false_prefetched=6,
            prefetch_in_progress=7,
        )
        assert mc.nonsharing == 3
        assert mc.invalidation == 18
        assert mc.false_sharing == 11
        assert mc.cpu_misses == 28
        assert mc.adjusted_cpu_misses == 21
        assert mc.prefetched == 19

    def test_add(self):
        a = MissCounts(nonsharing_unprefetched=1, prefetch_in_progress=2)
        b = MissCounts(nonsharing_unprefetched=3, inval_true_prefetched=1)
        a.add(b)
        assert a.nonsharing_unprefetched == 4
        assert a.prefetch_in_progress == 2
        assert a.inval_true_prefetched == 1


class TestRunMetrics:
    def test_rates(self):
        run = make_run(refs=100, nonsharing_unprefetched=5, inval_false_unprefetched=5,
                       prefetch_in_progress=2)
        assert run.cpu_miss_rate == pytest.approx(0.12)
        assert run.adjusted_cpu_miss_rate == pytest.approx(0.10)
        assert run.invalidation_miss_rate == pytest.approx(0.05)
        assert run.false_sharing_miss_rate == pytest.approx(0.05)

    def test_total_miss_rate_adds_prefetch_fills(self):
        run = make_run(refs=100, nonsharing_unprefetched=5)
        run.per_cpu[0].prefetch_fills = 10
        assert run.total_miss_rate == pytest.approx(0.15)

    def test_bus_and_processor_utilization(self):
        run = make_run(exec_cycles=1000)
        assert run.bus_utilization == pytest.approx(0.08)
        assert run.processor_utilization == pytest.approx(0.4)

    def test_empty_run_rates_are_zero(self):
        run = make_run(refs=0, exec_cycles=0)
        run.per_cpu[0].demand_refs = 0
        assert run.cpu_miss_rate == 0.0
        assert run.processor_utilization == 0.0

    def test_describe_round_trips_to_json(self):
        import json

        run = make_run(nonsharing_prefetched=1)
        blob = json.dumps(run.describe())
        assert "nonsharing_prefetched" in blob


class TestCompare:
    def test_comparison_math(self):
        base = make_run(exec_cycles=1000, nonsharing_unprefetched=10)
        fast = make_run(strategy="PREF", exec_cycles=800, nonsharing_unprefetched=5)
        cmp = compare_runs(base, fast)
        assert cmp.relative_exec_time == pytest.approx(0.8)
        assert cmp.speedup == pytest.approx(1.25)
        assert cmp.cpu_miss_reduction == pytest.approx(0.5)

    def test_mismatched_workloads_rejected(self):
        with pytest.raises(ReproError):
            compare_runs(make_run(workload="A"), make_run(workload="B"))

    def test_speedup_table_requires_baseline(self):
        runs = {"PREF": make_run(strategy="PREF")}
        with pytest.raises(ReproError):
            speedup_table(runs)

    def test_speedup_table(self):
        runs = {
            "NP": make_run(exec_cycles=1000),
            "PREF": make_run(strategy="PREF", exec_cycles=500),
        }
        out = speedup_table(runs)
        assert set(out) == {"PREF"}
        assert out["PREF"].speedup == pytest.approx(2.0)


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["A", "Longer"], [[1, 2.5], ["xx", 3.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equally wide
        assert "2.500" in text

    def test_run_summary_mentions_key_metrics(self):
        text = format_run_summary(make_run(nonsharing_unprefetched=3))
        assert "CPU miss rate" in text
        assert "bus utilization" in text
