"""Tests for the experiment harness (small scale for speed).

These exercise the runner's caching and each table/figure module's run
and render paths on a miniature frame (fewer CPUs, short traces, two
bus latencies), asserting structural properties rather than calibrated
values -- the calibrated shapes are covered by the benchmark harness.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.common.config import MachineConfig
from repro.experiments import figure1, figure2, figure3, headline, table1, table2, table3, table4, table5, utilization
from repro.experiments import runner as runner_module
from repro.experiments.runner import ExperimentRunner, run_strategy
from repro.prefetch import insertion
from repro.prefetch.strategies import NP, PREF, PWS

SMALL = dict(num_cpus=4, scale=0.12)
LATS = (4, 16)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(**SMALL)


@pytest.fixture(scope="module")
def small_machine():
    return MachineConfig(num_cpus=SMALL["num_cpus"])


class TestRunner:
    def test_run_is_memoised(self, runner, small_machine):
        first = runner.run("Water", NP, small_machine)
        count = len(runner._results)
        second = runner.run("Water", NP, small_machine)
        assert second is first
        assert len(runner._results) == count

    def test_compare_bundles_baseline(self, runner, small_machine):
        result = runner.compare("Water", PREF, small_machine)
        assert result.baseline.strategy == "NP"
        assert result.comparison.strategy == "PREF"
        assert result.comparison.relative_exec_time == pytest.approx(
            result.run.exec_cycles / result.baseline.exec_cycles
        )

    def test_distinct_machines_distinct_results(self, runner, small_machine):
        a = runner.run("Water", NP, small_machine.with_transfer_cycles(4))
        b = runner.run("Water", NP, small_machine.with_transfer_cycles(16))
        assert a is not b
        assert a.exec_cycles != b.exec_cycles

    def test_trace_metadata_available(self, runner):
        meta = runner.trace_metadata("Water")
        assert meta["workload"] == "Water"

    def test_sweep_shape(self, runner, small_machine):
        out = runner.sweep("Water", (NP, PREF), small_machine, transfer_latencies=LATS)
        assert set(out) == set(LATS)
        assert set(out[4]) == {"NP", "PREF"}

    def test_run_strategy_convenience(self):
        result = run_strategy("Water", PREF)
        assert result.comparison.workload == "Water"


class TestAnnotationMemo:
    """Insertion work runs once per clean trace, strategy and cache geometry."""

    GRID = [(s, cycles) for cycles in LATS for s in (NP, PREF, PWS)]

    @pytest.fixture
    def calls(self, monkeypatch):
        """``(requested, annotated)``: runner requests and insertion work done."""
        requested, annotated = [], []
        real_insert, real_annotate = runner_module.insert_prefetches, insertion._annotate

        def insert(trace, strategy, cache):
            requested.append(strategy.name)
            return real_insert(trace, strategy, cache)

        def annotate(trace, strategy, cache):
            annotated.append((strategy.name, cache))
            return real_annotate(trace, strategy, cache)

        monkeypatch.setattr(runner_module, "insert_prefetches", insert)
        monkeypatch.setattr(insertion, "_annotate", annotate)
        insertion.forget_annotations()
        return requested, annotated

    def test_buses_share_one_insertion_per_strategy(self, calls, small_machine):
        requested, annotated = calls
        runner = ExperimentRunner(**SMALL)
        runner.run_many(
            [("Water", s, small_machine.with_transfer_cycles(c)) for s, c in self.GRID]
        )
        assert len(requested) == len(self.GRID)  # the runner still asks per point
        assert sorted(name for name, _ in annotated) == ["NP", "PREF", "PWS"]

    def test_other_block_size_reinserts(self, calls, small_machine):
        _, annotated = calls
        runner = ExperimentRunner(**SMALL)
        runner.run("Water", PREF, small_machine)
        wide = replace(small_machine, cache=replace(small_machine.cache, block_size=64))
        runner.run("Water", PREF, wide)
        runner.run("Water", PREF, wide.with_transfer_cycles(32))
        assert [cache.block_size for _, cache in annotated] == [small_machine.cache.block_size, 64]

    def test_annotations_die_with_the_clean_trace(self, small_machine):
        runner = ExperimentRunner(**SMALL)
        runner.run("Water", PREF, small_machine)
        trace = weakref.ref(runner.clean_trace("Water"))
        assert insertion._memo is not None
        del runner
        gc.collect()
        assert trace() is None
        assert insertion._memo is None

    def test_generating_a_trace_drops_the_memo(self, small_machine):
        runner = ExperimentRunner(**SMALL)
        runner.run("Water", PREF, small_machine)
        assert insertion._memo is not None
        runner.clean_trace("Mp3d")
        assert insertion._memo is None

    def test_results_equal_memo_less_fresh_runners(self, small_machine):
        runner = ExperimentRunner(**SMALL)
        jobs = [("Water", s, small_machine.with_transfer_cycles(c)) for s, c in self.GRID]
        shared = runner.run_many(jobs)
        for job, result in zip(jobs, shared):
            insertion.forget_annotations()
            fresh = ExperimentRunner(**SMALL).run(*job)
            assert fresh.to_dict() == result.to_dict()


class TestExperimentModules:
    def test_table1(self, runner):
        result = table1.run(runner)
        names = [row["program"] for row in result.rows]
        assert names == ["Topopt", "Mp3d", "LocusRoute", "Pverify", "Water"]
        text = table1.render(result)
        assert "Table 1" in text and "Water" in text

    def test_figure1(self, runner):
        result = figure1.run(runner, transfer_cycles=8)
        for workload, by_strategy in result.rates.items():
            assert set(by_strategy) == {"NP", "PREF", "EXCL", "LPD", "PWS"}
            np_rates = by_strategy["NP"]
            # NP has no prefetches: the three rates coincide.
            assert np_rates["total"] == pytest.approx(np_rates["cpu"])
            assert np_rates["cpu"] == pytest.approx(np_rates["adjusted"])
            # Adjusted <= CPU by construction for every strategy.
            for rates in by_strategy.values():
                assert rates["adjusted"] <= rates["cpu"] + 1e-12
        assert "Figure 1" in figure1.render(result)

    def test_figure2_relative_times(self, runner):
        result = figure2.run(runner, transfer_latencies=LATS)
        for by_strategy in result.relative.values():
            for by_cycles in by_strategy.values():
                assert set(by_cycles) == set(LATS)
                for rel in by_cycles.values():
                    assert 0.2 < rel < 1.5
        best = result.best_speedup()
        assert best[3] >= 1.0
        assert "Figure 2" in figure2.render(result)

    def test_figure3_components_sum_to_cpu_misses(self, runner):
        result = figure3.run(runner, transfer_cycles=8, workloads=("Mp3d",))
        machine = MachineConfig(num_cpus=SMALL["num_cpus"]).with_transfer_cycles(8)
        for strategy, comps in result.components["Mp3d"].items():
            from repro.prefetch.strategies import strategy_by_name

            run = runner.run("Mp3d", strategy_by_name(strategy), machine)
            total = sum(comps.values()) * run.demand_refs / 1000.0
            assert total == pytest.approx(run.miss_counts.cpu_misses, abs=0.5)

    def test_table2_monotone_in_demand(self, runner):
        result = table2.run(runner, transfer_latencies=LATS)
        for workload, by_strategy in result.utilization.items():
            for by_cycles in by_strategy.values():
                for value in by_cycles.values():
                    assert 0.0 < value <= 1.0
            # Prefetching increases bus demand (PWS >= NP everywhere).
            for cycles in LATS:
                assert (
                    by_strategy["PWS"][cycles] >= by_strategy["NP"][cycles] - 0.02
                ), workload

    def test_table3_false_le_invalidation(self, runner):
        result = table3.run(runner)
        for workload, row in result.rows.items():
            assert 0.0 <= row["false_sharing_mr"] <= row["invalidation_mr"]
        assert "Table 3" in table3.render(result)

    def test_table4_restructuring_reduces_false_sharing(self, runner):
        result = table4.run(runner)
        for workload in ("Topopt", "Pverify"):
            plain = result.rows[(workload, False, "NP")]
            restr = result.rows[(workload, True, "NP")]
            assert restr["false_sharing_mr"] < 0.5 * plain["false_sharing_mr"]
            assert restr["invalidation_mr"] < plain["invalidation_mr"]
        assert "Table 4" in table4.render(result)

    def test_table5_gains(self, runner):
        result = table5.run(runner, transfer_latencies=LATS)
        for by_cycles in result.relative.values():
            for rel in by_cycles.values():
                assert 0.3 < rel < 1.3
        for workload, gains in result.restructuring_gain.items():
            for gain in gains.values():
                assert gain > 0.9, workload  # restructuring never hurts much
        assert "Table 5" in table5.render(result)

    def test_headline(self, runner):
        result = headline.run(runner, transfer_latencies=LATS)
        assert result.pws_max >= max(result.uniprocessor_max_by_latency.values()) - 0.35
        assert result.uniprocessor_min <= min(result.uniprocessor_max_by_latency.values())
        assert "Headline" in headline.render(result)

    def test_utilization_bounds(self, runner):
        result = utilization.run(runner, fast_cycles=4, slow_cycles=16)
        for workload, row in result.rows.items():
            assert 0.0 < row["util_fast"] <= 1.0
            assert row["max_speedup_fast"] == pytest.approx(1.0 / row["util_fast"])
            # Achieved speedup never exceeds the utilization bound.
            assert row["achieved_fast"] <= row["max_speedup_fast"] + 0.05, workload
        assert "utilization" in utilization.render(result).lower()
