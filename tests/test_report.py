"""Tests for the one-shot full reproduction report."""

import pytest

from repro.experiments.report import run_all
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def report():
    return run_all(ExperimentRunner(num_cpus=4, scale=0.08))


class TestRunAll:
    def test_all_sections_present(self, report):
        for needle in (
            "Table 1", "Figure 1", "Table 2", "Figure 2", "Figure 3",
            "Table 3", "Table 4", "Table 5", "utilization", "Headline",
        ):
            assert needle.lower() in report.text.lower(), needle

    def test_results_keyed_by_module(self, report):
        assert set(report.results) == {
            "table1", "table2", "table3", "table4", "table5",
            "figure1", "figure2", "figure3", "utilization", "headline",
        }

    def test_runner_sharing_bounds_simulation_count(self):
        runner = ExperimentRunner(num_cpus=4, scale=0.08)
        run_all(runner)
        # 5 workloads x 5 strategies x 4 latencies = 100, plus the
        # restructured runs (2 workloads x 3 strategies x 4 latencies).
        # Anything materially above that means the cache broke.
        assert len(runner._results) <= 100 + 24

    def test_charts_mode_adds_figures(self):
        runner = ExperimentRunner(num_cpus=4, scale=0.08)
        plain = run_all(runner)
        with_charts = run_all(runner, charts=True)
        assert len(with_charts.text) > len(plain.text)
        assert "legend:" in with_charts.text
