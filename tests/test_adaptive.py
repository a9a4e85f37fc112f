"""The ADAPT feedback throttle and the strategy-name round-trip fix.

Four load-bearing guarantees:

* **Non-interference** -- the five paper disciplines are bit-identical
  to their pre-ADAPT goldens: the engine hook is a no-op unless an
  adaptive config is passed (and ``ENGINE_VERSION`` stays "2", so the
  disk cache survives).
* **Controller correctness** -- the windowed estimator and the
  watermark hysteresis behave as specified, deterministically.
* **Throttling reality** -- ADAPT with a never-reached watermark is
  numerically identical to its insertion baseline (PWS), and with an
  always-exceeded watermark it actually drops prefetches, which the
  efficacy profiler books in the ``throttled`` bucket.
* **Name round-trip** -- ``strategy_by_name`` reconstructs derived
  names like ``PREF(d=400)`` (the bug that broke ledgered
  distance-ablation replays), for every strategy including ADAPT.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

settings.register_profile("repro-ci", derandomize=True)
settings.load_profile("repro-ci")

from repro.bus.bus import BusStats
from repro.common.config import MachineConfig, SimulationConfig
from repro.common.errors import ConfigurationError
from repro.experiments.adaptive import AdaptiveCell, AdaptiveResult
from repro.prefetch.adaptive import AdaptiveConfig, BusUtilizationThrottle
from repro.prefetch.insertion import insert_prefetches
from repro.prefetch.strategies import (
    ADAPT,
    ALL_STRATEGIES,
    AdaptiveStrategy,
    PBUF,
    PWS,
    strategy_by_name,
)
from repro.sim.engine import ENGINE_VERSION, simulate
from repro.workloads.registry import generate_workload

#: (exec_cycles, demand_refs, cpu_misses, false_sharing, bus_busy_cycles,
#:  bus_total_ops, prefetches_issued, upgrades) for Water, 4 CPUs,
#: seed 42, scale 0.2 -- captured before the ADAPT engine hook landed.
FIVE_DISCIPLINE_GOLDENS = {
    "NP": (30195, 14468, 452, 0, 3938, 613, 0, 138),
    "PREF": (21437, 14468, 176, 0, 3963, 617, 371, 139),
    "EXCL": (21513, 14468, 178, 0, 3969, 616, 371, 137),
    "LPD": (21395, 14468, 126, 0, 3980, 620, 371, 140),
    "PWS": (19782, 14468, 111, 1, 3982, 622, 622, 142),
}


def _water_run(strategy, machine=None):
    machine = machine or MachineConfig(num_cpus=4)
    trace = generate_workload("Water", num_cpus=4, seed=42, scale=0.2)
    annotated, _ = insert_prefetches(trace, strategy, machine.cache)
    return simulate(
        annotated,
        machine,
        strategy_name=strategy.name,
        adaptive=strategy.adaptive_config(),
    )


def _fingerprint(r):
    return (
        r.exec_cycles,
        r.demand_refs,
        r.miss_counts.cpu_misses,
        r.miss_counts.false_sharing,
        r.bus.busy_cycles,
        r.bus.total_ops,
        r.prefetches_issued,
        r.upgrades,
    )


# ----------------------------------------------------------- non-interference


class TestNonInterference:
    def test_engine_version_unchanged(self):
        """The no-op hook must not invalidate the disk cache."""
        assert ENGINE_VERSION == "2"

    @pytest.mark.parametrize("name", sorted(FIVE_DISCIPLINE_GOLDENS))
    def test_paper_discipline_bit_identical_to_golden(self, name):
        assert _fingerprint(_water_run(strategy_by_name(name))) == (
            FIVE_DISCIPLINE_GOLDENS[name]
        )

    def test_non_adaptive_strategies_have_no_adaptive_config(self):
        for strategy in ALL_STRATEGIES + (PBUF,):
            assert strategy.adaptive_config() is None


# ------------------------------------------------------------------ config


class TestAdaptiveConfig:
    def test_defaults_validate(self):
        config = AdaptiveConfig()
        assert 0.0 < config.low_watermark <= config.high_watermark
        assert config.window >= 1

    def test_strategy_and_config_defaults_agree(self):
        config = ADAPT.adaptive_config()
        assert config == AdaptiveConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"high_watermark": 0.0},
            {"high_watermark": -0.5},
            {"low_watermark": 0.0},
            {"low_watermark": 0.99, "high_watermark": 0.5},
            {"window": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(**kwargs)

    def test_invalid_strategy_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            AdaptiveStrategy("ADAPT", low_watermark=0.9, high_watermark=0.5)


# --------------------------------------------------------------- controller


class TestBusUtilizationThrottle:
    def _throttle(self, high=0.5, low=0.25, window=100):
        stats = BusStats()
        config = AdaptiveConfig(
            high_watermark=high, low_watermark=low, window=window
        )
        return BusUtilizationThrottle(config, stats), stats

    def test_idle_bus_never_throttles(self):
        throttle, _ = self._throttle()
        assert all(throttle.should_issue(t) for t in range(0, 1000, 10))
        assert throttle.drops == 0
        assert throttle.decisions == 100

    def test_saturated_bus_throttles_and_counts_drops(self):
        throttle, stats = self._throttle()
        for t in range(10, 1000, 10):
            stats.busy_cycles += 10  # 100% busy between samples
            throttle.should_issue(t)
        assert throttle.throttled
        assert 0 < throttle.drops < throttle.decisions

    def test_hysteresis_releases_only_below_low_watermark(self):
        throttle, stats = self._throttle(high=0.5, low=0.25, window=100)
        for t in range(10, 210, 10):  # saturate: engage the throttle
            stats.busy_cycles += 10
            throttle.should_issue(t)
        assert throttle.throttled
        # Utilization decays but stays above low: still throttled.
        assert not throttle.should_issue(240)  # window util ~0.6
        assert throttle.throttled
        # Far below low: released, and the next decision issues.
        assert throttle.should_issue(1000)
        assert not throttle.throttled

    def test_window_anchor_survives_bursts(self):
        """A burst of same-cycle samples must not collapse the window:
        the estimate stays anchored a full window back, so one granted
        transfer cannot clamp utilization to 1.0."""
        throttle, stats = self._throttle(window=100)
        throttle.should_issue(0)
        for t in (200, 200, 201, 202):  # burst well past the horizon
            throttle.should_issue(t)
        stats.busy_cycles += 30  # one transfer during the burst
        assert throttle.utilization(203) < 0.5  # 30 busy over >=100 span

    def test_zero_span_reads_zero(self):
        throttle, stats = self._throttle()
        stats.busy_cycles = 50
        assert throttle.utilization(0) == 0.0


# ----------------------------------------------------------- ADAPT behavior


class TestAdaptBehavior:
    def test_unreachable_watermark_matches_insertion_baseline(self):
        """ADAPT that never throttles is numerically PWS: same insertion,
        and the consulted-but-idle throttle must not perturb anything."""
        lenient = AdaptiveStrategy(
            "ADAPT", high_watermark=10.0, low_watermark=9.0
        )
        adapt = _water_run(lenient)
        pws = _water_run(PWS)
        assert _fingerprint(adapt) == _fingerprint(pws)
        assert adapt.prefetch_drops == 0

    def test_aggressive_watermark_drops_prefetches(self):
        slow_bus = MachineConfig(num_cpus=4).with_transfer_cycles(32)
        eager = AdaptiveStrategy(
            "ADAPT", high_watermark=0.3, low_watermark=0.2, feedback_window=512
        )
        adapt = _water_run(eager, machine=slow_bus)
        pws = _water_run(PWS, machine=slow_bus)
        assert adapt.prefetch_drops > 0
        assert adapt.prefetches_issued == pws.prefetches_issued  # same insertion
        assert adapt.bus.prefetch_ops < pws.bus.prefetch_ops  # drops left the bus
        assert adapt.prefetch_fills < pws.prefetch_fills

    def test_dropped_prefetches_land_in_throttled_bucket(self):
        """c2c efficacy: every drop is booked, and the per-line ledger
        still reconciles exactly against the engine aggregates."""
        eager = AdaptiveStrategy(
            "ADAPT", high_watermark=0.3, low_watermark=0.2, feedback_window=512
        )
        machine = MachineConfig(num_cpus=4).with_transfer_cycles(32)
        trace = generate_workload("Water", num_cpus=4, seed=42, scale=0.2)
        annotated, _ = insert_prefetches(trace, eager, machine.cache)
        result = simulate(
            annotated,
            machine,
            strategy_name=eager.name,
            sim_config=SimulationConfig(
                observe=True, observe_lines=True, observe_trace_capacity=0
            ),
            adaptive=eager.adaptive_config(),
        )
        assert result.prefetch_drops > 0
        assert result.obs.lines.total("throttled") == result.prefetch_drops
        assert result.obs.lines.reconcile(result) == []


# ------------------------------------------------------------- name round-trip


class TestStrategyNameRoundTrip:
    ALL = ALL_STRATEGIES + (PBUF, ADAPT)

    @pytest.mark.parametrize("strategy", ALL, ids=lambda s: s.name)
    @given(distance=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_derived_names_round_trip(self, strategy, distance):
        derived = strategy.with_distance(distance)
        assert strategy_by_name(derived.name) == derived

    def test_round_trip_preserves_adaptive_subclass(self):
        derived = strategy_by_name("ADAPT(d=250)")
        assert isinstance(derived, AdaptiveStrategy)
        assert derived.distance == 250
        assert derived.adaptive_config() == ADAPT.adaptive_config()

    def test_stacked_derivation_round_trips(self):
        twice = strategy_by_name("LPD").with_distance(200).with_distance(50)
        assert strategy_by_name(twice.name) == twice

    def test_case_insensitive_lookup(self):
        assert strategy_by_name("pws") is PWS
        assert strategy_by_name("adapt") is ADAPT

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ConfigurationError, match="ADAPT"):
            strategy_by_name("BOGUS")
        with pytest.raises(ConfigurationError):
            strategy_by_name("PREF(d=nope)")  # malformed suffix


# -------------------------------------------------- experiment claim logic


def _cell(speedup, util, drops=0, issued=0):
    return AdaptiveCell(
        speedup=speedup,
        bus_utilization=util,
        prefetches_issued=issued,
        prefetch_drops=drops,
    )


def _result(adapt_by_workload):
    """Two-latency result; PREF fixed at 1.05 speedup on the slow bus."""
    cells = {}
    for workload, (speedup, util) in adapt_by_workload.items():
        cells[workload] = {
            "NP": {4: _cell(1.0, 0.4), 32: _cell(1.0, 0.9)},
            "PREF": {4: _cell(1.3, 0.45), 32: _cell(1.05, 0.97)},
            "PWS": {4: _cell(1.4, 0.5), 32: _cell(1.02, 0.99)},
            "ADAPT": {4: _cell(1.4, 0.5), 32: _cell(speedup, util, 10, 100)},
        }
    return AdaptiveResult(transfer_latencies=(4, 32), ceiling=0.98, cells=cells)


class TestAdaptiveExperiment:
    def test_claim_needs_two_qualifying_workloads(self):
        one = _result({"A": (1.10, 0.95), "B": (1.01, 0.95)})
        assert one.qualifying_workloads() == ["A"]
        assert not one.claim_holds
        two = _result({"A": (1.10, 0.95), "B": (1.06, 0.96), "C": (1.2, 0.99)})
        assert two.qualifying_workloads() == ["A", "B"]  # C busts the ceiling
        assert two.claim_holds

    def test_render_states_the_verdict(self):
        from repro.experiments.adaptive import render

        good = render(_result({"A": (1.1, 0.95), "B": (1.1, 0.95)}))
        assert "claim HOLDS" in good and "A, B" in good
        bad = render(_result({"A": (1.0, 0.95)}))
        assert "claim FAILS" in bad

    def test_artifact_round_trips_through_json(self):
        import json

        result = _result({"A": (1.1, 0.95), "B": (1.0, 0.99)})
        data = json.loads(json.dumps(result.to_dict()))
        assert data["claim_holds"] is False
        assert data["qualifying_workloads"] == ["A"]
        assert data["cells"]["A"]["ADAPT"]["32"]["prefetch_drops"] == 10

    def test_main_exit_code_follows_the_claim(self, monkeypatch, capsys):
        """Must-fail control for the CI gate: the exit code, not just
        ``claim_holds``, follows the verdict."""
        from repro.experiments import adaptive

        args = ["--quick", "--out", "", "--json", "", "--cache", ""]
        failing = _result({"A": (1.10, 0.95), "B": (1.01, 0.95)})
        monkeypatch.setattr(adaptive, "run", lambda runner, transfer_latencies: failing)
        assert adaptive.main(args) == 1
        assert "claim FAILS" in capsys.readouterr().out
        holding = _result({"A": (1.10, 0.95), "B": (1.06, 0.96)})
        monkeypatch.setattr(adaptive, "run", lambda runner, transfer_latencies: holding)
        assert adaptive.main(args) == 0
        assert "claim HOLDS" in capsys.readouterr().out

    @pytest.mark.parametrize("prewarm", [True, False])
    def test_gate_reads_the_drift_gates_cache(self, tmp_path, prewarm):
        """CI runs the ADAPT gate on the cache the drift gate just
        filled: only the 10 ADAPT points (5 workloads x 2 buses) miss;
        NP/PREF/PWS are 30 hits.  Skipping the drift run (the control)
        must break the pinned traffic."""
        import dataclasses
        import json

        from repro.experiments import adaptive
        from repro.experiments.runner import ExperimentRunner
        from repro.telemetry import drift

        cache = tmp_path / "cache"
        frame = dataclasses.replace(drift.QUICK_FRAME, num_cpus=2, scale=0.02)
        assert adaptive.QUICK_LATENCIES == frame.transfer_latencies
        if prewarm:
            warm = ExperimentRunner(
                num_cpus=frame.num_cpus, seed=frame.seed, scale=frame.scale, disk_cache=cache
            )
            drift.collect_summaries(warm, frame)
        out = tmp_path / "adaptive.json"
        adaptive.main(
            ["--quick", "--cpus", "2", "--scale", "0.02", "--seed", str(frame.seed),
             "--cache", str(cache), "--out", "", "--json", str(out)]
        )
        traffic = json.loads(out.read_text(encoding="utf-8"))["disk_cache"]
        pinned = {"hits": 30, "misses": 10, "stores": 10}
        assert (traffic == pinned) is prewarm, traffic

    def test_tiny_sweep_runs_end_to_end(self):
        """Smoke: the real run() wiring produces a full grid of cells."""
        from repro.experiments.adaptive import run
        from repro.experiments.runner import ExperimentRunner
        from repro.workloads.registry import ALL_WORKLOAD_NAMES

        runner = ExperimentRunner(num_cpus=2, seed=42, scale=0.02)
        result = run(runner, transfer_latencies=(4,))
        assert set(result.cells) == set(ALL_WORKLOAD_NAMES)
        for by_strategy in result.cells.values():
            assert set(by_strategy) == {"NP", "PREF", "PWS", "ADAPT"}
            assert by_strategy["NP"][4].speedup == 1.0
