"""Tests for the SLO engine (`repro.telemetry.slo`).

Covers rule parsing/validation (TOML and JSON files, unknown keys,
duplicate names, badly typed fields, a fuzz over rule files), threshold aggregates over gauges/counters/histograms,
burn-rate mode, missing-data policy, default rules seeded from a bench
report, and report rendering/serialization.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.common.errors import ConfigurationError
from repro.sim.engine import ENGINE_VERSION
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.slo import (
    SloRule,
    default_rules,
    evaluate,
    evaluate_slo,
    load_rules,
)
from repro.telemetry.timeseries import TimeSeriesStore


def _seed_store(tmp_path) -> TimeSeriesStore:
    """5 snapshots at t=0..60: a rising counter, a sawtooth gauge, a
    request-latency histogram."""
    store = TimeSeriesStore(tmp_path / "tsdb")
    reg = MetricsRegistry()
    counter = reg.counter("jobs_total", "jobs")
    gauge = reg.gauge("depth", "depth")
    hist = reg.histogram("lat", "lat", buckets=(0.1, 1.0, 10.0))
    for i, depth in enumerate((0, 4, 1, 5, 2)):
        counter.inc(10)
        gauge.set(depth)
        hist.observe(0.05 + 0.2 * i)
        store.append_snapshot(registry=reg, ts=float(i * 15))
    return store


class TestRuleParsing:
    def test_defaults_and_validation(self):
        rule = SloRule(name="r", series="s")
        assert rule.aggregate == "last" and rule.op == "<=" and rule.on_missing == "skip"
        with pytest.raises(ConfigurationError):
            SloRule(name="r", series="s", op="==")
        with pytest.raises(ConfigurationError):
            SloRule(name="r", series="s", aggregate="median")
        with pytest.raises(ConfigurationError):
            SloRule(name="r", series="s", objective=1.5)
        with pytest.raises(ConfigurationError):
            SloRule(name="r", series="s", window_seconds=0)
        with pytest.raises(ConfigurationError):
            SloRule(name="r", series="s", on_missing="explode")
        # pNN quantile aggregates parse.
        SloRule(name="r", series="s", aggregate="p99")
        SloRule(name="r", series="s", aggregate="p99.9")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            SloRule.from_dict({"name": "r", "series": "s", "treshold": 1})
        with pytest.raises(ConfigurationError):
            SloRule.from_dict({"series": "s"})  # no name

    def test_toml_file(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(
            '[[slo]]\nname = "depth"\nseries = "depth"\naggregate = "max"\n'
            'threshold = 10.0\n\n'
            '[[slo]]\nname = "latency"\nseries = "lat"\naggregate = "p95"\n'
            'threshold = 1.0\nwindow_seconds = 600.0\n'
            'labels = { route = "/runs" }\n'
        )
        rules = load_rules(path)
        assert [r.name for r in rules] == ["depth", "latency"]
        assert rules[1].labels == {"route": "/runs"}

    def test_json_file_and_round_trip(self, tmp_path):
        path = tmp_path / "rules.json"
        original = SloRule(
            name="j", series="s", aggregate="rate", op=">=", threshold=2.5,
            window_seconds=120.0, objective=0.99, max_burn_rate=2.0,
            min_samples=3, on_missing="breach", labels={"k": "v"},
            description="d",
        )
        path.write_text(json.dumps({"slo": [original.to_dict()]}))
        (loaded,) = load_rules(path)
        assert loaded == original

    def test_bad_files(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_rules(tmp_path / "missing.toml")
        bad_toml = tmp_path / "bad.toml"
        bad_toml.write_text("not = [valid")
        with pytest.raises(ConfigurationError):
            load_rules(bad_toml)
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        with pytest.raises(ConfigurationError):
            load_rules(empty)
        dupes = tmp_path / "dupes.json"
        dupes.write_text(json.dumps([
            {"name": "a", "series": "s"}, {"name": "a", "series": "t"},
        ]))
        with pytest.raises(ConfigurationError):
            load_rules(dupes)
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'[{"name": "caf\xe9", "series": "s"}]')
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_rules(not_utf8)
        # Both decoders recurse once per nesting level.
        for suffix, text in (("json", "[" * 100_000), ("toml", "a = " + "[" * 100_000)):
            deep = tmp_path / f"deep.{suffix}"
            deep.write_text(text)
            with pytest.raises(ConfigurationError, match="invalid"):
                load_rules(deep)


#: Every rule field, and values of every JSON/TOML type for them.
_RULE_KEYS = [
    "name", "series", "aggregate", "op", "threshold", "labels",
    "window_seconds", "objective", "max_burn_rate", "min_samples",
    "on_missing", "description",
]
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["<=", ">=", "p95", "rate", "skip", "breach", "1.5", "nan"])
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
_RULES = st.lists(
    st.dictionaries(st.sampled_from(_RULE_KEYS) | st.text(max_size=6), _VALUES, max_size=8)
    | st.fixed_dictionaries(
        {"name": st.text(max_size=4), "series": st.just("s")},
        optional={key: _VALUES for key in _RULE_KEYS[2:]},
    ),
    max_size=3,
)


def _toml_value(value) -> str | None:
    """``value`` as a TOML inline value; None where TOML has no null."""
    if value is None:
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, list):
        items = [_toml_value(v) for v in value]
        return "[" + ", ".join(v for v in items if v is not None) + "]"
    pairs = [(json.dumps(k, ensure_ascii=False), _toml_value(v)) for k, v in value.items()]
    return "{" + ", ".join(f"{k} = {v}" for k, v in pairs if v is not None) + "}"


def _toml_rules(rules: list[dict]) -> str:
    tables = []
    for rule in rules:
        lines = ["[[slo]]"]
        for key, value in rule.items():
            text = _toml_value(value)
            if text is not None:
                lines.append(f"{json.dumps(key, ensure_ascii=False)} = {text}")
        tables.append("\n".join(lines))
    return "\n\n".join(tables) + "\n"


class TestRuleFieldTypes:
    """A badly typed field is a ConfigurationError naming the rule and
    the field, never a ValueError/TypeError traceback."""

    @pytest.mark.parametrize("field, value", [
        ("threshold", "x"),
        ("threshold", None),
        ("threshold", float("nan")),
        ("window_seconds", "nan"),
        ("labels", 5),
        ("labels", ["ab"]),
        ("window_seconds", "w"),
        ("objective", "high"),
        ("max_burn_rate", [1]),
        ("min_samples", float("inf")),
        ("min_samples", "3.5"),
    ])
    def test_bad_field_is_a_configuration_error(self, field, value):
        raw = {"name": "a", "series": "s", "op": ">=", "threshold": 1.0, field: value}
        with pytest.raises(ConfigurationError, match=f"'a'.*{field}"):
            SloRule.from_dict(raw)

    def test_slo_check_reports_a_bad_threshold_cleanly(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text('[{"name":"a","series":"s","op":">=","threshold":"x"}]')
        code = cli_main(["slo", "check", "--tsdb", str(tmp_path / "tsdb"), "--rules", str(rules)])
        assert code == 2
        assert "error: SLO rule 'a': threshold must be a number" in capsys.readouterr().err


class TestRuleFileFuzz:
    """Untrusted rules files: rules or a ConfigurationError, nothing else."""

    @settings(
        max_examples=300, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.one_of(
            _RULES.map(lambda rules: ("json", json.dumps(rules))),
            _RULES.map(lambda rules: ("json", json.dumps({"slo": rules}))),
            _RULES.map(lambda rules: ("toml", _toml_rules(rules))),
            st.tuples(st.sampled_from(["json", "toml"]), st.text(max_size=40)),
        )
    )
    def test_rules_files(self, tmp_path, case):
        suffix, text = case
        path = tmp_path / f"rules.{suffix}"
        path.write_text(text, encoding="utf-8")
        try:
            rules = load_rules(path)
        except ConfigurationError:
            return
        assert rules and all(isinstance(rule, SloRule) for rule in rules)
        assert len({rule.name for rule in rules}) == len(rules)


class TestThresholdMode:
    def test_gauge_aggregates(self, tmp_path):
        store = _seed_store(tmp_path)
        report = evaluate(store, [
            SloRule(name="last", series="depth", aggregate="last", op="<=", threshold=2),
            SloRule(name="max-bad", series="depth", aggregate="max", op="<=", threshold=4),
            SloRule(name="mean", series="depth", aggregate="mean", op="<=", threshold=3),
            SloRule(name="min", series="depth", aggregate="min", op=">=", threshold=0),
        ], now=60.0)
        verdicts = {r.rule.name: r.ok for r in report.results}
        assert verdicts == {"last": True, "max-bad": False, "mean": True, "min": True}
        breach = next(r for r in report.breaches)
        assert "depth" in breach.detail and "3600" in breach.detail

    def test_counter_delta_and_rate(self, tmp_path):
        store = _seed_store(tmp_path)
        report = evaluate(store, [
            SloRule(name="delta", series="jobs_total", aggregate="delta",
                    op=">=", threshold=40),
            SloRule(name="rate", series="jobs_total", aggregate="rate",
                    op=">=", threshold=0.5),
        ], now=60.0)
        delta_result, rate_result = report.results
        assert delta_result.ok and delta_result.value == pytest.approx(40.0)
        assert rate_result.ok and rate_result.value == pytest.approx(40.0 / 60.0)

    def test_histogram_quantile_aggregate(self, tmp_path):
        store = _seed_store(tmp_path)
        report = evaluate(store, [
            SloRule(name="p95", series="lat", aggregate="p95", op="<=", threshold=1.0),
            SloRule(name="p95-strict", series="lat", aggregate="p95",
                    op="<=", threshold=0.01),
        ], now=60.0)
        ok_result, strict_result = report.results
        assert ok_result.ok and 0.0 < ok_result.value <= 1.0
        assert not strict_result.ok

    def test_window_clips_old_points(self, tmp_path):
        store = _seed_store(tmp_path)  # depth peaks (5) at t=45
        report = evaluate(store, [
            SloRule(name="recent-max", series="depth", aggregate="max",
                    op="<=", threshold=2, window_seconds=10.0),
        ], now=60.0)
        (result,) = report.results
        assert result.ok  # only the t=60 point (depth 2) is in the window

    def test_missing_data_policy(self, tmp_path):
        store = _seed_store(tmp_path)
        report = evaluate(store, [
            SloRule(name="skip", series="absent", on_missing="skip"),
            SloRule(name="breach", series="absent", on_missing="breach"),
            SloRule(name="starved", series="depth", aggregate="mean",
                    threshold=100, min_samples=50),
        ], now=60.0)
        skip_result, breach_result, starved = report.results
        assert skip_result.ok and skip_result.skipped
        assert not breach_result.ok
        assert starved.skipped
        assert not report.ok


class TestBurnRateMode:
    def test_burn_rate_votes_per_interval(self, tmp_path):
        store = _seed_store(tmp_path)  # depth samples: 0,4,1,5,2 -> 2/5 violate <=2
        base = dict(series="depth", op="<=", threshold=2.0, objective=0.9,
                    min_samples=2)
        report = evaluate(store, [
            SloRule(name="tight", max_burn_rate=1.0, **base),
            SloRule(name="loose", max_burn_rate=10.0, **base),
        ], now=60.0)
        tight, loose = report.results
        # error rate 0.4 over budget 0.1 -> burn 4.0x.
        assert tight.burn_rate == pytest.approx(4.0)
        assert not tight.ok and loose.ok
        assert "2/5 intervals" in tight.detail

    def test_counter_burn_uses_rates(self, tmp_path):
        store = _seed_store(tmp_path)  # steady 10 jobs / 15 s
        report = evaluate(store, [
            SloRule(name="throughput", series="jobs_total", op=">=",
                    threshold=0.5, objective=0.9, min_samples=2),
        ], now=60.0)
        (result,) = report.results
        assert result.ok and result.value == 0.0  # zero bad intervals

    def test_burn_skips_until_min_samples(self, tmp_path):
        store = TimeSeriesStore(tmp_path / "tsdb")
        reg = MetricsRegistry()
        reg.gauge("depth", "d").set(1)
        store.append_snapshot(registry=reg, ts=0.0)
        report = evaluate(store, [
            SloRule(name="b", series="depth", op="<=", threshold=2,
                    objective=0.9, min_samples=2),
        ], now=0.0)
        assert report.results[0].skipped


class TestDefaultsAndReport:
    def test_default_rules_with_bench_baseline(self):
        def entry(engine_version, **metrics):
            return {"workload": "grid-cold", "provenance": {"engine_version": engine_version},
                    "metrics": metrics}

        history = [
            entry(ENGINE_VERSION, **{"sim.events_per_s": 100000.0}),
            entry(ENGINE_VERSION, points_per_s=12.0),  # untraced: no events/sec
            entry("1", **{"sim.events_per_s": 999999.0}),  # another engine
        ]
        rules = default_rules(history)
        names = [r.name for r in rules]
        assert "request-latency-p95" in names and "events-per-sec-floor" in names
        floor = next(r for r in rules if r.name == "events-per-sec-floor")
        assert floor.threshold == pytest.approx(10000.0)
        # The newest traced grid-cold entry for this engine wins.
        history.insert(2, entry(ENGINE_VERSION, **{"sim.events_per_s": 150000.0}))
        floor = next(r for r in default_rules(history) if r.name == "events-per-sec-floor")
        assert floor.threshold == pytest.approx(15000.0)

    def test_default_rules_without_bench(self):
        names = [r.name for r in default_rules(None)]
        assert "events-per-sec-floor" not in names
        assert len(names) >= 3
        # Only untraced or other-engine entries: still no floor.
        history = [
            {"workload": "grid-cold", "provenance": {"engine_version": ENGINE_VERSION},
             "metrics": {"points_per_s": 12.0}},
            {"workload": "grid-cold", "provenance": {"engine_version": "1"},
             "metrics": {"sim.events_per_s": 1e5}},
        ]
        assert [r.name for r in default_rules(history)] == names

    def test_committed_history_feeds_the_service_rules(self, monkeypatch):
        """A service started at the checkout root loads the floor rule too."""
        from pathlib import Path

        from repro.perf.history import load_history

        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        names = [r.name for r in default_rules(load_history())]
        assert len(names) == 4 and names[-1] == "events-per-sec-floor"

    def test_report_render_and_dict(self, tmp_path):
        store = _seed_store(tmp_path)
        report = evaluate_slo(store, [
            SloRule(name="bad", series="depth", aggregate="max", op="<=", threshold=-1),
        ])
        text = report.render()
        assert "BREACHED" in text and "bad" in text
        doc = report.to_dict()
        assert doc["ok"] is False and doc["breaches"] == 1
        assert doc["results"][0]["series"] == "depth"
        # evaluated_at defaults to the newest snapshot.
        assert doc["evaluated_at"] == 60.0
