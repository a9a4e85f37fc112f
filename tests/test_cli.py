"""Smoke tests for the command-line interface (tiny scales)."""

import argparse
import dataclasses

import pytest

from repro.cli import _SPEC_FLAGS, _spec, build_parser, main
from repro.service.contracts import ScenarioSpec
from repro.sim.engine import ENGINE_VERSION

SMALL = ["--cpus", "4", "--scale", "0.06"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--workload", "nope"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure9"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Mp3d" in out and "PWS" in out and "figure2" in out

    def test_stats(self, capsys):
        assert main(["stats", "--workload", "Water", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "Trace statistics: Water" in out
        assert "write-shared lines" in out

    def test_simulate_np(self, capsys):
        assert main(["simulate", "--workload", "Water", "--strategy", "NP", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "Water / NP" in out

    def test_simulate_with_comparison(self, capsys):
        assert main(["simulate", "--workload", "Water", "--strategy", "PREF", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "PREF vs NP: speedup" in out

    def test_simulate_bad_strategy_is_clean_error(self, capsys):
        assert main(["simulate", "--workload", "Water", "--strategy", "XXX", *SMALL]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--workload",
                    "Water",
                    "--strategies",
                    "NP,PREF",
                    "--latencies",
                    "4,16",
                    *SMALL,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 cycles" in out and "16 cycles" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1", *SMALL]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_analyze(self, capsys):
        assert main(["analyze", "--workload", "Pverify", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "Sharing attribution" in out
        assert "Restructuring advice" in out

    def test_msi_protocol_flag(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--workload",
                    "Water",
                    "--strategy",
                    "NP",
                    "--protocol",
                    "msi",
                    *SMALL,
                ]
            )
            == 0
        )


class TestListParsing:
    """PR 7 fix: comma lists tolerate whitespace and stray commas, and
    reject unknown names with one clear error."""

    def test_strategies_tolerate_whitespace_and_empties(self, capsys):
        args = ["sweep", "--workload", "Water", "--latencies", "4",
                "--strategies", " NP, PREF ,,", *SMALL]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "NP" in out and "PREF" in out

    def test_latencies_tolerate_whitespace(self, capsys):
        args = ["sweep", "--workload", "Water", "--strategies", "NP",
                "--latencies", " 4 ,, 16 ", *SMALL]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 cycles" in out and "16 cycles" in out

    def test_unknown_strategy_names_every_valid_label(self, capsys):
        args = ["sweep", "--workload", "Water", "--strategies", "NP,BOGUS", *SMALL]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "BOGUS" in err and "ADAPT" in err and "PWS" in err

    def test_empty_strategy_list_is_a_clean_error(self, capsys):
        args = ["sweep", "--workload", "Water", "--strategies", " ,, ", *SMALL]
        assert main(args) == 2
        assert "no strategies" in capsys.readouterr().err

    def test_bad_latency_is_a_clean_error(self, capsys):
        args = ["sweep", "--workload", "Water", "--strategies", "NP",
                "--latencies", "4,fast", *SMALL]
        assert main(args) == 2
        assert "fast" in capsys.readouterr().err

    def test_derived_strategy_name_accepted(self, capsys):
        args = ["sweep", "--workload", "Water", "--latencies", "4",
                "--strategies", "PREF(d=400)", *SMALL]
        assert main(args) == 0
        assert "PREF(d=400)" in capsys.readouterr().out


class TestTraceCli:
    """The extended `repro trace`: run-trace waterfall alongside the
    original workload-trace file modes."""

    def _doc(self):
        from repro.telemetry.tracing import Span, stitch_chrome_trace

        spans = [
            Span(name="queue.wait", trace_id="ab" * 8, start=5.0, duration=0.01),
            Span(name="execute", trace_id="ab" * 8, start=5.01, duration=0.2),
        ]
        return stitch_chrome_trace(spans, label="Water/PREF@4c")

    def test_load_renders_waterfall(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        path.write_text(json.dumps(self._doc()), encoding="utf-8")
        assert main(["trace", "--load", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace " + "ab" * 8 in out
        assert "queue.wait" in out and "execute" in out
        assert "breakdown:" in out

    def test_fetch_unreachable_service_is_clean_error(self, capsys):
        code = main(["trace", "deadbeefdeadbeef", "--url", "http://127.0.0.1:9"])
        assert code == 1
        assert "repro serve --trace" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys):
        assert main(["trace"]) == 2
        assert "RUN_ID" in capsys.readouterr().err

    def test_workload_mode_still_works(self, tmp_path, capsys):
        out_file = tmp_path / "water.gz"
        args = ["trace", "--workload", "Water", "--out", str(out_file), *SMALL]
        assert main(args) == 0
        assert out_file.exists()
        assert main(["trace", "--info", str(out_file)]) == 0
        assert "demand refs" in capsys.readouterr().out

    def test_fleet_trace_json_carries_trace_ids(self, tmp_path, capsys):
        import json

        args = [
            "fleet", "--workloads", "Water", "--strategies", "NP",
            "--latencies", "4", "--cpus", "2", "--scale", "0.02",
            "--json", "--trace",
            "--cache", str(tmp_path / "cache"),
            "--ledger-dir", str(tmp_path / "ledger"),
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["trace_ids"]) == ["Water/NP@4c"]
        assert doc["spans_recorded"] == 2  # worker.run + engine.simulate
        # The ledger line for the run carries the same trace id.
        from repro.telemetry.ledger import RunLedger

        (entry,) = RunLedger(tmp_path / "ledger").entries()
        assert entry.trace_id == doc["trace_ids"]["Water/NP@4c"]


class TestObservabilityCli:
    """`repro slo check`, `repro dash`, and the extended `repro ledger`
    banner; the first two read the benchmark history."""

    HISTORY = [
        {"workload": "grid-cold", "recorded": "2026-10-01T00:00:00+00:00",
         "provenance": {"engine_version": ENGINE_VERSION},
         "metrics": {"points_per_s": 12.0}},
        {"workload": "grid-cold", "recorded": "2026-10-01T00:01:00+00:00",
         "provenance": {"engine_version": ENGINE_VERSION},
         "metrics": {"sim.events_per_s": 100000.0}},
        {"workload": "grid-cold", "recorded": "2026-10-02T00:00:00+00:00",
         "provenance": {"engine_version": ENGINE_VERSION},
         "metrics": {"points_per_s": 13.0}},
    ]

    def _write_history(self, tmp_path):
        import json

        path = tmp_path / "BENCH_history.json"
        path.write_text(json.dumps(self.HISTORY), encoding="utf-8")
        return path

    def _slo_snapshot(self, tmp_path, history):
        import json

        report = tmp_path / "slo.json"
        args = ["slo", "check", "--snapshot", "--tsdb", str(tmp_path / "tsdb"),
                "--bench-file", str(history), "--ledger-dir", str(tmp_path / "ledger"),
                "--json", str(report)]
        assert main(args) == 0
        return [rule["name"] for rule in json.loads(report.read_text())["rules"]]

    def test_slo_snapshot_without_history(self, tmp_path, capsys):
        rules = self._slo_snapshot(tmp_path, tmp_path / "none.json")
        out = capsys.readouterr().out
        assert "appended 1 ledger snapshot" in out and "seeded" not in out
        assert "events-per-sec-floor" not in rules

    def test_slo_snapshot_seeds_bench_history(self, tmp_path, capsys):
        from repro.telemetry.timeseries import TimeSeriesStore

        history = self._write_history(tmp_path)
        rules = self._slo_snapshot(tmp_path, history)
        assert "seeded 2 bench snapshot(s)" in capsys.readouterr().out
        assert "events-per-sec-floor" in rules
        # Re-seeding is idempotent: only the ledger snapshot is new.
        self._slo_snapshot(tmp_path, history)
        assert "seeded" not in capsys.readouterr().out
        points = TimeSeriesStore(tmp_path / "tsdb").series("repro_bench_points_per_s")
        assert [value for _ts, value in points] == [12.0, 13.0]

    def test_slo_check_exit_codes(self, tmp_path, capsys):
        report = self._write_history(tmp_path)
        tsdb = str(tmp_path / "tsdb")
        healthy = tmp_path / "healthy.toml"
        # Year-wide windows: the seeded bench points carry their own
        # (old) timestamps, not the snapshot time.
        healthy.write_text(
            '[[slo]]\nname = "bench-floor"\n'
            'series = "repro_bench_points_per_s"\n'
            'op = ">="\nthreshold = 1.0\nwindow_seconds = 31536000.0\n'
        )
        impossible = tmp_path / "impossible.toml"
        impossible.write_text(
            '[[slo]]\nname = "bench-sky"\n'
            'series = "repro_bench_points_per_s"\n'
            'op = ">="\nthreshold = 999999999999.0\n'
            'window_seconds = 31536000.0\n'
        )
        base = ["slo", "check", "--tsdb", tsdb,
                "--bench-file", str(report),
                "--ledger-dir", str(tmp_path / "ledger")]

        assert main([*base, "--snapshot", "--rules", str(healthy)]) == 0
        out = capsys.readouterr().out
        assert "appended 1 ledger snapshot" in out and "OK" in out

        report_json = tmp_path / "slo.json"
        code = main([*base, "--rules", str(impossible), "--json", str(report_json)])
        assert code == 1  # the regression sentinel's nonzero exit
        assert "BREACHED" in capsys.readouterr().out
        import json

        doc = json.loads(report_json.read_text())
        assert doc["ok"] is False and doc["breaches"] == 1
        assert doc["rules"][0]["name"] == "bench-sky"

    def test_dash_empty_store_hints(self, tmp_path, capsys):
        args = ["dash", "--tsdb", str(tmp_path / "tsdb")]
        assert main(args) == 0
        assert "no snapshots yet" in capsys.readouterr().out

    def test_dash_renders_sparklines_and_slo(self, tmp_path, capsys):
        history = self._write_history(tmp_path)
        self._slo_snapshot(tmp_path, history)
        capsys.readouterr()
        # A year-wide window: the seeded bench points keep their recorded times.
        args = ["dash", "--tsdb", str(tmp_path / "tsdb"), "--bench-file", str(history),
                "--ledger-dir", str(tmp_path / "ledger"), "--seconds", "31536000"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "repro dash --" in out and "snapshots in" in out
        assert "bench grid-cold points/s" in out
        assert "events-per-sec-floor" in out

    def test_ledger_banner_percentiles_and_strategies(self, tmp_path, capsys):
        from tests.test_telemetry import _entry

        from repro.telemetry.ledger import RunLedger

        ledger = RunLedger(tmp_path)
        ledger.append(_entry(config_key="a", strategy="NP",
                             wall_seconds=1.0, events=1000))
        ledger.append(_entry(config_key="b", strategy="PREF",
                             wall_seconds=2.0, events=4000))
        ledger.append(_entry(config_key="c", strategy="PREF", cache="hit",
                             wall_seconds=0.0, events=0))
        assert main(["ledger", "--ledger-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wall time per simulated run: p50 1.500s, p95 1.950s" in out
        assert "per-strategy throughput" in out
        assert "NP" in out and "PREF" in out


class TestAdaptCli:
    def test_simulate_adapt(self, capsys):
        args = ["simulate", "--workload", "Water", "--strategy", "ADAPT", *SMALL]
        assert main(args) == 0
        assert "Water / ADAPT" in capsys.readouterr().out

    def test_adapt_knobs_apply(self, capsys):
        args = ["simulate", "--workload", "Water", "--strategy", "ADAPT",
                "--adapt-high", "0.2", "--adapt-low", "0.1",
                "--adapt-window", "256", "--transfer", "32", *SMALL]
        assert main(args) == 0

    def test_adapt_knobs_rejected_for_open_loop_strategy(self, capsys):
        args = ["simulate", "--workload", "Water", "--strategy", "PREF",
                "--adapt-high", "0.5", *SMALL]
        assert main(args) == 2
        assert "ADAPT" in capsys.readouterr().err

    def test_list_shows_adapt_extension(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ADAPT" in out and "adaptive" in out


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestScenarioOptions:
    """The per-run flags come from one table over ScenarioSpec's fields."""

    #: The per-command defaults that differ from the field defaults.
    OVERRIDES = {("c2c", "strategy"): "PWS", ("audit", "num_cpus"): 4, ("audit", "scale"): 0.2}

    #: Flags accepted and ignored before the table existed: these
    #: commands build their runner from --cpus/--seed/--scale only.
    REMOVED = [
        ["sweep", "--workload", "Water", "--transfer", "4"],
        *(
            [*command, flag, value]
            for command in (["experiment", "table1"], ["stats", "--workload", "Water"],
                            ["analyze", "--workload", "Water"],
                            ["trace", "--workload", "Water", "--out", "t.gz"])
            for flag, value in (("--transfer", "4"), ("--protocol", "msi"))
        ),
    ]

    #: Every command that simulates or generates one workload.
    PER_RUN = [
        ["simulate"], ["sweep"], ["stats"], ["analyze"], ["timeline", "--quick"],
        ["c2c", "--quick"], ["trace", "--out", "t.gz"],
    ]

    def test_every_field_has_exactly_one_flag(self):
        fields = [f.name for f in dataclasses.fields(ScenarioSpec)]
        assert sorted(_SPEC_FLAGS) == sorted(fields)
        flags = [flag for flag, _options in _SPEC_FLAGS.values()]
        assert len(set(flags)) == len(flags)

    def test_cli_defaults_are_field_defaults(self):
        defaults = {f.name: f.default for f in dataclasses.fields(ScenarioSpec)}
        seen = set()
        for command, parser in _subcommands().items():
            if command == "ledger":  # --workload/--strategy filter the ledger
                continue
            for action in parser._actions:
                if action.dest not in _SPEC_FLAGS or action.dest == "workload":
                    continue
                expected = self.OVERRIDES.get((command, action.dest), defaults[action.dest])
                assert action.default == expected, (command, action.dest)
                seen.add((command, action.dest))
        assert set(self.OVERRIDES) <= seen

    def test_simulate_spec_is_the_service_spec(self):
        args = build_parser().parse_args(
            ["simulate", "--workload", "water", "--strategy", "adapt", "--restructured",
             "--cpus", "4", "--seed", "7", "--scale", "1", "--transfer", "32",
             "--protocol", "msi", "--adapt-high", "0.9", "--adapt-low", "0.5",
             "--adapt-window", "1024"]
        )
        body = {
            "workload": "Water", "strategy": "ADAPT", "restructured": True, "num_cpus": 4,
            "seed": 7, "scale": 1, "transfer_cycles": 32, "protocol": "msi",
            "adapt_high": 0.9, "adapt_low": 0.5, "adapt_window": 1024,
        }
        spec = _spec(args)
        assert spec == ScenarioSpec.from_dict(body)
        assert spec.config_key == ScenarioSpec.from_dict(body).config_key

    @pytest.mark.parametrize("argv", REMOVED, ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", PER_RUN, ids=lambda command: command[0])
    def test_unknown_workload_exits_2(self, command, capsys):
        assert main([*command, "--workload", "nosuch"]) == 2
        assert "unknown workload" in capsys.readouterr().err.lower()

    def test_workload_is_case_insensitive(self):
        args = build_parser().parse_args(["stats", "--workload", "PVERIFY"])
        assert args.workload == "Pverify"
