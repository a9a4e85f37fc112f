"""Every recording that ``ENGINE_VERSION`` pins, with the version it was recorded under.

A change to simulated behaviour bumps ``ENGINE_VERSION``
(:mod:`repro.sim.engine`).  Each pin below was recorded by one engine
version and means nothing under another, so after a bump this test
fails, naming each pin, until every one is re-recorded and its entry
here updated.  Where the recording carries its version (the bench
digests, the benchmark history, the ledger file), the version is read
from it; the others carry none, so their version is written here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.engine import ENGINE_VERSION

ROOT = Path(__file__).resolve().parents[1]


def _digests() -> str:
    """The newest version with a digest for every bench workload."""
    digests = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
    complete = [
        version
        for version, by_workload in digests.items()
        if {"grid-cold", "grid-warm", "diagnose"} <= set(by_workload)
    ]
    return max(complete, key=int, default="none")


def _history(metric: str) -> str:
    """The version of the newest grid-cold history entry reporting ``metric``:
    ``points_per_s`` (untraced, the CI floor's reference) or
    ``sim.events_per_s`` (traced, the SLO sentinel's)."""
    history = json.loads((ROOT / "BENCH_history.json").read_text(encoding="utf-8"))
    for entry in reversed(history):
        value = entry.get("metrics", {}).get(metric)
        if entry.get("workload") == "grid-cold" and isinstance(value, (int, float)) and value > 0:
            return entry["provenance"]["engine_version"]
    return "none"


def _ledger() -> str:
    """The one version every line of the golden ledger was written under."""
    lines = (ROOT / "tests" / "data" / "ledger_two_point.jsonl").read_text(encoding="utf-8")
    versions = {json.loads(line)["engine_version"] for line in lines.splitlines() if line}
    return versions.pop() if len(versions) == 1 else f"mixed {sorted(versions)}"


#: pin -> (version it was recorded under, how to re-record it).
PINS = {
    "tests/test_perf.py::TestSaturatedBusGolden": (
        lambda: "2",
        "re-run its points and replace DIGEST",
    ),
    "bench/digests.json": (
        _digests,
        "add a key for the new version with each workload's seed-42 digest",
    ),
    "BENCH_history.json (grid-cold)": (
        lambda: _history("points_per_s"),
        "append a seed-42 `python -m bench --workload grid-cold --seconds 15` entry",
    ),
    "BENCH_history.json (grid-cold, traced)": (
        lambda: _history("sim.events_per_s"),
        "append the same run with `--trace 1`",
    ),
    "tests/test_service.py::GOLDEN_KEYS": (
        lambda: "2",
        "config_key hashes engine_version: re-derive the three keys",
    ),
    "tests/data/ledger_two_point.jsonl": (
        _ledger,
        "re-write the ledger (its config_key and engine_version fields move)",
    ),
    "results/ablation_victim_cache.txt": (
        lambda: "2",
        "re-render it with `python -m pytest benchmarks/test_ablation_victim_cache.py`",
    ),
}


@pytest.mark.parametrize("pin", sorted(PINS))
def test_pin_was_recorded_under_the_running_engine_version(pin):
    recorded, rerecord = PINS[pin]
    assert recorded() == ENGINE_VERSION, (
        f"{pin} was recorded under engine version {recorded()!r}, the engine is "
        f"{ENGINE_VERSION!r}: {rerecord}, then update its entry in {Path(__file__).name}"
    )


def test_no_pin_follows_the_running_version():
    """Control: no pin may hold under a bumped version (one reading
    ``ENGINE_VERSION`` itself would pass every bump vacuously)."""
    bumped = str(int(ENGINE_VERSION) + 1)
    assert [pin for pin, (recorded, _) in PINS.items() if recorded() == bumped] == []
