"""Extension experiment: bandwidth-adaptive throttling (ADAPT).

The paper's Figures 2/3 show prefetching's speedup collapsing as the
data bus slows: the disciplines lower the CPU-observed miss rate but
raise total bus demand, and at 32-cycle transfers the extra traffic
eats the latency they hide.  ADAPT (see :mod:`repro.prefetch.adaptive`)
is the feedback answer -- PWS's aggressive insertion with a runtime
bus-utilization throttle -- and this experiment replays the Figure 2/3
workload x bus-speed grid with ADAPT alongside NP, PREF and PWS to show
the recovery:

* on fast buses ADAPT stays within a few percent of PWS (the throttle
  engages only in brief saturation bursts), keeping the paper's
  best-case speedups;
* on the slow bus ADAPT holds windowed utilization at or below its
  configured ceiling and beats *PREF* -- the paper's baseline
  discipline -- where the open-loop disciplines give their gains back.

The headline claim this experiment checks (and ``main`` gates CI on):
at the slowest bus in the sweep, ADAPT's measured bus utilization stays
at or below its high watermark *and* its speedup over NP exceeds
PREF's, on at least :data:`CLAIM_MIN_WORKLOADS` workloads.

Water is the interesting counter-case: its prefetches are valuable even
through saturation phases (the paper's Table 2 shows it as the least
bus-bound workload), so shedding them costs more than the bandwidth
returned -- a faithful echo of the paper's point that bandwidth, not
policy, is the first-order limit.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.runner import DEFAULT_TRANSFER_LATENCIES, ExperimentRunner
from repro.metrics.formatting import format_table
from repro.prefetch.strategies import ADAPT, NP, PREF, PWS, AdaptiveStrategy
from repro.workloads.registry import ALL_WORKLOAD_NAMES

__all__ = [
    "CLAIM_MIN_WORKLOADS",
    "AdaptiveCell",
    "AdaptiveResult",
    "main",
    "render",
    "render_chart",
    "run",
]

#: Strategies replayed alongside ADAPT (NP is the speedup baseline).
COMPARISON_STRATEGIES = (NP, PREF, PWS)

#: The acceptance claim requires this many qualifying workloads.
CLAIM_MIN_WORKLOADS = 2

#: The CI smoke frame (matches the audited quick grid's workload scale).
QUICK_CPUS = 12
QUICK_SCALE = 0.25
QUICK_LATENCIES = (4, 32)


@dataclass
class AdaptiveCell:
    """One (workload, strategy, latency) grid point.

    Attributes:
        speedup: NP exec cycles / this strategy's exec cycles (NP = 1.0).
        bus_utilization: whole-run bus busy fraction.
        prefetches_issued: prefetch instructions executed (incl. drops).
        prefetch_drops: prefetches dropped by the ADAPT throttle (0 for
            the open-loop disciplines).
    """

    speedup: float
    bus_utilization: float
    prefetches_issued: int = 0
    prefetch_drops: int = 0

    def to_dict(self) -> dict[str, float | int]:
        return {
            "speedup": round(self.speedup, 4),
            "bus_utilization": round(self.bus_utilization, 4),
            "prefetches_issued": self.prefetches_issued,
            "prefetch_drops": self.prefetch_drops,
        }


@dataclass
class AdaptiveResult:
    """``cells[workload][strategy][transfer_cycles]`` -> :class:`AdaptiveCell`.

    ``ceiling`` is the ADAPT high watermark the claim is judged against.
    """

    transfer_latencies: tuple[int, ...]
    ceiling: float
    cells: dict[str, dict[str, dict[int, AdaptiveCell]]] = field(default_factory=dict)

    @property
    def slow_bus(self) -> int:
        """The slowest (largest-latency) bus in the sweep."""
        return max(self.transfer_latencies)

    def qualifying_workloads(self) -> list[str]:
        """Workloads where ADAPT makes the claim at the slow bus.

        Qualify = ADAPT's slow-bus utilization stays at or below the
        ceiling *and* its slow-bus speedup beats PREF's.
        """
        slow = self.slow_bus
        out = []
        for workload, by_strategy in self.cells.items():
            adapt = by_strategy[ADAPT.name][slow]
            pref = by_strategy[PREF.name][slow]
            if adapt.bus_utilization <= self.ceiling and adapt.speedup > pref.speedup:
                out.append(workload)
        return out

    @property
    def claim_holds(self) -> bool:
        """The acceptance claim (>= CLAIM_MIN_WORKLOADS qualify)."""
        return len(self.qualifying_workloads()) >= CLAIM_MIN_WORKLOADS

    def to_dict(self) -> dict[str, object]:
        """JSON-safe artifact (the ``--json`` output)."""
        return {
            "transfer_latencies": list(self.transfer_latencies),
            "ceiling": self.ceiling,
            "slow_bus": self.slow_bus,
            "qualifying_workloads": self.qualifying_workloads(),
            "claim_holds": self.claim_holds,
            "cells": {
                workload: {
                    strategy: {
                        str(cycles): cell.to_dict() for cycles, cell in by_c.items()
                    }
                    for strategy, by_c in by_s.items()
                }
                for workload, by_s in self.cells.items()
            },
        }


def run(
    runner: ExperimentRunner | None = None,
    transfer_latencies: tuple[int, ...] = DEFAULT_TRANSFER_LATENCIES,
    adapt: AdaptiveStrategy = ADAPT,
) -> AdaptiveResult:
    """Sweep all workloads x (NP, PREF, PWS, ADAPT) over the latencies."""
    runner = runner or ExperimentRunner()
    strategies = COMPARISON_STRATEGIES + (adapt,)
    result = AdaptiveResult(
        transfer_latencies=tuple(transfer_latencies),
        ceiling=adapt.high_watermark,
    )
    for workload in ALL_WORKLOAD_NAMES:
        by_strategy: dict[str, dict[int, AdaptiveCell]] = {
            s.name: {} for s in strategies
        }
        for cycles in transfer_latencies:
            machine = runner.base_machine().with_transfer_cycles(cycles)
            baseline = runner.run(workload, NP, machine)
            for strategy in strategies:
                metrics = runner.run(workload, strategy, machine)
                by_strategy[strategy.name][cycles] = AdaptiveCell(
                    speedup=baseline.exec_cycles / metrics.exec_cycles,
                    bus_utilization=metrics.bus_utilization,
                    prefetches_issued=metrics.prefetches_issued,
                    prefetch_drops=metrics.prefetch_drops,
                )
        result.cells[workload] = by_strategy
    return result


def render(result: AdaptiveResult) -> str:
    """Text rendering: the sweep table plus the claim verdict."""
    slow = result.slow_bus
    headers = ["Workload", "Discipline"] + [
        f"{c}c speedup" for c in result.transfer_latencies
    ] + [f"{c}c bus util" for c in result.transfer_latencies] + ["slow-bus drops"]
    rows = []
    for workload, by_strategy in result.cells.items():
        for strategy, by_cycles in by_strategy.items():
            slow_cell = by_cycles[slow]
            drops = (
                f"{slow_cell.prefetch_drops}/{slow_cell.prefetches_issued}"
                if slow_cell.prefetch_drops
                else "-"
            )
            rows.append(
                [workload, strategy]
                + [round(by_cycles[c].speedup, 3) for c in result.transfer_latencies]
                + [
                    round(by_cycles[c].bus_utilization, 3)
                    for c in result.transfer_latencies
                ]
                + [drops]
            )
    table = format_table(
        headers,
        rows,
        title="Extension: bandwidth-adaptive throttling (speedup over NP)",
    )
    qualifying = result.qualifying_workloads()
    verdict = "HOLDS" if result.claim_holds else "FAILS"
    return (
        f"{table}\n"
        f"claim ({slow}-cycle bus): ADAPT utilization <= {result.ceiling:.2f} "
        f"and speedup > PREF on >= {CLAIM_MIN_WORKLOADS} workloads\n"
        f"qualifying workloads: {', '.join(qualifying) if qualifying else 'none'}\n"
        f"claim {verdict} ({len(qualifying)}/{CLAIM_MIN_WORKLOADS} required)"
    )


def render_chart(result: AdaptiveResult) -> str:
    """Per-workload speedup and bus-utilization panels (Figure 2 style)."""
    from repro.metrics.charts import line_chart

    panels = []
    for workload, by_strategy in result.cells.items():
        speedups = {
            strategy: [
                (float(c), cell.speedup) for c, cell in sorted(by_cycles.items())
            ]
            for strategy, by_cycles in by_strategy.items()
        }
        utils = {
            strategy: [
                (float(c), cell.bus_utilization)
                for c, cell in sorted(by_cycles.items())
            ]
            for strategy, by_cycles in by_strategy.items()
        }
        all_speedups = [y for pts in speedups.values() for _, y in pts]
        panels.append(
            line_chart(
                speedups,
                title=f"-- {workload}: speedup over NP vs data-bus latency --",
                y_min=min(0.95, min(all_speedups)),
                y_max=max(1.05, max(all_speedups)),
                height=12,
            )
        )
        panels.append(
            line_chart(
                utils,
                title=f"-- {workload}: bus utilization vs data-bus latency --",
                y_min=0.0,
                y_max=1.0,
                height=12,
            )
        )
    return "\n\n".join(panels)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; exits nonzero when the claim fails (CI gate)."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.adaptive",
        description="replay the Figure 2/3 grid with the ADAPT throttle added",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI frame: {QUICK_CPUS} CPUs, scale {QUICK_SCALE}, "
        f"latencies {'/'.join(str(c) for c in QUICK_LATENCIES)}",
    )
    parser.add_argument("--cpus", type=int, default=None, help="override CPU count")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=None, help="override scale")
    parser.add_argument(
        "--cache", default="results/.cache", help="disk cache dir ('' disables)"
    )
    parser.add_argument(
        "--out",
        default="results/extension_adaptive.txt",
        help="rendered table artifact ('' disables)",
    )
    parser.add_argument(
        "--json",
        default="results/extension_adaptive.json",
        help="JSON artifact ('' disables)",
    )
    parser.add_argument("--chart", action="store_true", help="also print the charts")
    args = parser.parse_args(argv)

    cpus = args.cpus if args.cpus is not None else (QUICK_CPUS if args.quick else 12)
    scale = args.scale if args.scale is not None else (QUICK_SCALE if args.quick else 1.0)
    latencies = QUICK_LATENCIES if args.quick else DEFAULT_TRANSFER_LATENCIES
    runner = ExperimentRunner(
        num_cpus=cpus,
        seed=args.seed,
        scale=scale,
        disk_cache=args.cache or None,
    )
    result = run(runner, transfer_latencies=latencies)
    text = render(result)
    print(text)
    if args.chart:
        print()
        print(render_chart(result))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n", encoding="utf-8")
    if args.json:
        doc = result.to_dict()
        # The runner's disk-cache traffic: which points a warm cache served.
        cache = runner.disk_cache
        doc["disk_cache"] = (
            {"hits": cache.hits, "misses": cache.misses, "stores": cache.stores}
            if cache is not None
            else None
        )
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if result.claim_holds else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
