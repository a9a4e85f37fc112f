"""repro: a reproduction of Tullsen & Eggers, "Limitations of Cache
Prefetching on a Bus-Based Multiprocessor" (ISCA 1993).

The package provides, end to end, the paper's experimental pipeline:

1. :mod:`repro.workloads` -- executable kernels standing in for the
   paper's five traced parallel programs;
2. :mod:`repro.prefetch` -- the off-line oracle prefetch-insertion pass
   and the five strategies (NP, PREF, EXCL, LPD, PWS);
3. :mod:`repro.sim` -- the bus-based multiprocessor simulator (Illinois
   coherence, lockup-free caches, split-transaction bus);
4. :mod:`repro.metrics` / :mod:`repro.experiments` -- the paper's
   metrics and one runner per table and figure.

Quickstart::

    from repro import MachineConfig, PREF, run_strategy

    result = run_strategy("Water", PREF, MachineConfig())
    print(result.run.cpu_miss_rate, result.comparison.speedup)
"""

import importlib

__version__ = "1.0.0"

#: Each public name and the module that defines it.  Names resolve on
#: first access (PEP 562), so ``import repro.<subpackage>`` loads only
#: the layers that subpackage uses.
_EXPORTS = {
    "AuditReport": "repro.audit.report",
    "AuditViolation": "repro.audit.report",
    "BusConfig": "repro.common.config",
    "CacheConfig": "repro.common.config",
    "MachineConfig": "repro.common.config",
    "PrefetchConfig": "repro.common.config",
    "SimulationConfig": "repro.common.config",
    "ConfigurationError": "repro.common.errors",
    "ReproError": "repro.common.errors",
    "SimulationError": "repro.common.errors",
    "TraceError": "repro.common.errors",
    "RunComparison": "repro.metrics.compare",
    "compare_runs": "repro.metrics.compare",
    "speedup_table": "repro.metrics.compare",
    "CpuMetrics": "repro.metrics.results",
    "MissCounts": "repro.metrics.results",
    "RunMetrics": "repro.metrics.results",
    "ALL_STRATEGIES": "repro.prefetch.strategies",
    "EXCL": "repro.prefetch.strategies",
    "LPD": "repro.prefetch.strategies",
    "NP": "repro.prefetch.strategies",
    "PBUF": "repro.prefetch.strategies",
    "PREF": "repro.prefetch.strategies",
    "PREFETCH_STRATEGIES": "repro.prefetch.strategies",
    "PWS": "repro.prefetch.strategies",
    "PrefetchStrategy": "repro.prefetch.strategies",
    "strategy_by_name": "repro.prefetch.strategies",
    "insert_prefetches": "repro.prefetch.insertion",
    "insert_perfect_prefetches": "repro.prefetch.oracle",
    "advise": "repro.analysis",
    "profile_sharing": "repro.analysis",
    "simulate": "repro.sim.engine",
    "CpuTrace": "repro.trace.stream",
    "MultiTrace": "repro.trace.stream",
    "ALL_WORKLOAD_NAMES": "repro.workloads.registry",
    "RESTRUCTURABLE_WORKLOAD_NAMES": "repro.workloads.registry",
    "generate_workload": "repro.workloads.registry",
    "get_workload": "repro.workloads.registry",
    "ExperimentRunner": "repro.experiments.runner",
    "StrategyResult": "repro.experiments.runner",
    "run_strategy": "repro.experiments.runner",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
