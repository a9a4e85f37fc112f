"""Shared experiment execution: one frozen job, one pipeline, caches around it.

A :class:`RunJob` is the full input of one simulation -- workload
variant, strategy, machine and the runner frame (CPUs, seed, scale) --
and owns the run's identity: :meth:`RunJob.payload` and its
``config_key`` (the disk cache's key, the ledger's ``config_key`` and
the service's dedup key), and the grid-point :attr:`RunJob.label`.
The key is built from the machine's and strategy's canonical JSON,
which each frozen config renders once, and the runner keys its result
memo by it, so a warm point renders no payload and hashes no job.

:func:`execute` is the pipeline, written once: insert the strategy's
prefetches into the job's clean trace, simulate it on the job's machine
and collect the metrics under the job's strategy label.  Every path
calls it: :meth:`ExperimentRunner.run` in process, the process-pool
worker on its per-process trace LRU, and the audited grid
(:mod:`repro.audit.grid`).

An :class:`ExperimentRunner` pins the experimental frame and memoises

* *clean traces* per workload variant -- generation is pure Python and
  worth avoiding per strategy (a small LRU bounds memory);
* *simulation results* per ``config_key`` -- Figure 1, Table 2,
  Figure 2 and Figure 3 all share runs.

Annotated (prefetch-inserted) traces are not cached here:
:func:`~repro.prefetch.insertion.insert_prefetches` memoises, for the
most recent clean trace only, one filter plan per cache geometry (the
oracle's miss indices, shared by every strategy) and one annotation
per set of strategy fields it reads.  So consecutive runs of one
workload and strategy on several buses share one insertion, every
strategy on that trace shares one filter pass, and ADAPT reuses PWS's
annotated trace.

On top of the in-memory memo the runner optionally layers

* a **persistent disk cache** (``disk_cache=``, see
  :mod:`repro.perf.diskcache`) keyed by the job's ``config_key`` --
  every field that can change a result, including
  :data:`~repro.sim.engine.ENGINE_VERSION` -- so a repeated bench
  session re-simulates nothing;
* a **process-parallel backend** (``max_workers=``): :meth:`run_many`
  (and :meth:`sweep`/:meth:`compare`, which route through it) fans new
  simulations over a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Each simulation is a pure function of its job, so parallel results
  are *byte-identical* to serial ones and come back in job order; and
* **fleet telemetry** (``telemetry=`` on :meth:`run_many`, see
  :mod:`repro.telemetry.fleet`): a ledger entry per simulation, live
  heartbeats with stall flags, a per-job deadline and a metrics
  registry.  A batch without a config runs under a disabled one, on
  the same path.  A failed grid point never aborts the batch: every
  failure is collected (and ledgered when telemetry is on) and raised
  once as a :class:`~repro.telemetry.fleet.FleetError` after the
  surviving points are stored.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import cached_property
from hashlib import sha256
from pathlib import Path
from typing import Any

from repro.common.codec import json_scalar
from repro.common.config import MachineConfig, SimulationConfig
from repro.metrics.compare import RunComparison, compare_runs
from repro.metrics.results import RunMetrics
# ``content_key`` is kept as a module attribute for bench/layers.py, which
# wraps the name; ``RunJob.config_key`` builds the same text from cached parts.
from repro.perf.diskcache import ResultDiskCache, content_key  # noqa: F401
from repro.prefetch.insertion import forget_annotations, insert_prefetches
from repro.prefetch.strategies import NP, PrefetchStrategy
from repro.sim.engine import ENGINE_VERSION, SimulationEngine, simulate
from repro.telemetry.fleet import FleetError, JobFailure, Probe, TelemetryConfig
from repro.trace.stream import MultiTrace
from repro.workloads.registry import generate_workload

__all__ = [
    "DEFAULT_TRANSFER_LATENCIES",
    "Execution",
    "ExperimentRunner",
    "RunJob",
    "StrategyResult",
    "execute",
    "grid_label",
    "process_trace",
    "run_strategy",
    "strategy_label",
]

#: The paper's data-bus transfer-latency sweep (Table 2, Figure 2).
DEFAULT_TRANSFER_LATENCIES: tuple[int, ...] = (4, 8, 16, 32)

#: Transfer latency used by the fixed-machine experiments (Figures 1, 3;
#: Tables 3, 4).
DEFAULT_FIGURE_LATENCY = 8

#: Clean traces each trace LRU keeps: a runner's, or a process's.
TRACE_CACHE_SIZE = 3


@dataclass(frozen=True)
class StrategyResult:
    """A strategy run bundled with its NP baseline and the comparison."""

    run: RunMetrics
    baseline: RunMetrics
    comparison: RunComparison


def strategy_label(name: str, restructured: bool) -> str:
    """A run's strategy label: the name, plus ``+restructured`` for the
    restructured workload variant (what ``RunMetrics.strategy`` holds)."""
    return f"{name}+restructured" if restructured else name


def grid_label(workload: str, strategy: str, restructured: bool, transfer_cycles: Any) -> str:
    """The grid-point label: ``<workload>/<strategy>[+restructured]@<N>c``."""
    return f"{workload}/{strategy_label(strategy, restructured)}@{transfer_cycles}c"


#: :meth:`RunJob.payload`'s canonical JSON (sorted keys) with its
#: nested records and scalars left as fields, so a key embeds the
#: machine's and strategy's cached text instead of re-rendering them.
_KEY_TEXT = (
    f'{{"engine_version":{json_scalar(ENGINE_VERSION)},"machine":%s,"num_cpus":%s,'
    '"restructured":%s,"scale":%s,"seed":%s,"strategy":%s,"workload":%s}'
)


@dataclass(frozen=True)
class RunJob:
    """The full input of one simulation, and so its identity.

    Jobs are frozen and picklable; the runner keys its memo by
    :attr:`config_key`, whose string hash CPython caches.
    """

    workload: str
    strategy: PrefetchStrategy
    machine: MachineConfig
    restructured: bool = False
    num_cpus: int = 12
    seed: int = 42
    scale: float = 1.0

    @property
    def strategy_label(self) -> str:
        """The strategy label the result carries."""
        return strategy_label(self.strategy.name, self.restructured)

    @property
    def label(self) -> str:
        """Human-readable grid-point label (progress lines, failures)."""
        return grid_label(
            self.workload, self.strategy.name, self.restructured, self.machine.bus.transfer_cycles
        )

    def payload(self) -> dict[str, Any]:
        """The full simulation input, as hashed into :attr:`config_key`.

        Every field that can change the result is present -- including
        ``engine_version``, so behavior-altering engine changes never
        serve stale cache entries.
        """
        return {
            "workload": self.workload,
            "restructured": self.restructured,
            "num_cpus": self.num_cpus,
            "seed": self.seed,
            "scale": self.scale,
            "strategy": self.strategy.describe(),
            "machine": self.machine.describe(),
            "engine_version": ENGINE_VERSION,
        }

    @cached_property
    def config_key(self) -> str:
        """SHA-256 content hash of :meth:`payload`: ``content_key(self.payload())``,
        assembled from the machine's and strategy's cached canonical text."""
        text = _KEY_TEXT % (
            self.machine.canonical_json,
            json_scalar(self.num_cpus),
            json_scalar(self.restructured),
            json_scalar(self.scale),
            json_scalar(self.seed),
            self.strategy.canonical_json,
            json_scalar(self.workload),
        )
        return sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Execution:
    """What one :func:`execute` call produced.

    Attributes:
        metrics: the run's :class:`RunMetrics` (its ``to_dict()`` form
            while crossing back from a pool worker).
        wall_seconds: insertion plus simulation wall time.
        events: trace events retired.
        worker_pid: the process that executed the job.
    """

    metrics: Any
    wall_seconds: float
    events: int
    worker_pid: int


def execute(
    job: RunJob,
    sim_config: SimulationConfig,
    trace: MultiTrace,
    probe: Probe | None = None,
) -> Execution:
    """Run ``job``'s pipeline on its clean ``trace``.

    Inserts the strategy's prefetches, simulates the annotated trace on
    the job's machine and collects the metrics under the job's strategy
    label.  Without a ``probe`` the engine runs through
    :func:`~repro.sim.engine.simulate`; with one it runs under the
    probe's heartbeat sampler and spans, as the probe asks, and the
    probe keeps the returned :class:`Execution`.
    """
    started = time.perf_counter()
    annotated, _report = insert_prefetches(trace, job.strategy, job.machine.cache)
    events = sum(len(cpu_trace) for cpu_trace in annotated.cpus)
    adaptive = job.strategy.adaptive_config()
    if probe is None:
        metrics = simulate(
            annotated,
            job.machine,
            strategy_name=job.strategy_label,
            sim_config=sim_config,
            adaptive=adaptive,
        )
    else:
        engine = SimulationEngine(annotated, job.machine, sim_config, adaptive=adaptive)
        with probe.watch(engine, events, started):
            engine.run()
            metrics = engine.collect_metrics(job.strategy_label)
    done = Execution(metrics, time.perf_counter() - started, events, os.getpid())
    if probe is not None:
        probe.execution = done
    return done


def _cached_trace(
    cache: OrderedDict[tuple, MultiTrace],
    workload: str,
    restructured: bool,
    num_cpus: int,
    seed: int,
    scale: float,
) -> MultiTrace:
    """A clean trace from an LRU dict, generated on a miss.

    A miss drops the insertion memo first: the new trace is about to
    become the most recent one, and freeing the old annotations before
    generation keeps them out of the generator's memory peak (on the
    serve benchmark, peak RSS was 1.0% above that of un-memoised
    insertion without this drop, and 0.1% below it with the drop).
    """
    key = (workload, restructured, num_cpus, seed, scale)
    trace = cache.get(key)
    if trace is None:
        forget_annotations()
        trace = cache[key] = generate_workload(
            workload, num_cpus=num_cpus, seed=seed, scale=scale, restructured=restructured
        )
        while len(cache) > TRACE_CACHE_SIZE:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return trace


#: This process's clean-trace LRU, for pool workers (reused across jobs)
#: and the audited grid.
_PROCESS_TRACES: OrderedDict[tuple, MultiTrace] = OrderedDict()


def process_trace(job: RunJob) -> MultiTrace:
    """``job``'s clean trace from this process's LRU."""
    return _cached_trace(
        _PROCESS_TRACES, job.workload, job.restructured, job.num_cpus, job.seed, job.scale
    )


def _execute_in_worker(
    job: RunJob, sim_config: SimulationConfig, probe: Probe | None
) -> Execution:
    """Process-pool worker: :func:`execute` on this process's trace LRU.

    A telemetered worker first sends a ``generate`` heartbeat naming its
    pid, so ``job_timeout`` can kill it while it is still generating or
    inserting, before the engine's sampler beats.  The metrics cross
    back in their ``to_dict()`` form, which keeps any ``audit`` and
    ``obs`` payload (the disk cache's :meth:`RunMetrics.to_row` form
    carries neither).
    """
    if probe is not None:
        probe.beat("generate")
    done = execute(job, sim_config, process_trace(job), probe)
    return replace(done, metrics=done.metrics.to_dict())


# The pool worker replaced this job function; bench/layers.py wraps the name.
run_telemetered_job = _execute_in_worker


class ExperimentRunner:
    """Caching façade over generate → :func:`execute`.

    Args:
        num_cpus: processors for every run.
        seed: workload-generation seed.
        scale: workload work multiplier (trace length knob).
        max_workers: worker processes for the batch entry points
            (:meth:`run_many`, :meth:`sweep`, :meth:`compare`).  None,
            0 or 1 keeps everything serial and in-process (default).
        disk_cache: directory for the persistent result cache (see
            :mod:`repro.perf.diskcache`), or a cache instance to share
            with other runners; None disables it.
        sim_config: engine-level options applied to every run.  When
            ``sim_config.audit`` is set the disk cache is bypassed in
            both directions: a cache hit would skip the audit entirely,
            and stored entries must keep the unaudited wire format.
            ``sim_config.observe`` bypasses it for the same reason (a
            hit would return a result with no telemetry attached).
    """

    def __init__(
        self,
        num_cpus: int = 12,
        seed: int = 42,
        scale: float = 1.0,
        max_workers: int | None = None,
        disk_cache: str | Path | ResultDiskCache | None = None,
        sim_config: SimulationConfig | None = None,
    ) -> None:
        self.num_cpus = num_cpus
        self.seed = seed
        self.scale = scale
        self.max_workers = max_workers
        self.sim_config = sim_config if sim_config is not None else SimulationConfig()
        if isinstance(disk_cache, ResultDiskCache):
            self.disk_cache = disk_cache
        else:
            self.disk_cache = ResultDiskCache(disk_cache) if disk_cache else None
        self._traces: OrderedDict[tuple, MultiTrace] = OrderedDict()
        self._results: dict[str, RunMetrics] = {}
        self._trace_metadata: dict[tuple, dict[str, Any]] = {}

    def base_machine(self) -> MachineConfig:
        """The default machine for this runner's frame (matching CPUs)."""
        return MachineConfig(num_cpus=self.num_cpus)

    def job(
        self,
        workload: str,
        strategy: PrefetchStrategy,
        machine: MachineConfig,
        restructured: bool = False,
    ) -> RunJob:
        """The :class:`RunJob` of one configuration in this runner's frame."""
        return RunJob(
            workload, strategy, machine, restructured, self.num_cpus, self.seed, self.scale
        )

    # --------------------------------------------------------------- traces

    def clean_trace(self, workload: str, restructured: bool = False) -> MultiTrace:
        """The NP (un-annotated) trace for a workload variant (cached)."""
        trace = _cached_trace(
            self._traces, workload, restructured, self.num_cpus, self.seed, self.scale
        )
        if (workload, restructured) not in self._trace_metadata:
            self._trace_metadata[(workload, restructured)] = dict(trace.metadata)
        return trace

    def trace_metadata(self, workload: str, restructured: bool = False) -> dict[str, Any]:
        """Metadata of a previously generated trace (generates if needed)."""
        key = (workload, restructured)
        if key not in self._trace_metadata:
            self.clean_trace(workload, restructured)
        return self._trace_metadata[key]

    # ------------------------------------------------------------ disk cache

    @property
    def _usable_cache(self) -> ResultDiskCache | None:
        """The disk cache, unless audits or taps bypass it."""
        if self.sim_config.audit or self.sim_config.observe:
            return None
        return self.disk_cache

    def cached(self, config_key: str) -> RunMetrics | None:
        """The disk-cached result under ``config_key``, or None on a miss.

        The one decode site for cached results: :meth:`run` and
        :meth:`run_many` look points up here, and so does the service's
        result read.  Entries hold :meth:`RunMetrics.to_row`; one that
        does not decode to this version's :class:`RunMetrics` (another
        ``ROW_SCHEMA``, a row of another length, an entry written
        before rows) counts as a miss, so the point is re-simulated and
        its entry overwritten.
        """
        cache = self._usable_cache
        data = cache.load(config_key) if cache is not None else None
        if data is None:
            return None
        try:
            return RunMetrics.from_dict(data)
        except (AttributeError, KeyError, TypeError, ValueError):
            cache.reject()
            return None

    def _lookup(self, job: RunJob) -> tuple[RunMetrics | None, str]:
        """A memo or disk-cache hit for ``job``, with its kind (``"memo"``
        or ``"hit"``); a disk hit is memoised."""
        key = job.config_key
        result = self._results.get(key)
        if result is not None:
            return result, "memo"
        result = self.cached(key)
        if result is not None:
            self._results[key] = result
        return result, "hit"

    def _keep(self, job: RunJob, result: RunMetrics) -> None:
        """Store a fresh result on disk (when usable) and in the memo."""
        cache = self._usable_cache
        if cache is not None:
            cache.store(job.config_key, result.to_row(), job.payload())
        self._results[job.config_key] = result

    # ----------------------------------------------------------------- runs

    def run(
        self,
        workload: str,
        strategy: PrefetchStrategy,
        machine: MachineConfig,
        restructured: bool = False,
        *,
        probe: Probe | None = None,
    ) -> RunMetrics:
        """Simulate one configuration (memoised, disk-cached).

        ``probe`` instruments a fresh execution (see
        :class:`~repro.telemetry.fleet.Probe`); :meth:`run_many` passes
        one per point of a telemetered batch.
        """
        job = self.job(workload, strategy, machine, restructured)
        result, _kind = self._lookup(job)
        if result is not None:
            return result
        trace = self.clean_trace(workload, restructured)
        result = execute(job, self.sim_config, trace, probe).metrics
        self._keep(job, result)
        return result

    def run_many(
        self,
        jobs: list[tuple],
        telemetry: TelemetryConfig | None = None,
    ) -> list[RunMetrics]:
        """Simulate a batch of configurations, in parallel if configured.

        ``jobs`` holds ``(workload, strategy, machine)`` or
        ``(workload, strategy, machine, restructured)`` tuples.
        Duplicates (jobs with one ``config_key``) collapse first; then
        each distinct configuration is looked up once in the memo and the
        disk cache, in order of first appearance, and only genuinely new
        ones are simulated.  Serially each goes through :meth:`run`;
        with ``max_workers > 1`` they fan out over a process pool.
        Results are returned in **job order** regardless of completion
        order, and -- simulation being a pure function -- are
        byte-identical either way.

        With a :class:`~repro.telemetry.fleet.TelemetryConfig` the
        batch additionally appends a run-ledger entry per disk hit and
        per fresh simulation, streams worker heartbeats to a live fleet
        progress line with stall flags, bounds each pooled point by its
        ``job_timeout`` and updates the config's metrics registry.
        Either way a failed point does not abort the batch: every
        failure is collected (and ledgered, ``outcome: error``/
        ``timeout``) into one :class:`~repro.telemetry.fleet.FleetError`,
        raised after all surviving points have been stored.
        """
        if telemetry is None:
            telemetry = TelemetryConfig(enabled=False)
        distinct: dict[str, tuple[RunJob, list[int]]] = {}
        for i, spec in enumerate(jobs):
            job = self.job(*spec)
            seen = distinct.get(job.config_key)
            if seen is None:
                distinct[job.config_key] = (job, [i])
            else:
                seen[1].append(i)
        results: list[RunMetrics | None] = [None] * len(jobs)
        todo: list[tuple[RunJob, list[int]]] = []
        for job, where in distinct.values():
            result, kind = self._lookup(job)
            if result is None:
                todo.append((job, where))
            else:
                for i in where:
                    results[i] = result
                telemetry.record_hit(job, result, kind)
        if todo:
            failures = self._execute_pending(todo, results, telemetry)
            if failures:
                heads = "; ".join(f"{f.label}: {f.message}" for f in failures[:3])
                more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
                raise FleetError(
                    f"{len(failures)} of {len(todo)} grid points failed -- {heads}{more}",
                    failures,
                )
        return results  # type: ignore[return-value]

    def _execute_pending(
        self,
        todo: list[tuple[RunJob, list[int]]],
        results: list[RunMetrics | None],
        telemetry: TelemetryConfig,
    ) -> list[JobFailure]:
        """Execute a batch's fresh points into ``results``; return the failures.

        Pooled, each future is awaited with the telemetry's
        ``job_timeout``, the one deadline: on expiry the point fails as
        ``timeout`` and its worker (known from its heartbeats) is killed
        so pool shutdown cannot block forever.  A killed or crashed
        worker breaks the pool, and every still-unfinished point fails
        as ``error``.  Completed results are kept.
        """
        pending = [job for job, _where in todo]
        failures: list[JobFailure] = []
        cache_state = "miss" if self._usable_cache is not None else "off"
        workers = min(self.max_workers or 1, len(pending))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures import TimeoutError as FuturesTimeout
            from concurrent.futures.process import BrokenProcessPool
        else:  # a serial batch loads no pool, and its pool clauses match nothing
            FuturesTimeout = BrokenProcessPool = ()
        with telemetry.batch(pending, parallel=workers > 1) as batch, ExitStack() as stack:
            if workers > 1:
                pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
                futures = [
                    pool.submit(_execute_in_worker, job, self.sim_config, batch.probe(j))
                    for j, job in enumerate(pending)
                ]
            for j, job in enumerate(pending):
                failure: tuple[str, str] | None = None
                try:
                    if workers > 1:
                        done = futures[j].result(timeout=batch.timeout)
                        done = replace(done, metrics=RunMetrics.from_dict(done.metrics))
                        result = done.metrics
                        self._keep(job, result)
                    else:
                        probe = batch.probe(j)
                        result = self.run(
                            job.workload, job.strategy, job.machine, job.restructured, probe=probe
                        )
                        done = probe.execution if probe is not None else None
                except FuturesTimeout:
                    failure = ("timeout", f"no result within {batch.timeout:g}s")
                    batch.kill(j)
                except BrokenProcessPool:
                    failure = ("error", "worker pool broke (a worker process died)")
                except Exception as exc:
                    failure = ("error", str(exc) or type(exc).__name__)
                else:
                    for i in todo[j][1]:
                        results[i] = result
                    if done is not None:
                        telemetry.record_run(job, done, cache_state)
                    else:  # no execution: another writer filled the disk cache
                        telemetry.record_hit(job, result, "hit")
                if failure is not None:
                    failures.append(JobFailure(job.config_key, job.label, *failure))
                    telemetry.record_failure(job, failures[-1])
                batch.done(j)
        return failures

    def compare(
        self,
        workload: str,
        strategy: PrefetchStrategy,
        machine: MachineConfig,
        restructured: bool = False,
    ) -> StrategyResult:
        """Run a strategy and its NP baseline; bundle the comparison.

        The baseline shares the restructuring flag: restructured runs are
        compared against the restructured NP run, as in Table 5.
        """
        baseline, run = self.run_many(
            [
                (workload, NP, machine, restructured),
                (workload, strategy, machine, restructured),
            ]
        )
        return StrategyResult(run=run, baseline=baseline, comparison=compare_runs(baseline, run))

    def sweep(
        self,
        workload: str,
        strategies: tuple[PrefetchStrategy, ...],
        machine: MachineConfig,
        transfer_latencies: tuple[int, ...] = DEFAULT_TRANSFER_LATENCIES,
        restructured: bool = False,
    ) -> dict[int, dict[str, RunMetrics]]:
        """Run strategies across the bus-latency sweep.

        Returns ``{transfer_cycles: {strategy_name: RunMetrics}}``.
        The grid goes through :meth:`run_many`, so a parallel runner
        simulates its points concurrently.
        """
        flat = self.run_many(
            [
                (workload, s, machine.with_transfer_cycles(cycles), restructured)
                for cycles in transfer_latencies
                for s in strategies
            ]
        )
        out: dict[int, dict[str, RunMetrics]] = {}
        it = iter(flat)
        for cycles in transfer_latencies:
            out[cycles] = {s.name: next(it) for s in strategies}
        return out

    @property
    def cached_run_count(self) -> int:
        """Number of memoised simulation results."""
        return len(self._results)


_DEFAULT_RUNNER: ExperimentRunner | None = None


def default_runner() -> ExperimentRunner:
    """A process-wide shared runner (used by :func:`run_strategy`)."""
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = ExperimentRunner()
    return _DEFAULT_RUNNER


def run_strategy(
    workload: str,
    strategy: PrefetchStrategy,
    machine: MachineConfig | None = None,
    restructured: bool = False,
) -> StrategyResult:
    """One-call convenience: run a strategy vs. NP on the default runner."""
    return default_runner().compare(
        workload, strategy, machine or MachineConfig(), restructured
    )
