"""Frozen run contracts for the simulation service.

The service's unit of request is a :class:`ScenarioSpec`: a validated,
immutable description of one simulation -- workload, strategy, machine
point and runner frame -- that hashes to **the same** ``config_key`` the
result disk cache (:mod:`repro.perf.diskcache`) and the run ledger
(:mod:`repro.telemetry.ledger`) already use.  One canonical hash across
all three layers is what makes request dedup honest: a million identical
``POST /runs`` submissions, a warm disk cache and a ledger replay all
agree on what "the same simulation" means.

Around the spec sit the execution-tracking contracts (modelled on the
celine digital-twin run contracts): a :class:`RunStatus` lifecycle
(queued → running → completed/failed), an immutable :class:`RunRef`
pointer, a mutable :class:`RunMetadata` record, and the
:class:`RunStore` protocol the scheduler persists state through (see
:mod:`repro.service.store` for the ledger-backed implementation).
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Any, Protocol, runtime_checkable

from repro.common.config import MachineConfig
from repro.common.errors import ConfigurationError
from repro.experiments.runner import RunJob
from repro.prefetch.strategies import (
    AdaptiveStrategy,
    PrefetchStrategy,
    strategy_by_name,
)
from repro.workloads.registry import ALL_WORKLOAD_NAMES

# Kept as a module attribute for bench/layers.py, which wraps this name.
from repro.perf.diskcache import content_key  # noqa: F401

__all__ = [
    "RUN_ID_LENGTH",
    "RunMetadata",
    "RunRef",
    "RunStatus",
    "RunStore",
    "ScenarioSpec",
    "utc_now",
]

#: Hex digits of the content key used as the public run id.  64 bits of
#: the SHA-256 -- short enough for URLs and logs, collision-free for any
#: realistic scenario population; the full key stays on the metadata.
RUN_ID_LENGTH = 16


def utc_now() -> str:
    """UTC ISO-8601 wall-clock timestamp (the ledger's format)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class RunStatus(str, Enum):
    """Lifecycle of one run: queued → running → completed/failed."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        """True once the run can no longer change state on its own."""
        return self in (RunStatus.COMPLETED, RunStatus.FAILED)


def _resolve_workload(name: str) -> str:
    for canonical in ALL_WORKLOAD_NAMES:
        if canonical.lower() == str(name).lower():
            return canonical
    raise ConfigurationError(
        f"unknown workload {name!r}; expected one of {', '.join(ALL_WORKLOAD_NAMES)}"
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation request, validated and canonically hashable.

    Construction canonicalizes names (workloads and strategies resolve
    case-insensitively, exactly as the CLI does) and validates every
    field eagerly by building the machine and strategy objects, so a bad
    request fails at the API boundary, never inside a worker.

    Attributes:
        workload: workload name (canonicalized; see ``repro list``).
        strategy: strategy label -- one of the paper's five, PBUF/ADAPT,
            or a derived name like ``"PREF(d=400)"``.
        restructured: run the restructured workload variant.
        num_cpus / seed / scale: the experiment-runner frame.
        transfer_cycles: contended data-bus transfer latency (the
            paper's 4..32-cycle sweep axis).
        protocol: ``"illinois"`` or ``"msi"``.
        adapt_high / adapt_low / adapt_window: optional ADAPT feedback
            overrides (rejected for open-loop strategies).
    """

    workload: str
    strategy: str = "PREF"
    restructured: bool = False
    num_cpus: int = 12
    seed: int = 42
    scale: float = 1.0
    transfer_cycles: int = 8
    protocol: str = "illinois"
    adapt_high: float | None = None
    adapt_low: float | None = None
    adapt_window: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload", _resolve_workload(self.workload))
        object.__setattr__(self, "strategy", strategy_by_name(str(self.strategy)).name)
        if not isinstance(self.scale, (int, float)) or self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.restructured, bool):
            raise ConfigurationError(
                f"restructured must be a boolean, got {self.restructured!r}"
            )
        # Building the machine and strategy runs their validators
        # (num_cpus, protocol, transfer_cycles bounds, ADAPT watermark
        # ordering) and rejects adaptive knobs on open-loop strategies.
        self.machine()
        self.strategy_obj()

    # ---------------------------------------------------------- constituents

    def strategy_obj(self) -> PrefetchStrategy:
        """The concrete strategy, with any ADAPT overrides folded in."""
        base = strategy_by_name(self.strategy)
        overrides = {
            field: value
            for field, value in (
                ("high_watermark", self.adapt_high),
                ("low_watermark", self.adapt_low),
                ("feedback_window", self.adapt_window),
            )
            if value is not None
        }
        if not overrides:
            return base
        if not isinstance(base, AdaptiveStrategy):
            raise ConfigurationError(
                f"adapt_* knobs only apply to the ADAPT strategy, not {base.name}"
            )
        return dataclasses.replace(base, **overrides)

    def machine(self) -> MachineConfig:
        """The machine point this spec simulates."""
        machine = MachineConfig(num_cpus=self.num_cpus, protocol=self.protocol)
        return machine.with_transfer_cycles(self.transfer_cycles)

    def job(self) -> RunJob:
        """The runner's :class:`~repro.experiments.runner.RunJob` for this spec."""
        return RunJob(
            self.workload,
            self.strategy_obj(),
            self.machine(),
            self.restructured,
            self.num_cpus,
            self.seed,
            self.scale,
        )

    @property
    def label(self) -> str:
        """Human-readable grid-point label (the fleet's progress label)."""
        return self.job().label

    # -------------------------------------------------------------- identity

    def payload(self) -> dict[str, Any]:
        """The full simulation input: :meth:`RunJob.payload` of :meth:`job`."""
        return self.job().payload()

    @property
    def config_key(self) -> str:
        """The job's content key: the disk cache's key, the ledger's
        ``config_key`` and the service's dedup key for this run."""
        return self.job().config_key

    @property
    def run_id(self) -> str:
        """Public run identifier: the leading hex of the content key."""
        return self.config_key[:RUN_ID_LENGTH]

    # ------------------------------------------------------------ wire format

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict (round-trips through :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        """Build a spec from an API request body.

        Unknown keys are rejected loudly -- a typo'd field silently
        ignored would simulate the wrong configuration and cache it
        under the wrong key.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(f"scenario spec must be an object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario field(s) {', '.join(unknown)}; "
                f"expected a subset of {', '.join(sorted(known))}"
            )
        if "workload" not in data:
            raise ConfigurationError("scenario spec requires a workload")
        return cls(**data)


@dataclass(frozen=True)
class RunRef:
    """Immutable pointer to a run: everything a list view needs."""

    run_id: str
    config_key: str
    label: str
    status: str
    created_at: str
    trace_id: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict (``trace_id`` omitted when the run is untraced,
        keeping untraced responses byte-identical to pre-tracing ones)."""
        data = asdict(self)
        if data.get("trace_id") is None:
            del data["trace_id"]
        return data


@dataclass
class RunMetadata:
    """Mutable execution record of one run (keyed by ``run_id``).

    Attributes:
        spec: the frozen scenario this run simulates.
        run_id / config_key: derived identity (see :class:`ScenarioSpec`).
        status: lifecycle state.
        created_at / started_at / finished_at: UTC ISO-8601 timestamps.
        error: one-line failure detail (``[kind] message``) when failed.
        submissions: how many times this run has been requested --
            dedup folds repeats into this counter instead of new runs.
        source: ``"api"`` for runs submitted this process lifetime,
            ``"ledger"`` for history hydrated from the run ledger.
        trace_id: end-to-end request trace id
            (:mod:`repro.telemetry.tracing`) assigned at submission
            when the service runs with tracing on; None when untraced.
    """

    spec: ScenarioSpec
    run_id: str = ""
    config_key: str = ""
    status: RunStatus = RunStatus.QUEUED
    created_at: str = ""
    started_at: str | None = None
    finished_at: str | None = None
    error: str | None = None
    submissions: int = 1
    source: str = "api"
    trace_id: str | None = None

    def __post_init__(self) -> None:
        if not self.config_key:
            self.config_key = self.spec.config_key
        if not self.run_id:
            self.run_id = self.config_key[:RUN_ID_LENGTH]
        if not self.created_at:
            self.created_at = utc_now()
        if isinstance(self.status, str) and not isinstance(self.status, RunStatus):
            self.status = RunStatus(self.status)

    @property
    def label(self) -> str:
        """The spec's grid-point label."""
        return self.spec.label

    def to_ref(self) -> RunRef:
        """The immutable list-view pointer for this run."""
        return RunRef(
            run_id=self.run_id,
            config_key=self.config_key,
            label=self.label,
            status=self.status.value,
            created_at=self.created_at,
            trace_id=self.trace_id,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict (the ``GET /runs/{id}`` document body).

        ``trace_id`` is additive and omitted when None, so untraced
        documents are byte-identical to pre-tracing ones.
        """
        doc = {
            "run_id": self.run_id,
            "config_key": self.config_key,
            "label": self.label,
            "status": self.status.value,
            "spec": self.spec.to_dict(),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "submissions": self.submissions,
            "source": self.source,
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunMetadata":
        """Inverse of :meth:`to_dict` (derived fields recomputed)."""
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            status=RunStatus(data.get("status", "queued")),
            created_at=data.get("created_at", ""),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            error=data.get("error"),
            submissions=int(data.get("submissions", 1)),
            source=data.get("source", "api"),
            trace_id=data.get("trace_id"),
        )


@runtime_checkable
class RunStore(Protocol):
    """What the scheduler needs from run persistence.

    Implementations must be safe for single-threaded asyncio use (all
    scheduler mutations happen on the event loop); they do not need to
    be cross-process safe -- the ledger and disk cache already are, and
    the store can rebuild from them (see
    :class:`repro.service.store.LedgerRunStore`).
    """

    def get(self, run_id: str) -> RunMetadata | None:
        """The run with this id, or None."""
        ...

    def by_key(self, config_key: str) -> RunMetadata | None:
        """The run with this full content key, or None."""
        ...

    def put(self, meta: RunMetadata) -> RunMetadata:
        """Insert or replace a run record; returns it."""
        ...

    def list(
        self,
        status: RunStatus | str | None = None,
        workload: str | None = None,
        strategy: str | None = None,
    ) -> list[RunMetadata]:
        """Runs matching every given filter, oldest first."""
        ...

    def __len__(self) -> int:
        """Number of stored runs."""
        ...
