"""Run stores: in-memory state plus ledger-backed hydration.

The scheduler mutates run state on the event loop only, so the live
store is a plain dict.  Durability comes from the layers that already
have it: every completed simulation is appended to the run ledger and
(when configured) written to the result disk cache.  A restarted
service therefore rebuilds its history by *hydrating* the ledger --
:class:`LedgerRunStore` replays every reconstructible entry into
completed/failed :class:`~repro.service.contracts.RunMetadata` records,
newest per ``config_key`` winning, and results are served straight from
the disk cache by content key.

An entry is *reconstructible* when a :class:`ScenarioSpec` built from
its recorded fields hashes back to the entry's own ``config_key`` --
the round trip proves the spec expresses that run exactly.  Entries
that don't round-trip (custom cache geometry driven through the python
API, ADAPT watermark overrides, a different engine version) are counted
in :attr:`LedgerRunStore.skipped` rather than guessed at.
"""

from __future__ import annotations

from repro.common.errors import ReproError
from repro.service.contracts import RunMetadata, RunStatus, RunStore, ScenarioSpec
from repro.telemetry.ledger import RunLedger

__all__ = ["InMemoryRunStore", "LedgerRunStore", "spec_from_ledger_entry"]


class InMemoryRunStore:
    """Dict-backed :class:`~repro.service.contracts.RunStore`."""

    def __init__(self) -> None:
        self._by_id: dict[str, RunMetadata] = {}
        self._id_by_key: dict[str, str] = {}

    def get(self, run_id: str) -> RunMetadata | None:
        """The run with this id, or None."""
        return self._by_id.get(run_id)

    def by_key(self, config_key: str) -> RunMetadata | None:
        """The run with this full content key, or None."""
        run_id = self._id_by_key.get(config_key)
        return self._by_id.get(run_id) if run_id is not None else None

    def put(self, meta: RunMetadata) -> RunMetadata:
        """Insert or replace a run record; returns it."""
        self._by_id[meta.run_id] = meta
        self._id_by_key[meta.config_key] = meta.run_id
        return meta

    def list(
        self,
        status: RunStatus | str | None = None,
        workload: str | None = None,
        strategy: str | None = None,
    ) -> list[RunMetadata]:
        """Runs matching every given filter, insertion (oldest) first."""
        wanted = RunStatus(status) if status is not None else None
        out = []
        for meta in self._by_id.values():
            if wanted is not None and meta.status is not wanted:
                continue
            if workload is not None and meta.spec.workload.lower() != workload.lower():
                continue
            if strategy is not None and meta.spec.strategy.upper() != strategy.upper():
                continue
            out.append(meta)
        return out

    def counts(self) -> dict[str, int]:
        """Run counts by status value (for gauges and list banners)."""
        counts: dict[str, int] = {}
        for meta in self._by_id.values():
            counts[meta.status.value] = counts.get(meta.status.value, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._by_id)


def spec_from_ledger_entry(entry) -> ScenarioSpec | None:
    """Rebuild the :class:`ScenarioSpec` a ledger entry ran, if it can.

    Returns None unless the reconstructed spec's ``config_key`` equals
    the entry's recorded one -- the proof that no unexpressed knob
    (cache geometry, adaptive overrides, engine version) differed.
    """
    machine = entry.machine if isinstance(entry.machine, dict) else {}
    strategy = entry.strategy
    if strategy.endswith("+restructured"):
        strategy = strategy[: -len("+restructured")]
    try:
        spec = ScenarioSpec(
            workload=entry.workload,
            strategy=strategy,
            restructured=bool(entry.restructured),
            num_cpus=entry.num_cpus,
            seed=entry.seed,
            scale=entry.scale,
            **{key: machine[key] for key in ("transfer_cycles", "protocol") if key in machine},
        )
    except (ReproError, TypeError, ValueError):
        return None
    return spec if spec.config_key == entry.config_key else None


class LedgerRunStore(InMemoryRunStore):
    """In-memory store hydrated from (and aligned with) a run ledger.

    Hydration replays the ledger oldest-first, so the newest record per
    ``config_key`` determines the resurrected status: ``ok`` entries
    become ``completed`` runs (results re-served from the disk cache),
    ``error``/``timeout`` entries become ``failed`` runs that a fresh
    submission re-queues.

    Attributes:
        ledger: the hydration source (appends happen in the runner's
            telemetry path, not here).
        hydrated: reconstructible entries folded in.
        skipped: entries that did not round-trip to a spec.
    """

    def __init__(self, ledger: RunLedger | None, hydrate: bool = True) -> None:
        super().__init__()
        self.ledger = ledger
        self.hydrated = 0
        self.skipped = 0
        if ledger is not None and hydrate:
            self.hydrate()

    def hydrate(self) -> int:
        """Fold ledger history into the store; returns runs added/updated."""
        if self.ledger is None:
            return 0
        folded = 0
        for entry in self.ledger.entries():
            spec = spec_from_ledger_entry(entry)
            if spec is None:
                self.skipped += 1
                continue
            if entry.outcome == "ok":
                status, error = RunStatus.COMPLETED, None
            else:
                status = RunStatus.FAILED
                error = f"[{entry.outcome}] {entry.error or 'recorded in ledger'}"
            existing = self.by_key(spec.config_key)
            submissions = existing.submissions if existing is not None else 1
            created = existing.created_at if existing is not None else entry.timestamp
            self.put(
                RunMetadata(
                    spec=spec,
                    status=status,
                    created_at=created or entry.timestamp,
                    finished_at=entry.timestamp,
                    error=error,
                    submissions=submissions,
                    source="ledger",
                )
            )
            self.hydrated += 1
            folded += 1
        return folded
