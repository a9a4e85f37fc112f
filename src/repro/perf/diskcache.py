"""Persistent on-disk cache of simulation results.

Every simulation in the reproduction is a pure function of its inputs:
(workload spec, scale, seed, prefetch strategy, machine config, engine
version).  The cache keys each stored result by a SHA-256 content hash
of exactly those inputs, so

* re-running a bench session skips every already-simulated grid point,
* any input change (including :data:`repro.sim.engine.ENGINE_VERSION`,
  which is bumped whenever simulated behavior changes) produces a new
  key and never serves stale results,
* deleting the cache directory (``results/.cache/`` by default) is
  always safe -- entries are pure derived data.

An entry is two lines: the stored value as compact JSON (the runner
stores :meth:`~repro.metrics.results.RunMetrics.to_row`), then
``{"inputs", "key"}`` with sorted keys, so an entry stays readable when
debugging.  :meth:`ResultDiskCache.load` reads and decodes the first
line only; a hit never parses the inputs.

Writes are atomic (a uniquely named temp file + ``os.replace``) so a
crashed or killed run can never leave a torn entry.  Unreadable entries
(and a first line without its terminator) are treated as misses and
overwritten, and so is an entry that does not decode to this version's
:class:`~repro.metrics.results.RunMetrics`: a row of another
``ROW_SCHEMA`` or length, or a single-line entry written before the
two-line format.  The runner decodes every hit and reports such an
entry through :meth:`ResultDiskCache.reject`.  Stale temp files
orphaned by a crashed writer are swept by an instance's first store (a
reader never sees a temp file, so a read-only session never pays the
sweep).

The cache is size-capped: when the entries exceed ``max_bytes`` the
oldest (by modification time) are evicted first -- entries are pure
derived data, so eviction only ever costs re-simulation.  Enforcement
is opportunistic (every :data:`_PRUNE_EVERY_STORES` stores) plus
on-demand via :meth:`ResultDiskCache.prune` (``repro cache --prune``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

__all__ = ["ResultDiskCache", "content_key"]


def content_key(payload: dict[str, Any]) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of ``payload``.

    The rendering sorts keys and uses compact separators so the digest
    depends only on content, never on dict insertion order.

    The payload must be JSON-native (dict/list/str/int/float/bool/None,
    finite numbers): anything else raises ``TypeError`` (``ValueError``
    for NaN/infinity) rather than being silently stringified -- object
    reprs embed memory addresses, which would make the "same" payload
    hash differently across processes and defeat the cache.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Temp files older than this are considered orphans of a crashed writer
#: and removed by the sweep; younger ones may belong to a live process.
_ORPHAN_MAX_AGE_SECONDS = 3600.0

#: Default size cap: far above any one bench session's footprint, low
#: enough that months of sweeps cannot silently fill a disk.
DEFAULT_MAX_BYTES = 2 * 1024**3

#: Opportunistic cap enforcement period (stores between prunes); keeps
#: the common store path O(1) while bounding overshoot to ~64 entries.
_PRUNE_EVERY_STORES = 64


class ResultDiskCache:
    """A directory of ``<key[:2]>/<key>.json`` result entries.

    Each entry holds the stored value on its first line and the key and
    hashed inputs on its second (see the module docstring).

    Args:
        root: cache directory (created lazily on first store).
        max_bytes: size cap enforced oldest-first (None disables it).

    Attributes:
        hits / misses / stores: per-instance access counters (useful for
            asserting that a warm bench session re-simulates nothing).
        evictions: entries removed by cap enforcement on this instance.
    """

    def __init__(self, root: str | Path, max_bytes: int | None = DEFAULT_MAX_BYTES) -> None:
        self.root = Path(root)
        self._dir = str(self.root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self._swept = False

    def _file(self, key: str) -> str:
        # String operations: a hit pays no pathlib joins.
        return f"{self._dir}{os.sep}{key[:2]}{os.sep}{key}.json"

    def _path(self, key: str) -> Path:
        return Path(self._file(key))

    def _sweep_orphans(self) -> None:
        """Remove temp files orphaned by crashed writers (once per instance,
        on its first store).

        Only files older than :data:`_ORPHAN_MAX_AGE_SECONDS` are
        removed: a younger temp file may be a live writer's in-flight
        entry.
        """
        if self._swept:
            return
        self._swept = True
        if not self.root.exists():
            return
        cutoff = time.time() - _ORPHAN_MAX_AGE_SECONDS
        for tmp in self.root.glob("*/*.tmp*"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                pass  # concurrent sweep or writer won the race; retry next session

    def load(self, key: str) -> Any:
        """The value stored under ``key``, or None on a miss.

        Reads and decodes the entry's first line only.  A corrupt entry,
        or one whose first line is unterminated (torn, or written
        before the two-line format), counts as a miss (it will be
        re-simulated and overwritten).
        """
        try:
            # Raw descriptor reads: a hit pays no buffered file object.
            fd = os.open(self._file(key), os.O_RDONLY)
            try:
                data = os.read(fd, os.fstat(fd).st_size)
            finally:
                os.close(fd)
            end = data.find(b"\n")
            if end < 0:
                raise ValueError("unterminated entry line")
            value = json.loads(data[:end])
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return value

    def reject(self) -> None:
        """Recount the last :meth:`load` hit as a miss: the caller rejected its
        value as another schema (re-simulated and overwritten)."""
        self.hits -= 1
        self.misses += 1

    def store(self, key: str, value: Any, inputs: dict[str, Any]) -> None:
        """Atomically persist ``value`` (any JSON-native value) under ``key``.

        ``inputs`` (the hashed payload) is stored on the entry's second
        line for debuggability -- entries are self-describing.

        The temp file is uniquely named per call (``mkstemp``), so
        concurrent writers -- including threads sharing one PID -- can
        never tear each other's entry; a writer that dies between
        create and replace leaves an orphan that the next session's
        sweep collects.
        """
        self._sweep_orphans()
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        head = json.dumps(value, separators=(",", ":"))
        tail = json.dumps({"key": key, "inputs": inputs}, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{key[:8]}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(f"{head}\n{tail}\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        if self.max_bytes is not None and self.stores % _PRUNE_EVERY_STORES == 0:
            self.prune()

    # ------------------------------------------------------------ size cap

    def _entries(self) -> list[tuple[float, int, Path]]:
        """Every entry as ``(mtime, size, path)`` (unreadable ones skipped)."""
        entries = []
        if not self.root.exists():
            return entries
        for path in self.root.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def total_bytes(self) -> int:
        """Current on-disk size of all entries."""
        return sum(size for _, size, _ in self._entries())

    def prune(self, max_bytes: int | None = None) -> tuple[int, int]:
        """Evict oldest-first until the cache fits in ``max_bytes``.

        ``max_bytes`` defaults to the instance cap; pass an explicit
        value (e.g. 0 to empty the cache) to override it.  Returns
        ``(entries_removed, bytes_freed)``.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            return 0, 0
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        removed = freed = 0
        for _, size, path in entries:
            if total <= cap:
                break
            try:
                path.unlink()
            except OSError:
                continue  # another process won the race; its size still counts
            total -= size
            removed += 1
            freed += size
        self.evictions += removed
        return removed, freed

    def counters(self) -> dict[str, int]:
        """This instance's hits/misses/stores/evictions."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }

    def stats(self) -> dict[str, int]:
        """Session counters + on-disk footprint, as one JSON-safe snapshot.

        The counters (:meth:`counters`) cover *this instance's*
        lifetime; ``entries``/``bytes`` reflect the shared on-disk
        state, read in one walk of the directory.  Consumed by fleet
        telemetry (``repro fleet``) and the service's ``/metrics`` and
        TSDB snapshots.
        """
        sizes = [size for _, size, _ in self._entries()]
        return {**self.counters(), "entries": len(sizes), "bytes": sum(sizes)}

    def clear(self) -> None:
        """Delete every cached entry (the whole cache directory)."""
        if self.root.exists():
            shutil.rmtree(self.root)

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
