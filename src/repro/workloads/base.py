"""Workload base classes and the per-CPU trace builder."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng
from repro.layout.arrays import ArrayHandle
from repro.layout.memory import MemoryLayout
from repro.trace.events import Barrier, LockAcquire, LockRelease, MemRef
from repro.trace.stream import CpuTrace, MultiTrace

__all__ = ["TraceBuilder", "Workload", "WorkloadParams"]


@dataclass(frozen=True)
class WorkloadParams:
    """Generation parameters common to every workload.

    Attributes:
        num_cpus: processors (the paper's machine; default 12 --
            Table 1 of the paper is garbled in the source text, and the
            Symmetry trace studies it builds on ran about a dozen
            processes; see DESIGN.md).
        seed: master RNG seed; all randomness derives from it.
        scale: multiplies the amount of *work* (iterations/steps), not
            data-structure sizes, so miss-rate character is preserved
            while trace length varies.  1.0 targets roughly 15-30 k
            demand references per CPU.
        restructured: apply the false-sharing-eliminating layout
            transformation (only Topopt and Pverify support it).
        block_size: cache-line size assumed by the layout (padding and
            alignment); must match the simulated cache for restructuring
            to mean anything.
    """

    num_cpus: int = 12
    seed: int = 42
    scale: float = 1.0
    restructured: bool = False
    block_size: int = 32

    def __post_init__(self) -> None:
        if self.num_cpus < 1:
            raise ConfigurationError("num_cpus must be >= 1")
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")

    def scaled(self, count: int, minimum: int = 1) -> int:
        """``count`` multiplied by ``scale``, floored at ``minimum``."""
        return max(minimum, round(count * self.scale))


def _emitter(name: str, is_write: bool, doc: str):
    """The body of :meth:`TraceBuilder.read` / :meth:`TraceBuilder.write`.

    One function per direction resolves the address and the field size
    from :attr:`RecordType.field_layout` with every check of
    ``ArrayHandle.addr`` and ``RecordType.offset`` kept (a failing one
    re-runs ``ArrayHandle.addr`` for its exact error), so a valid
    reference costs the gap draw and the ``MemRef`` constructor only.
    """

    def emit(
        self: "TraceBuilder", array: ArrayHandle, index: int, field: str | None = None,
        element: int = 0, gap: int | None = None,
    ) -> None:
        if field is None:
            if not 0 <= index < array.count:
                array.addr(index)  # raises the range error
            addr = array.base + index * array.stride
            size = 4
        else:
            spec = array.record.field_layout.get(field)
            if spec is None or not 0 <= index < array.count or not 0 <= element < spec[2]:
                array.addr(index, field, element)  # raises the range or field error
            offset, size, _ = spec
            addr = array.base + index * array.stride + offset + element * size
        self.events.append(MemRef(addr, is_write, self._gap(gap), size, array.shared))

    emit.__name__ = name
    emit.__qualname__ = f"TraceBuilder.{name}"
    emit.__doc__ = doc
    return emit


class TraceBuilder:
    """Accumulates one CPU's trace with convenient addressing helpers.

    Gaps (instruction cycles between data references) are drawn from a
    small deterministic distribution around ``mean_gap``; sections with
    heavier computation can pass explicit ``gap`` values.
    """

    def __init__(self, cpu: int, rng: random.Random, mean_gap: int = 2) -> None:
        if mean_gap < 1:
            raise ConfigurationError("mean_gap must be >= 1")
        self.cpu = cpu
        self.rng = rng
        self.mean_gap = mean_gap
        self.events: list = []
        # rng.randint(low, mean_gap + 1) is low plus the first draw of
        # rng.getrandbits(width.bit_length()) below width (CPython's
        # Random._randbelow); _gap draws exactly that.
        self._gap_low = max(0, mean_gap - 1)
        self._gap_width = mean_gap + 2 - self._gap_low
        self._gap_bits = self._gap_width.bit_length()
        self._draw = rng.getrandbits

    def _gap(self, gap: int | None) -> int:
        if gap is not None:
            return gap
        # Mean of randint(a, b) with a = mean-1, b = mean+1 is mean_gap.
        r = self._draw(self._gap_bits)
        while r >= self._gap_width:
            r = self._draw(self._gap_bits)
        return self._gap_low + r

    # ------------------------------------------------------------- references

    read = _emitter("read", False, "Emit a load of ``array[index].field[element]``.")
    write = _emitter("write", True, "Emit a store to ``array[index].field[element]``.")

    # --------------------------------------------------------- synchronization

    def lock(self, lock: tuple[int, int], gap: int | None = None) -> None:
        """Emit a lock acquire; ``lock`` is ``(lock_id, addr)``."""
        self.events.append(LockAcquire(lock[0], lock[1], self._gap(gap)))

    def unlock(self, lock: tuple[int, int], gap: int | None = None) -> None:
        """Emit a lock release."""
        self.events.append(LockRelease(lock[0], lock[1], self._gap(gap)))

    def barrier(self, barrier: tuple[int, int], gap: int | None = None) -> None:
        """Emit a barrier arrival; ``barrier`` is ``(barrier_id, addr)``."""
        self.events.append(Barrier(barrier[0], barrier[1], self._gap(gap)))

    def finish(self) -> CpuTrace:
        """Freeze the builder into a :class:`CpuTrace`."""
        return CpuTrace(self.cpu, self.events)


class Workload(ABC):
    """Base class for the five application kernels.

    Subclasses set ``name`` (the paper's label), ``paper_description``
    (one line from the paper's Table 1 context), and implement
    :meth:`build`.  Use :meth:`generate` as the public entry point; it
    validates the trace and attaches Table 1 metadata.
    """

    name: ClassVar[str] = ""
    paper_description: ClassVar[str] = ""
    supports_restructuring: ClassVar[bool] = False
    #: Byte offset of private data within the cache's set space (see
    #: MemoryLayout); override to tune private/shared interference.
    private_set_offset: ClassVar[int] = 24 * 1024

    @abstractmethod
    def build(self, params: WorkloadParams) -> MultiTrace:
        """Generate the trace for ``params`` (implemented per workload)."""

    def generate(
        self,
        num_cpus: int = 12,
        seed: int = 42,
        scale: float = 1.0,
        restructured: bool = False,
        block_size: int = 32,
    ) -> MultiTrace:
        """Build, validate and annotate a trace."""
        if restructured and not self.supports_restructuring:
            raise ConfigurationError(
                f"workload {self.name!r} has no restructured variant "
                f"(the paper restructures only Topopt and Pverify)"
            )
        params = WorkloadParams(
            num_cpus=num_cpus,
            seed=seed,
            scale=scale,
            restructured=restructured,
            block_size=block_size,
        )
        self._last_layout = None
        trace = self.build(params)
        if self._last_layout is not None:
            trace.metadata.setdefault("arrays", self._last_layout.describe_arrays())
        trace.metadata.setdefault("workload", self.name)
        trace.metadata.setdefault("description", self.paper_description)
        trace.metadata.setdefault("restructured", restructured)
        trace.metadata.setdefault("num_cpus", num_cpus)
        trace.metadata.setdefault("seed", seed)
        trace.metadata.setdefault("scale", scale)
        trace.validate()
        return trace

    # ------------------------------------------------------------- utilities

    def rng_for(self, params: WorkloadParams, cpu: int | str, purpose: str = "") -> random.Random:
        """A deterministic RNG for one CPU (or a named global purpose)."""
        return derive_rng(self.name, params.seed, cpu, purpose, params.restructured)

    def new_layout(self, params: WorkloadParams) -> MemoryLayout:
        """A fresh memory layout for this generation.

        The layout is remembered so :meth:`generate` can attach its
        array map to the trace metadata for the analysis tools.
        """
        layout = MemoryLayout(
            params.num_cpus,
            params.block_size,
            private_set_offset=self.private_set_offset,
        )
        self._last_layout = layout
        return layout
