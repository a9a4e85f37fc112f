"""Workload registry: look up and generate workloads by paper name."""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.trace.stream import MultiTrace
from repro.workloads.base import Workload
from repro.workloads.locusroute import LocusRoute
from repro.workloads.mp3d import Mp3d
from repro.workloads.pverify import Pverify
from repro.workloads.topopt import Topopt
from repro.workloads.water import Water

__all__ = [
    "ALL_WORKLOAD_NAMES",
    "RESTRUCTURABLE_WORKLOAD_NAMES",
    "generate_workload",
    "get_workload",
    "resolve_workload",
]

_REGISTRY: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Topopt, Mp3d, LocusRoute, Pverify, Water)
}

#: Workload names in the paper's presentation order (Figures 1-2).
ALL_WORKLOAD_NAMES: tuple[str, ...] = ("Topopt", "Mp3d", "LocusRoute", "Pverify", "Water")

#: Workloads with a restructured variant (paper section 4.4).
RESTRUCTURABLE_WORKLOAD_NAMES: tuple[str, ...] = ("Topopt", "Pverify")

_CANONICAL = {name.lower(): name for name in _REGISTRY}


def resolve_workload(name: str) -> str:
    """The canonical spelling of a workload name, matched case-insensitively."""
    canonical = _CANONICAL.get(str(name).lower())
    if canonical is None:
        raise ConfigurationError(
            f"unknown workload {name!r}; expected one of {', '.join(ALL_WORKLOAD_NAMES)}"
        )
    return canonical


def get_workload(name: str) -> Workload:
    """Instantiate a workload by (case-insensitive) name."""
    return _REGISTRY[resolve_workload(name)]()


def generate_workload(
    name: str,
    num_cpus: int = 12,
    seed: int = 42,
    scale: float = 1.0,
    restructured: bool = False,
    block_size: int = 32,
) -> MultiTrace:
    """Generate a validated trace for the named workload."""
    return get_workload(name).generate(
        num_cpus=num_cpus,
        seed=seed,
        scale=scale,
        restructured=restructured,
        block_size=block_size,
    )
