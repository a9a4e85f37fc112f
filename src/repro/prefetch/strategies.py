"""The five prefetching strategies of section 4.1 (+ extensions)."""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any

from repro.common.codec import canonical_json
from repro.common.errors import ConfigurationError
from repro.prefetch.adaptive import AdaptiveConfig

__all__ = [
    "ADAPT",
    "ALL_STRATEGIES",
    "AdaptiveStrategy",
    "EXCL",
    "LPD",
    "NP",
    "PBUF",
    "PREF",
    "PREFETCH_STRATEGIES",
    "PWS",
    "PrefetchStrategy",
    "strategy_by_name",
]


@dataclass(frozen=True)
class PrefetchStrategy:
    """A compiler-prefetching discipline applied to traces.

    Each non-NP strategy "differs in only a single characteristic from
    PREF" (section 4.1), which the fields below encode.

    Attributes:
        name: the paper's label (NP / PREF / EXCL / LPD / PWS).
        enabled: False only for NP.
        distance: prefetch distance in estimated CPU cycles between the
            prefetch instruction and the covered access.
        exclusive_writes: prefetch expected write misses in exclusive
            mode (EXCL).
        write_shared_extra: add redundant prefetches for write-shared
            data chosen by the temporal-locality filter (PWS).
        ws_filter_lines: associativity of the PWS filter (16 in the
            paper).
        private_only: prefetch only non-shared data.  Emulates the
            *prefetch buffer* architecture section 3.1 rejects:
            "prefetch buffers typically don't snoop on the bus;
            therefore, no shared data can be prefetched".
    """

    name: str
    enabled: bool = True
    distance: int = 100
    exclusive_writes: bool = False
    write_shared_extra: bool = False
    ws_filter_lines: int = 16
    private_only: bool = False

    def __post_init__(self) -> None:
        if self.enabled and self.distance < 1:
            raise ConfigurationError("prefetch distance must be >= 1")
        if self.ws_filter_lines < 1:
            raise ConfigurationError("ws_filter_lines must be >= 1")

    def with_distance(self, distance: int) -> "PrefetchStrategy":
        """A copy with a different prefetch distance (ablation sweeps).

        ``dataclasses.replace`` keeps the concrete subclass and all its
        extra fields, so a derived :class:`AdaptiveStrategy` still
        throttles.  The derived name round-trips through
        :func:`strategy_by_name`.
        """
        return replace(self, name=f"{self.name}(d={distance})", distance=distance)

    def describe(self) -> dict[str, Any]:
        """Every field by name (all scalars), as hashed into result-cache keys."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def canonical_json(self) -> str:
        """:meth:`describe` as :func:`~repro.common.codec.canonical_json`,
        rendered once per instance (a result-cache key embeds it)."""
        return canonical_json(self.describe())

    def adaptive_config(self) -> "AdaptiveConfig | None":
        """Runtime feedback parameters, or None for open-loop strategies.

        The engine-facing polymorphism point: every simulate call site
        passes ``strategy.adaptive_config()`` through, and only
        :class:`AdaptiveStrategy` returns a config -- for the paper's
        five disciplines (and PBUF) the engine hook stays disarmed and
        results are bit-identical to the pre-ADAPT engine.
        """
        return None


@dataclass(frozen=True)
class AdaptiveStrategy(PrefetchStrategy):
    """PWS plus a runtime bandwidth-feedback throttle (ADAPT).

    Inserts exactly PWS's prefetches -- the most aggressive static
    discipline, and the paper's best on a fast bus; at *issue* time
    each prefetch consults a windowed bus-utilization estimate and is
    dropped while the bus is in sustained saturation (see
    :mod:`repro.prefetch.adaptive` for the watermark/window rationale).

    Attributes:
        high_watermark: windowed utilization that starts throttling.
        low_watermark: utilization below which issuing resumes.
        feedback_window: estimate window in cycles.
    """

    write_shared_extra: bool = True
    high_watermark: float = 0.98
    low_watermark: float = 0.94
    feedback_window: int = 32768

    def __post_init__(self) -> None:
        super().__post_init__()
        # Validate eagerly, with the same messages the engine-side
        # config would raise, so a bad CLI knob fails before simulation.
        self.adaptive_config()

    def adaptive_config(self) -> AdaptiveConfig:
        """The engine-side feedback parameters for this strategy."""
        return AdaptiveConfig(
            high_watermark=self.high_watermark,
            low_watermark=self.low_watermark,
            window=self.feedback_window,
        )


#: No prefetching; the baseline every execution time is reported against.
NP = PrefetchStrategy("NP", enabled=False)

#: The basic oracle prefetcher: filter-cache misses, distance 100.
PREF = PrefetchStrategy("PREF")

#: PREF, with expected write misses fetched in exclusive mode.
EXCL = PrefetchStrategy("EXCL", exclusive_writes=True)

#: PREF with a long (400-cycle) prefetch distance.
LPD = PrefetchStrategy("LPD", distance=400)

#: PREF plus aggressive redundant prefetching of write-shared data.
PWS = PrefetchStrategy("PWS", write_shared_extra=True)

#: The non-snooping prefetch-buffer architecture of section 3.1: only
#: non-shared data may be prefetched.  Not part of the paper's five
#: disciplines; used by the prefetch-buffer ablation to show why the
#: paper's prefetchers are cache-based.
PBUF = PrefetchStrategy("PBUF", private_only=True)

#: PWS with the bandwidth-adaptive issue throttle -- the feedback
#: design that addresses the paper's slow-bus speedup collapse.  Not
#: one of the paper's disciplines; see ROADMAP item 3.
ADAPT = AdaptiveStrategy("ADAPT")

#: All five disciplines, in the paper's presentation order.
ALL_STRATEGIES: tuple[PrefetchStrategy, ...] = (NP, PREF, EXCL, LPD, PWS)

#: The four actual prefetching disciplines (everything but NP).
PREFETCH_STRATEGIES: tuple[PrefetchStrategy, ...] = (PREF, EXCL, LPD, PWS)

_BY_NAME = {s.name: s for s in ALL_STRATEGIES + (PBUF, ADAPT)}

#: ``NAME(d=123)`` -- the suffix :meth:`PrefetchStrategy.with_distance`
#: appends.  Matched greedily from the right so stacked suffixes
#: (``PREF(d=400)(d=200)``) peel one layer per recursion.
_DERIVED_NAME = re.compile(r"^(?P<base>.+)\(d=(?P<distance>\d+)\)$")


def strategy_by_name(name: str) -> PrefetchStrategy:
    """Look up a strategy by label, including derived-distance names.

    Canonical labels (``PREF``, ``ADAPT``, ...) resolve case-
    insensitively from the registry.  Names produced by
    :meth:`PrefetchStrategy.with_distance` -- ``PREF(d=400)`` and even
    stacked forms -- are parsed and reconstructed so that
    ``strategy_by_name(s.with_distance(d).name) == s.with_distance(d)``
    holds exactly (ledger replay of distance-ablated runs depends on
    this round trip).
    """
    strategy = _BY_NAME.get(name.upper())
    if strategy is not None:
        return strategy
    derived = _DERIVED_NAME.match(name.strip())
    if derived is not None:
        base = strategy_by_name(derived.group("base"))
        return base.with_distance(int(derived.group("distance")))
    raise ConfigurationError(
        f"unknown strategy {name!r}; expected one of {sorted(_BY_NAME)} "
        f"or a derived name like 'PREF(d=400)'"
    )
