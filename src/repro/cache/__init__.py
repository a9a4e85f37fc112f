"""Per-processor cache model.

:class:`~repro.cache.coherent.CoherentCache` implements the paper's
direct-mapped (optionally set-associative) copy-back data cache with
Illinois coherence state per line, word-granularity access bitmaps for
false-sharing classification, and an optional fully-associative victim
cache (the section 4.3 conflict-miss mitigation).  The lockup-free
machinery (outstanding fills, the 16-deep prefetch buffer) lives in
:mod:`repro.cache.mshr`.
"""

from repro.cache.frame import CacheFrame
from repro.cache.coherent import CoherentCache, EvictedLine, LookupResult
from repro.cache.mshr import MissStatusRegisters
from repro.cache.victim import VictimCache

__all__ = [
    "CacheFrame",
    "CoherentCache",
    "EvictedLine",
    "LookupResult",
    "MissStatusRegisters",
    "VictimCache",
]
