"""Runtime sanitizer for the simulation engine.

The audit layer is a flag-gated set of invariant checks wired into the
engine through cheap hooks (``SimulationConfig.audit``).  With audits
disabled the hooks are dead branches and simulated results are
bit-identical; with audits enabled every bus grant, fill completion and
heap pop is cross-checked against the coherence protocol, the engine's
structural bookkeeping, and end-of-run conservation identities.

Three families of checks (see :mod:`repro.audit.sanitizer` for the full
list):

* **coherence** -- at most one MODIFIED copy per block, Illinois
  exclusive (PRIVATE/MODIFIED) uniqueness, no valid remote copy
  coexisting with a MODIFIED owner, no dual main-array/victim residency;
* **structural** -- queued bus fills map 1:1 onto outstanding MSHR
  fills, prefetch-buffer occupancy equals live prefetch fills, heap
  pops are monotone in ``(time, seq)`` (which also validates the
  fast path's deferred pushes), MSHRs and bus queues drain by end of
  run;
* **conservation** -- the seven :class:`~repro.metrics.results.MissCounts`
  buckets sum to the independently counted demand-miss completions,
  busy + stall + sync-wait cycles equal each CPU's finish time, and bus
  busy cycles equal the sum of granted-transaction occupancy slices.

:mod:`repro.audit.grid` defines the 294-configuration verification grid
the ``repro audit`` CLI sweeps with audits enabled.
"""
