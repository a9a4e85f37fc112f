"""Run metrics: miss components, rates, utilizations, and comparisons.

Terminology follows the paper's footnote 1 exactly:

* **misses / total miss rate** -- prefetch and non-prefetch accesses that
  do not hit in the cache (i.e. everything that generates a fill, the
  demand seen by the bottleneck resource);
* **CPU misses / CPU miss rate** -- misses on non-prefetch accesses,
  observed by the CPU (includes accesses that find their prefetch still
  in progress);
* **adjusted CPU miss rate** -- CPU misses excluding prefetch-in-progress
  misses;
* **non-sharing misses** -- CPU misses excluding invalidation misses;
* **prefetch misses** -- misses on prefetch accesses only.

Rates are normalised by demand data references (synchronization
accesses -- lock and barrier read-modify-writes -- contribute bus
traffic and execution time but are excluded from miss-rate numerators
and denominators; see DESIGN.md).
"""
