"""Performance infrastructure: the benchmark history and result caching.

* :mod:`repro.perf.history` -- ``BENCH_history.json``, the committed
  ``python -m bench`` reports: the CI throughput floor, the SLO
  throughput baseline and the dashboard's bench series read it;
* :mod:`repro.perf.diskcache` -- the persistent on-disk simulation
  result cache used by :class:`repro.experiments.runner.ExperimentRunner`.
"""

from repro.perf.diskcache import ResultDiskCache, content_key

__all__ = ["ResultDiskCache", "content_key"]
