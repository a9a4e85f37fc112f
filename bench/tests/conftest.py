"""Self-tests run the benchmark against this checkout's ``src/``."""

import bench

bench.use_checkout_sources()
