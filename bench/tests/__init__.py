"""Self-tests of the benchmark harness: ``python -m pytest bench/tests``."""
