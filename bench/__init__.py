"""Stage-timed pipeline benchmark for the reproduction.

``python -m bench --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the program's public entry points and prints
every metric that ``BENCHMARK.json`` declares, with its unit; the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Without ``--workload`` every workload runs,
each in its own fresh process.  See ``bench/README.md``.

The benchmark measures the program from outside: it imports ``repro``
from this checkout's ``src/`` and never edits it.  Scratch files go
under ``bench/.tmp/`` and reports under ``bench/.out/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources in this checkout.
SRC = ROOT / "src"
#: Scratch directories (caches, ledgers, exported traces); removed per run.
WORK = ROOT / "bench" / ".tmp"
#: Default directory for ``--trace 1`` outputs.
OUT = ROOT / "bench" / ".out"


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit nonzero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program sources under {SRC}; nothing to measure")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
