"""Start-up import budgets: what each entry point loads.

Every module-level import is one that every caller of its module needs;
a flag-gated or per-command layer loads on first use.  These tests hold
that line by the *set of modules* a fresh interpreter loads for an entry
point, never by wall time: a grid point loads no service, analysis,
SLO/TSDB/tracing layer, process pool or experiment table; the CLI loads
no ``asyncio``, HTTP service, analysis or experiment table before a
command runs; ``repro serve`` loads no analysis or experiment table, and
``repro c2c`` no ``asyncio`` or process pool.  The public names of :mod:`repro` still resolve, lazily,
and so do the ``from repro import ...`` lines of ``examples/``.
"""

from __future__ import annotations

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Every experiment table module (all of ``repro.experiments`` but the runner).
EXPERIMENT_MODULES = tuple(
    f"repro.experiments.{info.name}"
    for info in pkgutil.iter_modules(repro.experiments.__path__)
    if info.name != "runner"
)

#: What ``python -m bench``'s grid workloads import before their first result.
GRID_PROBE = "import repro.experiments.runner, repro.telemetry.drift"
GRID_FORBIDDEN = (
    "asyncio",
    "multiprocessing",
    "concurrent.futures",
    "repro.service",
    "repro.analysis",
    "repro.audit.sanitizer",
    "repro.obs.taps",
    "repro.telemetry.slo",
    "repro.telemetry.timeseries",
    "repro.telemetry.tracing",
    *EXPERIMENT_MODULES,
)

#: Entry point -> (what it imports before its first result, what it must not load).
BUDGETS = {
    "grid": (GRID_PROBE, GRID_FORBIDDEN),
    "cli": (
        "import repro.cli",
        ("asyncio", "repro.service.api", "repro.analysis", *EXPERIMENT_MODULES),
    ),
    "serve": ("import repro.cli, repro.service.api", ("repro.analysis", *EXPERIMENT_MODULES)),
    "c2c": (
        "import repro.cli, repro.experiments.lineattr, repro.analysis.dynamic",
        ("asyncio", "multiprocessing", "concurrent.futures", "repro.service.api"),
    ),
}


def loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs ``code``.

    Modules the interpreter loaded at start-up (``site`` and its
    ``.pth`` hooks) are not counted: they are not the entry point's.
    """
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def over_budget(code: str, forbidden: tuple[str, ...]) -> list[str]:
    """The modules ``code`` loads that ``forbidden`` names, or whose
    package it names; empty when the entry point keeps its budget."""
    return sorted(
        module
        for module in loaded_by(code)
        if any(module == name or module.startswith(name + ".") for name in forbidden)
    )


class TestImportBudget:
    @pytest.mark.parametrize("entry", sorted(BUDGETS))
    def test_entry_point_keeps_its_budget(self, entry):
        probe, forbidden = BUDGETS[entry]
        assert over_budget(probe, forbidden) == []

    def test_checker_names_a_forbidden_import(self):
        """Must-fail control: a probe that also imports ``asyncio``."""
        violations = over_budget(GRID_PROBE + ", asyncio", GRID_FORBIDDEN)
        assert "asyncio" in violations

    def test_experiment_tables_are_listed(self):
        assert "repro.experiments.figure2" in EXPERIMENT_MODULES
        assert len(EXPERIMENT_MODULES) >= 13


class TestPublicNames:
    def test_every_public_name_resolves(self):
        code = (
            "import repro\n"
            "missing = [n for n in repro.__all__ if getattr(repro, n, None) is None]\n"
            "assert not missing, missing\n"
        )
        loaded_by(code)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018

    def test_example_imports_resolve(self):
        lines = []
        for path in sorted((ROOT / "examples").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module == "repro":
                    lines.append(ast.unparse(node))
        assert lines, "examples/ import nothing from repro"
        loaded_by("\n".join(lines))
