"""Every gating step of CI names its must-fail control.

A gate that cannot fail proves nothing, and such gates have been found
passing vacuously before.  This inventory reads
``.github/workflows/ci.yml`` with the standard library only (CI installs
just pytest and hypothesis) and fails when a step that runs a check has
no listed control, when a listed control no longer exists, or when a
listed step is gone from the workflow.  Steps without ``run`` (checkout,
interpreter set-up, artifact uploads) are not checks.
"""

from __future__ import annotations

import ast
import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: Gating step -> its must-fail controls: a test id
#: (``path::Class::function``, ``path::Class`` or ``path::function``; the
#: last part may be a glob) or ``step:<name>`` for a control step.
CONTROLS = {
    "Saturated grid digest": [
        "bench/tests/test_bench.py::test_wrong_digest_fails_*",
        "bench/tests/test_bench.py::test_fast_path_perturbed_by_a_wrapper_fails_grid_cold",
        "step:Throughput floor must-fail control",
    ],
    "Warm grid digest": [
        "bench/tests/test_bench.py::test_cache_read_perturbed_by_a_wrapper_fails_grid_warm",
    ],
    "Diagnostic digest": [
        "bench/tests/test_bench.py::test_*_fails_diagnose",
    ],
    "Audited smoke grid": [
        "tests/test_audit.py::TestDetection",
        "tests/test_audit.py::TestAuditedRuns::test_cli_quick_audit_fails_on_an_injected_violation",
    ],
    "Timeline trace smoke": [
        "tests/test_obs.py::TestTimelineCli::test_timeline_exits_1_when_a_window_fails_to_reconcile",
        "tests/test_service.py::TestSmokeCheckers::test_check_chrome_events_rejects*",
    ],
    "Line heat (c2c) smoke": [
        "tests/test_lineprof.py::TestReconciliation::test_reconcile_fails_loudly_on_drift",
    ],
    "Paper drift gate": [
        "tests/test_telemetry.py::TestDrift::test_perturbed_speedup_fails",
    ],
    "Adaptive throttling (ADAPT) claim gate": [
        "tests/test_adaptive.py::TestAdaptiveExperiment::test_gate_reads_the_drift_gates_cache",
    ],
}

#: Steps that run a command but gate nothing of their own.
NOT_GATES = {
    "Install test dependencies": "installs pytest and hypothesis",
    "Tier-1 tests": "a test suite: its tests carry their own controls",
    "Benchmark tests": "a test suite: its tests carry their own controls",
}


def workflow_steps(text: str) -> list[dict[str, str]]:
    """The top-level keys of every step of every job, as raw strings."""
    steps: list[dict[str, str]] = []
    steps_indent = item_indent = None
    for line in text.splitlines():
        stripped = line.lstrip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(line) - len(stripped)
        if stripped == "steps:":
            steps_indent, item_indent = indent, None
            continue
        if steps_indent is None:
            continue
        if indent <= steps_indent:  # the job's steps block ended
            steps_indent = None
            continue
        if item_indent is None:
            item_indent = indent
        if indent == item_indent and stripped.startswith("- "):
            steps.append({})
            stripped, indent = stripped[2:], indent + 2
        if indent == item_indent + 2:
            key, _, value = stripped.partition(":")
            steps[-1][key.strip()] = value.strip().strip("\"'")
    return steps


def _control_exists(test_id: str) -> bool:
    path, *names = test_id.split("::")
    scope: list[ast.stmt] = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for i, pattern in enumerate(names):
        last = i == len(names) - 1
        found = [
            node for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and (fnmatch.fnmatchcase(node.name, pattern) if last else node.name == pattern)
        ]
        if not found:
            return False
        scope = found[0].body if isinstance(found[0], ast.ClassDef) else []
    return True


def problems(text: str, controls: dict[str, list[str]] = CONTROLS) -> list[str]:
    """Everything that keeps the workflow's gates from being controlled."""
    names = {step.get("name") for step in workflow_steps(text) if "run" in step}
    control_steps = {
        control[len("step:"):]
        for listed in controls.values() for control in listed if control.startswith("step:")
    }
    found = []
    if None in names:
        found.append("a step runs a command without a name")
    for name in sorted(names - {None} - set(controls) - set(NOT_GATES) - control_steps):
        found.append(f"step {name!r} runs a check with no must-fail control listed")
    for gate, listed in sorted(controls.items()):
        if gate not in names:
            found.append(f"listed gate {gate!r} is not a step of the workflow")
        for control in listed:
            if control.startswith("step:"):
                step = control[len("step:"):]
                if step not in names:
                    found.append(f"{gate!r}: control step {step!r} is not in the workflow")
            elif not _control_exists(control):
                found.append(f"{gate!r}: control {control} does not exist")
    return found


def test_every_gate_has_a_live_control():
    assert problems(WORKFLOW.read_text(encoding="utf-8")) == []


SYNTHETIC = """\
jobs:
  test:
    steps:
      - uses: actions/checkout@v4
      - name: Tier-1 tests
        run: python -m pytest -x -q
      - name: Unchecked gate
        run: |
          python -m repro something
          python - <<'EOF'
          steps = ["- name: not a step"]
          EOF
      - name: Upload the gate's artifact
        uses: actions/upload-artifact@v4
"""


def test_an_uncontrolled_step_fails_the_inventory():
    unlisted = {gate: listed for gate, listed in CONTROLS.items() if gate != "Paper drift gate"}
    assert problems(WORKFLOW.read_text(encoding="utf-8"), controls=unlisted) == [
        "step 'Paper drift gate' runs a check with no must-fail control listed"
    ]
    found = problems(SYNTHETIC, controls={})
    assert found == ["step 'Unchecked gate' runs a check with no must-fail control listed"]
    steps = workflow_steps(SYNTHETIC)
    assert [step.get("name") for step in steps] == [
        None, "Tier-1 tests", "Unchecked gate", "Upload the gate's artifact",
    ]


def test_a_vanished_control_fails_the_inventory():
    controls = {
        "Unchecked gate": [
            "tests/test_audit.py::TestNoSuchClass",
            "tests/test_audit.py::TestDetection::test_no_such_*",
            "step:No such control step",
        ],
        "Gone gate": ["tests/test_audit.py::TestDetection"],
    }
    found = problems(SYNTHETIC, controls=controls)
    assert found == [
        "listed gate 'Gone gate' is not a step of the workflow",
        "'Unchecked gate': control tests/test_audit.py::TestNoSuchClass does not exist",
        "'Unchecked gate': control tests/test_audit.py::TestDetection::test_no_such_* does not exist",
        "'Unchecked gate': control step 'No such control step' is not in the workflow",
    ]
