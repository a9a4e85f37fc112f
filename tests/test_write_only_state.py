"""No engine record keeps state that nothing reads.

Every slot of a ``__slots__`` class in the engine layers (``repro.sim``,
``repro.cache``, ``repro.bus``) costs a store on the paths that set it,
often once per simulated event.  A slot that some code stores but no
code in ``src/repro`` ever loads is dead weight, and it reads as a
meaning the model does not have.  The scan is structural (an AST walk)
and matches by attribute name: a load of the name anywhere counts, as
does a ``getattr``/``attrgetter`` of it as a string.  An augmented
assignment (``x.n += 1``) is a store, not a load.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ENGINE_LAYERS = ("sim", "cache", "bus")

#: Call names whose string arguments read attributes by name.
_NAME_READERS = {"getattr", "attrgetter", "hasattr"}


def _trees(root: Path) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(root.rglob("*.py"))}


def _slots(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """``__slots__`` of every class in ``tree`` that declares them literally."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
            ):
                found[node.name] = tuple(ast.literal_eval(stmt.value))
    return found


def _accesses(trees) -> tuple[set[str], set[str]]:
    """Attribute names loaded, and names stored, anywhere in ``trees``."""
    loads: set[str] = set()
    stores: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                (loads if isinstance(node.ctx, ast.Load) else stores).add(node.attr)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in _NAME_READERS:
                    loads.update(
                        arg.value
                        for arg in node.args
                        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    )
    return loads, stores


def write_only_slots(trees: dict[Path, ast.Module], record_trees) -> list[str]:
    """``Class.slot`` for each slot of the records in ``record_trees``
    that ``trees`` store but never load."""
    loads, stores = _accesses(trees.values())
    return sorted(
        f"{cls}.{slot}"
        for tree in record_trees
        for cls, slots in _slots(tree).items()
        for slot in slots
        if slot in stores and slot not in loads
    )


def _engine_records(trees: dict[Path, ast.Module]) -> list[ast.Module]:
    return [tree for path, tree in trees.items() if path.parent.name in ENGINE_LAYERS]


def test_engine_records_have_no_write_only_slots():
    trees = _trees(SRC)
    records = _engine_records(trees)
    names = {cls for tree in records for cls in _slots(tree)}
    assert {"Processor", "CacheFrame", "BusTransaction", "MissStatusRegisters", "_Lock"} <= names
    assert write_only_slots(trees, records) == []


def test_a_write_only_slot_is_named():
    """Must-fail control: a record whose slot is only ever stored."""
    record = ast.parse(
        "class Probe:\n"
        "    __slots__ = ('used', 'tally')\n"
        "    def __init__(self):\n"
        "        self.used = 0\n"
        "        self.tally = 0\n"
        "    def bump(self):\n"
        "        self.tally += 1\n"
        "        return self.used\n"
    )
    trees = {**_trees(SRC), Path("probe.py"): record}
    assert write_only_slots(trees, [record]) == ["Probe.tally"]
