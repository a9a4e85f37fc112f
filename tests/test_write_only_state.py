"""No engine record keeps state that nothing reads.

Every attribute of a class in the engine layers (``repro.sim``,
``repro.cache``, ``repro.bus``) -- a ``__slots__`` name, or a plain
attribute a method stores on ``self`` -- costs a store on the paths
that set it, often once per simulated event.  One that some code
stores but no code in ``src/repro`` ever reads is dead weight, and it
reads as a meaning the model does not have.  The scan is structural
(an AST walk) and matches by attribute name: a load of the name
anywhere counts, as does a ``getattr``/``attrgetter`` of it as a
string.  An augmented assignment (``x.n += 1``) is a store, not a
load, and so is a read that only feeds the name's own store: the
value of ``x.n = max(x.n, v)``, or the test of a high-water update
``if v > x.n: x.n = v`` whose body stores nothing else.
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


def _attributes(tree: ast.Module) -> dict[str, set[str]]:
    """Per class in ``tree``: its literal ``__slots__`` and the names its
    methods store on ``self``."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        names = found.setdefault(node.name, set())
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
            ):
                names.update(ast.literal_eval(stmt.value))
            elif isinstance(stmt, ast.FunctionDef):
                names.update(
                    sub.attr
                    for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                )
    return found


def _stored_names(targets) -> set[str] | None:
    """The attribute names ``targets`` store, or None if any target is
    not an attribute."""
    names = set()
    for target in targets:
        if not isinstance(target, ast.Attribute):
            return None
        names.add(target.attr)
    return names


def _self_reads(tree: ast.Module) -> set[int]:
    """Ids of the attribute loads that only feed their own name's store."""
    own: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            stored, read = _stored_names(node.targets), node.value
        elif (
            isinstance(node, ast.If)
            and not node.orelse
            and all(isinstance(stmt, ast.Assign) for stmt in node.body)
        ):
            stored = set()
            for stmt in node.body:
                names = _stored_names(stmt.targets)
                stored = None if names is None or stored is None else stored | names
            read = node.test
        else:
            continue
        if stored:
            own.update(
                id(sub)
                for sub in ast.walk(read)
                if isinstance(sub, ast.Attribute) and sub.attr in stored
            )
    return own


def _accesses(trees) -> tuple[set[str], set[str]]:
    """Attribute names read, and names stored, anywhere in ``trees``."""
    loads: set[str] = set()
    stores: set[str] = set()
    for tree in trees:
        own = _self_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Load):
                    stores.add(node.attr)
                elif id(node) not in own:
                    loads.add(node.attr)
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


def write_only_attributes(trees: dict[Path, ast.Module], record_trees) -> list[str]:
    """``Class.name`` for each attribute of the classes in ``record_trees``
    that ``trees`` store but never read."""
    loads, stores = _accesses(trees.values())
    return sorted(
        f"{cls}.{name}"
        for tree in record_trees
        for cls, names in _attributes(tree).items()
        for name in names
        if name in stores and name not in loads
    )


def _engine_records(trees: dict[Path, ast.Module]) -> list[ast.Module]:
    return [tree for path, tree in trees.items() if path.parent.name in ENGINE_LAYERS]


def test_engine_records_have_no_write_only_slots():
    trees = _trees(SRC)
    records = _engine_records(trees)
    classes = {cls: names for tree in records for cls, names in _attributes(tree).items()}
    assert {"Processor", "CacheFrame", "BusTransaction", "MissStatusRegisters", "_Lock"} <= set(
        classes
    )
    assert {"LockManager", "BarrierManager", "SimulationEngine"} <= set(classes)
    assert "_locks" in classes["LockManager"] and "num_cpus" in classes["BarrierManager"]
    assert write_only_attributes(trees, records) == []


def _probe(source: str) -> list[str]:
    record = ast.parse(source)
    return write_only_attributes({**_trees(SRC), Path("probe.py"): record}, [record])


def test_a_write_only_slot_is_named():
    """Must-fail control: a record whose slot is only ever stored."""
    assert _probe(
        "class Probe:\n"
        "    __slots__ = ('used', 'tally')\n"
        "    def __init__(self):\n"
        "        self.used = 0\n"
        "        self.tally = 0\n"
        "    def bump(self):\n"
        "        self.tally += 1\n"
        "        return self.used\n"
    ) == ["Probe.tally"]


def test_a_write_only_plain_attribute_is_named():
    """Must-fail control: plain attributes whose only reads feed their own
    stores (a counter, a high-water mark, a running maximum)."""
    assert _probe(
        "class Probe:\n"
        "    def __init__(self):\n"
        "        self.probe_used = 0\n"
        "        self.probe_tally = 0\n"
        "        self.probe_peak = 0\n"
        "        self.probe_top = 0\n"
        "    def bump(self, depth):\n"
        "        self.probe_tally += 1\n"
        "        if depth > self.probe_peak:\n"
        "            self.probe_peak = depth\n"
        "        self.probe_top = max(self.probe_top, depth)\n"
        "        return self.probe_used\n"
    ) == ["Probe.probe_peak", "Probe.probe_tally", "Probe.probe_top"]


def test_a_read_that_gates_other_work_counts():
    """A test that guards more than its own store, or has an ``else``,
    reads the name."""
    assert _probe(
        "class Probe:\n"
        "    def __init__(self):\n"
        "        self.probe_gate = 0\n"
        "        self.probe_flag = 0\n"
        "    def step(self, depth, sink):\n"
        "        if depth > self.probe_gate:\n"
        "            self.probe_gate = depth\n"
        "            sink.append(depth)\n"
        "        if self.probe_flag:\n"
        "            self.probe_flag = 0\n"
        "        else:\n"
        "            sink.clear()\n"
    ) == []
