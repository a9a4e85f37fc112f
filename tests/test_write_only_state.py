"""No engine record keeps state that nothing reads.

Every attribute of a class in the engine layers (``repro.sim``,
``repro.cache``, ``repro.bus``) -- a ``__slots__`` name, or a plain
attribute a method stores on ``self`` -- costs a store on the paths
that set it, often once per simulated event.  One that some code
stores but no code in ``src/repro`` ever reads is dead weight, and it
reads as a meaning the model does not have.

The scan is structural (an AST walk).  A load of ``x.name`` counts for
a class only when ``x`` is known to be of that class (or of one in its
line of bases and subclasses): ``self`` inside the class, or a typed
read from outside -- a name annotated with the class, or bound to a
constructor call, a call whose return annotation names it, an
attribute so typed, or an element of a container so annotated.  So a
read of another class's attribute of the same name does not count.  A
``getattr``/``attrgetter`` of the name as a string has no receiver in
view and counts for every class.  An augmented assignment
(``x.n += 1``) is a store, not a load, and so is a read that only
feeds the name's own store: the value of ``x.n = max(x.n, v)``, or the
test of a high-water update ``if v > x.n: x.n = v`` whose body stores
nothing else.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ENGINE_LAYERS = ("sim", "cache", "bus")

#: Call names whose string arguments read attributes by name.
_NAME_READERS = {"getattr", "attrgetter", "hasattr"}

#: Container methods that hand back the container's elements.
_ELEMENT_METHODS = {"get", "pop", "popleft", "popitem", "values", "items", "setdefault", "copy"}

#: Builtins whose result holds their arguments' elements.
_ELEMENT_BUILTINS = {"tuple", "list", "set", "frozenset", "sorted", "reversed", "iter", "next"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Statements and clauses that bind names.
_BINDINGS = (
    ast.AnnAssign, ast.Assign, ast.NamedExpr, ast.For, ast.comprehension, ast.ExceptHandler
)


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


class _Types:
    """The classes of ``src`` and what an expression is typed as.

    Deliberately loose: every class an annotation mentions is a possible
    type, so imprecision can only add typed reads, never drop one.  A
    receiver is never typed by the attribute's name.
    """

    def __init__(self, trees) -> None:
        self.classes = {
            node.name: node for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        ancestors = {name: self._ancestors(name) for name in self.classes}
        #: Each class with its bases and subclasses (by class name).
        self.family = {
            name: ancestors[name] | {cls for cls, line in ancestors.items() if name in line}
            for name in self.classes
        }
        self._bindings: dict[int, list[ast.AST]] = {}
        self.returns: dict[str, set[str]] = {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, _FUNCTIONS) and node.returns is not None:
                    self.returns.setdefault(node.name, set()).update(self.mentioned(node.returns))
        self.fields: dict[tuple[str, str], set[str]] = {}
        for _round in range(2):  # a field typed by another field settles in two
            for name, node in self.classes.items():
                self._type_fields(name, node)

    def _ancestors(self, name: str) -> set[str]:
        """``name`` and its bases, transitively (by class name)."""
        seen, todo = set(), [name]
        while todo:
            cls = todo.pop()
            if cls not in seen and cls in self.classes:
                seen.add(cls)
                todo.extend(b.id for b in self.classes[cls].bases if isinstance(b, ast.Name))
        return seen

    def mentioned(self, annotation: ast.AST) -> set[str]:
        """The classes an annotation names, forward references included."""
        names = set()
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    names |= self.mentioned(ast.parse(sub.value, mode="eval"))
                except SyntaxError:
                    pass
        return names & set(self.classes)

    def _type_fields(self, name: str, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                self.fields.setdefault((name, stmt.target.id), set()).update(
                    self.mentioned(stmt.annotation)
                )
            if not isinstance(stmt, _FUNCTIONS):
                continue
            env = self.locals(stmt, name)
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.AnnAssign):
                    targets, typed = [sub.target], self.mentioned(sub.annotation)
                elif isinstance(sub, ast.Assign):
                    targets, typed = sub.targets, self.of(sub.value, env)
                else:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self.fields.setdefault((name, target.attr), set()).update(typed)

    def locals(self, func: ast.AST, owner: str | None) -> dict[str, set[str]]:
        """The types of ``func``'s names: ``self``, annotated parameters
        and whatever its bindings are typed as."""
        env: dict[str, set[str]] = {"self": {owner}} if owner else {}
        args = func.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                env[arg.arg] = self.mentioned(arg.annotation)
        bindings = self._bindings.get(id(func))
        if bindings is None:
            bindings = self._bindings[id(func)] = [
                sub for sub in ast.walk(func) if isinstance(sub, _BINDINGS)
            ]
        for _round in range(2):  # a binding typed by a later one settles in two
            for sub in bindings:
                if isinstance(sub, ast.AnnAssign):
                    bound = [(sub.target, self.mentioned(sub.annotation))]
                elif isinstance(sub, (ast.Assign, ast.NamedExpr)):
                    targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                    bound = [(t, self.of(sub.value, env)) for t in targets]
                elif isinstance(sub, (ast.For, ast.comprehension)):
                    bound = [(sub.target, self.of(sub.iter, env))]
                elif sub.name is not None:  # ``except C as name``
                    bound = [(ast.Name(sub.name), self.mentioned(sub.type))]
                else:
                    continue
                for target, typed in bound:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and typed:
                            env.setdefault(name.id, set()).update(typed)
        return env

    def of(self, expr: ast.AST, env: dict[str, set[str]]) -> set[str]:
        """The classes ``expr`` may be an instance (or container) of."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id, set())
        if isinstance(expr, ast.Attribute):
            return {
                t for cls in self.of(expr.value, env) for relative in self.family.get(cls, ())
                for t in self.fields.get((relative, expr.attr), ())
            }
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in self.classes:
                return {func.id}
            if isinstance(func, ast.Name) and func.id in _ELEMENT_BUILTINS:
                return set().union(*(self.of(arg, env) for arg in expr.args))
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            typed = set(self.returns.get(name, ()))
            if isinstance(func, ast.Attribute) and name in _ELEMENT_METHODS:
                typed |= self.of(func.value, env)
            return typed
        if isinstance(expr, (ast.Subscript, ast.Starred)):
            return self.of(expr.value, env)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.of(expr.elt, env)
        if isinstance(expr, ast.BoolOp):
            return set().union(*(self.of(value, env) for value in expr.values))
        if isinstance(expr, ast.IfExp):
            return self.of(expr.body, env) | self.of(expr.orelse, env)
        return set()


def _accesses(trees) -> tuple[set[tuple[str, str]], set[str], set[str]]:
    """Typed reads ``(class, name)`` anywhere in ``trees``, the names read
    as strings, and the names stored."""
    trees = list(trees)
    types = _Types(trees)
    reads: set[tuple[str, str]] = set()
    by_name: set[str] = set()
    stores: set[str] = set()
    for tree in trees:
        own = _self_reads(tree)
        owners = {
            id(method): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for method in cls.body if isinstance(method, _FUNCTIONS)
        }
        for scope in ast.walk(tree):
            if scope is tree:
                env = {}
            elif isinstance(scope, _FUNCTIONS):
                env = types.locals(scope, owners.get(id(scope)))
            else:
                continue
            for node in ast.walk(scope):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    if id(node) not in own:
                        reads.update(
                            (relative, node.attr)
                            for cls in types.of(node.value, env)
                            for relative in types.family.get(cls, ())
                        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                stores.add(node.attr)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in _NAME_READERS:
                    by_name.update(
                        arg.value
                        for arg in node.args
                        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    )
    return reads, by_name, stores


def write_only_attributes(trees: dict[Path, ast.Module], record_trees) -> list[str]:
    """``Class.name`` for each attribute of the classes in ``record_trees``
    that ``trees`` store but never read."""
    reads, by_name, stores = _accesses(trees.values())
    return sorted(
        f"{cls}.{name}"
        for tree in record_trees
        for cls, names in _attributes(tree).items()
        for name in names
        if name in stores and (cls, name) not in reads and name not in by_name
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


def test_a_name_read_on_another_class_is_named():
    """Must-fail control: ``hits`` is read in ``src`` -- on the disk
    cache -- but never on this class, so the class's ``hits`` is named."""
    reads, _by_name, _stores = _accesses(_trees(SRC).values())
    assert ("ResultDiskCache", "hits") in reads
    assert _probe(
        "class Probe:\n"
        "    def __init__(self):\n"
        "        self.hits = 0\n"
        "    def bump(self):\n"
        "        self.hits += 1\n"
    ) == ["Probe.hits"]


def test_a_typed_read_from_outside_counts():
    """An annotated parameter or a constructed instance types its reads;
    an untyped receiver does not."""
    assert _probe(
        "class Probe:\n"
        "    __slots__ = ('probe_a', 'probe_b', 'probe_c')\n"
        "    def __init__(self):\n"
        "        self.probe_a = self.probe_b = self.probe_c = 0\n"
        "def report(probe: Probe, other):\n"
        "    fresh = Probe()\n"
        "    return probe.probe_a, fresh.probe_b, other.probe_c\n"
    ) == ["Probe.probe_c"]
