"""Every public name of src/fnls is reached by the program, not by tests alone.

A public module-level function, class or constant of src/fnls/*.py must be
referenced somewhere in src/fnls/ or perfbench/ (its tests excluded) besides
its own definition: a name that only tests reach is code the gates, the
pipelines, the CLI and the benchmark never run.  A reference is a name read,
an attribute, an imported name or a string equal to the name (the benchmark
looks some functions up by string).
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fnls").glob("*.py"))
READERS = SOURCES + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                           if not p.name.startswith("test_"))


def _public_definitions(body: list) -> list:
    """(name, node) of each public def, class or assigned name among the
    module-level statements body."""
    out = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out if not name.startswith("_")]


def _references(node: ast.AST) -> set:
    """Names that node's subtree references."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _unreached() -> list:
    """'module: name' of each public name referenced nowhere but in its own
    definition, in definition order."""
    # each module's references, top-level statement by statement
    parts = {path: [(node, _references(node)) for node in ast.parse(path.read_text()).body]
             for path in READERS}
    unreached = []
    for path in SOURCES:
        for name, definition in _public_definitions([node for node, _ in parts[path]]):
            reached = any(name in refs for nodes in parts.values()
                          for node, refs in nodes if node is not definition)
            if not reached:
                unreached.append(f"{path.name}: {name}")
    return unreached


def test_every_public_name_is_reached_outside_the_tests():
    assert SOURCES and not _unreached()


def test_a_name_reached_only_by_its_own_definition_is_caught(tmp_path, monkeypatch):
    # a function that calls itself, a constant and a class that nothing
    # else names: all three are unreached
    module = tmp_path / "orphan.py"
    module.write_text("def orphan(n):\n    return orphan(n - 1)\n\n"
                      "ORPHAN_LIMIT = 3\n\n\nclass Orphan:\n    pass\n")
    monkeypatch.setattr(sys.modules[__name__], "SOURCES", SOURCES + [module])
    monkeypatch.setattr(sys.modules[__name__], "READERS", READERS + [module])
    assert _unreached() == ["orphan.py: orphan", "orphan.py: ORPHAN_LIMIT", "orphan.py: Orphan"]
