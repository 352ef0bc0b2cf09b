"""Every name a redsop module imports is used in that module, and every
module-level definition is referenced somewhere in src, tests or bench."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "redsop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # it re-exports


def unused_imports(source):
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_sees_unused_names():
    source = "import os\nimport a.b\nfrom .poly import ParseError, PolyRing\nPolyRing\n"
    assert unused_imports(source) == ["ParseError", "a", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


ROOT = SRC.parents[1]
# read by packaging tools and users, not by code in the repository
NOT_REFERENCED = {"__version__"}


def _defined(stmt):
    """Names a module-level statement defines: a def, a class or an assigned name."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
    return set()


def references(sources):
    """Names read, imported or spelled as a dotted string outside their own definition."""
    used = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = _defined(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.alias):
                    names = {node.name.split(".")[-1]}
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.replace(".", "_").isidentifier()):
                    names = set(node.value.split("."))  # monkeypatch targets, traced spans
                else:
                    continue
                used |= names - own
    return used


def dead_definitions(module_sources, all_sources):
    used = references(all_sources)
    return sorted(name for source in module_sources for stmt in ast.parse(source).body
                  for name in _defined(stmt) if name not in used | NOT_REFERENCED)


def test_detector_sees_dead_definitions():
    module = "def kept():\n    return kept()\n\ndef _dead():\n    return _dead()\nLIMIT = 3\n"
    caller = "from m import kept\nkept()\nsetattr(m, 'LIMIT', 4)\n"
    assert dead_definitions([module], [module, caller]) == ["_dead"]


def test_no_dead_definitions():
    sources = [p.read_text() for top in ("src", "tests", "bench")
               for p in sorted((ROOT / top).rglob("*.py"))]
    modules = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert dead_definitions(modules, sources) == []
