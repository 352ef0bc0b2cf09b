"""Every name a redsop module imports is used in that module."""

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
