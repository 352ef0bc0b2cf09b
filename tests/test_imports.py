"""Every name a redsop module imports is used in that module, every
module-level definition is referenced somewhere in src, tests or bench
(a private one in src itself, a public one that the package does not
re-export in src or bench), and so is every method or property of a
redsop class; some call in src, tests or bench sets every parameter
that has a default.  No module imports ``dataclasses``, whose import
(``inspect``, ``ast``, ``dis``, ``tokenize``) and generated methods cost
every redsop process about a third of its start-up."""

import ast
import pathlib
import subprocess
import sys

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


def _is_dotted_name(node):
    """A string constant spelling a name or a dotted path of names."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.replace(".", "_").isidentifier())


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
                elif _is_dotted_name(node):
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


def unread_private_definitions(module_sources):
    """Private module-level definitions that no module reads, kept alive only by tests or bench."""
    return [name for name in dead_definitions(module_sources, module_sources)
            if name.startswith("_")]


def test_detector_sees_private_helpers_read_only_by_tests():
    module = ("def api():\n    return _used()\n\n"
              "def _used():\n    return 1\n\ndef _tested():\n    return 2\n")
    assert unread_private_definitions([module]) == ["_tested"]


def test_private_definitions_are_read_in_src():
    modules = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_private_definitions(modules) == []


def reexported(init_source):
    """Names the package's __init__ imports from its modules."""
    return {a.asname or a.name for node in ast.walk(ast.parse(init_source))
            if isinstance(node, ast.ImportFrom) for a in node.names}


def unread_public_definitions(module_sources, reader_sources, exported):
    """Public module-level definitions that are neither re-exported nor read by a reader."""
    return [name for name in dead_definitions(module_sources, reader_sources)
            if not name.startswith("_") and name not in exported]


def test_detector_sees_public_helpers_read_only_by_tests():
    module = ("def api():\n    return 1\n\n"
              "def used():\n    return 2\n\ndef tested():\n    return 3\n")
    reader = "from m import used\nused()\n"
    assert unread_public_definitions([module], [module, reader], {"api"}) == ["tested"]


def test_public_definitions_are_exported_or_read_in_src_or_bench():
    modules = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    readers = modules + [p.read_text() for p in sorted((ROOT / "bench").rglob("*.py"))]
    exported = reexported((SRC / "__init__.py").read_text())
    assert unread_public_definitions(modules, readers, exported) == []


def attribute_reads(sources):
    """Names read as an attribute or spelled in a dotted string, outside a def of that name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.update({node.attr} - inside)
        elif _is_dotted_name(node):
            used.update(set(node.value.split(".")) - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for source in sources:
        visit(ast.parse(source), frozenset())
    return used


def dead_methods(module_sources, all_sources):
    """Class.method for each non-dunder method or property of a module-level class that nothing reads."""
    used = attribute_reads(all_sources)
    return sorted(f"{cls.name}.{fn.name}" for source in module_sources
                  for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (fn.name.startswith("__") and fn.name.endswith("__"))
                  and fn.name not in used)


def test_detector_sees_dead_methods():
    module = ("class A:\n"
              "    def __eq__(self, other):\n        return True\n"
              "    def kept(self):\n        return self.kept()\n"
              "    def _dead(self):\n        return self._dead()\n"
              "    @property\n    def size(self):\n        return 1\n"
              "    def traced(self):\n        return 2\n")
    caller = "A().kept()\nA().size\nwrap('m.A.traced')\n"
    assert dead_methods([module], [module, caller]) == ["A._dead"]


def test_no_dead_methods():
    sources = [p.read_text() for top in ("src", "tests", "bench")
               for p in sorted((ROOT / top).rglob("*.py"))]
    modules = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert dead_methods(modules, sources) == []


def _defaulted(fn, method):
    """(name, position or None) of each parameter of fn with a default.

    A position counts the arguments a call passes, so a method's self or
    cls is not counted; a keyword-only parameter has no position.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = int(method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                  for d in fn.decorator_list))
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    found += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _calls(sources):
    """(callee name, through an attribute, positional count, keywords) of every call.

    The positional count is None after a ``*`` argument, and the keywords
    are None after a ``**`` one: those may set any parameter.
    """
    found = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name, attr = node.func.id, False
            elif isinstance(node.func, ast.Attribute):
                name, attr = node.func.attr, True
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            found.append((name, attr, None if starred else len(node.args),
                          None if None in keywords else keywords))
    return found


def _sets(call, fn, cls, param, pos):
    """Whether the call sets the parameter at pos of fn, a method of class cls or a function."""
    name, attr, npos, keywords = call
    if not (name == fn.name and (attr or cls is None)
            or fn.name == "__init__" and name == cls):
        return False
    return (keywords is None or param in keywords
            or pos is not None and (npos is None or pos < npos))


def unset_parameters(module_sources, all_sources):
    """name(parameter) for each defaulted parameter of a def in src that no call sets.

    A call sets a parameter by keyword, by position or through ``*`` or
    ``**``.  A method counts only calls through an attribute, so a bare
    ``reduce(and_, ...)`` sets nothing of a method ``reduce``; a call of a
    class counts for its ``__init__``.
    """
    calls = _calls(all_sources)
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = child.name if cls is None else f"{cls}.{child.name}"
                found.extend(f"{qualname}({param})"
                             for param, pos in _defaulted(child, cls is not None)
                             if not any(_sets(c, child, cls, param, pos) for c in calls))
                visit(child, None)
            else:
                visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    for source in module_sources:
        visit(ast.parse(source), None)
    return sorted(found)


def test_detector_sees_unset_parameters():
    module = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
              "def g(a, b=1):\n    return a\n"
              "class A:\n"
              "    def __init__(self, x=0, y=1):\n        self.x = x\n"
              "    def reduce(self, f, order=None):\n        return f\n"
              "    def h(self, p=0):\n        return p\n"
              "    @staticmethod\n    def s(p=0):\n        return p\n")
    caller = ("f(1, 2, d=4)\ng(*args)\nA(y=2)\nreduce(and_, items)\n"
              "A().h(**options)\nA.s(1)\n")
    assert unset_parameters([module], [module, caller]) == [
        "A.__init__(x)", "A.reduce(order)", "f(c)", "f(e)"]


def test_no_unset_parameters():
    sources = [p.read_text() for top in ("src", "tests", "bench")
               for p in sorted((ROOT / top).rglob("*.py"))]
    modules = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unset_parameters(modules, sources) == []


def imported_modules(source):
    """Top-level names of the modules an import statement loads; a relative import loads its own package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_detector_sees_dataclasses_imports():
    assert "dataclasses" in imported_modules("from dataclasses import dataclass\n")
    assert "dataclasses" in imported_modules("def f():\n    import dataclasses.x as d\n")
    assert "dataclasses" not in imported_modules("from .dataclasses import x\nimport json\n")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, redsop.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src")}, timeout=60, check=True)
    assert proc.stdout == "[]\n", proc.stdout + proc.stderr
