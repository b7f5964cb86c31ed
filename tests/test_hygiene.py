"""Source hygiene: every name a module of the package or a test module
imports is used in it, every module-level private function or class is used
somewhere, every import sits at module level, only linalg, io and cli read a
Matrix's dense entries, every span target of the benchmark's layer trace
still names a callable of the package, and the RREF memo slot that trace
reads still exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from phodge.linalg import Matrix

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "phodge"
LAYERTRACE = TESTS.parent / "perfbench" / "layertrace.py"


def _annotation_names(node: ast.AST):
    """Names inside an annotation, including those written as strings."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            used.update(_annotation_names(ann))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def function_local_imports(source: str):
    """(line, function) of each import statement inside a function body,
    naming the innermost function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and owner:
                found.append((child.lineno, owner))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def _references(node: ast.AST):
    """Every name node refers to: names, attributes, imported names and
    names inside annotations."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.returns is not None:
            yield from _annotation_names(sub.returns)
        elif isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation is not None:
            yield from _annotation_names(sub.annotation)


def orphaned_private_definitions(sources):
    """(module, name) of each module-level _private function or class that
    no module references outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = {}
    for tree in trees.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            inside = sum(1 for name in _references(node) if name == node.name)
            if counts.get(node.name, 0) == inside:
                found.append((module, node.name))
    return sorted(found)


def test_checker_sees_unused_and_string_annotation_uses():
    source = (
        "from typing import Optional\n"
        "from .linalg import Matrix, Subspace, kron\n"
        "import json\n"
        "def f(x: 'Optional[Matrix]') -> 'Subspace':\n"
        "    return x\n"
    )
    assert unused_imports(source) == [(2, "kron"), (3, "json")]


def _unused_imports_in(directory: Path):
    found = {}
    for path in sorted(directory.glob("*.py")):
        unused = unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    return found


def test_no_unused_imports_in_src():
    found = _unused_imports_in(SRC)
    assert not found, found


def test_no_unused_imports_in_tests():
    found = _unused_imports_in(TESTS)
    assert not found, found


def test_local_import_checker_sees_functions_methods_and_nesting():
    source = (
        "import json\n"
        "def f():\n"
        "    from .linalg import Matrix\n"
        "    return Matrix\n"
        "class A:\n"
        "    from typing import Dict\n"
        "    def g(self):\n"
        "        def h():\n"
        "            import os\n"
        "        return h\n"
    )
    assert function_local_imports(source) == [(3, "f"), (9, "h")]


def test_no_function_local_imports_in_src():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        local = function_local_imports(path.read_text())
        if local:
            found[path.name] = local
    assert not found, found


def test_orphan_checker_sees_self_references_and_other_modules():
    sources = {
        "a": (
            "def _orphan(n):\n"
            "    return _orphan(n - 1) if n else 0\n"
            "def _used():\n"
            "    return 1\n"
            "class _Annotated:\n"
            "    pass\n"
            "def _only_in_b():\n"
            "    return 2\n"
            "def public(x: '_Annotated') -> int:\n"
            "    return _used()\n"
        ),
        "b": "from .a import _only_in_b\n",
    }
    assert orphaned_private_definitions(sources) == [("a", "_orphan")]


def test_no_orphaned_private_definitions_in_src():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert not orphaned_private_definitions(sources)


# Only these modules read a Matrix's derived dense rows: linalg itself, io
# to write matrices and cli to print them.  Every other module works on the
# nonzero view through the linalg primitives.
DENSE_READERS = {"linalg.py", "io.py", "cli.py"}
# reads of attributes named entries that are not a Matrix's: spectral's
# SpectralPage.entries is a dict of page entries
NOT_MATRIX_ENTRIES = {("spectral.py", "self.entries"), ("spectral.py", "last.entries")}


def entries_reads(source: str):
    """(line, expression) of each read of an attribute named entries."""
    return sorted(
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "entries"
    )


def test_entries_checker_sees_reads_at_any_depth():
    source = (
        "def f(m, page):\n"
        "    x = m.basis.entries[0]\n"
        "    y = page(entries={}).entries_count\n"
        "    return [r for r in (m * m).entries], x, y\n"
    )
    assert entries_reads(source) == [(2, "m.basis.entries"), (4, "(m * m).entries")]


def test_dense_entries_read_only_in_linalg_io_and_cli():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name in DENSE_READERS:
            continue
        reads = [(line, expr) for line, expr in entries_reads(path.read_text()) if (path.name, expr) not in NOT_MATRIX_ENTRIES]
        if reads:
            found[path.name] = reads
    assert not found, found


def _load_layertrace():
    """perfbench/layertrace.py as a module, loaded without writing bytecode
    next to it."""
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


def test_layertrace_targets_resolve_to_callables():
    """install() wraps cls.__dict__[attr] for a method and getattr(module,
    attr) for a function; a target that no longer resolves would drop its
    per-layer span."""
    targets = _load_layertrace().TARGETS
    assert targets
    broken = []
    for group, entries in targets.items():
        for modname, clsname, attr in entries:
            module = importlib.import_module(modname)
            if clsname:
                owner = getattr(module, clsname, None)
                found = vars(owner).get(attr) if isinstance(owner, type) else None
            else:
                found = getattr(module, attr, None)
            if not callable(found):
                broken.append((group, modname, clsname, attr))
    assert not broken, broken


def test_rref_memo_slot_read_by_layertrace_exists():
    """layertrace counts RREF memo hits by reading Matrix._rref before each
    call; a renamed slot would break traced runs, not this suite."""
    assert "._rref is not None" in LAYERTRACE.read_text()
    assert "_rref" in Matrix.__slots__
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert m._rref is None
    result = m.rref()
    assert m._rref is result and m.rref() is result
