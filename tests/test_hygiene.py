"""Source hygiene: every name a module of the package imports is used in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "phodge"


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


def test_checker_sees_unused_and_string_annotation_uses():
    source = (
        "from typing import Optional\n"
        "from .linalg import Matrix, Subspace, kron\n"
        "import json\n"
        "def f(x: 'Optional[Matrix]') -> 'Subspace':\n"
        "    return x\n"
    )
    assert unused_imports(source) == [(2, "kron"), (3, "json")]


def test_no_unused_imports_in_src():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        unused = unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    assert not found, found
