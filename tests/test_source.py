"""Checks on the package source itself."""

import ast
import pathlib

import phases

SOURCES = sorted(
    p for p in pathlib.Path(phases.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no Name node of the module reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    assert len(SOURCES) >= 10  # the glob found the package modules
    found = {p.name: unused_imports(ast.parse(p.read_text())) for p in SOURCES}
    assert {k: v for k, v in found.items() if v} == {}
