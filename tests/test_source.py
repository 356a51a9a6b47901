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


def names_read(tree: ast.Module) -> set[str]:
    """Every name a module reads, imports, or spells as a whole string (as
    in __all__)."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def attributes_read(tree: ast.Module) -> set[str]:
    """The attribute names and whole strings of a module: how a method is
    reached, so that a local variable of the same name does not count."""
    return {n.attr if isinstance(n, ast.Attribute) else n.value for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_definition_is_used():
    """A module-level function or class of the package, or a method of one
    of its classes (dunders aside), that no module of the package or of the
    tests names is dead code."""
    package = pathlib.Path(phases.__file__).parent
    trees = {p: ast.parse(p.read_text()) for p in [*package.glob("*.py"),
                                                   *pathlib.Path(__file__).parent.glob("*.py")]}
    named = set().union(*map(names_read, trees.values()))
    attributes = set().union(*map(attributes_read, trees.values()))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unused = [f"{p.name}:{n.name}" for p, tree in trees.items() if p.parent == package
              for n in tree.body
              if isinstance(n, (*functions, ast.ClassDef)) and n.name not in named]
    unused += [f"{p.name}:{c.name}.{f.name}" for p, tree in trees.items() if p.parent == package
               for c in tree.body if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, functions) and not f.name.startswith("__")
               and f.name not in attributes]
    assert unused == []
