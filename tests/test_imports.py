"""Every name a package module, or tests/predicates.py, imports is used in that
module, every public definition of the package is read outside the tests, and
every package and test module parses as Python 3.10."""

import ast
import re
from pathlib import Path

import pytest

import cubecats

MODULES = sorted(p for p in Path(cubecats.__file__).parent.glob("*.py") if p.name != "__init__.py")
# the reference chains the tests compare the package with
MODULES.append(Path(__file__).with_name("predicates.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in source and never read in it.

    `import a.b` binds `a`; `from __future__ import ...` binds nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import json\nimport os.path\nfrom x import a, b as c\nos.sep\nc()\n"
    assert unused_imports(source) == ["line 1: json", "line 3: a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_oracle_imports_no_private_name_and_no_replace():
    # the oracle reads each category through a view that rows.py builds, so it
    # needs no private builder and no dataclasses.replace
    tree = ast.parse(Path(cubecats.__file__).with_name("oracle.py").read_text(encoding="utf-8"))
    froms = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    modules = {"dataclasses"} | {name for module, name in froms if module is None}
    reads = [
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    refused = [
        (module, name)
        for module, name in froms + reads
        if name.startswith("_") or (module, name) == ("dataclasses", "replace")
    ]
    assert refused == []


@pytest.mark.parametrize(
    "path",
    sorted(Path(cubecats.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _reads(tree: ast.AST) -> set[str]:
    """The names tree reads: as a name, as an attribute, or by importing it."""
    return (
        {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        | {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    )


def test_every_public_definition_is_read_outside_the_tests():
    # a public function, class or method that only the tests read is surface
    # kept for the tests alone; the package, the benchmark or README must read it
    root = Path(__file__).resolve().parent.parent
    package = sorted(Path(cubecats.__file__).parent.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in package}
    read = set().union(
        *map(_reads, trees.values()),
        *(_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in root.glob("perfbench/*.py")),
    )
    readme = (root / "README.md").read_text(encoding="utf-8")
    defined = [
        (path.name, node.name)
        for path, tree in trees.items()
        for top in tree.body
        for node in [top] + (top.body if isinstance(top, ast.ClassDef) else [])
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    unread = [
        (module, name)
        for module, name in defined
        if name not in read and not re.search(rf"\b{name}\b", readme)
    ]
    assert unread == []
