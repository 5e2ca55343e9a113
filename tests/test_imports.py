"""Every module of the package uses every name it imports.

No linter is installed, so this walks each module's syntax tree with the
standard ``ast`` module.  ``__init__.py`` is skipped: its imports are the
package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

import fluxwalk

PACKAGE = Path(fluxwalk.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
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
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_guard_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)",
        "path (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Helpers kept although only tests use them: none.  A helper that only
# tests need lives in the tests (``reference_state``), not in the package.
TEST_ONLY_HELPERS = set()


def top_level_definitions(tree: ast.Module) -> dict:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def referenced_names(node: ast.AST) -> list[str]:
    """Names read by a node: plain names, attributes and imported names."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.extend(alias.name for alias in sub.names)
    return names


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes that no code of the package names,
    apart from their own definitions.  A re-export from ``__init__`` is no
    use: only code outside the package reads it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = {}
    for module, tree in trees.items():
        for name in referenced_names(tree) if module != "__init__" else ():
            counts[name] = counts.get(name, 0) + 1
    dead = []
    for module, tree in trees.items():
        for name, node in top_level_definitions(tree).items():
            if counts.get(name, 0) == referenced_names(node).count(name):
                dead.append(f"{module}.{name}")
    return dead


def test_guard_finds_an_unreferenced_helper():
    sources = {
        "a": "def used():\n    pass\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b": "from .a import used\n\nclass Dead:\n    pass\n",
        "__init__": "from .a import recursive\nfrom .b import Dead\n",
    }
    assert unreferenced_helpers(sources) == ["a.recursive", "b.Dead"]


def test_package_has_no_dead_helpers():
    # an allowlisted helper that gains a user must leave the list
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert set(unreferenced_helpers(sources)) == TEST_ONLY_HELPERS
