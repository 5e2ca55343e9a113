"""Every module of the package uses every name it imports, every helper,
method and property of the package is named by its code, no module of the
repository binds a top-level function or class name twice, and the size
check and the row-order sum are each written once.

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


def name_counts(trees: dict[str, ast.Module]) -> dict[str, int]:
    """How often the package's code names each name, ``__init__`` aside."""
    counts = {}
    for module, tree in trees.items():
        for name in referenced_names(tree) if module != "__init__" else ():
            counts[name] = counts.get(name, 0) + 1
    return counts


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes that no code of the package names,
    apart from their own definitions.  A re-export from ``__init__`` is no
    use: only code outside the package reads it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = name_counts(trees)
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


# Methods kept although only tests and the bench probes use them: the probes
# in ``fluxbench/spans.py`` name them until they follow the array forms.
TEST_ONLY_METHODS = {
    "fields.AdaptedProjection.shift_conjugate",
    "fields.AdaptedProjection.complement",
    "fields._Complement.complement",
}


def unreferenced_methods(sources: dict[str, str]) -> list[str]:
    """Methods and properties of the package's top-level classes that no
    code of the package names, apart from their own definitions.  Dunder
    methods are left out: the language calls them."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = name_counts(trees)
    dead = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                    continue
                if counts.get(node.name, 0) == referenced_names(node).count(node.name):
                    dead.append(f"{module}.{cls.name}.{node.name}")
    return dead


def test_guard_finds_an_unreferenced_method():
    sources = {
        "a": (
            "class A:\n"
            "    def __init__(self):\n        self.used()\n"
            "    def used(self):\n        pass\n"
            "    def recursive(self):\n        return self.recursive()\n"
            "    @property\n    def dead(self):\n        return 1\n"
        ),
        "b": "from .a import A\n\nclass B(A):\n    def used(self):\n        return A()\n",
        "__init__": "from .a import A\nA().dead\n",
    }
    assert unreferenced_methods(sources) == ["a.A.recursive", "a.A.dead"]


def test_package_has_no_dead_methods():
    # an allowlisted method that gains a user must leave the list
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert set(unreferenced_methods(sources)) == TEST_ONLY_METHODS


ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(p for tree in ("src", "tests", "fluxbench") for p in (ROOT / tree).rglob("*.py"))


def shadowed_definitions(source: str) -> list[str]:
    """Top-level functions and classes whose name an earlier one already
    bound: pytest collects only the last test of a name, so an earlier one
    never runs."""
    seen, again = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                again.append(f"{node.name} (line {node.lineno})")
            seen.add(node.name)
    return again


def test_guard_finds_a_shadowed_definition():
    source = "def test_a():\n    pass\n\nclass B:\n    pass\n\ndef test_a():\n    pass\n\nB = 1\n"
    assert shadowed_definitions(source) == ["test_a (line 7)"]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_defines_each_name_once(path):
    assert shadowed_definitions(path.read_text(encoding="utf-8")) == []


def written_rules(source: str) -> dict[str, list[str]]:
    """The functions of a module that write one of two rules out: a
    comparison with ``WINDOW_SITES`` (the size check), and a ``for`` loop
    whose whole body adds onto a name that the function starts at a float
    (the row-order sum of per-block terms)."""
    found = {"size check": [], "row-order sum": []}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        floats = {
            target.id
            for sub in ast.walk(node) if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Constant)
            and isinstance(sub.value.value, float) for target in sub.targets if isinstance(target, ast.Name)
        }
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare) and "WINDOW_SITES" in {
                n.id for n in (sub.left, *sub.comparators) if isinstance(n, ast.Name)
            }:
                found["size check"].append(node.name)
            if isinstance(sub, ast.For) and len(sub.body) == 1 and isinstance(sub.body[0], ast.AugAssign):
                step = sub.body[0]
                if isinstance(step.op, ast.Add) and isinstance(step.target, ast.Name) and step.target.id in floats:
                    found["row-order sum"].append(node.name)
    return found


def test_guard_finds_each_written_rule():
    source = (
        "def a(n):\n    if n > WINDOW_SITES:\n        raise ValueError\n"
        "def b(xs):\n    total = 0.0\n    for x in xs:\n        total += x\n    return total\n"
        "def c(xs):\n    out = []\n    for x in xs:\n        out += [x]\n    return WINDOW_SITES <= len(out)\n"
    )
    assert written_rules(source) == {"size check": ["a", "c"], "row-order sum": ["b"]}


def test_each_rule_is_written_once():
    # the size check lives in config.check_size and the row-order sum in
    # flux._row_order_sum; every other window and every index sum calls them
    found = {"size check": [], "row-order sum": []}
    for path in MODULES:
        for rule, functions in written_rules(path.read_text(encoding="utf-8")).items():
            found[rule] += [f"{path.stem}.{name}" for name in functions]
    assert found == {"size check": ["config.check_size"], "row-order sum": ["flux._row_order_sum"]}


# The line count of ``cat src/fluxwalk/*.py | wc -l``.  A change stays at or
# below it; one that spends a growth budget raises it in the same change and
# says so in CHANGES.md.
SRC_LINE_BUDGET = 4770


def test_src_stays_within_its_line_budget():
    lines = sum(p.read_text(encoding="utf-8").count("\n") for p in (ROOT / "src" / "fluxwalk").glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, f"src/ has {lines} lines, over its budget of {SRC_LINE_BUDGET}"
