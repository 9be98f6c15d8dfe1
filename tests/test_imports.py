"""Import hygiene: no module of the package imports a name it never uses,
and no private module-level function or class of the package goes unused.

A name counts as used when it appears as an identifier anywhere in the
module's syntax tree outside the import itself (attribute chains count by
their base name).  `from __future__` imports and the re-exports of
`__init__.py` are exempt.

A private function or class (one whose name starts with a single `_`)
counts as used when its name appears as an identifier or an attribute
somewhere in the package outside its own definition; imports do not
count, so one kept alive only for the tests is reported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilform"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_private_definitions(sources):
    """The (module, name) of each private module-level def or class unused elsewhere in `sources`."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = {}                                   # identifier -> the ids of the nodes naming it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, set()).add(id(node))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                own = {id(inner) for inner in ast.walk(node)}
                if not used.get(node.name, set()) - own:
                    unused.append((module, node.name))
    return sorted(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import os\nfrom math import gcd, lcm\nfrom x import y as z\nprint(os.sep, lcm)\n"
    assert unused_imports(source) == [(2, "gcd"), (3, "z")]


def test_no_unused_private_definitions():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_private_definitions(sources) == []


def test_unused_private_definition_is_reported():
    sources = {
        "a.py": "def _kept(x):\n    return _kept(x - 1) if x else 0\n"
                "def _used():\n    pass\nclass _Alone:\n    pass\ndef public():\n    pass\n",
        "b.py": "from a import _Alone, _kept\nimport a\nprint(a._used())\n",
    }
    assert unused_private_definitions(sources) == [("a.py", "_Alone"), ("a.py", "_kept")]
