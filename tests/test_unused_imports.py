"""No module of the library imports a name it does not use, and none defines a
private name that the library never uses.

Each module's AST is walked: every name an import binds must be read somewhere
in the module or be listed in its ``__all__`` (the package's re-exports), and
every module-level private name must be read or imported somewhere in the
package.  A deletion that leaves its import behind fails here, and so does a
helper that only the tests still call: it belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jeffreys_centers"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = "from typing import List, Optional\nimport numpy as np\nx: Optional[int] = None\n"
    assert _unused_imports(source) == ["List (line 1)", "np (line 2)"]


def _defined_private_names(tree: ast.Module) -> dict:
    """Line of each module-level def, class or assignment binding a _name (not a dunder)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names[sub.id] = node.lineno
    return {n: line for n, line in names.items() if n.startswith("_") and not n.endswith("__")}


def _read_names(tree: ast.Module) -> set:
    """Every name the module reads, as a variable or an attribute, or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unused_private_names(sources: dict) -> list:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    return sorted(
        f"{module}:{name} (line {line})"
        for module, tree in trees.items()
        for name, line in _defined_private_names(tree).items()
        if name not in read
    )


def test_every_private_name_is_used():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unused_private_names(sources) == []


def test_an_unused_private_name_is_caught():
    sources = {
        "a.py": "_LIMIT = 1\n_UNUSED: int = 2\n__all__ = []\ndef _helper():\n    return _LIMIT\n"
                "class _Only:\n    pass\n",
        "b.py": "from .a import _helper\n",
    }
    assert _unused_private_names(sources) == ["a.py:_Only (line 6)", "a.py:_UNUSED (line 2)"]
