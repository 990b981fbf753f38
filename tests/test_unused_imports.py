"""No module of the library imports a name it does not use.

Each module's AST is walked: every name an import binds must be read somewhere
in the module or be listed in its ``__all__`` (the package's re-exports).  A
deletion that leaves its import behind fails here.
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
