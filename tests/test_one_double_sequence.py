"""The package runs one Gauss-Bregman double sequence.

Each module's AST is walked.  A Gauss-Bregman loop is a ``while`` inside a
function whose name holds ``gb`` or ``double_sequence``, or a ``while`` that
reads such a name.  The only one is ``gauss_bregman._double_sequence``; the
family centers hand it their start, step and gap and hold no loop of their
own; and the loop never tests which family runs: it holds no ``if`` statement
and calls no ``isinstance``, ``type``, ``hasattr`` or ``getattr``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jeffreys_centers"

# the family centers that run the double sequence, and their steps
FAMILY_FUNCTIONS = {
    "gauss_bregman.py": ["gb_center", "gb_step"],
    "categorical.py": ["gb_center_cat", "_gb_step_cat"],
}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)


def _is_gb_name(name: str) -> bool:
    return "gb" in name.lower() or "double_sequence" in name


def _reads_gb_name(node: ast.AST) -> bool:
    return any(
        (isinstance(sub, ast.Name) and _is_gb_name(sub.id))
        or (isinstance(sub, ast.Attribute) and _is_gb_name(sub.attr))
        for sub in ast.walk(node)
    )


class _WhileFinder(ast.NodeVisitor):
    """Every ``while`` of a module, with its innermost enclosing function."""

    def __init__(self):
        self.stack, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_While(self, node):
        self.found.append((self.stack[-1], node))
        self.generic_visit(node)


def _gb_whiles(sources: dict) -> list:
    found = []
    for module, source in sources.items():
        finder = _WhileFinder()
        finder.visit(ast.parse(source))
        found += [
            f"{module}:{function}"
            for function, node in finder.found
            if _is_gb_name(function) or _reads_gb_name(node)
        ]
    return sorted(found)


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / module).read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


def test_one_gauss_bregman_while():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _gb_whiles(sources) == ["gauss_bregman.py:_double_sequence"]


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in FAMILY_FUNCTIONS.items() for name in names],
)
def test_family_functions_hold_no_loop(module, name):
    fn = _function(module, name)
    assert [type(n).__name__ for n in ast.walk(fn) if isinstance(n, LOOPS)] == []


def test_the_loop_never_tests_the_family():
    fn = _function("gauss_bregman.py", "_double_sequence")
    assert not any(isinstance(n, ast.If) for n in ast.walk(fn))
    called = {
        n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }
    assert called.isdisjoint({"isinstance", "type", "hasattr", "getattr"})


def test_an_inline_gauss_bregman_loop_is_caught():
    sources = {
        "a.py": "def gb_center_cat(a, g):\n    while gap(a, g) > 0.1:\n        a, g = step(a, g)\n",
        "b.py": "def center(gen, b, u):\n    while True:\n        b, u = gb_step(gen, b, u)\n",
        "c.py": "def solve(x):\n    while x > 1.0:\n        x = x / 2.0\n",
    }
    assert _gb_whiles(sources) == ["a.py:gb_center_cat", "b.py:center"]
