"""The package raises one pair of error classes.

Each module's AST is walked.  Every ``raise`` names ``DomainError`` (the
caller's input is invalid, CLI exit code 2) or ``NumericalError`` (an internal
failure, CLI exit code 3), so no raw ``ValueError`` or ``LinAlgError`` reaches
a caller.  One exception is allowed: the ``TypeError`` that
``legendre._float_array`` raises and catches itself.  The CLI's ``main`` catches
exactly these two classes, one per exit code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jeffreys_centers"

CONTRACT = {"DomainError", "NumericalError"}
# (module, innermost function or None for any, class) raised outside the contract
ALLOWED = {("legendre.py", "_float_array", "TypeError")}
# (class, returned exit code) of each handler of the try in cli.main, in order
EXIT_HANDLERS = [("DomainError", "EXIT_PARSE"), ("NumericalError", "EXIT_NUMERIC")]


def _raised(node: ast.Raise) -> str:
    """The class a ``raise`` names: ``X`` of ``raise X(...)`` or ``raise X``."""
    if node.exc is None:
        return "<bare raise>"
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return ast.unparse(exc)


class _RaiseFinder(ast.NodeVisitor):
    """Every ``raise`` of a module, with its innermost enclosing function."""

    def __init__(self):
        self.stack, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Raise(self, node):
        self.found.append((self.stack[-1], _raised(node), node.lineno))
        self.generic_visit(node)


def _outside_the_contract(sources: dict) -> list:
    found = []
    for module, source in sources.items():
        finder = _RaiseFinder()
        finder.visit(ast.parse(source))
        found += [
            f"{module}:{line} {function} raises {name}"
            for function, name, line in finder.found
            if name not in CONTRACT
            and (module, None, name) not in ALLOWED
            and (module, function, name) not in ALLOWED
        ]
    return sorted(found)


def _exit_handlers(source: str) -> list:
    """(class, returned expression) of each handler of the one ``try`` in ``main``."""
    main = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    (block,) = [node for node in ast.walk(main) if isinstance(node, ast.Try)]
    return [
        (ast.unparse(handler.type),
         next((ast.unparse(node.value) for node in ast.walk(handler)
               if isinstance(node, ast.Return)), None))
        for handler in block.handlers
    ]


def test_every_raise_is_a_domain_or_numerical_error():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _outside_the_contract(sources) == []


def test_a_raise_outside_the_contract_is_caught():
    sources = {
        "bench.py": "def run(trials):\n    if trials < 1:\n        raise ValueError('trials')\n",
        "cli.py": "def parse(text):\n    raise CliError(text)\n",
        "gaussian.py": "def solve(m):\n    raise CliError('no CLI here')\n",
        "legendre.py": (
            "def _float_array(x):\n    raise TypeError('caught below')\n"
            "def other(x):\n    raise TypeError('not caught')\n"
        ),
        "spd.py": "def kernel(m):\n    try:\n        pass\n    except KeyError:\n        raise\n",
    }
    assert _outside_the_contract(sources) == [
        "bench.py:3 run raises ValueError",
        "cli.py:2 parse raises CliError",
        "gaussian.py:2 solve raises CliError",
        "legendre.py:4 other raises TypeError",
        "spd.py:5 kernel raises <bare raise>",
    ]


def test_main_catches_one_class_per_exit_code():
    assert _exit_handlers((SRC / "cli.py").read_text()) == EXIT_HANDLERS


def test_a_third_handler_in_main_is_caught():
    source = (
        "def main(argv=None):\n"
        "    try:\n        return run(argv)\n"
        "    except DomainError as exc:\n        return EXIT_PARSE\n"
        "    except NumericalError as exc:\n        return EXIT_NUMERIC\n"
        "    except CliError as exc:\n        return EXIT_PARSE\n"
    )
    assert _exit_handlers(source) == EXIT_HANDLERS + [("CliError", "EXIT_PARSE")]
