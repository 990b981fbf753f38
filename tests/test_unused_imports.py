"""No module of the library imports a name it does not use, defines a private
name that the library never uses, or exports a name without a caller.

Each module's AST is walked: every name an import binds must be read somewhere
in the module or be listed in its ``__all__`` (a star import re-exports its
module's ``__all__``), and every module-level private name must be read or
imported somewhere in the package.  Every module but ``__init__.py`` lists its
public names in a literal ``__all__``, and each of them must be imported from the
package, or read as an attribute of a package module, by another module, a demo
or the benchmark, or be on ``KERNEL`` with its reason.  A
deletion that leaves its import behind fails here, and so does a helper or an
export that only the tests still call: it belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jeffreys_centers"


def _literal_all(tree: ast.Module):
    """The module's ``__all__`` if it is assigned a literal list of names, else None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return list(ast.literal_eval(node.value))
            except ValueError:
                return None
    return None


def _unused_imports(source: str) -> list:
    """Names an import binds that the module neither reads nor lists in its
    ``__all__``; a star import re-exports its module's ``__all__`` and binds none."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    exported = set(_literal_all(tree) or ())
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


def test_an_unused_import_beside_a_star_import_is_caught():
    source = "from .a import *\nfrom .b import c, d\n__all__ = [n for n in a.__all__]\nd()\n"
    assert _unused_imports(source) == ["c (line 2)"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_module_lists_its_public_names_in_a_literal_all(path):
    names = _literal_all(ast.parse(path.read_text()))
    assert names and all(isinstance(n, str) for n in names)


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


REPO = SRC.parent.parent

# Exported names that no other module of the package, no demo and no benchmark
# reads, each kept on the surface for the reason given.
KERNEL = {
    "bench.BenchRecord": "the return type of run_table1",
    "bench.Table2Row": "the return type of run_table2",
    "bench.sample_histogram_pair": "Table 1's sampling rule",
    "categorical.JeffreysCatResult": "the return type of jeffreys_centroid_cat",
    "categorical.jeffreys_cat": "the Jeffreys divergence, which defines the Jeffreys centroid",
    "categorical.kl_cat": "the KL divergence, which defines the sided centroids",
    "cli.main": "the entry point of the centers console script (pyproject.toml)",
    "gaussian.fisher_rao_midpoint_mvn": "the Fisher-Rao midpoint that defines the JFR center; "
                                        "the benchmark's traces rebind it by a string",
    "gaussian.kl_mvn": "the KL divergence, which defines the sided centroids",
    "gaussian.mvn_from_natural": "the generic API's only way out of mvn_generator's coordinates",
    "gaussian.mvn_to_natural": "the generic API's only way into mvn_generator's coordinates",
    "legendre.bregman_div": "the Bregman divergence, which defines the sided centroids",
    "legendre.jeffreys_loss": "the objective the generic Jeffreys centroid minimizes",
    "legendre.symmetrized_bregman": "the divergence that defines the generic Jeffreys centroid",
    "uniparam.ScalarGenerator": "the input of the paper's uniparametric JFR formula",
    "uniparam.jfr_center_1d": "the paper's uniparametric JFR formula",
}


PACKAGE = "jeffreys_centers"


def _package_reads(tree: ast.Module, package_modules: set) -> set:
    """Every name the source imports from the package or one of its modules, or
    reads as an attribute of a name bound to the package or one of its modules.
    A name read any other way, such as a same-named local, is not a package read."""
    bound, read = set(), set()

    def of_package(node):
        return (isinstance(node, ast.Name) and node.id in bound) or (
            isinstance(node, ast.Attribute) and node.attr in package_modules and of_package(node.value)
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(
                alias.asname or PACKAGE
                for alias in node.names
                if alias.name.split(".")[0] == PACKAGE
            )
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == PACKAGE
        ):
            read.update(alias.name for alias in node.names)
            bound.update(
                alias.asname or alias.name for alias in node.names if alias.name in package_modules
            )
    read.update(
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and of_package(node.value)
    )
    return read


def _unused_exports(modules: dict, callers: list) -> list:
    """``module.name`` of each name in a module's literal ``__all__`` that no
    other module and no caller source imports from the package or reads as an
    attribute of a package module; a string holding the name is not a read."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    reads = {module: _package_reads(tree, set(trees)) for module, tree in trees.items()}
    read_by_callers = set().union(*(_package_reads(ast.parse(s), set(trees)) for s in callers))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _literal_all(tree) or ()
        if name not in read_by_callers
        and not any(name in names for other, names in reads.items() if other != module)
    )


def test_every_export_has_a_caller_or_a_reason():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    callers = [p.read_text() for d in ("demos", "perfbench") for p in sorted((REPO / d).glob("*.py"))]
    assert _unused_exports(modules, callers) == sorted(KERNEL)


def test_an_unused_export_is_caught():
    modules = {
        "a": '__all__ = ["used", "spare", "named"]\ndef used():\n    return spare()\n'
             'def spare():\n    pass\ndef named():\n    pass\n',
        "b": 'from .a import used\nREPORT = {"spare": used()}\n',
    }
    callers = ["import jeffreys_centers as pkg\npkg.named()\n"]
    assert _unused_exports(modules, callers) == ["a.spare"]


def test_a_callers_own_name_does_not_hide_an_unused_export():
    modules = {"cli": '__all__ = ["main"]\ndef main():\n    pass\n'}
    # a same-named local, or an attribute of an object that is not a package module
    hiding = ["def main():\n    pass\nmain()\n", "import other\nother.main()\n"]
    assert _unused_exports(modules, hiding) == ["cli.main"]
    for reading in [
        "from jeffreys_centers.cli import main\n",
        "from jeffreys_centers import cli\ncli.main()\n",
        "import jeffreys_centers.cli\njeffreys_centers.cli.main()\n",
        "import jeffreys_centers.cli as c\nc.main()\n",
    ]:
        assert _unused_exports(modules, hiding + [reading]) == []
