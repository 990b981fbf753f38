"""The public names: every ``__all__`` entry resolves, and removed names and
parameters stay gone.

A name deleted from a module but still listed in its ``__all__`` (or the
reverse, a half-done removal that leaves the package exporting it) fails here.
"""

import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import jeffreys_centers

MODULES = ["jeffreys_centers"] + sorted(
    f"jeffreys_centers.{m.name}" for m in pkgutil.iter_modules(jeffreys_centers.__path__)
)

FRONT_END = ("jeffreys_centers.bench", "jeffreys_centers.cli")

REMOVED = [
    # Gaussian parameter types and conversions replaced by GaussianParam and
    # the flat natural vector (mvn_to_natural / mvn_from_natural)
    "MvnNatural",
    "MvnMoment",
    "mvn_to_moment",
    "mvn_from_moment",
    "natural_to_flat",
    "flat_to_natural",
    "flat_dim",
    "embed_gaussian",
    # replaced by CenterDiagnostics.after and the (center, diagnostics) pair
    "GBResult",
    "Stopwatch",
    # a test-only midpoint check, now in the tests
    "embedded_equidistance_residual",
    # copies of the Gauss-Bregman double sequence: the AGM is gb_center under
    # the Shannon generator, the arithmetic-harmonic sequence gb_center_mvn
    # of the centered pair
    "scalar_agm",
    "nakamura_ah",
    "NAKAMURA_TOL",
    # reference computations only the tests use, now in tests/oracles.py: the
    # scipy quadrature h coordinate, its bracketed inverse and the elliptic
    # integral, finite-difference optimality residuals, and spectral powers
    "h_of",
    "h_inverse",
    "_monotone_root",
    "elliptic_k",
    "energy_grad_residual",
    "sld_grad_residual",
    "g_invariance_residual",
    "spd_power",
    "spd_sqrt",
    "_FD_STEP",
    # the categorical generator over log-ratio naturals and its two conversions,
    # which only tests of the generic layer use, now in tests/oracles.py
    "cat_generator",
    "cat_to_natural",
    "cat_from_natural",
    # test-only names, now in tests/oracles.py: the squared generator of the
    # generic-layer sweeps and the candidate center of the reference bisections
    "squared_generator",
    "c_of_lambda",
    # helpers only their own module calls, now private: generators._separable,
    # gaussian._flatten and gaussian._unflatten
    "make_separable_generator",
    "mvn_flatten",
    "mvn_unflatten",
    # the W0 loops' stopping constants, now special_functions._W0_REL_TOL and
    # _W0_MAX_STEPS
    "DEFAULT_TOL",
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists names it does not define: {missing}"


@pytest.mark.parametrize("name", REMOVED)
@pytest.mark.parametrize(
    "module",
    [
        "jeffreys_centers",
        "jeffreys_centers.categorical",
        "jeffreys_centers.gaussian",
        "jeffreys_centers.gauss_bregman",
        "jeffreys_centers.generators",
        "jeffreys_centers.legendre",
        "jeffreys_centers.spd",
        "jeffreys_centers.special_functions",
        "jeffreys_centers.uniparam",
    ],
)
def test_removed_name_is_gone(module, name):
    mod = importlib.import_module(module)
    assert name not in getattr(mod, "__all__", ())
    assert not hasattr(mod, name)


# (module, function, parameter) of parameters removed from public functions
REMOVED_PARAMETERS = [
    # lambert_w0's caller-supplied start: the histogram solve continues its
    # own Fritsch-Shafer-Crowley steps from the previous W instead
    ("jeffreys_centers", "lambert_w0", "start"),
    ("jeffreys_centers.special_functions", "lambert_w0", "start"),
]


@pytest.mark.parametrize("module, function, parameter", REMOVED_PARAMETERS)
def test_removed_parameter_is_gone(module, function, parameter):
    fn = getattr(importlib.import_module(module), function)
    assert parameter not in inspect.signature(fn).parameters


def test_package_exports_its_names_not_its_submodules():
    public = {name for name in dir(jeffreys_centers) if not name.startswith("_")}
    submodules = {
        name for name in public if isinstance(getattr(jeffreys_centers, name), types.ModuleType)
    }
    assert {"categorical", "errors", "gaussian", "legendre", "spd"} <= submodules
    assert len(jeffreys_centers.__all__) == len(set(jeffreys_centers.__all__))
    assert set(jeffreys_centers.__all__) == public - submodules


def test_package_all_is_the_concatenation_of_its_submodules_all():
    """Every submodule but the front end is star-imported, and the package's
    ``__all__`` lists their ``__all__`` in import order."""
    tree = ast.parse(Path(jeffreys_centers.__file__).read_text())
    starred = [node.module for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.names[0].name == "*"]
    assert sorted(starred) == sorted(m.split(".")[1] for m in MODULES[1:] if m not in FRONT_END)
    expected = [name for m in starred for name in importlib.import_module(f"jeffreys_centers.{m}").__all__]
    assert jeffreys_centers.__all__ == expected
