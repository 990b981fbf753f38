"""The public names: every ``__all__`` entry resolves, and removed names stay gone.

A name deleted from a module but still listed in its ``__all__`` (or the
reverse, a half-done removal that leaves the package exporting it) fails here.
"""

import importlib
import pkgutil

import pytest

import jeffreys_centers

MODULES = ["jeffreys_centers"] + sorted(
    f"jeffreys_centers.{m.name}" for m in pkgutil.iter_modules(jeffreys_centers.__path__)
)

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
        "jeffreys_centers.gaussian",
        "jeffreys_centers.gauss_bregman",
        "jeffreys_centers.legendre",
    ],
)
def test_removed_name_is_gone(module, name):
    mod = importlib.import_module(module)
    assert name not in getattr(mod, "__all__", ())
    assert not hasattr(mod, name)
