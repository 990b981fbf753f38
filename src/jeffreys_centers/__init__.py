"""Jeffreys centroids and fast proxy centers.

Computes the symmetrized Kullback-Leibler (Jeffreys) centroid of weighted
categorical or multivariate normal sets, together with two fast structural
replacements: the Jeffreys-Fisher-Rao center (Fisher-Rao midpoint of the
sided KL centroids) and the inductive Gauss-Bregman center (limit of an
arithmetic / quasi-arithmetic double sequence).

The package exports the union of its submodules' ``__all__``.
"""

__version__ = "0.1.0"

from .errors import *
from .special_functions import *
from .legendre import *
from .generators import *
from .gauss_bregman import *
from .categorical import *
from .spd import *
from .gaussian import *
from .uniparam import *

# Each import above also bound its submodule's name in this package.
__all__ = [
    name
    for module in (errors, special_functions, legendre, generators, gauss_bregman,
                   categorical, spd, gaussian, uniparam)
    for name in module.__all__
]
