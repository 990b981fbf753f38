"""Stock generators: separable lifts of classic scalar convex functions.

Burg negentropy -log(theta) induces the harmonic mean and the Itakura-Saito
divergence; Shannon negentropy theta*log(theta) - theta induces the geometric
mean.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .legendre import GeneratorSpec

__all__ = ["burg_generator", "shannon_generator"]


def _separable(
    dim: int,
    f: Callable[[np.ndarray], np.ndarray],
    f_prime: Callable[[np.ndarray], np.ndarray],
    f_prime_inv: Callable[[np.ndarray], np.ndarray],
    in_domain_scalar: Callable[[np.ndarray], np.ndarray],
    name: str,
) -> GeneratorSpec:
    """Lift a scalar convex f to the separable generator sum_i f(theta_i)."""
    return GeneratorSpec(
        dim=dim,
        eval_F=lambda th: float(np.sum(f(th))),
        eval_grad=lambda th: np.asarray(f_prime(th), dtype=float),
        eval_grad_inv=lambda eta: np.asarray(f_prime_inv(eta), dtype=float),
        in_domain=lambda th: bool(np.all(in_domain_scalar(th))),
        name=name,
    )


def burg_generator(dim: int = 1) -> GeneratorSpec:
    """F(theta) = -sum log(theta_i) on positive orthant; grad -1/theta."""
    return _separable(
        dim,
        f=lambda th: -np.log(th),
        f_prime=lambda th: -1.0 / th,
        f_prime_inv=lambda eta: -1.0 / eta,
        in_domain_scalar=lambda th: np.isfinite(th) & (th > 0.0),
        name="burg",
    )


def shannon_generator(dim: int = 1) -> GeneratorSpec:
    """F(theta) = sum theta_i log(theta_i) - theta_i on positive orthant; grad log."""
    return _separable(
        dim,
        f=lambda th: th * np.log(th) - th,
        f_prime=np.log,
        f_prime_inv=np.exp,
        in_domain_scalar=lambda th: np.isfinite(th) & (th > 0.0),
        name="shannon",
    )

