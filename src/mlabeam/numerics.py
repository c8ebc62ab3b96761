"""Special functions and quadrature shared by the gain computations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special


def fresnel_cs(u):
    """Fresnel integrals C(u) = int_0^u cos(pi t^2 / 2) dt and S likewise.

    Returns the (C, S) pair; accepts scalars or arrays. Both are odd in u.
    """
    s, c = scipy.special.fresnel(u)
    return c, s


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on [-1, 1]."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if abs(self.weights.sum() - 2.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 2")


def gauss_legendre_rule(order: int = 8) -> QuadratureRule:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(order, nodes, weights)


def integrate_cell(rule: QuadratureRule, center_x: float, center_y: float,
                   width_x: float, width_y: float, integrand) -> complex:
    """Tensor-product Gauss-Legendre integral of integrand(x, y) over a rectangle.

    The integrand must accept broadcastable arrays and return complex values.
    Exact (to roundoff) for per-axis polynomial degree <= 2*order - 1.
    """
    if width_x <= 0 or width_y <= 0:
        raise ValueError("cell side lengths must be positive")
    x = center_x + 0.5 * width_x * rule.nodes
    y = center_y + 0.5 * width_y * rule.nodes
    vals = integrand(x[:, None], y[None, :])
    w2 = rule.weights[:, None] * rule.weights[None, :]
    return complex((w2 * vals).sum() * 0.25 * width_x * width_y)
