"""Generalized Laguerre polynomials, quadrature rules, and combinatorial factors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_genlaguerre


def laguerre(a: int, alpha: float, t):
    """Evaluate the generalized Laguerre polynomial L_a^(alpha)(t).

    Uses the ascending three-term recurrence

        (n+1) L_{n+1} = (2n + 1 + alpha - t) L_n - (n + alpha) L_{n-1},

    which is numerically stable for the orders needed here.  `t` may be a
    scalar or any numpy array (real or complex).

    Parameters
    ----------
    a : int
        Polynomial order, a >= 0.
    alpha : float
        Weight exponent, alpha > -1.
    t : scalar or ndarray
        Evaluation point(s).
    """
    if a < 0:
        raise ValueError(f"order must be a nonnegative integer, got {a}")
    if alpha <= -1:
        raise ValueError(f"alpha must exceed -1 (weight undefined), got {alpha}")
    t = np.asarray(t)
    prev = np.ones_like(t)
    if a == 0:
        return prev[()] if prev.ndim == 0 else prev
    cur = 1.0 + alpha - t
    for n in range(1, a):
        prev, cur = cur, ((2 * n + 1 + alpha - t) * cur - (n + alpha) * prev) / (n + 1)
    return cur[()] if np.ndim(cur) == 0 else cur


def laguerre_at_zero(a: int, alpha: float) -> float:
    """L_a^(alpha)(0) = binomial(a + alpha, a)."""
    if a < 0:
        raise ValueError(f"order must be a nonnegative integer, got {a}")
    out = 1.0
    for j in range(1, a + 1):
        out *= (alpha + j) / j
    return out


def multiplicity_factor(a: int, k: int) -> int:
    """Combinatorial prefactor binomial(a + k/2 - 1, a) of the zonal partition function."""
    if a < 0:
        raise ValueError(f"zone index must be nonnegative, got {a}")
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
    return math.comb(a + k // 2 - 1, a)


@dataclass(frozen=True)
class QuadratureRule:
    """One-dimensional quadrature rule (nodes, weights, provenance tag)."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    order: int

    def __post_init__(self) -> None:
        if len(self.nodes) != self.order:
            raise ValueError("node count must equal the rule order")
        if np.any(np.asarray(self.weights) <= 0) and self.kind != "gauss-laguerre":
            raise ValueError("weights must all be positive")


def gauss_hermite(order: int) -> QuadratureRule:
    """Rule for integrals of the form int f(x) e^{-x^2} dx over the real line."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(nodes, weights, "gauss-hermite", order)


def gauss_legendre(order: int, a: float = -1.0, b: float = 1.0) -> QuadratureRule:
    """Rule for int_a^b f(x) dx."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    return QuadratureRule(half * nodes + 0.5 * (a + b), half * weights, "gauss-legendre", order)


def gauss_laguerre(order: int, alpha: float = 0.0) -> QuadratureRule:
    """Rule for int_0^inf f(u) u^alpha e^{-u} du."""
    nodes, weights = roots_genlaguerre(order, alpha)
    return QuadratureRule(nodes, weights, "gauss-laguerre", order)


def hermite_grid(order: int, lam: float, dim: int):
    """Tensor Gauss-Hermite grid adapted to the density e^{-lam |X|^2} on R^dim.

    Returns (points, weights): `points` has shape (order**dim, dim) and the
    returned weights absorb both the Jacobian of the node rescaling and the
    Gaussian density, so that

        sum_i w_i f(points_i)  ~  int f(X) e^{-lam |X|^2} dX.
    """
    rule = gauss_hermite(order)
    x = rule.nodes / math.sqrt(lam)
    w = rule.weights / math.sqrt(lam)
    return tensor_grid([x] * dim, [w] * dim)


def tensor_grid(nodes, weights):
    """Product of one-dimensional rules, one (nodes, weights) pair per axis.

    Returns (points, weights): `points` has shape (prod of the rule sizes,
    number of axes), the last axis varying fastest, and each weight is the
    product of the per-axis weights.
    """
    grids = np.meshgrid(*nodes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*weights, indexing="ij")
    return points, np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)


def flat_hermite_grid(order: int, lam: float, dim: int):
    """Like `hermite_grid` but with the Gaussian divided back out of the weights.

    Suitable for plain Lebesgue integrals int f(X) dX of integrands that decay
    at least like e^{-lam |X|^2}; the weights are w_i e^{+lam |x_i|^2}.
    """
    points, weights = hermite_grid(order, lam, dim)
    return points, weights * np.exp(lam * np.sum(points**2, axis=-1))


def real_to_complex(points: np.ndarray) -> np.ndarray:
    """Pack real coordinates (..., 2m) into complex coordinates (..., m)."""
    return points[..., 0::2] + 1j * points[..., 1::2]
