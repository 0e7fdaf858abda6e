"""Generalized Laguerre polynomials, quadrature rules, and combinatorial factors."""

from __future__ import annotations

import math
import os
from functools import lru_cache, reduce

import numpy as np


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


def multiplicity_factor(a: int, k: int) -> int:
    """Combinatorial prefactor binomial(a + k/2 - 1, a) of the zonal partition function."""
    if a < 0:
        raise ValueError(f"zone index must be nonnegative, got {a}")
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
    return math.comb(a + k // 2 - 1, a)


@lru_cache(maxsize=None)
def _gauss_rule(rule, order: int):
    """numpy's raw (nodes, weights) of the Gauss rule `rule` at `order`, built once per
    order and process and read-only; the public rules return scaled copies."""
    nodes, weights = rule(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(order: int, a: float = -1.0, b: float = 1.0):
    """(nodes, weights) for int_a^b f(x) dx."""
    nodes, weights = _gauss_rule(np.polynomial.legendre.leggauss, order)
    half = 0.5 * (b - a)
    return half * nodes + 0.5 * (a + b), half * weights


def hermite_axis(order: int, lam: float):
    """Gauss-Hermite rule for the density e^{-lam x^2} on the real line.

    The weights absorb the Jacobian of the node rescaling and the density, so
    sum_i w_i f(x_i) ~ int f(x) e^{-lam x^2} dx.
    """
    nodes, weights = _gauss_rule(np.polynomial.hermite.hermgauss, order)
    return nodes / math.sqrt(lam), weights / math.sqrt(lam)


def _require_memory(need_bytes: int, what: str) -> None:
    """Refuse, before allocating, a request larger than physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need_bytes > have:
        raise ValueError(f"{what} needs {need_bytes / 1e9:.3g} GB, more than the "
                         f"{have / 1e9:.3g} GB of physical memory")


def flat_hermite_grid(order: int, lam: float, dim: int):
    """Tensor grid of `hermite_axis` on R^dim with the Gaussian divided back out.

    Returns (axes, weights): `axes` holds the `hermite_axis` nodes once per
    real axis, and `weights` is flat over the order**dim points in the layout
    of `tensor_points(axes)`.  Suitable for plain Lebesgue integrals
    int f(X) dX of integrands that decay at least like e^{-lam |X|^2}; the
    weights are w_i e^{+lam |x_i|^2}, both factors built as outer products of
    one-axis tables.  An order whose grid (four real order**dim arrays while it is
    built, and the Hermite rule's order x order companion matrix) exceeds physical
    memory raises ValueError before anything is allocated.
    """
    nodes = order**dim
    _require_memory(np.dtype(float).itemsize * (4 * nodes + order * order),
                    f"Hermite grid at order {order} ({nodes} nodes)")
    x, w = hermite_axis(order, lam)
    weights = reduce(np.multiply.outer, [w] * dim).ravel()
    return [x] * dim, weights * np.exp(lam * reduce(np.add.outer, [x**2] * dim).ravel())


def tensor_points(axes) -> np.ndarray:
    """Points of the tensor grid with one node array per real axis, as complex
    coordinates.

    The real and imaginary parts of each coordinate are adjacent axes, and the
    last axis varies fastest.  Returns shape (prod of the axis sizes,
    len(axes) // 2).
    """
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    return points[:, 0::2] + 1j * points[:, 1::2]
