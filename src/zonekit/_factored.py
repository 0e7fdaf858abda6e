"""Kernel chains on tensor grids from one-axis tables (internal).

Every closed-form kernel in zonekit has the form

    pref * L_a^(alpha)(lam |X - Y|^2)
         * prod_r exp(A (x1^2 + x2^2) + B (y1^2 + y2^2) + C (x1 y1 + x2 y2)
                      + D s (x2 y1 - x1 y2)),

with r over the k/2 complex coordinates X_r = x1 + i x2, Y_r = y1 + i y2 and
s the charge sign.  On a tensor grid, given as one node array per real axis
(real and imaginary part of each coordinate adjacent, the last axis varying
fastest as in `special.tensor_points`), the exponential is a product of n x n
one-axis tables and the Laguerre factor is a polynomial in one-axis squared
distances.  So a kernel is applied to a grid function (a single point being a
grid of one node per axis) or summed along its diagonal without ever forming
the N x N kernel matrix.  From a one-node source a coordinate is an outer
product of tables, and into a one-node destination it is two vector
products with no temporary of the size of the grid.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .special import laguerre


class KernelForm(NamedTuple):
    """The constants of one kernel in the form above."""

    pref: complex
    a: int
    alpha: float
    A: complex
    B: complex
    C: complex
    D: complex

    def swapped(self) -> "KernelForm":
        """The same kernel with its arguments exchanged, K'(X, Y) = K(Y, X)."""
        return self._replace(A=self.B, B=self.A, D=-self.D)


def _laguerre_terms(form: KernelForm, lam: float, k: int):
    """Pairs (c, m) with L_a(lam sum_i e_i) = sum c prod_i e_i^m_i over the k real axes."""
    a, alpha = form.a, form.alpha
    power = [laguerre(a, alpha, 0.0)]
    for j in range(a):
        power.append(-power[-1] * lam * (a - j) / ((j + 1) * (alpha + j + 1)))
    for m in itertools.product(range(a + 1), repeat=k):
        j = sum(m)
        if j <= a:
            multinomial = math.factorial(j) / math.prod(map(math.factorial, m))
            yield power[j] * multinomial, m


def _coordinate(f: np.ndarray, r: int, P, Q, R, S) -> np.ndarray:
    """Contract complex coordinate r of f against P(x1,y1) Q(x2,y1) R(x2,y2) S(x1,y2).

    One output axis is looped over, so the largest intermediate has the size
    of f and each step is one BLAS product.  A one-node source (a point) needs
    no sum: the result is the outer product (P Q)(y1) (R S)(y2) f.  A one-node
    destination is two vector products, (Q R) @ ((P S) @ f), with no
    temporary of the size of f.
    """
    f = np.moveaxis(f, (2 * r, 2 * r + 1), (0, 1))
    n1, n2, rest = f.shape[0], f.shape[1], f.shape[2:]
    f = f.reshape(n1, n2, -1)
    m1, m2 = P.shape[1], R.shape[1]
    if n1 == n2 == 1:
        g = np.multiply.outer(np.multiply.outer(P[0] * Q[0], R[0] * S[0]), f[0, 0])
        return np.moveaxis(g.reshape((m1, m2) + rest), (0, 1), (2 * r, 2 * r + 1))
    if m1 == m2 == 1:
        g = (Q[:, 0] * R[:, 0]) @ ((P[:, 0] * S[:, 0]) @ f.reshape(n1, -1)).reshape(n2, -1)
        return np.moveaxis(g.reshape((1, 1) + rest), (0, 1), (2 * r, 2 * r + 1))
    g = np.empty((m1, m2, f.shape[2]), dtype=complex)
    for j in range(m1):
        h = f * (P[:, j, None] * Q[None, :, j])[:, :, None]
        t = (S.T @ h.reshape(n1, -1)).reshape(m2, n2, -1)
        g[j] = np.einsum("ynb,ny->yb", t, R)
    return np.moveaxis(g.reshape((m1, m2) + rest), (0, 1), (2 * r, 2 * r + 1))


def transfer(f: np.ndarray, form: KernelForm, params, src, dst) -> np.ndarray:
    """g(Y) = sum_X f(X) K(X, Y) for X on the tensor grid `src`, Y on `dst`.

    `src` and `dst` hold one node array per real axis; `f` has the shape
    (len(src[0]), ..., len(src[k-1])) and g the matching shape of `dst`.
    The coordinates are applied one after another; for a > 0 each separable
    term of the Laguerre expansion is one more pass.
    """
    A, B, C, D = form.A, form.B, form.C, form.D
    s = params.charge_sign
    tables = []
    for r in range(params.m):
        u1, u2 = src[2 * r][:, None], src[2 * r + 1][:, None]
        v1, v2 = dst[2 * r][None, :], dst[2 * r + 1][None, :]
        tables.append((np.exp(A * u1 * u1 + B * v1 * v1 + C * u1 * v1), np.exp(D * s * u2 * v1),
                       np.exp(A * u2 * u2 + B * v2 * v2 + C * u2 * v2), np.exp(-D * s * u1 * v2),
                       (u1 - v1) ** 2, (u2 - v2) ** 2))
    g = 0.0
    for c, m in _laguerre_terms(form, params.lam, params.k):
        h = f
        for r, (P, Q, R, S, e1, e2) in enumerate(tables):
            h = _coordinate(h, r, P * e1 ** m[2 * r], Q, R * e2 ** m[2 * r + 1], S)
        g = g + c * h
    return form.pref * g


def point_axes(x) -> list[np.ndarray]:
    """One point of k/2 complex coordinates as a tensor grid with one node per
    real axis, for `transfer` to start from or end at."""
    return [np.array([part]) for c in np.atleast_1d(np.asarray(x, dtype=complex))
            for part in (c.real, c.imag)]


def chain(x, y, grids, forms, params) -> complex:
    """The sum over one node X_i of each grid (axes, weights) of w_1(X_1) ... w_n(X_n)
    K_0(x, X_1) K_1(X_1, X_2) ... K_n(X_n, y), K_i = `forms[i]`: `transfer` from the
    point x through the grids to the point y, with no kernel matrix formed."""
    grids = [(point_axes(x), 1.0)] + list(grids) + [(point_axes(y), 1.0)]
    f = np.ones((1,) * params.k)
    for (src, w), (dst, _), form in zip(grids, grids[1:], forms):
        f = transfer(f * w, form, params, src, dst)
    return complex(f.ravel()[0])


def diagonal_sum(form: KernelForm, nodes, weights) -> complex:
    """sum_X w(X) K(X, X) over the tensor grid with per-axis `nodes` and `weights`.

    On the diagonal the D term vanishes and the Laguerre factor is L_a(0), so
    the sum is pref L_a(0) prod_i sum_j w_ij exp((A + B + C) x_ij^2).
    """
    total = form.pref * laguerre(form.a, form.alpha, 0.0)
    for x, w in zip(nodes, weights):
        total = total * np.sum(w * np.exp((form.A + form.B + form.C) * x * x))
    return complex(total)
