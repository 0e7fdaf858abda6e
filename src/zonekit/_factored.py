"""Kernel chains on tensor grids from one-axis tables (internal).

Every closed-form kernel in zonekit has the form

    pref * L_a^(alpha)(lam |X - Y|^2)
         * prod_r exp(A (x1^2 + x2^2) + B (y1^2 + y2^2) + C (x1 y1 + x2 y2)
                      + D s (x2 y1 - x1 y2)),

with alpha = k/2 - 1, r over the k/2 complex coordinates X_r = x1 + i x2,
Y_r = y1 + i y2 and s the charge sign.  On a tensor grid, given as one node
array per real axis (real and imaginary part of each coordinate adjacent, the
last axis varying fastest as in `special.tensor_points`), the exponential is a
product of n x n one-axis tables.  So is each term of the Laguerre factor, by
the addition formula L_n^(al+be+1)(x + y) = sum_i L_i^(al)(x) L_(n-i)^(be)(y)
(Abramowitz & Stegun 22.12) taken over the one-axis squared distances e_i:

    L_a^(k/2-1)(lam sum_i e_i) = sum_{|j| = a} prod_i L_(j_i)^(-1/2)(lam e_i),

C(a+k-1, k-1) products.  So a kernel is applied to a grid function (a single
point being a grid of one node per axis) or summed along its diagonal without
ever forming the N x N kernel matrix.  From a one-node source a coordinate is
an outer product of tables, and into a one-node destination it is two vector
products with no temporary of the size of the grid.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .special import laguerre


class KernelForm(NamedTuple):
    """The constants of one kernel in the form above."""

    pref: complex
    a: int
    A: complex
    B: complex
    C: complex
    D: complex

    def swapped(self) -> "KernelForm":
        """The same kernel with its arguments exchanged, K'(X, Y) = K(Y, X)."""
        return self._replace(A=self.B, B=self.A, D=-self.D)


def _laguerre_terms(a: int, k: int):
    """The degree tuples j over the k real axes with |j| = a, one per product of
    the addition formula."""
    return [j for j in itertools.product(range(a + 1), repeat=k) if sum(j) == a]


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
    The coordinates are applied one after another, once per product of the
    addition formula: C(a+k-1, k-1) passes, one at a = 0.
    """
    A, B, C, D = form.A, form.B, form.C, form.D
    s, lam = params.charge_sign, params.lam
    tables = []
    for r in range(params.m):
        u1, u2 = src[2 * r][:, None], src[2 * r + 1][:, None]
        v1, v2 = dst[2 * r][None, :], dst[2 * r + 1][None, :]
        tables.append((np.exp(A * u1 * u1 + B * v1 * v1 + C * u1 * v1), np.exp(D * s * u2 * v1),
                       np.exp(A * u2 * u2 + B * v2 * v2 + C * u2 * v2), np.exp(-D * s * u1 * v2),
                       [laguerre(j, -0.5, lam * (u1 - v1) ** 2) for j in range(form.a + 1)],
                       [laguerre(j, -0.5, lam * (u2 - v2) ** 2) for j in range(form.a + 1)]))
    g = 0.0
    for j in _laguerre_terms(form.a, params.k):
        h = f
        for r, (P, Q, R, S, L1, L2) in enumerate(tables):
            h = _coordinate(h, r, P * L1[j[2 * r]], Q, R * L2[j[2 * r + 1]], S)
        g = g + h
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

    On the diagonal the D term vanishes and the Laguerre factor is L_a^(k/2-1)(0),
    k = len(nodes), so the sum is pref L_a(0) prod_i sum_j w_ij exp((A + B + C) x_ij^2).
    """
    total = form.pref * laguerre(form.a, len(nodes) / 2 - 1, 0.0)
    for x, w in zip(nodes, weights):
        total = total * np.sum(w * np.exp((form.A + form.B + form.C) * x * x))
    return complex(total)
