"""Zone construction: Gram-Schmidt bases and closed-form projection kernels.

Zones are built two independent ways and cross-checked by the test suite:
orthogonalization of the antiholomorphic-degree flag under the exact Gaussian
inner product, and the closed-form Laguerre kernels.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .algebra import ZonePolynomial, inner_product, norm
from .params import PhysParams
from .special import laguerre


def _class_chain(mclass: tuple[int, ...], a_max: int, deg_max: int):
    """Monomial exponent keys of one angular class, in zone-major order.

    A class is the tuple (p_j - v_j); monomials in different classes are
    exactly orthogonal, so Gram-Schmidt never mixes them.  Within a class the
    antiholomorphic multi-index V runs over all choices with |V| <= a_max and
    total degree <= deg_max.
    """
    m = len(mclass)
    vmin = [max(0, -mu) for mu in mclass]
    chain = []
    for vtup in itertools.product(*(range(vmin[j], a_max + 1) for j in range(m))):
        if sum(vtup) > a_max:
            continue
        key = tuple((v + mu, v) for v, mu in zip(vtup, mclass))
        if sum(p + v for p, v in key) <= deg_max:
            chain.append(key)
    chain.sort(key=lambda key: (sum(v for _, v in key),
                                sum(p + v for p, v in key),
                                key))
    return chain


@lru_cache(maxsize=None)
def _zone_basis_cached(a: int, max_degree: int, params: PhysParams):
    if params.charge_sign != 1:
        raise ValueError("zone construction works in the particle's own complex "
                         "structure; build states with charge_sign=+1 and use the "
                         "sign only to reorient evaluated pairings")
    classes = set()
    m = params.m
    for vtup in itertools.product(range(a + 1), repeat=m):
        if sum(vtup) != a:
            continue
        budget = max_degree - a
        for ptup in itertools.product(range(budget + 1), repeat=m):
            if sum(ptup) > budget:
                continue
            classes.add(tuple(p - v for p, v in zip(ptup, vtup)))
    basis = []
    for mclass in sorted(classes):
        chain = _class_chain(mclass, a, max_degree)
        done: list[ZonePolynomial] = []
        for key in chain:
            vec = ZonePolynomial.monomial(key, params)
            for e in done:
                vec = vec - inner_product(vec, e) * e
            nrm = norm(vec)
            if nrm == 0.0:
                continue
            vec = (1.0 / nrm) * vec
            done.append(vec)
            if sum(v for _, v in key) == a:
                basis.append((key, vec))
    basis.sort(key=lambda kv: (sum(p for p, _ in kv[0]),
                               tuple(p for p, _ in kv[0])))
    return tuple(basis)


def zone_basis_with_pivots(a: int, max_degree: int, params: PhysParams):
    """Pairs (pivot monomial key, orthonormal element) for the truncated zone."""
    if a < 0:
        raise ValueError(f"zone index must be nonnegative, got {a}")
    if max_degree < a:
        raise ValueError(f"max_degree={max_degree} truncates zone {a} to nothing")
    return _zone_basis_cached(a, max_degree, params)


def zone_basis(a: int, max_degree: int, params: PhysParams) -> tuple[ZonePolynomial, ...]:
    """Orthonormal basis of the degree-truncated zone with antiholomorphic index `a`.

    Elements are ordered by graded-lex holomorphic degree of their pivot
    monomial; each is an exact eigenvector of the Zeeman operator with
    eigenvalue (2p + k/2) lam, p the pivot's holomorphic total degree.
    """
    return tuple(vec for _, vec in zone_basis_with_pivots(a, max_degree, params))


def zone_pivot_degrees(a: int, max_degree: int, params: PhysParams):
    """Holomorphic total degree p of each basis element, aligned with `zone_basis`."""
    return tuple(sum(p for p, _ in key)
                 for key, _ in zone_basis_with_pivots(a, max_degree, params))


def project_to_zone(f: ZonePolynomial, a: int) -> ZonePolynomial:
    """Exact orthogonal projection of `f` onto zone `a`."""
    deg = f.max_degree()
    out = ZonePolynomial({}, f.params)
    if deg < a and not f.is_zero():
        # every zone-a element has degree >= a, so low-degree inputs project to 0
        return out
    for vec in zone_basis(a, max(deg, a), f.params):
        c = inner_product(f, vec)
        if c != 0:
            out = out + c * vec
    return out


def pairing(Z: np.ndarray, W: np.ndarray, params: PhysParams) -> np.ndarray:
    """Complex pairing Z.Wbar = <Z,W> + i charge_sign <Z,J(W)> (coordinatewise sum)."""
    Z = np.asarray(Z, dtype=complex)
    W = np.asarray(W, dtype=complex)
    s = np.sum(Z * np.conj(W), axis=-1)
    if params.charge_sign == -1:
        s = np.conj(s)
    return s


def zone_kernel(a: int, Z: np.ndarray, W: np.ndarray, params: PhysParams,
                weighted: bool = False) -> np.ndarray:
    """Closed-form zone projection kernel (point-spread amplitude).

    Standard-space form (default):

        (lam/pi)^(k/2) L_a^{(k/2-1)}(lam |Z-W|^2)
            * exp(lam (Z.Wbar - (|Z|^2 + |W|^2)/2)).

    With ``weighted=True`` the half-Gaussians are dropped, which is the form
    that reproduces weighted-space polynomials against the density
    e^{-lam |W|^2}.  `Z`, `W` broadcast over leading axes; the trailing axis
    holds the k/2 complex coordinates.
    """
    lam = params.lam
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    dist2 = np.sum(np.abs(Z - W) ** 2, axis=-1)
    lag = laguerre(a, params.k / 2 - 1, lam * dist2)
    expo = lam * pairing(Z, W, params)
    if not weighted:
        expo = expo - 0.5 * lam * (np.sum(np.abs(Z) ** 2, axis=-1)
                                   + np.sum(np.abs(W) ** 2, axis=-1))
    return (lam / np.pi) ** (params.k / 2) * lag * np.exp(expo)


def kernel_basis_residual(a: int, n_basis: int, samples_Z: np.ndarray,
                          samples_W: np.ndarray, params: PhysParams) -> float:
    """Max |closed-form kernel - truncated basis sum| over sample point pairs.

    The basis sum uses the first `n_basis` orthonormal zone elements in
    standard-space form; the residual decreases monotonically in `n_basis`
    on compact regions.
    """
    max_degree = a
    while len(zone_basis(a, max_degree, params)) < n_basis:
        max_degree += 1
    basis = zone_basis(a, max_degree, params)[:n_basis]
    Z = np.atleast_2d(np.asarray(samples_Z, dtype=complex))
    W = np.atleast_2d(np.asarray(samples_W, dtype=complex))
    lam = params.lam
    gz = np.exp(-0.5 * lam * np.sum(np.abs(Z) ** 2, axis=-1))
    gw = np.exp(-0.5 * lam * np.sum(np.abs(W) ** 2, axis=-1))
    acc = np.zeros(Z.shape[:-1], dtype=complex)
    for vec in basis:
        acc += vec.eval(Z) * np.conj(vec.eval(W))
    acc *= gz * gw
    closed = zone_kernel(a, Z, W, params)
    if n_basis == 0:
        return float(np.max(np.abs(closed)))
    return float(np.max(np.abs(closed - acc)))
