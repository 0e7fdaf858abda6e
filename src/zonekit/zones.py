"""Zone construction: closed-form bases and projections, and projection kernels.

Zone a is spanned by the products over coordinates of complex Hermite polynomials
(Ito 1952) of zone index a (`algebra.grades`), orthogonal under e^{-lam |z|^2}:

    H_{p,v} = sum_j (-1)^j j! C(p,j) C(v,j) lam^-j z^(p-j) zbar^(v-j),
    ||H_{p,v}||^2 = pi p! v! / lam^(p+v+1).

The closed-form Laguerre kernels sum the same projections.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache

import numpy as np

from .algebra import ZonePolynomial, grades
from .params import PhysParams
from .special import _require_memory, laguerre

_LOG_MIN, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)
# the bytes a basis element holds for its first term, by tracemalloc over zone 0 to
# degree 60 at k = 2, and for each further term, from zone 10 to degree 80 against 120
# at k = 4 (Python 3.11)
_ELEMENT_BYTES, _TERM_BYTES = 460, 240


def _hermite_product(key, log_scale: float, lam: float) -> dict:
    """Monomial coefficients of e^log_scale prod_r H_{p_r,v_r}(z_r), for key ((p_r, v_r))_r.

    Each coefficient is formed from its logarithm, so no factorial is formed; one
    outside the normal float range raises OverflowError instead of turning to 0 or inf.
    """
    logs = [[math.lgamma(j + 1) + math.log(math.comb(p, j) * math.comb(v, j)) - j * math.log(lam)
             for j in range(min(p, v) + 1)] for p, v in key]
    coeffs = {}
    for js in itertools.product(*(range(len(row)) for row in logs)):
        log_c = log_scale + sum(row[j] for row, j in zip(logs, js))
        if not _LOG_MIN <= log_c <= _LOG_MAX:
            raise OverflowError(f"complex Hermite product {key} at lam={lam} has a coefficient "
                                f"e^{log_c:.2f} outside the float range")
        mono = tuple((p - j, v - j) for (p, v), j in zip(key, js))
        coeffs[mono] = (-1) ** sum(js) * math.exp(log_c)
    return coeffs


def _compositions(total: int, m: int) -> list:
    """The m-tuples of nonnegative integers that sum to `total`."""
    if m == 1:
        return [(total,)]
    return [(j, *rest) for j in range(total + 1) for rest in _compositions(total - j, m - 1)]


@lru_cache(maxsize=None)
def _zone_basis_cached(a: int, max_degree: int, params: PhysParams):
    m, budget, lam = params.m, max_degree - a, params.lam
    Vs = _compositions(a, m)[::-1]  # P comes graded-lex, and P - V ascends for each P
    basis = []
    for P, V in ((P, V) for s in range(budget + 1) for P in _compositions(s, m) for V in Vs):
        # the pivot with grades (P, V): zip(V, P) at -1, as H_{v,p} = conj H_{p,v}
        key = tuple(grades((gv,), params) for gv in zip(P, V))
        log_norm = 0.5 * sum(math.log(math.pi) + math.lgamma(p + 1) + math.lgamma(v + 1)
                             - (p + v + 1) * math.log(lam) for p, v in key)
        basis.append((key, ZonePolynomial(_hermite_product(key, -log_norm, lam), params)))
    return tuple(basis)


def zone_basis_with_pivots(a: int, max_degree: int, params: PhysParams):
    """Pairs (pivot monomial key, orthonormal element) for the truncated zone; a zone
    whose elements would not fit in physical memory raises ValueError before any is built.

    The element with grades P and zone split V (|V| = a) has prod_r (min(P_r, V_r) + 1)
    terms.  They are counted as at most prod_r (P_r + 1) where |P| <= a and at most
    prod_r (V_r + 1) above; summed over the |P| = s and the V, these are
    C(s + 2m - 1, 2m - 1) C(a + m - 1, m - 1) and C(a + 2m - 1, 2m - 1) C(s + m - 1, m - 1).
    The count is exact at k = 2.
    """
    if a < 0:
        raise ValueError(f"zone index must be nonnegative, got {a}")
    if max_degree < a:
        raise ValueError(f"max_degree={max_degree} truncates zone {a} to nothing")
    m, budget = params.m, max_degree - a
    splits, low = math.comb(a + m - 1, m - 1), min(a, budget)
    n = math.comb(budget + m, m) * splits  # the pivots
    terms = (math.comb(low + 2 * m, 2 * m) * splits + math.comb(a + 2 * m - 1, 2 * m - 1)
             * (math.comb(budget + m, m) - math.comb(low + m, m)))
    _require_memory(_ELEMENT_BYTES * n + _TERM_BYTES * (terms - n),
                    f"zone {a} to degree {max_degree} ({n} elements)")
    return _zone_basis_cached(a, max_degree, params)


def zone_basis(a: int, max_degree: int, params: PhysParams) -> tuple[ZonePolynomial, ...]:
    """Orthonormal basis of the degree-truncated zone with zone index `a`.

    Elements are ordered by graded-lex Zeeman grades of their pivot monomial;
    each is an exact eigenvector of the Zeeman operator with eigenvalue
    (2p + k/2) lam, p the pivot's Zeeman grade (`ZonePolynomial.zeeman_degree`).
    """
    return tuple(vec for _, vec in zone_basis_with_pivots(a, max_degree, params))


def project_to_zone(f: ZonePolynomial, a: int) -> ZonePolynomial:
    """Exact orthogonal projection of `f` onto zone `a`: expand each monomial as
    z^p zbar^v = sum_j j! C(p,j) C(v,j) lam^-j H_{p-j,v-j} (the magnitudes of H_{p,v}'s
    terms) and keep the Hermite products of zone index `a`."""
    lam = f.params.lam
    out: dict = {}
    for key, c in f.coefficients.items():
        for lower, h in _hermite_product(key, 0.0, lam).items():
            if grades(lower, f.params)[1] == a:
                for mono, g in _hermite_product(lower, 0.0, lam).items():
                    out[mono] = out.get(mono, 0.0) + c * abs(h) * g
    return ZonePolynomial(out, f.params)


def _coordinate_sum(terms: np.ndarray) -> np.ndarray:
    """np.sum(terms, axis=-1), bit for bit, added one coordinate slice at a time:
    numpy reduces a short trailing axis one outer element at a time."""
    s = terms[..., 0] + 0.0  # like np.sum, start from +0.0: -0.0 terms add up to +0.0
    for j in range(1, terms.shape[-1]):
        s += terms[..., j]
    return s


def pairing(Z: np.ndarray, W: np.ndarray, params: PhysParams) -> np.ndarray:
    """Complex pairing Z.Wbar = <Z,W> + i charge_sign <Z,J(W)> (coordinatewise sum)."""
    Z = np.asarray(Z, dtype=complex)
    W = np.asarray(W, dtype=complex)
    # not `Z * np.conj(W)`: numpy would run it as conj(W) *= Z on large equal shapes, and
    # complex products are not bitwise commutative, so the bits would depend on the batch
    s = _coordinate_sum(np.multiply(Z, np.conj(W)))
    if params.charge_sign == -1:
        s = np.conj(s)
    return s


def _laguerre_gauss(pref, a: int, q, Z: np.ndarray, W: np.ndarray,
                    params: PhysParams) -> np.ndarray:
    """pref L_a^{(k/2-1)}(lam |Z-W|^2) exp(lam (q Z.Wbar - (|Z|^2 + |W|^2)/2)), the one
    closed form of the zone and zonal kernels."""
    lam = params.lam
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    if a == 0:
        lag = 1.0  # L_0 = 1: zone 0 needs no distances
    else:
        dist2 = _coordinate_sum(np.abs(Z - W) ** 2)
        lag = laguerre(a, params.k / 2 - 1, lam * dist2)
    expo = q * pairing(Z, W, params) \
        - 0.5 * (np.sum(np.abs(Z) ** 2, axis=-1) + np.sum(np.abs(W) ** 2, axis=-1))
    return pref * lag * np.exp(lam * expo)


def zone_kernel(a: int, Z: np.ndarray, W: np.ndarray, params: PhysParams) -> np.ndarray:
    """Closed-form standard-space zone projection kernel (point-spread amplitude):

        (lam/pi)^(k/2) L_a^{(k/2-1)}(lam |Z-W|^2)
            * exp(lam (Z.Wbar - (|Z|^2 + |W|^2)/2)).

    `Z`, `W` broadcast over leading axes; the trailing axis holds the k/2
    complex coordinates.
    """
    return _laguerre_gauss((params.lam / np.pi) ** (params.k / 2), a, 1.0, Z, W, params)


def _basis_sum(terms, X: np.ndarray, Z: np.ndarray, params: PhysParams) -> np.ndarray:
    """Standard-space basis sum sum_p c_p phi_p(X) conj(phi_p(Z)) e^{-lam (|X|^2 + |Z|^2)/2}
    over the pairs (c_p, phi_p) of `terms`, for complex coordinate rows X and Z."""
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    gx = np.exp(-0.5 * params.lam * np.sum(np.abs(X) ** 2, axis=-1))
    gz = np.exp(-0.5 * params.lam * np.sum(np.abs(Z) ** 2, axis=-1))
    acc = np.zeros(np.broadcast(gx, gz).shape, dtype=complex)
    for c, vec in terms:
        acc += c * vec.eval(X) * np.conj(vec.eval(Z))
    return acc * gx * gz


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
    acc = _basis_sum([(1.0, vec) for vec in basis], Z, W, params)
    return float(np.max(np.abs(zone_kernel(a, Z, W, params) - acc)))
