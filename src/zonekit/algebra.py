"""Exact polynomial algebra on the Gaussian-weighted Hilbert space.

States are finite complex-coefficient expansions over monomials
z_1^p1 zbar_1^v1 ... z_m^pm zbar_m^vm (m = k/2 complex coordinates).  The
Gaussian density e^{-lam |X|^2} lives in the inner product, so operators act
by exact coefficient rewrites and this module serves as the ground-truth
oracle for every closed-form kernel.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Callable, Iterable, Mapping

import numpy as np

from .params import PhysParams

# a monomial key is ((p1, v1), ..., (pm, vm))
Key = tuple[tuple[int, int], ...]

class ZonePolynomial:
    """Sparse polynomial in the weighted Hilbert space."""

    __slots__ = ("coefficients", "params")

    def __init__(self, coefficients: Mapping[Key, complex], params: PhysParams):
        params.require_algebra_dim()
        coefficients = {tuple(tuple(e) for e in key): c for key, c in coefficients.items()}
        for key in coefficients:
            if len(key) != params.m:
                raise ValueError(f"monomial key {key} does not match k={params.k}")
            for p, v in key:
                if p < 0 or v < 0:
                    raise ValueError(f"negative exponent in key {key}")
        self.coefficients = self._of_valid_keys(coefficients, params).coefficients
        self.params = params

    @classmethod
    def _of_valid_keys(cls, coefficients: Mapping[Key, complex],
                       params: PhysParams) -> "ZonePolynomial":
        """The polynomial on keys already valid for `params`, such as the keys of an
        arithmetic result: zero coefficients are dropped, the rest made complex."""
        poly = cls.__new__(cls)
        poly.coefficients = {key: c for key, v in coefficients.items() if (c := complex(v)) != 0}
        poly.params = params
        return poly

    # ---- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, degrees: Iterable[tuple[int, int]], params: PhysParams) -> "ZonePolynomial":
        return cls({tuple(tuple(d) for d in degrees): 1.0}, params)

    @classmethod
    def one(cls, params: PhysParams) -> "ZonePolynomial":
        return cls.monomial([(0, 0)] * params.m, params)

    @classmethod
    def z(cls, params: PhysParams, i: int = 0) -> "ZonePolynomial":
        degs = [(0, 0)] * params.m
        degs[i] = (1, 0)
        return cls.monomial(degs, params)

    @classmethod
    def zbar(cls, params: PhysParams, i: int = 0) -> "ZonePolynomial":
        degs = [(0, 0)] * params.m
        degs[i] = (0, 1)
        return cls.monomial(degs, params)

    # ---- ring structure ------------------------------------------------

    def _check_same_params(self, other: "ZonePolynomial") -> None:
        if self.params != other.params:
            raise ValueError("operands carry different physical parameters")

    def __add__(self, other: "ZonePolynomial") -> "ZonePolynomial":
        self._check_same_params(other)
        out = dict(self.coefficients)
        for key, c in other.coefficients.items():
            out[key] = out.get(key, 0.0) + c
        return ZonePolynomial._of_valid_keys(out, self.params)

    def __sub__(self, other: "ZonePolynomial") -> "ZonePolynomial":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "ZonePolynomial":
        return ZonePolynomial._of_valid_keys({k: scalar * c for k, c in self.coefficients.items()},
                                             self.params)

    def __mul__(self, other):
        if isinstance(other, ZonePolynomial):
            self._check_same_params(other)
            out: dict[Key, complex] = {}
            for k1, c1 in self.coefficients.items():
                for k2, c2 in other.coefficients.items():
                    key = tuple((p1 + p2, v1 + v2) for (p1, v1), (p2, v2) in zip(k1, k2))
                    out[key] = out.get(key, 0.0) + c1 * c2
            return ZonePolynomial._of_valid_keys(out, self.params)
        return other * self

    def __neg__(self) -> "ZonePolynomial":
        return (-1.0) * self

    def is_zero(self) -> bool:
        return not self.coefficients

    # ---- gradings -------------------------------------------------------

    def max_degree(self) -> int:
        if not self.coefficients:
            return 0
        return max(sum(p + v for p, v in key) for key in self.coefficients)

    def zeeman_degree(self) -> int:
        """The largest Zeeman grade (`grades`) of a monomial of the polynomial."""
        if not self.coefficients:
            return 0
        return max(grades(key, self.params)[0] for key in self.coefficients)

    # ---- evaluation ------------------------------------------------------

    def eval(self, zpts: np.ndarray) -> np.ndarray:
        """Evaluate the weighted-space polynomial at complex points.

        `zpts` has shape (..., m); the trailing axis holds the complex
        coordinates.  Returns an array of shape (...).
        """
        zpts = np.atleast_2d(np.asarray(zpts, dtype=complex))
        out = np.zeros(zpts.shape[:-1], dtype=complex)
        coords = np.moveaxis(zpts, -1, 0)
        powers: dict[tuple[int, int, int], np.ndarray] = {}  # (coordinate, conj, exponent)

        def power(r: int, conj: int, n: int) -> np.ndarray:
            if (r, conj, n) not in powers:
                powers[r, conj, n] = (np.conj(coords[r]) if conj else coords[r]) ** n
            return powers[r, conj, n]

        for key, c in self.coefficients.items():
            term = c
            for r, (p, v) in enumerate(key):
                if p:
                    term = term * power(r, 0, p)
                if v:
                    term = term * power(r, 1, v)
            out += term
        return out

    def __repr__(self) -> str:
        parts = []
        for key, c in sorted(self.coefficients.items()):
            mono = "".join(
                f"z{j+1}^{p}" * (p > 0) + f"zb{j+1}^{v}" * (v > 0)
                for j, (p, v) in enumerate(key)) or "1"
            parts.append(f"({c:.6g})*{mono}")
        return "ZonePolynomial[" + " + ".join(parts or ["0"]) + "]"

    # ---- serialization ----------------------------------------------------

    def to_records(self) -> list[dict]:
        return [
            {"degrees": [list(d) for d in key], "re": c.real, "im": c.imag}
            for key, c in sorted(self.coefficients.items())
        ]

    @classmethod
    def from_records(cls, records, params: PhysParams) -> "ZonePolynomial":
        """Inverse of `to_records`; any other shape, or a nan or inf part, is a ValueError."""
        if not isinstance(records, list):
            raise ValueError(f"state must be a list of records, got {records!r}")
        coeffs: dict[Key, complex] = {}
        for rec in records:
            try:
                key = tuple(tuple(int(x) for x in d) for d in rec["degrees"])
                c = complex(rec["re"], rec["im"])
                if not cmath.isfinite(c):
                    raise ValueError
            except (TypeError, KeyError, ValueError):
                raise ValueError("state record is not {'degrees': [[p, v], ...], 're': x, "
                                 f"'im': y}}: {rec!r}") from None
            coeffs[key] = coeffs.get(key, 0.0) + c
        return cls(coeffs, params)

    def to_json(self) -> str:
        return json.dumps(self.to_records())


def _linear_combination(terms: Iterable[tuple[complex, ZonePolynomial]],
                        params: PhysParams) -> ZonePolynomial:
    """sum of c * vec over the pairs (c, vec) of `terms`, all on `params`, with the bits
    and the key order of the repeated sum `out = out + c * vec` from the zero polynomial:
    a product that is 0 is skipped, and a key whose running sum reaches 0 is dropped."""
    out: dict[Key, complex] = {}
    for scalar, vec in terms:
        for key, c in vec.coefficients.items():
            if (prod := complex(scalar * c)) != 0:
                if (total := complex(out.get(key, 0.0) + prod)) != 0:
                    out[key] = total
                else:
                    del out[key]
    return ZonePolynomial._of_valid_keys(out, params)


def grades(key: Key, params: PhysParams) -> tuple[int, int]:
    """(Zeeman grade, zone index) of the monomial z^P zbar^V with `key`: (|P|, |V|) at
    charge_sign +1 and (|V|, |P|) at -1.  The swap is its own inverse."""
    holo, anti = sum(p for p, _ in key), sum(v for _, v in key)
    return (holo, anti) if params.charge_sign == 1 else (anti, holo)


# ---- inner product ---------------------------------------------------------


def _moment(n: int, lam: float, s: float) -> float:
    # pi Gamma(n+s)/lam^(n+s): the single-coordinate Gaussian moment of z^p zbar^v
    # conj(z^q zbar^w) against r^{2s-2} when p - v = q - w, n = p + w; it is 0 otherwise
    try:  # the gamma, the power and their quotient may each leave the float range
        moment = math.pi * math.gamma(n + s) / lam ** (n + s)
    except (OverflowError, ZeroDivisionError):
        moment = math.inf
    if not 0.0 < moment < math.inf:
        raise OverflowError(f"Gaussian moment of degree {n} leaves the float range at lam={lam}")
    return moment


def _angular_class(key: Key):
    """The angular class (p_r - v_r)_r of a monomial key, by unpacking the algebra's one
    or two coordinates (several times faster than a generator over them)."""
    if len(key) == 1:
        (p, v), = key
        return p - v
    (p1, v1), (p2, v2) = key
    return p1 - v1, p2 - v2


def _moment_sum(f: ZonePolynomial, g: ZonePolynomial, s: float) -> complex:
    """sum over monomial pairs of c_f conj(c_g) times the product of their coordinates'
    `_moment`s; s = 1 is the inner product and s = 1/2 adds a factor 1/r (k = 2).

    Angular selection zeroes every pair whose `_angular_class`es differ, so each
    monomial of f meets only g's monomials of its own class, in g's order: the terms
    that remain are added in the all-pairs order, and no moment of a pair that
    contributes 0 is taken.
    """
    f._check_same_params(g)
    lam = f.params.lam
    by_class: dict = {}
    for kg, cg in g.coefficients.items():
        by_class.setdefault(_angular_class(kg), []).append((kg, np.conj(cg)))
    moments: dict[int, float] = {}  # by n = p + w: s and lam are fixed here
    total = 0.0 + 0.0j
    for kf, cf in f.coefficients.items():
        for kg, conj_cg in by_class.get(_angular_class(kf), ()):
            prod = 1.0
            for (p, _), (_, w) in zip(kf, kg):
                moment = moments.get(p + w)
                if moment is None:
                    moment = moments[p + w] = _moment(p + w, lam, s)
                prod *= moment
                if prod == 0.0:
                    break
            if prod:
                total += cf * conj_cg * prod
    return complex(total)


def inner_product(f: ZonePolynomial, g: ZonePolynomial) -> complex:
    """Exact Gaussian-weighted inner product <f, g> = int f conj(g) e^{-lam|X|^2} dX."""
    return _moment_sum(f, g, 1)


def norm(f: ZonePolynomial) -> float:
    return math.sqrt(max(inner_product(f, f).real, 0.0))


# ---- operators --------------------------------------------------------------


def to_standard(f: ZonePolynomial) -> Callable[[np.ndarray], np.ndarray]:
    """Map the weighted-space state to its standard-space wave function.

    Returns psi(X) = f(X) e^{-(lam/2)|X|^2}, evaluable on arrays of complex
    coordinates with shape (..., m).  Norms agree with the weighted norm.
    """
    lam = f.params.lam

    def wave(zpts: np.ndarray) -> np.ndarray:
        zpts = np.asarray(zpts, dtype=complex)
        r2 = np.sum(np.abs(np.atleast_2d(zpts)) ** 2, axis=-1)
        return f.eval(zpts) * np.exp(-0.5 * lam * r2)

    return wave


def apply_zeeman(f: ZonePolynomial, include_field_term: bool = False) -> ZonePolynomial:
    """Apply the Zeeman operator (optionally with the field-energy constant).

    In the weighted picture the operator is

        H = -2 sum_j d/dz_j d/dzbar_j + 2 lam sum_j z_j d/dz_j + (k/2) lam
            [+ 2 k lam^2 when the field term is included],

    obtained by conjugating the standard-space operator with the half-Gaussian, for
    charge sign +1 (z <-> zbar at -1).  It is built from the Heisenberg generators as
    H = 2 sum_j rho(z_j) rho(zbar_j) + (k/2) lam [+ 2 k lam^2] (`apply_rep`).  Monomials
    z^P zbar^V with min(p_j, v_j) = 0 in every coordinate are exact eigenvectors with
    eigenvalue (2g + k/2) lam (+ 2 k lam^2), g their Zeeman grade (`grades`); mixed
    monomials additionally shed the -2 p_j v_j cross terms, and the orthogonal zone
    basis diagonalizes it exactly.
    """
    out = f.params.zeeman_eigenvalue(0, include_field_term) * f
    for i in range(f.params.m):
        out = out + 2.0 * apply_rep("z", apply_rep("zbar", f, i), i)
    return out


def apply_rep(generator: str, f: ZonePolynomial, i: int = 0) -> ZonePolynomial:
    """Heisenberg-representation generators on the weighted space.

    generator "z":    rho(z_i) f   = (-d/dzbar_i + lam z_i) f
    generator "zbar": rho(zbar_i) f = d/dz_i f

    for charge sign +1; at -1 z_i and zbar_i trade places, rho(z_i) = lam zbar_i - d/dz_i
    and rho(zbar_i) = d/dzbar_i.  So coordinate i's exponents are read as (grade, zone),
    (p, v) at +1 and (v, p) at -1 as in `grades`, the +1 rule acts there, and the result
    is written back the same way.  These satisfy [rho(zbar_i), rho(z_j)] = lam delta_ij
    on polynomials, and map each zone into itself.
    """
    par = f.params
    if not 0 <= i < par.m:
        raise IndexError(f"coordinate index {i} out of range for k={par.k}")
    if generator not in ("z", "zbar"):
        raise ValueError(f"unknown generator {generator!r}; expected 'z' or 'zbar'")
    swap = par.charge_sign != 1
    out: dict[Key, complex] = {}
    for key, c in f.coefficients.items():
        g, a = key[i][::-1] if swap else key[i]
        if generator == "zbar":
            terms = [((g - 1, a), g * c)] if g else []
        else:
            terms = [((g, a - 1), -a * c)] if a else []
            terms.append(((g + 1, a), par.lam * c))
        for ga, d in terms:
            new = key[:i] + (ga[::-1] if swap else ga,) + key[i + 1:]
            out[new] = out.get(new, 0.0) + d
    return ZonePolynomial._of_valid_keys(out, par)
