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
        for key, c in self.coefficients.items():
            term = c
            for z, (p, v) in zip(np.moveaxis(zpts, -1, 0), key):
                if p:
                    term = term * z ** p
                if v:
                    term = term * np.conj(z) ** v
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

    @classmethod
    def from_json(cls, text: str, params: PhysParams) -> "ZonePolynomial":
        return cls.from_records(json.loads(text), params)


def grades(key: Key, params: PhysParams) -> tuple[int, int]:
    """(Zeeman grade, zone index) of the monomial z^P zbar^V with `key`: (|P|, |V|) at
    charge_sign +1 and (|V|, |P|) at -1.  The swap is its own inverse."""
    holo, anti = sum(p for p, _ in key), sum(v for _, v in key)
    return (holo, anti) if params.charge_sign == 1 else (anti, holo)


# ---- inner product ---------------------------------------------------------


def _moment(p: int, v: int, q: int, w: int, lam: float, s: float) -> float:
    # single-coordinate Gaussian moment of z^p zbar^v conj(z^q zbar^w) against r^{2s-2};
    # angular selection leaves the radial moment pi Gamma(n+s)/lam^(n+s), n = p+w
    if p - v != q - w:
        return 0.0
    n = p + w
    try:  # the gamma, the power and their quotient may each leave the float range
        moment = math.pi * math.gamma(n + s) / lam ** (n + s)
    except (OverflowError, ZeroDivisionError):
        moment = math.inf
    if not 0.0 < moment < math.inf:
        raise OverflowError(f"Gaussian moment of degree {n} leaves the float range at lam={lam}")
    return moment


def _moment_sum(f: ZonePolynomial, g: ZonePolynomial, s: float) -> complex:
    """sum over monomial pairs of c_f conj(c_g) times the product of their `_moment`s;
    s = 1 is the inner product and s = 1/2 adds a factor 1/r (k = 2)."""
    f._check_same_params(g)
    lam = f.params.lam
    total = 0.0 + 0.0j
    for kf, cf in f.coefficients.items():
        for kg, cg in g.coefficients.items():
            prod = 1.0
            for (p, v), (q, w) in zip(kf, kg):
                prod *= _moment(p, v, q, w, lam, s)
                if prod == 0.0:
                    break
            if prod:
                total += cf * np.conj(cg) * prod
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


def apply_angular_momentum(f: ZonePolynomial) -> ZonePolynomial:
    """Magnetic-moment term of the Hamiltonian; monomials are eigenvectors.

    The monomial z^P zbar^V is multiplied by the charge sign times lam (|P| - |V|),
    that is lam (grade - zone).
    """
    par = f.params
    out = {}
    for key, c in f.coefficients.items():
        grade, zone = grades(key, par)
        out[key] = par.lam * (grade - zone) * c
    return ZonePolynomial._of_valid_keys(out, par)


def apply_rep(generator: str, f: ZonePolynomial, i: int = 0) -> ZonePolynomial:
    """Heisenberg-representation generators on the weighted space.

    generator "z":    rho(z_i) f   = (-d/dzbar_i + lam z_i) f
    generator "zbar": rho(zbar_i) f = d/dz_i f

    for charge sign +1; at -1 z_i and zbar_i trade places, rho(z_i) = lam zbar_i - d/dz_i
    and rho(zbar_i) = d/dzbar_i.  The sign is read through `grades`: coordinate i's
    exponents go to (grade, zone), the +1 rule acts there, and `grades` maps the result
    back.  These satisfy [rho(zbar_i), rho(z_j)] = lam delta_ij on polynomials, and
    map each zone into itself.
    """
    par = f.params
    if not 0 <= i < par.m:
        raise IndexError(f"coordinate index {i} out of range for k={par.k}")
    if generator not in ("z", "zbar"):
        raise ValueError(f"unknown generator {generator!r}; expected 'z' or 'zbar'")
    out: dict[Key, complex] = {}
    for key, c in f.coefficients.items():
        g, a = grades(key[i:i + 1], par)
        if generator == "zbar":
            terms = [((g - 1, a), g * c)] if g else []
        else:
            terms = [((g, a - 1), -a * c)] if a else []
            terms.append(((g + 1, a), par.lam * c))
        for ga, d in terms:
            new = key[:i] + (grades((ga,), par),) + key[i + 1:]
            out[new] = out.get(new, 0.0) + d
    return ZonePolynomial._of_valid_keys(out, par)
