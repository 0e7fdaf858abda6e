"""Global and zonal Wiener-Kac / Dirac-Feynman kernels, partition functions, flow.

sigma = 1 selects the heat (Wiener-Kac) branch, sigma = i the Schrodinger
(Dirac-Feynman) branch.  All kernels act on standard-space wave functions;
points are arrays of complex coordinates with trailing axis of length k/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ZonePolynomial, inner_product, norm
from .params import PhysParams
from .special import flat_hermite_grid, laguerre, multiplicity_factor, real_to_complex
from .zones import pairing, project_to_zone, zone_basis, zone_pivot_degrees

SINGULAR_TIME_TOL = 1e-9
DEFAULT_ORDER = 64
OSCILLATORY_ORDER = 128


class SingularTimeError(ValueError):
    """The Dirac-Feynman global kernel is evaluated at a pole of 1/sin(lam t)."""


class QuadratureConvergenceError(RuntimeError):
    """Doubling the quadrature order moved the result beyond the tolerance."""


def _check_sigma(sigma: complex) -> complex:
    sigma = complex(sigma)
    if sigma not in (1 + 0j, 1j):
        raise ValueError(f"sigma must be 1 (Wiener-Kac) or 1j (Dirac-Feynman), got {sigma}")
    return sigma


def global_kernel(sigma: complex, t: float, X: np.ndarray, Y: np.ndarray,
                  params: PhysParams) -> np.ndarray:
    """Closed-form global propagator kernel of the Zeeman flow e^{-sigma t H}.

    For sigma=1 this is the magnetic Mehler heat kernel; sigma=i is its
    analytic continuation, singular at times where sin(lam t) vanishes.
    """
    sigma = _check_sigma(sigma)
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    lam, k = params.lam, params.k
    if sigma == 1j and abs(math.sin(lam * t)) < SINGULAR_TIME_TOL:
        raise SingularTimeError(f"sin(lam t) vanishes at t={t} (poles at n*pi/lam)")
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    Y = np.atleast_2d(np.asarray(Y, dtype=complex))
    u = sigma * lam * t
    pref = (lam / (2.0 * np.pi * np.sinh(u))) ** (k / 2)
    dist2 = np.sum(np.abs(X - Y) ** 2, axis=-1)
    # phase sign fixed by the spectral oracle: the long-time limit must project
    # onto the lowest-energy (antiholomorphic) modes
    phase = -1j * lam * np.imag(pairing(X, Y, params))
    return pref * np.exp(-0.5 * lam * dist2 / np.tanh(u) + phase)


def zonal_kernel(sigma: complex, a: int, t: float, X: np.ndarray, Z: np.ndarray,
                 params: PhysParams) -> np.ndarray:
    """Closed-form zonal propagator kernel.

    Reduces to the zone projection kernel at t=0 and is entire in t for both
    branches (no singular times, unlike the global Dirac-Feynman kernel).
    """
    sigma = _check_sigma(sigma)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    lam, k = params.lam, params.k
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    q = np.exp(-2.0 * sigma * lam * t)
    pref = (lam * np.exp(-sigma * lam * t) / np.pi) ** (k / 2)
    dist2 = np.sum(np.abs(X - Z) ** 2, axis=-1)
    lag = laguerre(a, k / 2 - 1, lam * dist2)
    expo = lam * (q * pairing(X, Z, params)
                  - 0.5 * (np.sum(np.abs(X) ** 2, axis=-1) + np.sum(np.abs(Z) ** 2, axis=-1)))
    return pref * lag * np.exp(expo)


def zonal_kernel_spectral(sigma: complex, a: int, t: float, X: np.ndarray, Z: np.ndarray,
                          params: PhysParams, pmax: int = 24,
                          include_field_term: bool = False) -> np.ndarray:
    """Truncated spectral sum sum_p e^{-sigma t mu_p} phi_p(X) conj(phi_p(Z)).

    Independent oracle for the closed-form kernel, built from the orthonormal
    zone basis and the explicit spectrum.
    """
    sigma = _check_sigma(sigma)
    lam = params.lam
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    basis = zone_basis(a, a + pmax, params)
    degrees = zone_pivot_degrees(a, a + pmax, params)
    gx = np.exp(-0.5 * lam * np.sum(np.abs(X) ** 2, axis=-1))
    gz = np.exp(-0.5 * lam * np.sum(np.abs(Z) ** 2, axis=-1))
    acc = np.zeros(np.broadcast(gx, gz).shape, dtype=complex)
    for vec, p in zip(basis, degrees):
        mu = params.zeeman_eigenvalue(p, include_field_term)
        acc = acc + np.exp(-sigma * t * mu) * vec.eval(X) * np.conj(vec.eval(Z))
    return acc * gx * gz


def field_term_multiplier(sigma: complex, t: float, params: PhysParams) -> complex:
    """Factor converting the bare-flow kernel into the field-augmented one.

    The field-augmented operator exceeds the bare one by the constant
    2 k lam^2, so its kernel is exp(-2 k lam^2 sigma t) times the bare kernel.
    The verification suite confirms the sign of the exponent against the
    spectral oracle.
    """
    sigma = _check_sigma(sigma)
    lam, k = params.lam, params.k
    return complex(np.exp(-2.0 * k * lam * lam * sigma * t))


def partition_function(sigma: complex, a: int, t: float, params: PhysParams) -> complex:
    """Closed-form zonal partition function (trace of the zonal kernel)."""
    sigma = _check_sigma(sigma)
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    lam, k = params.lam, params.k
    q = np.exp(-2.0 * sigma * lam * t)
    if abs(1.0 - q) < SINGULAR_TIME_TOL:
        raise SingularTimeError(f"partition function pole at t={t}")
    binom = multiplicity_factor(a, k)
    return complex(binom * np.exp(-0.5 * k * lam * t * sigma) / (1.0 - q) ** (k / 2))


def partition_function_trace(sigma: complex, a: int, t: float, params: PhysParams,
                             order: int = 40) -> complex:
    """Quadrature trace int d_sigma^(a)(t, X, X) dX, the oracle for the closed form."""
    sigma = _check_sigma(sigma)
    lam, k = params.lam, params.k
    q = complex(np.exp(-2.0 * sigma * lam * t))
    lam_eff = lam * (1.0 - q.real)
    if lam_eff <= 0:
        raise SingularTimeError(f"diagonal not integrable at t={t}")
    points, weights = flat_hermite_grid(order, lam_eff, k)
    zpts = real_to_complex(points)
    diag = zonal_kernel(sigma, a, t, zpts, zpts, params)
    return complex(np.sum(weights * diag))


# ---- zonal flow --------------------------------------------------------------


def infer_zone(f: ZonePolynomial, tol: float = 1e-9) -> int:
    """Zone index of f, or raise if f straddles several zones."""
    if f.is_zero():
        raise ValueError("cannot infer the zone of the zero state")
    nrm = norm(f)
    for a in range(f.max_degree() + 1):
        if norm(f - project_to_zone(f, a)) <= tol * nrm:
            return a
    raise ValueError("state does not lie in a single zone")


def evolve(f: ZonePolynomial, sigma: complex, t: float, params: PhysParams,
           include_field_term: bool = False) -> ZonePolynomial:
    """Propagate a single-zone state spectrally: coefficients pick up e^{-sigma t mu_p}.

    The eigenvalues are those of the bare Zeeman operator, matching the
    closed-form zonal kernels; `include_field_term` adds the constant
    2 k lam^2 (an overall phase/decay factor).
    """
    sigma = _check_sigma(sigma)
    if params != f.params:
        raise ValueError("parameter mismatch between state and request")
    a = infer_zone(f)
    deg = f.max_degree()
    out = ZonePolynomial({}, params)
    for vec, p in zip(zone_basis(a, deg, params), zone_pivot_degrees(a, deg, params)):
        c = inner_product(f, vec)
        if c == 0:
            continue
        mu = params.zeeman_eigenvalue(p, include_field_term)
        out = out + (c * np.exp(-sigma * t * mu)) * vec
    return out


def evolve_by_convolution(f: ZonePolynomial, sigma: complex, t: float,
                          params: PhysParams, X: np.ndarray,
                          order: int = DEFAULT_ORDER) -> np.ndarray:
    """Quadrature of the propagation integral int d^(a)(t,X,Z) psi(Z) dZ.

    Cross-check for `evolve`; `X` holds complex coordinate rows and the
    returned values are standard-space wave-function samples.
    """
    from .algebra import to_standard

    sigma = _check_sigma(sigma)
    a = infer_zone(f)
    lam, k = params.lam, params.k
    points, weights = flat_hermite_grid(order, lam, k)
    zpts = real_to_complex(points)
    psi = to_standard(f)(zpts)
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    out = np.empty(X.shape[0], dtype=complex)
    for i, x in enumerate(X):
        ker = zonal_kernel(sigma, a, t, x[None, :], zpts, params)
        out[i] = np.sum(weights * ker * psi)
    return out


def semigroup_residual(sigma: complex, a: int, s: float, t: float,
                       sample_pairs, params: PhysParams,
                       order: int = DEFAULT_ORDER,
                       check_convergence: bool = False,
                       tol: float = 1e-6) -> float:
    """Max Chapman-Kolmogorov defect |int d(s,X,M) d(t,M,Y) dM - d(s+t,X,Y)|."""
    sigma = _check_sigma(sigma)
    if s <= 0 or t <= 0:
        raise ValueError("both time arguments must be positive")
    lam, k = params.lam, params.k

    def run(n):
        points, weights = flat_hermite_grid(n, lam, k)
        mpts = real_to_complex(points)
        worst = 0.0
        for X, Y in sample_pairs:
            X = np.asarray(X, dtype=complex)
            Y = np.asarray(Y, dtype=complex)
            left = zonal_kernel(sigma, a, s, X[None, :], mpts, params)
            right = zonal_kernel(sigma, a, t, mpts, Y[None, :], params)
            comp = np.sum(weights * left * right)
            target = zonal_kernel(sigma, a, s + t, X[None, :], Y[None, :], params)[0]
            worst = max(worst, abs(comp - target))
        return worst

    res = run(order)
    if check_convergence:
        res2 = run(2 * order)
        if abs(res - res2) > tol:
            raise QuadratureConvergenceError(
                f"residual moved from {res:.3e} to {res2:.3e} on order doubling")
    return float(res)


# ---- sampled kernel grids -----------------------------------------------------


@dataclass
class KernelGrid:
    """Sampled complex kernel values over a rectangular X x Y grid."""

    sigma: complex
    t: float
    points_X: np.ndarray
    points_Y: np.ndarray
    values: np.ndarray
    params: PhysParams
    a: int | None = None

    def __post_init__(self) -> None:
        self.sigma = _check_sigma(self.sigma)
        nx = np.atleast_2d(self.points_X).shape[0]
        ny = np.atleast_2d(self.points_Y).shape[0]
        if self.values.size != nx * ny:
            raise ValueError("values length must equal |points_X| * |points_Y|")
        if (self.a is None and self.sigma == 1j
                and abs(math.sin(self.params.lam * self.t)) < SINGULAR_TIME_TOL):
            raise SingularTimeError(f"global grid at singular time t={self.t}")

    @classmethod
    def sample(cls, sigma: complex, t: float, points_X: np.ndarray, points_Y: np.ndarray,
               params: PhysParams, a: int | None = None) -> "KernelGrid":
        X = np.atleast_2d(np.asarray(points_X, dtype=complex))
        Y = np.atleast_2d(np.asarray(points_Y, dtype=complex))
        vals = np.empty((X.shape[0], Y.shape[0]), dtype=complex)
        for i, x in enumerate(X):
            if a is None:
                vals[i] = global_kernel(sigma, t, np.broadcast_to(x, Y.shape), Y, params)
            else:
                vals[i] = zonal_kernel(sigma, a, t, np.broadcast_to(x, Y.shape), Y, params)
        return cls(sigma, t, X, Y, vals, params, a)

    def write_csv(self, path: str) -> None:
        """One CSV row per (X, Y) pair, every number as ``repr(float)``, CRLF lines.

        Each grid point is formatted once; the file is streamed one X row at a
        time, so memory stays at one row of text whatever the grid size.
        """
        m = self.params.m
        header = [f"{p}_{z}{j+1}" for z in "zw" for j in range(m) for p in ("re", "im")]
        header += ["sigma", "t", "a", "kernel_re", "kernel_im"]
        sig = "i" if self.sigma == 1j else "1"
        a = "" if self.a is None else self.a

        def coords(points):
            return [",".join(f"{c.real!r},{c.imag!r}" for c in p)
                    for p in np.asarray(points, dtype=complex).tolist()]

        suffixes = [f"{y},{sig},{float(self.t)!r},{a}," for y in coords(self.points_Y)]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            if not suffixes:  # an empty Y grid has no rows, not one bare prefix per X
                return
            for x, row in zip(coords(self.points_X), self.values):
                x += ","
                fh.write(x + ("\r\n" + x).join(map("{}{},{}".format, suffixes,
                                                   map(repr, row.real.tolist()),
                                                   map(repr, row.imag.tolist()))) + "\r\n")
