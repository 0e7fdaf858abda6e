"""Blackbody-radiation linkage: average energy, specific heat, tension, stable spreads.

The Wiener-Kac branch reproduces the Einstein solid (characteristic frequency
2 in the natural units set by the partition function); the Dirac-Feynman
branch is periodic in time and its density extrema select the stable charge
spreads at the quarter points of the period.  The time functions (`tension`,
`diagonal_kernel`, `average_energy`, `specific_heat`, `average_energy_of_time`)
also take a 1-D array of times or temperatures and return one value per entry.
"""

from __future__ import annotations

import math

import numpy as np

from .params import PhysParams
from .propagators import (SINGULAR_TIME_TOL, SingularTimeError, _check_sigma, _per_time, _refuse,
                          partition_function, zonal_kernel)
from .zones import pairing, zone_kernel


def default_kappa(params: PhysParams) -> float:
    """Boltzmann-constant stand-in under the heat-flow substitution, 2 pi mu / lam at mu = 1."""
    return 2.0 * math.pi / params.lam


def _boltzmann(sigma: complex, T, kappa: float, h: float):
    """(sigma, x) with x = e^{-2h sigma/(kappa T)}, for a positive T (or a 1-D array
    of them) off the poles x = 1."""
    sigma = _check_sigma(sigma)
    _refuse(T <= 0, T, ValueError, "temperature must be positive, got {}")
    x = np.exp(-2.0 * h * sigma / (kappa * T))
    _refuse(abs(1.0 - x) < SINGULAR_TIME_TOL, T, SingularTimeError,
            "resonance temperature T={} (e^(-2h sigma/kT) = 1)")
    return sigma, x


def average_energy(sigma: complex, T, kappa: float, h: float):
    """Mean emitted-absorbed energy h + 2h e^{-2h sigma/(kappa T)} / (1 - e^{-2h sigma/(kappa T)})."""
    _, x = _boltzmann(sigma, T, kappa, h)
    return _per_time(h + 2.0 * h * x / (1.0 - x), T)


def specific_heat(sigma: complex, T, kappa: float, h: float):
    """Temperature derivative of the average energy (Einstein form at sigma=1)."""
    sigma, x = _boltzmann(sigma, T, kappa, h)
    two_h = 2.0 * h  # squared as a product, which overflows to inf where ** would raise
    return _per_time(two_h * two_h * sigma * x / (kappa * T * T * (1.0 - x) ** 2), T)


def average_energy_of_time(t, kappa: float, h: float):
    """Dirac-Feynman average energy along the flow parameter, via the substitution T = 1/t."""
    _refuse(t <= 0, t, ValueError, "flow time must be positive, got {}")
    return average_energy(1j, 1.0 / t, kappa, h)


def diagonal_kernel(sigma: complex, a: int, t, X: np.ndarray, params: PhysParams):
    """Diagonal value d_sigma^(a)(t, X, X) of the zonal kernel at one point X."""
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    diag = zonal_kernel(sigma, a, t, X, X, params)
    return complex(diag[0]) if np.ndim(t) == 0 else diag


def tension(a: int, t, X: np.ndarray, params: PhysParams):
    """Time derivative of the Dirac-Feynman diagonal (tension amplitude) at one point X.

    The closed-form diagonal times its logarithmic derivative
    -i lam (k/2 + 2 lam |X|^2 q), q = e^{-2 i lam t}; |tension|^2 is the
    tension density.  At X = 0 the modulus is constant in t.
    """
    lam, k = params.lam, params.k
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    r2 = float(np.sum(np.abs(X) ** 2, axis=-1)[0])
    q = np.exp(-2j * lam * t)
    diag = diagonal_kernel(1j, a, t, X, params)
    return _per_time(diag * (-1j * lam) * (k / 2.0 + 2.0 * lam * r2 * q), t)


def period(params: PhysParams, quantity: str = "density") -> float:
    """Closed-form period in t of the Dirac-Feynman branch.

    Modulus-squared quantities inherit the pi/lam period of e^{-2 i lam t};
    the kernels themselves repeat after 4 pi / (k lam) combined with pi/lam.
    """
    if quantity == "density":
        return math.pi / params.lam
    if quantity == "kernel":
        # lcm of the prefactor period 4 pi/(k lam) and the exponent period pi/lam
        return (math.lcm(4, params.k) // params.k) * math.pi / params.lam
    raise ValueError(f"unknown quantity {quantity!r}")


def quarter_time(quarter: int, params: PhysParams, n: int = 0) -> float:
    """Time of the quarter-point state: (n + quarter/4) of the full 2 pi/lam interval."""
    if quarter not in (1, 3):
        raise ValueError(f"quarter must be 1 or 3, got {quarter}")
    L = 2.0 * math.pi / params.lam
    return (n + quarter / 4.0) * L


def stable_spread(a: int, quarter: int, X: np.ndarray, Z: np.ndarray,
                  params: PhysParams) -> np.ndarray:
    """Quarter-point Dirac-Feynman state, a phase times e^{-2 lam X.Zbar} delta^(a).

    Equals the zonal Dirac-Feynman kernel at the corresponding quarter time.
    The phase is e^{-i k quarter pi/4}; on the plane (k = 2) this is -i and
    +i for the first and third quarter, so the two spreads differ by sign.
    """
    if quarter not in (1, 3):
        raise ValueError(f"quarter must be 1 or 3, got {quarter}")
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    phase = np.exp(-0.25j * np.pi * params.k * quarter)
    return phase * np.exp(-2.0 * params.lam * pairing(X, Z, params)) \
        * zone_kernel(a, X, Z, params)


def _refine_extremum(fun, t0: float, dt: float, minimize: bool) -> float:
    lo, hi = t0 - dt, t0 + dt
    for _ in range(60):
        third = (hi - lo) / 3.0
        a_, b_ = lo + third, hi - third
        fa, fb = fun(a_), fun(b_)
        better = (fa < fb) if minimize else (fa > fb)
        if better:
            hi = b_
        else:
            lo = a_
    return 0.5 * (lo + hi)


def period_density(quantity: str, a: int, params: PhysParams, X: np.ndarray | None = None,
                   kappa: float | None = None, h: float = 1.0):
    """One period of a periodic Dirac-Feynman density: (period, poles, density of t).

    The density takes a time or a 1-D array of times.  quantity is one of
    "partition_density" (|Z_i|^2), "diagonal_density" (|d_i(t,X,X)|^2, requires
    X), or "energy_density" (|E_i(1/T=t)|^2).
    """
    if quantity == "partition_density":
        P = period(params)
        return P, [0.0, P], lambda t: abs(partition_function(1j, a, t, params)) ** 2
    if quantity == "diagonal_density":
        if X is None:
            raise ValueError("diagonal_density requires a base point X")
        return period(params), [], lambda t: abs(diagonal_kernel(1j, a, t, X, params)) ** 2
    if quantity == "energy_density":
        kap = default_kappa(params) if kappa is None else kappa
        P = math.pi * kap / h
        return P, [0.0, P], lambda t: abs(average_energy_of_time(t, kap, h)) ** 2
    raise ValueError(f"quantity {quantity!r} is not periodic in t")


def find_period_extrema(quantity: str, a: int, params: PhysParams,
                        X: np.ndarray | None = None,
                        kappa: float | None = None, h: float = 1.0,
                        n_samples: int = 4096):
    """Locate extrema of a periodic Dirac-Feynman density over one period.

    The density is chosen by `period_density`.  The period is sampled in one
    array call, and each local extremum of the samples is refined by a scalar
    ternary search to ~1e-12 of the period.  Returns a list of (time, kind)
    with kind in {"min", "max", "pole"}.
    """
    P, poles, fun = period_density(quantity, a, params, X, kappa, h)
    eps = P * 1e-6
    ts = np.linspace(eps, P - eps, n_samples)
    vals = fun(ts)
    out = [(p, "pole") for p in poles]
    dt = ts[1] - ts[0]
    for i in range(1, n_samples - 1):
        # one-sided ties keep symmetric grids from missing a midpoint extremum
        if vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]:
            out.append((_refine_extremum(fun, ts[i], dt, True), "min"))
        elif vals[i] > vals[i - 1] and vals[i] >= vals[i + 1]:
            out.append((_refine_extremum(fun, ts[i], dt, False), "max"))
    out.sort()
    return out
