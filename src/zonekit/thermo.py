"""Blackbody-radiation linkage: average energy, specific heat, tension, stable spreads.

The Wiener-Kac branch reproduces the Einstein solid (characteristic frequency
2 in the natural units set by the partition function); the Dirac-Feynman
branch is periodic in time and its density extrema select the stable charge
spreads at the quarter points of the period.
"""

from __future__ import annotations

import math

import numpy as np

from .params import PhysParams
from .propagators import (SINGULAR_TIME_TOL, SingularTimeError, _check_sigma, partition_function,
                          zonal_kernel)
from .zones import pairing, zone_kernel


def default_kappa(params: PhysParams) -> float:
    """Boltzmann-constant stand-in under the heat-flow substitution, 2 pi mu / lam at mu = 1."""
    return 2.0 * math.pi / params.lam


def _boltzmann(sigma: complex, T: float, kappa: float, h: float):
    """(sigma, x) with x = e^{-2h sigma/(kappa T)}, for a positive T off the poles x = 1."""
    sigma = _check_sigma(sigma)
    if T <= 0:
        raise ValueError(f"temperature must be positive, got {T}")
    x = np.exp(-2.0 * h * sigma / (kappa * T))
    if abs(1.0 - x) < SINGULAR_TIME_TOL:
        raise SingularTimeError(f"resonance temperature T={T} (e^(-2h sigma/kT) = 1)")
    return sigma, x


def average_energy(sigma: complex, T: float, kappa: float, h: float) -> complex:
    """Mean emitted-absorbed energy h + 2h e^{-2h sigma/(kappa T)} / (1 - e^{-2h sigma/(kappa T)})."""
    _, x = _boltzmann(sigma, T, kappa, h)
    return complex(h + 2.0 * h * x / (1.0 - x))


def specific_heat(sigma: complex, T: float, kappa: float, h: float) -> complex:
    """Temperature derivative of the average energy (Einstein form at sigma=1)."""
    sigma, x = _boltzmann(sigma, T, kappa, h)
    return complex((2.0 * h) ** 2 * sigma * x / (kappa * T * T * (1.0 - x) ** 2))


def average_energy_of_time(t: float, kappa: float, h: float) -> complex:
    """Dirac-Feynman average energy along the flow parameter, via the substitution T = 1/t."""
    if t <= 0:
        raise ValueError(f"flow time must be positive, got {t}")
    return average_energy(1j, 1.0 / t, kappa, h)


def diagonal_kernel(sigma: complex, a: int, t: float, X: np.ndarray,
                    params: PhysParams) -> complex:
    """Diagonal value d_sigma^(a)(t, X, X) of the zonal kernel."""
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    return complex(zonal_kernel(sigma, a, t, X, X, params)[0])


def tension(a: int, t: float, X: np.ndarray, params: PhysParams) -> complex:
    """Time derivative of the Dirac-Feynman diagonal (tension amplitude).

    The closed-form diagonal times its logarithmic derivative
    -i lam (k/2 + 2 lam |X|^2 q), q = e^{-2 i lam t}; |tension|^2 is the
    tension density.  At X = 0 the modulus is constant in t.
    """
    lam, k = params.lam, params.k
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    r2 = float(np.sum(np.abs(X) ** 2, axis=-1)[0])
    q = np.exp(-2j * lam * t)
    diag = diagonal_kernel(1j, a, t, X, params)
    return complex(diag * (-1j * lam) * (k / 2.0 + 2.0 * lam * r2 * q))


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

    quantity is one of "partition_density" (|Z_i|^2), "diagonal_density"
    (|d_i(t,X,X)|^2, requires X), or "energy_density" (|E_i(1/T=t)|^2).
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

    The density is chosen by `period_density`.  Returns a list of (time, kind)
    with kind in {"min", "max", "pole"}, refined by ternary search to ~1e-12
    of the period.
    """
    P, poles, fun = period_density(quantity, a, params, X, kappa, h)
    eps = P * 1e-6
    ts = np.linspace(eps, P - eps, n_samples)
    vals = np.array([fun(t) for t in ts])
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
