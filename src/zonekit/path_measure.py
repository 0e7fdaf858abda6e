"""Time-sliced reconstruction of the zonal path measures.

Cylinder-set measures chain propagator kernels over box integrals; the
discretized Feynman-Kac evaluator chains spread-amplitude kernels against the
path action and converges to the closed-form zonal kernel on the holomorphic
zone.  Radon-Nikodym densities tie the three measures together pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import PhysParams
from .propagators import QuadratureConvergenceError, _check_sigma, global_kernel, zonal_kernel
from .special import flat_hermite_grid, gauss_legendre, real_to_complex, tensor_grid
from .zones import pairing, zone_kernel


@dataclass(frozen=True)
class PathDiscretization:
    """Time-sliced continuous path: horizon, interior times, endpoints, midpoints.

    Points are arrays of complex coordinates (length k/2); `midpoints` holds
    one point per interior time.
    """

    T: float
    times: tuple[float, ...]
    x: tuple[complex, ...]
    y: tuple[complex, ...]
    midpoints: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        if self.T <= 0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        ts = self.times
        if any(not 0.0 < t < self.T for t in ts):
            raise ValueError("interior times must lie strictly inside (0, T)")
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("interior times must be strictly increasing")
        if len(self.midpoints) != len(ts):
            raise ValueError("need exactly one midpoint per interior time")
        m = len(self.x)
        if len(self.y) != m or any(len(p) != m for p in self.midpoints):
            raise ValueError("all points must share the coordinate dimension")

    @classmethod
    def uniform(cls, x, y, T: float, midpoints) -> "PathDiscretization":
        n = len(midpoints)
        times = tuple((i + 1) * T / (n + 1) for i in range(n))
        return cls(T, times, tuple(complex(c) for c in np.atleast_1d(x)),
                   tuple(complex(c) for c in np.atleast_1d(y)),
                   tuple(tuple(complex(c) for c in np.atleast_1d(p)) for p in midpoints))

    @property
    def k(self) -> int:
        return 2 * len(self.x)


def action_functional(path: PathDiscretization) -> float:
    """Path action k T/2 + 2 int_0^T |omega|^2 dtau, trapezoid on the slice grid."""
    vals = [sum(abs(c) ** 2 for c in path.x)]
    vals += [sum(abs(c) ** 2 for c in p) for p in path.midpoints]
    vals.append(sum(abs(c) ** 2 for c in path.y))
    ts = (0.0,) + path.times + (path.T,)
    integral = sum(0.5 * (t2 - t1) * (f1 + f2)
                   for t1, t2, f1, f2 in zip(ts, ts[1:], vals, vals[1:]))
    return path.k * path.T / 2.0 + 2.0 * integral


def stopwatch_phase(path: PathDiscretization) -> complex:
    """Unit complex path weight e^{-i action}."""
    return complex(np.exp(-1j * action_functional(path)))


def radon_nikodym_density(kind: str, path: PathDiscretization) -> complex:
    """Pointwise density between the three path measures.

    kind: "nu_over_wk" -> e^{+A}, "feynman_over_wk" -> e^{(1-i) A},
    "feynman_over_nu" -> e^{-i A}, with A the path action.  The three kinds
    satisfy the multiplicative chain rule exactly.
    """
    A = action_functional(path)
    if kind == "nu_over_wk":
        return complex(np.exp(A))
    if kind == "feynman_over_wk":
        return complex(np.exp((1.0 - 1j) * A))
    if kind == "feynman_over_nu":
        return complex(np.exp(-1j * A))
    raise ValueError(f"unknown density kind {kind!r}")


# ---- cylinder measures ---------------------------------------------------------


def _chain_kernel(kind: str, a: int | None, params: PhysParams):
    if kind == "global_wk":
        return lambda dt, U, V: global_kernel(1, dt, U, V, params)
    if kind == "global_df":
        return lambda dt, U, V: global_kernel(1j, dt, U, V, params)
    if kind == "zonal_wk":
        return lambda dt, U, V: zonal_kernel(1, a, dt, U, V, params)
    if kind == "zonal_df":
        return lambda dt, U, V: zonal_kernel(1j, a, dt, U, V, params)
    if kind == "spread_amplitude":
        return lambda dt, U, V: zone_kernel(a, U, V, params)
    raise ValueError(f"unknown kernel kind {kind!r}")


def _box_grid(box, order: int):
    """Tensor Gauss-Legendre grid over a rectangular box in R^k."""
    rules = [gauss_legendre(order, lo, hi) for lo, hi in box]
    pts, w = tensor_grid([r.nodes for r in rules], [r.weights for r in rules])
    return real_to_complex(pts), w


def cylinder_measure(kernel_kind: str, times, boxes, x, y, T: float,
                     params: PhysParams, a: int | None = None,
                     order: int = 24, check_convergence: bool = False,
                     tol: float = 1e-6) -> complex:
    """Iterated kernel integral over rectangular boxes at the subdivision times.

    With every box covering the whole (numerically truncated) space this
    reproduces the closed-form kernel at horizon T; a degenerate box gives 0.
    `boxes` holds one box per interior time, each a sequence of k (lo, hi)
    pairs of real coordinates.
    """
    times = tuple(times)
    if len(boxes) != len(times):
        raise ValueError("need exactly one box per interior time")
    if any(not 0.0 < t < T for t in times) or any(
            t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("subdivision times must be strictly increasing inside (0, T)")
    if any(hi <= lo for box in boxes for lo, hi in box):
        return 0j
    ker = _chain_kernel(kernel_kind, a, params)
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    y = np.atleast_1d(np.asarray(y, dtype=complex))

    def run(n):
        ts = (0.0,) + times + (T,)
        f = None
        pts_prev = None
        for j, box in enumerate(boxes):
            pts, w = _box_grid(box, n)
            dt = ts[j + 1] - ts[j]
            if f is None:
                f = ker(dt, np.broadcast_to(x, pts.shape), pts) * w
            else:
                # chunk the transfer step so the kernel block never exceeds ~32 MB
                chunk = max(1, (1 << 21) // max(len(pts_prev), 1))
                out = np.empty(len(pts), dtype=complex)
                for lo in range(0, len(pts), chunk):
                    blk = ker(dt, pts_prev[:, None, :], pts[None, lo:lo + chunk, :])
                    out[lo:lo + chunk] = f @ blk
                f = out * w
            pts_prev = pts
        if f is None:
            return complex(ker(T, x[None, :], y[None, :])[0])
        dt = T - times[-1]
        return complex(np.sum(f * ker(dt, pts_prev, np.broadcast_to(y, pts_prev.shape))))

    val = run(order)
    if check_convergence:
        val2 = run(2 * order)
        if abs(val - val2) > tol * max(1.0, abs(val)):
            raise QuadratureConvergenceError(
                f"cylinder measure moved from {val:.6e} to {val2:.6e} on order doubling")
    return val


def whole_space_box(params: PhysParams, radius: float | None = None):
    """Box truncating R^k where Gaussian tails (with moderate polynomial
    factors from the Laguerre kernels) drop below ~1e-12."""
    if radius is None:
        radius = math.sqrt(40.0 / params.lam)
    return [(-radius, radius)] * params.k


# ---- discretized Feynman-Kac ----------------------------------------------------


def discretized_feynman_kac(sigma: complex, a: int, x, y, T: float, n_slices: int,
                            params: PhysParams, order: int = 48,
                            action_mode: str = "split",
                            check_convergence: bool = False, tol: float = 1e-6) -> complex:
    """Time-sliced spread-amplitude reconstruction of the zonal kernel.

    Chains n_slices + 1 zone kernels through n_slices interior points at
    uniform times and weights by e^{-sigma (kT/2 + 2 lam^2 S)} with S the
    Riemann sum of |omega|^2 along the sliced path.  Two readings of S:

    * "split" (default): one term per interval, with the two path factors
      taken at consecutive slice times, dt * omega(t_i).conj(omega(t_{i+1})).
      The chain's Gaussian prefactor is then exact and the value converges
      rapidly to the closed-form zonal kernel on the holomorphic zone.
    * "vertex": trapezoid on the vertex values |omega(t_i)|^2 (matching
      `action_functional`).  Converges to the same limit only after flipping
      the constant to e^{+sigma k lam T/2}, and only first order in
      1/n_slices; kept for comparison runs.

    Evaluated by sequential Gauss-Hermite sweeps (never a full 2n-dim
    tensor product).
    """
    sigma = _check_sigma(sigma)
    if n_slices < 1:
        raise ValueError(f"need at least one slice, got {n_slices}")
    if action_mode not in ("split", "vertex"):
        raise ValueError(f"action_mode must be 'split' or 'vertex', got {action_mode!r}")
    lam, k = params.lam, params.k
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    dt = T / (n_slices + 1)
    c = 2.0 * sigma * lam**2 * dt

    def run(nq):
        pts, w = flat_hermite_grid(nq, lam, k)
        m = real_to_complex(pts)
        if action_mode == "split":
            f = zone_kernel(a, np.broadcast_to(x, m.shape), m, params) \
                * np.exp(-c * pairing(np.broadcast_to(x, m.shape), m, params))
            if n_slices > 1:
                step = zone_kernel(a, m[:, None, :], m[None, :, :], params) \
                    * np.exp(-c * pairing(m[:, None, :], m[None, :, :], params))
                for _ in range(n_slices - 1):
                    f = (w * f) @ step
            val = np.sum(w * f * zone_kernel(a, m, np.broadcast_to(y, m.shape), params)
                         * np.exp(-c * pairing(m, np.broadcast_to(y, m.shape), params)))
            val *= np.exp(-sigma * k * lam * T / 2.0)
        else:
            r2 = np.sum(np.abs(m) ** 2, axis=-1)
            damp = np.exp(-c * r2)
            f = zone_kernel(a, np.broadcast_to(x, m.shape), m, params) * damp
            if n_slices > 1:
                step = zone_kernel(a, m[:, None, :], m[None, :, :], params) * damp[None, :]
                for _ in range(n_slices - 1):
                    f = (w * f) @ step
            val = np.sum(w * f * zone_kernel(a, m, np.broadcast_to(y, m.shape), params))
            val *= np.exp(-0.5 * c * (float(np.sum(np.abs(x) ** 2))
                                      + float(np.sum(np.abs(y) ** 2))))
            val *= np.exp(sigma * k * lam * T / 2.0)
        return complex(val)

    val = run(order)
    if check_convergence:
        val2 = run(order + order // 2)
        if abs(val - val2) > tol * max(1.0, abs(val)):
            raise QuadratureConvergenceError(
                f"sliced integral moved from {val:.6e} to {val2:.6e} on order increase")
    return val


def monte_carlo_feynman_kac(sigma: complex, a: int, x, y, T: float, n_slices: int,
                            params: PhysParams, n_samples: int = 200_000,
                            seed: int = 0) -> tuple[complex, float]:
    """Importance-sampled evaluator for slice counts where sweeps get expensive.

    Samples interior points from the Gaussian bridge matching the modulus of
    the spread-amplitude chain and reweights by the remaining phase and action
    factors.  Returns (estimate, standard error).  Reproducible given `seed`.
    """
    sigma = _check_sigma(sigma)
    if n_slices < 1:
        raise ValueError(f"need at least one slice, got {n_slices}")
    lam, k = params.lam, params.k
    m = params.m
    rng = np.random.default_rng(seed)
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    dt = T / (n_slices + 1)
    # bridge sampling: the modulus of the spread-amplitude chain is a product
    # of n_slices+1 Gaussian steps with per-real-coordinate variance 1/lam;
    # sample the matching bridge and reweight by the leftover factors
    prev = np.broadcast_to(x, (n_samples, m)).copy()
    log_density = np.zeros(n_samples)
    points = []
    for i in range(n_slices):
        remaining = n_slices + 1 - i
        mean = prev + (y[None, :] - prev) / remaining
        var = (1.0 / lam) * (remaining - 1) / remaining
        g = rng.standard_normal((n_samples, m)) + 1j * rng.standard_normal((n_samples, m))
        cur = mean + math.sqrt(var) * g
        dev2 = np.sum((cur.real - mean.real) ** 2 + (cur.imag - mean.imag) ** 2, axis=-1)
        log_density += -dev2 / (2.0 * var) - k * 0.5 * math.log(2.0 * math.pi * var)
        points.append(cur)
        prev = cur

    xs = np.broadcast_to(x, points[0].shape)
    ys = np.broadcast_to(y, points[-1].shape)
    chain = zone_kernel(a, xs, points[0], params)
    action_sum = pairing(xs, points[0], params)
    for u, v in zip(points, points[1:]):
        chain = chain * zone_kernel(a, u, v, params)
        action_sum = action_sum + pairing(u, v, params)
    chain = chain * zone_kernel(a, points[-1], ys, params)
    action_sum = action_sum + pairing(points[-1], ys, params)

    weights = chain * np.exp(-sigma * (2.0 * lam**2 * dt * action_sum + k * lam * T / 2.0)
                             - log_density)
    est = complex(np.mean(weights))
    # standard error of the sample mean of complex weights: the spread is the
    # root-mean-square deviation |w - est|, not the std of its modulus
    stderr = math.sqrt(float(np.mean(np.abs(weights - est) ** 2)) / (n_samples - 1))
    return est, stderr


# ---- probability density ---------------------------------------------------------


def probability_density(a: int, x, y, T: float, params: PhysParams) -> float:
    """Zonal arrival density pi^{k/2} |d_i^(a)(T, x, y)|^2; nonnegative."""
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    val = zonal_kernel(1j, a, T, x[None, :], y[None, :], params)[0]
    return float(np.pi ** (params.k / 2) * abs(val) ** 2)


def probability_total_mass(a: int, x, T: float, params: PhysParams,
                           order: int = 64) -> float:
    """Quadrature of the arrival density over all of R^k.

    Independent of the horizon T on the holomorphic zone (conservation); the
    constant equals lam^{k/2} rather than 1, which the verification suite
    reports alongside the conservation check.
    """
    lam, k = params.lam, params.k
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    pts, w = flat_hermite_grid(order, lam, k)
    ypts = real_to_complex(pts)
    vals = zonal_kernel(1j, a, T, np.broadcast_to(x, ypts.shape), ypts, params)
    dens = np.pi ** (k / 2) * np.abs(vals) ** 2
    return float(np.sum(w * dens))
