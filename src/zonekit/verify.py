"""Named verification checks, one per module invariant, with a JSON report.

Each check measures one case, a `(PhysParams, kwargs)` record, as a scalar and its
tolerance; it runs on every record of its own table (`_table`, the product of its
parameter and keyword axes), and its report row is the worst case under `_worst`.
Two checks document known discrepancies between closed-form claims and the
actual analysis (the low-temperature rate limit and the a >= 1 spectral
comparison); they are reported honestly rather than loosened.  See the README.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np

from . import extensions, padi, path_measure, thermo
from .algebra import (ZonePolynomial, _linear_combination, apply_rep, apply_zeeman,
                      inner_product, norm, to_standard)
from .params import PhysParams
from .propagators import (_convolve, _global_form, _zonal_form, evolve, field_term_multiplier,
                          global_kernel, partition_function, partition_function_trace,
                          semigroup_residual, zonal_kernel, zonal_kernel_spectral)
from .special import flat_hermite_grid, hermite_axis, laguerre, tensor_points
from .zones import kernel_basis_residual, project_to_zone, zone_basis, zone_kernel

CHECKS = []


def _table(params: tuple = (PhysParams(),), **axes) -> tuple:
    """The `(PhysParams, kwargs)` records of the product of `params` and the keyword
    axes: params is the outer loop, then each axis in the order given."""
    return tuple((p, dict(zip(axes, values)))
                 for p in params for values in itertools.product(*axes.values()))


def _worst(results):
    """The worst of `(measured, tol)` results: the first whose measured is not finite,
    else the largest.  max() alone would drop a nan that follows a number."""
    results = list(results)
    lost = [r for r in results if not math.isfinite(r[0])]
    return lost[0] if lost else max(results)


def check(name: str, suite: str, invariant: str, expected: str = "pass",
          cases: tuple = _table()):
    """Register `fn(params, **kw) -> (measured, tol)`, run once per record of `cases`."""
    def wrap(fn):
        CHECKS.append({"name": name, "suite": suite, "invariant": invariant,
                       "expected": expected, "cases": cases, "fn": fn})
        return fn
    return wrap


# the two dimensions of the exact algebra engine, at the default coupling
_K2_K4 = (PhysParams(k=2), PhysParams(k=4))


def _points(rng, size, radius):
    """Complex coordinates with real and imaginary parts uniform on [-radius, radius]."""
    return rng.uniform(-radius, radius, size) + 1j * rng.uniform(-radius, radius, size)


def _random_poly(rng, params, max_degree):
    """Up to four random monomials of total degree <= max_degree, Gaussian coefficients."""
    coeffs = {}
    for _ in range(4):
        key = []
        budget = max_degree
        for _ in range(params.m):
            p = int(rng.integers(0, budget + 1))
            v = int(rng.integers(0, budget - p + 1))
            budget -= p + v
            key.append((p, v))
        coeffs[tuple(key)] = complex(rng.normal(), rng.normal())
    return ZonePolynomial(coeffs, params)


# ---- special functions --------------------------------------------------------


def _laguerre_exact(a, alpha, t):
    """L_a^(alpha)(t) exactly, for `Fraction` alpha and t, by the power series
    sum_j C(a+alpha, a-j) (-t)^j / j!.  The sum runs from j = a down, where the
    binomial is 1, and each step takes C(a+alpha, a-j+1) = C(a+alpha, a-j) (alpha+j) / (a-j+1)."""
    binom, ref = 1, 0
    for j in range(a, -1, -1):
        ref += binom * (-t) ** j / math.factorial(j)
        binom *= (alpha + j) / (a - j + 1)
    return ref


@check("laguerre_recurrence_vs_series", "special",
       "special_functions: recurrence agrees with the power-series oracle to 1e-10",
       cases=_table(a=(0, 1, 2, 5, 12, 30), alpha=(0.0, 1.0, 0.5),
                    t=(-50.0, -3.2, 0.0, 0.7, 14.0, 50.0)))
def _laguerre_series(params, a, alpha, t):
    # the raw float series cancels catastrophically near |t| = 50, a = 30, so the
    # oracle is evaluated in exact rational arithmetic
    from fractions import Fraction
    tf = Fraction(t).limit_denominator(10**9)
    ref = _laguerre_exact(a, Fraction(alpha), tf)
    scale = max(1.0, abs(float(ref)))
    return abs(laguerre(a, alpha, float(tf)) - float(ref)) / scale, 1e-10


@check("laguerre_value_at_zero", "special",
       "special_functions: L_a^(alpha)(0) equals binomial(a+alpha, a)")
def _laguerre_zero(params):
    def error(a, alpha):
        ref = math.comb(a + alpha, a)
        return abs(laguerre(a, float(alpha), 0.0) - ref) / ref, 1e-12
    return _worst(error(a, alpha) for a in range(12) for alpha in (0, 1, 2, 5))


@check("hermite_rule_moments", "special",
       "special_functions: Gauss-Hermite integrates e^{-x^2} x^{2m} exactly below its degree",
       cases=_table(m=range(20)))
def _hermite_moments(params, m):
    nodes, weights = hermite_axis(24, 1.0)
    ref = math.gamma(m + 0.5)
    return abs(float(np.sum(weights * nodes ** (2 * m))) - ref) / ref, 1e-12


# ---- gaussian algebra -----------------------------------------------------------


@check("zeeman_zone_invariance", "algebra",
       "gaussian_algebra: the Zeeman operator maps every truncated zone into itself",
       cases=_table(_K2_K4, a=range(3)))
def _zone_invariance(params, a):
    hs = [apply_zeeman(vec) for vec in zone_basis(a, a + 3, params)]
    return _worst((norm(h - project_to_zone(h, a)) / max(norm(h), 1e-300), 1e-12) for h in hs)


@check("zeeman_eigenvalue_law", "algebra",
       "gaussian_algebra: zone eigenfunctions carry eigenvalue (2p + k/2) lam + 2 k lam^2",
       cases=_table(tuple(PhysParams(lam=lam, k=k) for k in (2, 4) for lam in (0.5, 1.0, 2.0)),
                    a=range(3)))
def _eigenvalue_law(params, a):
    mu = params.zeeman_eigenvalue
    return _worst((norm(apply_zeeman(vec, True) - mu(vec.zeeman_degree(), True) * vec), 1e-11)
                  for vec in zone_basis(a, a + 3, params))


@check("zeeman_finite_difference", "algebra",
       "gaussian_algebra: coefficient rewrite matches finite differences of the standard operator")
def _zeeman_fd(params):
    rng = np.random.default_rng(11)
    pts = _points(rng, (6, 1), 1)
    h = 1e-3
    lam, s = params.lam, params.charge_sign
    errs = []
    for _ in range(4):
        f = _random_poly(rng, params, 3)
        psi = to_standard(f)

        def ev(dx, dy):
            return psi(pts + (dx + 1j * dy))

        lap = (ev(h, 0) + ev(-h, 0) + ev(0, h) + ev(0, -h) - 4 * ev(0, 0)) / h**2
        fx = (ev(h, 0) - ev(-h, 0)) / (2 * h)
        fy = (ev(0, h) - ev(0, -h)) / (2 * h)
        x, y = pts[..., 0].real, pts[..., 0].imag
        ddot = -y * fx + x * fy
        r2 = np.abs(pts[..., 0]) ** 2
        fd = -0.5 * lap - 1j * lam * s * ddot + 0.5 * lam**2 * r2 * ev(0, 0)
        alg = to_standard(apply_zeeman(f))(pts)
        errs.append(float(np.max(np.abs(alg - fd)) / np.max(np.abs(alg))))
    return _worst((e, 1e-6) for e in errs)


@check("zeeman_hermiticity", "algebra",
       "gaussian_algebra: <H f, g> = <f, H g> for random low-degree states",
       cases=_table((PhysParams(lam=1.3, k=2), PhysParams(lam=1.3, k=4))))
def _hermiticity(params):
    rng = np.random.default_rng(5)
    errs = []
    for _ in range(6):
        f = _random_poly(rng, params, 4)
        g = _random_poly(rng, params, 4)
        lhs = inner_product(apply_zeeman(f), g)
        rhs = inner_product(f, apply_zeeman(g))
        errs.append(abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return _worst((e, 1e-12) for e in errs)


@check("heisenberg_commutator", "algebra",
       "gaussian_algebra: [rho(zbar), rho(z)] = lam * identity on monomials of degree <= 10",
       cases=_table((PhysParams(lam=0.7, k=2), PhysParams(lam=0.7, k=4))))
def _heisenberg(params):
    def defect(p, v):
        f = ZonePolynomial.monomial([(p, v)] + [(0, 0)] * (params.m - 1), params)
        comm = apply_rep("zbar", apply_rep("z", f)) - apply_rep("z", apply_rep("zbar", f))
        return norm(comm - params.lam * f) / (params.lam * norm(f))
    return _worst((defect(p, v), 1e-12) for p in range(0, 6) for v in range(0, 11 - p))


# ---- zones ----------------------------------------------------------------------


@check("reproducing_property", "zones",
       "zones: quadrature of the kernel against zone functions reproduces them to 1e-6",
       cases=_table(a=(0, 1, 2)))
def _reproducing(params, a):
    samples = _points(np.random.default_rng(2), (5, 1), 0.9)
    form = _zonal_form(1, a, 0.0, params)  # the zone kernel is the t = 0 zonal kernel

    def error(vec):
        got = _convolve(form, vec, params, params.lam, 64, samples)
        ref = to_standard(vec)(samples)
        return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)))
    return _worst((error(vec), 1e-6) for vec in zone_basis(a, a + 2, params))


@check("projection_algebra", "zones",
       "zones: projections are idempotent and mutually annihilating (exact)",
       cases=_table(_K2_K4, a=(0, 1, 2)))
def _projection_algebra(params, a):
    rng = np.random.default_rng(7)
    errs = []
    for _ in range(4):
        f = _random_poly(rng, params, 5)
        pa = project_to_zone(f, a)
        errs.append(norm(project_to_zone(pa, a) - pa) / max(norm(f), 1e-300))
        errs += [norm(project_to_zone(pa, b)) / max(norm(f), 1e-300) for b in (0, 1, 2) if b != a]
    return _worst((e, 1e-10) for e in errs)


@check("kernel_concentration", "zones",
       "zones: partial kernel sums concentrate on the diagonal as zones accumulate")
def _concentration(params):
    Z = np.array([[0.4 + 0.1j]])
    W = np.array([[-0.3 + 0.5j]])
    ratios = []
    for A in (2, 8, 24, 48):
        off = sum(zone_kernel(a, Z, W, params)[0] for a in range(A + 1))
        diag = sum(zone_kernel(a, Z, Z, params)[0] for a in range(A + 1))
        ratios.append(abs(off) / abs(diag))
    decreasing = all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    return (0.0 if decreasing else 1.0), 0.5


@check("kernel_vs_basis_sum", "zones",
       "zones: closed-form kernel equals the Gram-Schmidt basis sum, residual < 1e-8 at N=25",
       cases=_table(a=(0, 1, 2)))
def _kernel_basis(params, a):
    rng = np.random.default_rng(3)
    Z, W = (_points(rng, (8, 1), 0.7) for _ in range(2))
    return kernel_basis_residual(a, 25, Z, W, params), 1e-8


# ---- propagators ----------------------------------------------------------------


def _decomposition_residual(params: PhysParams, sigma: complex, lam_eff: float,
                            order: int) -> float:
    rng = np.random.default_rng(13)
    comps = [zone_basis(a, a + 1, params)[0] for a in (0, 1)]
    f = comps[0] + 0.7 * comps[1]
    X = _points(rng, (3, params.m), 0.5)
    got = _convolve(_global_form(sigma, 0.4, params), f, params, lam_eff, order, X)
    ref = sum(to_standard(evolve(c, sigma, 0.4, params))(X)
              for c in (comps[0], 0.7 * comps[1]))
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@check("global_flow_zonal_decomposition_wk", "propagators",
       "propagators: the global heat flow on a zone-finite state equals the sum of zonal flows",
       cases=_table(_K2_K4))
def _zonal_decomposition_wk(params):
    return _decomposition_residual(params, 1, 1.4, 64 if params.k == 2 else 36), 1e-8


@check("global_flow_zonal_decomposition_df", "propagators",
       "propagators: same decomposition for the oscillatory branch, at quadrature accuracy")
def _zonal_decomposition_df(params):
    return _decomposition_residual(params, 1j, 0.5, 64), 1e-5


@check("trace_identity", "propagators",
       "propagators: quadrature trace of the zonal heat kernel matches the closed form",
       cases=_table(_K2_K4, a=(0, 1, 2), t=(0.25, 0.5, 1.0)))
def _trace(params, a, t):
    ref = partition_function(1, a, t, params)
    return abs(partition_function_trace(1, a, t, params, order=32) - ref) / abs(ref), 1e-6


def _semigroup(params: PhysParams, sigma: complex, seed: int) -> float:
    rng = np.random.default_rng(seed)
    pairs = [(_points(rng, 1, 1), _points(rng, 1, 1)) for _ in range(4)]
    return semigroup_residual(sigma, 0, 0.3, 0.3, pairs, params, order=64)


@check("semigroup_wk", "propagators",
       "propagators: zonal heat-kernel Chapman-Kolmogorov residual below 1e-6")
def _semigroup_wk(params):
    return _semigroup(params, 1, 17), 1e-6


@check("semigroup_df", "propagators",
       "propagators: zonal Schrodinger-kernel Chapman-Kolmogorov residual below 1e-5")
def _semigroup_df(params):
    return _semigroup(params, 1j, 19), 1e-5


@check("df_flow_unitarity", "propagators",
       "propagators: the zonal Schrodinger flow preserves inner products to 1e-9",
       cases=_table(_K2_K4))
def _unitarity(params):
    rng = np.random.default_rng(23)
    errs = []
    for a in (0, 1):
        basis = zone_basis(a, a + 6, params)
        cf = [complex(rng.normal(), rng.normal()) for _ in basis]
        cg = [complex(rng.normal(), rng.normal()) for _ in basis]
        f = _linear_combination(zip(cf, basis), params)
        g = _linear_combination(zip(cg, basis), params)
        before = inner_product(f, g)
        after = inner_product(evolve(f, 1j, 0.8, params), evolve(g, 1j, 0.8, params))
        errs.append(abs(after - before) / abs(before))
    return _worst((e, 1e-9) for e in errs)


@check("heat_diagonal_positivity", "propagators",
       "propagators: the zonal heat kernel is positive on the diagonal",
       cases=_table(_K2_K4, a=(0, 1, 2), t=(0.1, 0.6, 2.0)))
def _positivity(params, a, t):
    X = _points(np.random.default_rng(29), (20, params.m), 2)
    vals = zonal_kernel(1, a, t, X, X, params)
    return _worst([(float(-min(np.min(vals.real), 0.0)), 1e-12),
                   (float(np.max(np.abs(vals.imag))), 1e-12)])


@check("zonal_kernel_spectral_sum_zone0", "propagators",
       "propagators: the holomorphic-zone closed form matches its truncated spectral sum",
       cases=_table(sigma=(1, 1j)))
def _spectral_zone0(params, sigma):
    rng = np.random.default_rng(67)
    X, Z = (_points(rng, (4, 1), 0.8) for _ in range(2))
    ref = zonal_kernel(sigma, 0, 0.5, X, Z, params)
    got = zonal_kernel_spectral(sigma, 0, 0.5, X, Z, params, pmax=40)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))), 1e-10


@check("zonal_kernel_closed_vs_spectral_higher_zones", "propagators",
       "propagators: measured deviation of the printed higher-zone kernels from the "
       "spectral flow at t>0 (they agree at t=0 and in trace; reported, see ledger)",
       expected="report")
def _spectral_higher(params):
    rng = np.random.default_rng(71)
    X, Z = (_points(rng, (4, 1), 0.8) for _ in range(2))
    closed = zonal_kernel(1, 1, 0.4, X, Z, params)
    spectral = zonal_kernel_spectral(1, 1, 0.4, X, Z, params, pmax=40)
    return float(np.max(np.abs(closed - spectral)) / np.max(np.abs(spectral))), float("inf")


@check("field_term_sign", "propagators",
       "propagators: the field-augmented kernel equals exp(-2 k lam^2 sigma t) times the bare one "
       "(sign fixed by the spectral oracle, opposite to the printed remark)",
       cases=_table((PhysParams(lam=0.8),), sigma=(1, 1j)))
def _field_term(params, sigma):
    rng = np.random.default_rng(31)
    X, Z = (_points(rng, (4, 1), 0.7) for _ in range(2))
    bare = zonal_kernel_spectral(sigma, 0, 0.45, X, Z, params, pmax=40)
    aug = zonal_kernel_spectral(sigma, 0, 0.45, X, Z, params, pmax=40,
                                include_field_term=True)
    mult = field_term_multiplier(sigma, 0.45, params)
    return float(np.max(np.abs(aug - mult * bare)) / np.max(np.abs(aug))), 1e-10


# ---- thermo ---------------------------------------------------------------------


@check("partition_log_derivative", "thermo",
       "thermo: -(2 pi mu/lam) d/dt Z_1(h t /(2 pi mu)) = Z_1 * (average energy), rel err 1e-8",
       cases=_table(t=(0.4, 1.0, 2.5)))
def _log_derivative(params, t):
    kappa = thermo.default_kappa(params)
    h = 1.0
    dt = 1e-6
    s_of = lambda tt: h * tt / (2 * math.pi)
    dZ = (partition_function(1, 0, s_of(t + dt), params)
          - partition_function(1, 0, s_of(t - dt), params)).real / (2 * dt)
    lhs = -(2 * math.pi / params.lam) * dZ
    Z = partition_function(1, 0, s_of(t), params).real
    rhs = Z * thermo.average_energy(1, 1.0 / t, kappa, h).real
    return abs(lhs - rhs) / abs(rhs), 1e-8


@check("df_periodicity", "thermo",
       "thermo: DF partition function and average energy repeat over the closed-form period",
       cases=_table((PhysParams(lam=1.3),)))
def _periodicity(params):
    kappa = thermo.default_kappa(params)
    h = 1.0

    def gap(f, P, t):
        f1 = f(t)
        return abs(f1 - f(t + P)) / abs(f1), 1e-10
    P = thermo.period(params, "kernel")
    gaps = [gap(lambda s: partition_function(1j, 1, s, params), P, t) for t in (0.31, 0.77, 1.3)]
    PE = thermo.period_density("energy_density", 1, params, kappa=kappa, h=h)[0]
    gaps += [gap(lambda s: thermo.average_energy_of_time(s, kappa, h), PE, t) for t in (0.4, 1.1)]
    return _worst(gaps)


@check("specific_heat_shape", "thermo",
       "thermo: the heat-branch specific heat is positive and unimodal in 1/T")
def _heat_shape(params):
    kappa = thermo.default_kappa(params)
    h = 1.0
    xs = np.linspace(0.05, 30.0, 400)        # 1/T sweep
    vals = thermo.specific_heat(1, 1.0 / xs, kappa, h).real
    if np.any(vals <= 0):
        return 1.0, 0.5
    i = int(np.argmax(vals))
    rising = np.all(np.diff(vals[: i + 1]) > 0) if i > 0 else True
    falling = np.all(np.diff(vals[i:]) < 0) if i < len(vals) - 1 else True
    return (0.0 if (rising and falling) else 1.0), 0.5


@check("df_extrema_pattern", "thermo",
       "thermo: DF density extrema sit at the end/mid/quarter points of the period")
def _extrema(params):
    P = thermo.period(params)               # pi/lam, the |.|^2 period
    ext = thermo.find_period_extrema("partition_density", 0, params, n_samples=2001)
    mins = [t for t, kind in ext if kind == "min"]
    errs = [min(abs(t - 0.5 * P) for t in mins) / P]
    X = np.array([0.7 + 0.2j])
    ext = thermo.find_period_extrema("diagonal_density", 1, params, X=X, n_samples=2001)
    mins = [t for t, kind in ext if kind == "min"]
    maxs = [t for t, kind in ext if kind == "max"]
    errs.append(min(abs(t - 0.5 * P) for t in mins) / P)
    if maxs:
        errs.append(min(min(abs(t - 0.0), abs(t - P)) for t in maxs) / P)
    return _worst((e, 1e-6) for e in errs)


@check("stable_spread_identity", "thermo",
       "thermo: the DF kernel at quarter times equals -+i e^{-2 lam X.Zbar} delta^(a)",
       cases=_table(a=(0, 1, 2), quarter=(1, 3)))
def _stable_spread(params, a, quarter):
    rng = np.random.default_rng(37)
    X, Z = (_points(rng, (6, 1), 0.8) for _ in range(2))
    dk = zonal_kernel(1j, a, thermo.quarter_time(quarter, params), X, Z, params)
    sp = thermo.stable_spread(a, quarter, X, Z, params)
    return float(np.max(np.abs(dk - sp))), 1e-10


@check("tension_vs_finite_difference", "thermo",
       "thermo: analytic tension matches centered differences of the DF diagonal",
       cases=_table(a=(0, 1), t=(0.2, 0.9, 2.0)))
def _tension_fd(params, a, t):
    X = np.array([0.5 - 0.3j])
    h = 1e-6
    fd = (thermo.diagonal_kernel(1j, a, t + h, X, params)
          - thermo.diagonal_kernel(1j, a, t - h, X, params)) / (2 * h)
    an = thermo.tension(a, t, X, params)
    return abs(fd - an) / abs(an), 1e-6


@check("tension_minimum_at_quarter", "thermo",
       "thermo: |tension| over one period is smallest at the quarter-point state")
def _tension_quarter(params):
    X = np.array([0.8 + 0.1j])
    P = thermo.period(params, "kernel")
    ts = np.linspace(1e-4, P - 1e-4, 4001)
    vals = np.abs(thermo.tension(1, ts, X, params))
    tmin = ts[np.argmin(vals)]
    dist = min(abs(tmin - P / 4), abs(tmin - 3 * P / 4)) / P
    # argmin takes a nan for the minimum, which could sit at the quarter point
    return (dist if np.all(np.isfinite(vals)) else math.nan), 1e-3


def _df_rate_deviation(params: PhysParams, scale: float) -> float:
    """Relative distance of |dE_i/dT| from kappa at T = scale * h / kappa."""
    kappa = thermo.default_kappa(params)
    h = 1.0
    T = scale * h / kappa
    val = abs(thermo.specific_heat(1j, T, kappa, h))
    return abs(val - kappa) / kappa


@check("df_energy_rate_high_T", "thermo",
       "thermo: |dE_i/dT| tends to kappa at high temperature, within 1%")
def _df_rate_high(params):
    return _df_rate_deviation(params, 1e3), 1e-2


@check("df_energy_rate_low_T", "thermo",
       "thermo: |dE_i/dT| tends to kappa at low temperature (stated claim; the closed "
       "form oscillates with envelope kappa (x/2)^2/sin^2(x/2) -> infinity, so this "
       "documented check fails)", expected="fail")
def _df_rate_low(params):
    return _df_rate_deviation(params, 1e-3), 1e-2


# ---- path measures --------------------------------------------------------------


@check("cylinder_total_measure", "path",
       "path_measure: whole-space cylinder integrals reproduce the closed-form kernels to 1e-5 "
       "for every kind with a convergent whole-space limit",
       # (kind, zone, cylinder times, horizon, time of the closed form); the zone-1
       # Dirac-Feynman case is the degenerate horizon check: one slice at t -> 0
       # reproduces the spread
       cases=_table(cylinder=(("global_wk", None, (0.2, 0.35), 0.5, 0.5),
                              ("zonal_wk", 0, (0.2, 0.35), 0.5, 0.5),
                              ("zonal_df", 0, (0.2, 0.35), 0.5, 0.5),
                              ("zonal_df", 1, (1e-9,), 2e-9, 0.0),
                              ("spread_amplitude", 1, (0.2, 0.35), 0.5, None))))
def _cylinder(params, cylinder):
    kind, a, times, horizon, t = cylinder
    x = np.array([0.3 + 0.2j])
    y = np.array([-0.4 + 0.1j])
    X, Y = x[None, :], y[None, :]
    if kind == "global_wk":
        ref = global_kernel(1, t, X, Y, params)[0]
    elif kind == "spread_amplitude":
        ref = zone_kernel(a, X, Y, params)[0]
    else:
        ref = zonal_kernel(1 if kind == "zonal_wk" else 1j, a, t, X, Y, params)[0]
    box = path_measure.whole_space_box(params, radius=4.5)
    got = path_measure.cylinder_measure(kind, times, [box] * len(times), x, y, horizon,
                                        params, a=a, order=48)
    return abs(got - ref) / abs(ref), 1e-5


@check("global_feynman_divergence", "path",
       "path_measure: the global Feynman chain does not settle under box growth "
       "(the approximating measures diverge; only the zonal construction converges)",
       expected="report")
def _global_df_divergence(params):
    x = np.array([0.3 + 0.2j])
    y = np.array([-0.4 + 0.1j])
    T = 0.5
    times = (0.2, 0.35)
    ref = global_kernel(1j, T, x[None, :], y[None, :], params)[0]
    vals = []
    for radius, order in ((3.5, 48), (4.5, 64)):
        box = [(-radius, radius)] * params.k
        vals.append(path_measure.cylinder_measure("global_df", times, [box, box],
                                                  x, y, T, params, order=order))
    # measured: by how much the truncations still disagree with the closed form
    return _worst((float(abs(v - ref) / abs(ref)), float("inf")) for v in vals)


@check("approximating_measure_bounded", "path",
       "path_measure: box-partition measure magnitudes stay bounded under refinement")
def _bounded(params):
    x = np.array([0.2 + 0.1j])
    y = np.array([-0.1 + 0.3j])
    box = path_measure.whole_space_box(params, radius=4.0)
    T = 0.4
    totals = []
    for n in (1, 2, 3, 4):
        times = tuple((i + 1) * T / (n + 1) for i in range(n))
        val = path_measure.cylinder_measure("zonal_df", times, [box] * n, x, y, T,
                                            params, a=0, order=28)
        totals.append(abs(val))
    bound = abs(zone_kernel(0, x[None, :], y[None, :], params)[0]) * 3.0
    return _worst((total, bound) for total in totals)


@check("radon_nikodym_chain_rule", "path",
       "path_measure: the three density kinds compose multiplicatively (float identity)")
def _chain_rule(params):
    rng = np.random.default_rng(41)
    errs = []
    for _ in range(8):
        n = int(rng.integers(1, 5))
        mids = [_points(rng, 1, 1) for _ in range(n)]
        path = path_measure.PathDiscretization.uniform(
            _points(rng, 1, 1),
            _points(rng, 1, 1), 1.2, mids)
        phase = path_measure.radon_nikodym_density("feynman_over_nu", path)
        lhs = phase * path_measure.radon_nikodym_density("nu_over_wk", path)
        rhs = path_measure.radon_nikodym_density("feynman_over_wk", path)
        errs.append(abs(lhs - rhs) / abs(rhs))
        errs.append(abs(abs(phase) - 1.0))
    return _worst((e, 1e-12) for e in errs)


@check("feynman_kac_convergence", "path",
       "path_measure: sliced reconstruction error decreases strictly over 1..4 slices "
       "and is below 5% at 4 slices")
def _fk(params):
    x = np.array([0.35 + 0.2j])
    y = np.array([-0.3 + 0.1j])
    T = 0.5
    ref = zonal_kernel(1, 0, T, x[None, :], y[None, :], params)[0]
    errs = [abs(val - ref) / abs(ref) for val in
            path_measure._sliced_chain(1, 0, x, y, T, (1, 2, 3, 4), params, order=40)]
    strictly = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    return (errs[-1] if strictly else 1.0), 5e-2


@check("probability_conservation", "path",
       "path_measure: total arrival probability is T-independent (constant lam^{k/2}, reported)",
       cases=_table((PhysParams(lam=1.5),)))
def _conservation(params):
    x = np.array([0.4 + 0.3j])
    masses = np.array([path_measure.probability_total_mass(0, x, T, params, order=64)
                       for T in (0.3, 0.8, 1.7)])
    # numpy's max and min keep a nan, where the builtins would drop it
    return float(np.ptp(masses) / np.max(masses)), 1e-6


# ---- padi -----------------------------------------------------------------------


@check("spin_matrix_relations", "padi",
       "padi: sigma_i sigma_j + sigma_j sigma_i = 2 delta_ij, sigma2 = conj(sigma1)")
def _spin(params):
    s1, s2, s0 = padi.spin_matrices()
    eye = np.eye(2)
    return _worst((float(np.max(np.abs(d))), 1e-15)
                  for d in (s1 @ s1 - eye, s2 @ s2 - eye, s1 @ s2 + s2 @ s1,
                            s2 - np.conj(s1), s0 @ s0 - eye))


@check("padi_square_identity", "padi",
       "padi: PD_Z^2 = H_Z - lam sigma0 on random degree-5 spinors (exact)")
def _square(params):
    rng = np.random.default_rng(43)
    errs = []
    for variant in ("Z", "Zf"):
        for _ in range(6):
            phi = padi.SpinorField(_random_poly(rng, params, 5), _random_poly(rng, params, 5))
            errs.append(padi.padi_square_residual(phi, variant) / padi.spinor_norm(phi))
    return _worst((e, 1e-12) for e in errs)


@check("eigenspinor_residual", "padi",
       "padi: PD psi = +-sqrt(mu) psi with unit norm; the zero mode is reproduced",
       cases=_table(a=(0, 1), j=(1, 2)))
def _eigenspinors(params, a, j):
    errs = []
    for vec in zone_basis(a, a + 3, params):
        for sign in (1, -1):
            psi, ev = padi.eigenspinors(vec, j, sign)
            if not psi.is_zero():
                errs.append(padi.spinor_norm(padi.apply_padi(psi) - ev * psi))
                errs.append(abs(padi.spinor_norm(psi) - 1.0))
    if (a, j) == (1, 1):
        # the zero mode: the bottom scalar level of zone 1
        ground = zone_basis(1, 1, params)[0]
        errs.append(abs(padi.eigenspinors(ground, 1, +1)[1]))
        errs.append(padi.spinor_norm(padi.eigenspinors(ground, 1, -1)[0]))
    return _worst((e, 1e-10) for e in errs)


@check("anomalous_component_relations", "padi",
       "padi: off-diagonals vanish; j-sum 11 equals twice 22; zone 0's 22 is half the "
       "holomorphic point spread",
       cases=_table(a=(0, 1, 2)))
def _anomalous_components(params, a):
    rng = np.random.default_rng(47)
    X, Y = (_points(rng, (6, 1), 0.8) for _ in range(2))
    q1 = padi.anomalous_kernel(a, 1, X, Y, params)
    q2 = padi.anomalous_kernel(a, 2, X, Y, params)
    gaps = [q1[..., 0, 1], q1[..., 1, 0], q1[..., 0, 0] + q2[..., 0, 0] - 2 * q1[..., 1, 1]]
    if a == 0:
        gaps.append(q1[..., 1, 1] - 0.5 * zone_kernel(0, X, Y, params))
    return _worst((float(np.max(np.abs(g))), 1e-12) for g in gaps)


@check("anomalous_idempotency", "padi",
       "padi: the anomalous zone projection composes to itself under quadrature",
       cases=_table(a=(0, 1, 2)))
def _anomalous_idem(params, a):
    axes, w = flat_hermite_grid(64, params.lam, params.k)
    m = tensor_points(axes)
    rng = np.random.default_rng(53)
    X, Y = (_points(rng, (4, 1), 0.7) for _ in range(2))

    def error(x0, y0):
        left = padi.anomalous_zone_kernel(a, np.broadcast_to(x0, m.shape), m, params)
        right = padi.anomalous_zone_kernel(a, m, np.broadcast_to(y0, m.shape), params)
        comp = np.einsum("q,qij,qjk->ik", w, left, right)
        direct = padi.anomalous_zone_kernel(a, x0[None, :], y0[None, :], params)[0]
        return float(np.max(np.abs(comp - direct)) / max(float(np.max(np.abs(direct))), 1e-12))
    return _worst((error(x0, y0), 1e-6) for x0, y0 in zip(X, Y))


@check("anomalous_hermitian_symmetry", "padi",
       "padi: Q^(a)_(j)(X,Y) equals the conjugate transpose of Q^(a)_(j)(Y,X)",
       cases=_table(a=(0, 1, 2), j=(1, 2)))
def _anomalous_herm(params, a, j):
    rng = np.random.default_rng(59)
    X, Y = (_points(rng, (5, 1), 1) for _ in range(2))
    q_xy = padi.anomalous_kernel(a, j, X, Y, params)
    q_yx = padi.anomalous_kernel(a, j, Y, X, params)
    return float(np.max(np.abs(q_xy - np.conj(np.swapaxes(q_yx, -1, -2))))), 1e-12


@check("momentum_states_inside_position_states", "padi",
       "padi: every j=2 eigenspinor lies in the span of the j=1 eigenspinors",
       cases=_table(a=(0, 1)))
def _s2_in_s1(params, a):
    s1_vecs = []
    for vec in zone_basis(a, a + 4, params):
        for sign in (1, -1):
            psi, _ = padi.eigenspinors(vec, 1, sign)
            if not psi.is_zero():
                s1_vecs.append(psi)
    # orthonormalize the spanning set
    ortho = []
    for v in s1_vecs:
        for e in ortho:
            v = v - padi.spinor_inner_product(v, e) * e
        n = padi.spinor_norm(v)
        if n > 1e-12:
            ortho.append((1.0 / n) * v)
    resids = []
    for vec in zone_basis(a, a + 3, params):
        for sign in (1, -1):
            psi, _ = padi.eigenspinors(vec, 2, sign)
            resid = psi
            for e in ortho:
                resid = resid - padi.spinor_inner_product(psi, e) * e
            resids.append(padi.spinor_norm(resid))
    return _worst((r, 1e-8) for r in resids)


# ---- extensions -----------------------------------------------------------------


@check("clifford_table", "extensions",
       "extensions: period-8 dimension table and the r=3 (mod 4) duplication rule")
def _cliff(params):
    expected = {1: (2, 1), 2: (4, 1), 3: (4, 2), 4: (8, 1), 5: (8, 1), 6: (8, 1),
                7: (8, 2), 8: (16, 1), 9: (32, 1), 10: (64, 1), 11: (64, 2), 12: (128, 1)}
    bad = 0
    for r, ref in expected.items():
        if extensions.clifford_dimension(r) != ref:
            bad += 1
    for r in range(1, 17):
        n_r, _ = extensions.clifford_dimension(r)
        n_r8, _ = extensions.clifford_dimension(r + 8)
        if n_r8 != 16 * n_r:
            bad += 1
    return float(bad), 0.5


@check("subzone_split", "extensions",
       "extensions: bosonic/fermionic sub-zones are orthogonal, sum back, and commute with H",
       cases=_table((PhysParams(k=4),)))
def _subzones(params):
    rng = np.random.default_rng(61)
    errs = []
    for _ in range(5):
        f = _random_poly(rng, params, 4)
        b = extensions.symmetrize_subzone(f, "bosonic")
        fm = extensions.symmetrize_subzone(f, "fermionic")
        errs.append(abs(inner_product(b, fm)) / max(norm(f) ** 2, 1e-300))
        errs.append(norm(b + fm - f) / max(norm(f), 1e-300))
        for kind in ("bosonic", "fermionic"):
            lhs = extensions.symmetrize_subzone(apply_zeeman(f), kind)
            rhs = apply_zeeman(extensions.symmetrize_subzone(f, kind))
            errs.append(norm(lhs - rhs) / max(norm(f), 1e-300))
    return _worst((e, 1e-12) for e in errs)


@check("coulomb_hermitian", "extensions",
       "extensions: the compressed Coulomb matrix is Hermitian to 1e-12")
def _coulomb_herm(params):
    out = extensions.zonal_coulomb_matrix(0, 1.0, 8, params)
    M = out["potential"]
    return float(np.max(np.abs(M - M.conj().T))), 1e-12


@check("coulomb_free_limit", "extensions",
       "extensions: Q=0 reduces to the diagonal spectrum (2p+1) lam + 4 lam^2")
def _coulomb_q0(params):
    out = extensions.zonal_coulomb_matrix(1, 0.0, 6, params)
    lam = params.lam
    ref = np.array([(2 * p + 1) * lam + 4 * lam**2 for p in range(6)])
    return float(np.max(np.abs(np.sort(out["eigenvalues"]) - ref))), 1e-12


@check("coulomb_eigenvalue_stability", "extensions",
       "extensions: the lowest three eigenvalues move < 1e-4 when the basis grows by 4")
def _coulomb_stable(params):
    e1 = np.sort(extensions.zonal_coulomb_matrix(0, -0.5, 12, params)["eigenvalues"])[:3]
    e2 = np.sort(extensions.zonal_coulomb_matrix(0, -0.5, 16, params)["eigenvalues"])[:3]
    return float(np.max(np.abs(e1 - e2))), 1e-4


@check("coulomb_multiplicity_report", "extensions",
       "extensions: multiplicity grouping of the compressed and cross-zone spectra (report only)",
       expected="report")
def _coulomb_report(params):
    zonal = extensions.zonal_coulomb_matrix(0, -0.5, 10, params)
    cross = extensions.unprojected_coulomb_matrix(-0.5, 2, 6, params)
    zonal_max = max(c for _, c in zonal["multiplicity_groups"])
    cross_max = max(c for _, c in cross["multiplicity_groups"])
    return float(zonal_max + cross_max / 1000.0), float("inf")


# ---- driver ---------------------------------------------------------------------


def _run_check(entry: dict) -> dict:
    """Run one CHECKS entry on each record of its table, in table order, and return
    the report row of the worst case (`_worst`); a case that is not finite fails the row."""
    t0 = time.perf_counter()
    try:
        measured, tol = _worst(entry["fn"](params, **kw) for params, kw in entry["cases"])
        lost = not math.isfinite(measured)
        status = "fail" if lost or not measured <= tol else "pass"
        if entry["expected"] == "report" and not lost:
            status = "report"
    except Exception as exc:   # noqa: BLE001 - report any failure honestly
        measured, tol, status = float("nan"), float("nan"), f"error: {exc}"
    return {
        "check_name": entry["name"],
        "suite": entry["suite"],
        "status": status,
        "measured": measured,
        "tolerance": tol,
        "expected": entry["expected"],
        "module_invariant": entry["invariant"],
        "seconds": round(time.perf_counter() - t0, 3),
    }


def run_suite(suites=None):
    """Run the selected check suites, in the declaration order of CHECKS, and
    return the JSON-ready report.

    An unknown suite name raises ValueError before any check runs.
    """
    known = sorted({e["suite"] for e in CHECKS})
    for suite in suites or ():
        if suite not in known:
            raise ValueError(f"unknown suite {suite!r} (known: {', '.join(known)})")
    return [_run_check(e) for e in CHECKS if not suites or e["suite"] in suites]


def report_to_json(report) -> str:
    safe = []
    for row in report:
        row = dict(row)
        for key in ("measured", "tolerance"):
            v = row[key]
            if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
                row[key] = str(v)
        safe.append(row)
    return json.dumps(safe, indent=2)


def exit_code(report) -> int:
    return 0 if all(r["status"] in ("pass", "report") for r in report) else 1
