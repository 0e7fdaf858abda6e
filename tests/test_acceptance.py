"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  One sub-criterion (the low-temperature limit of the
Dirac-Feynman energy rate) is a documented discrepancy between the stated
claim and the closed form; it is implemented faithfully and marked as an
expected failure rather than loosened (see the README and the CLI verify
report, which carries the same check with status "fail").
"""

import itertools
import math

import numpy as np
import pytest

from zonekit.algebra import ZonePolynomial, apply_zeeman, inner_product, norm, to_standard
from zonekit.extensions import clifford_dimension, zonal_coulomb_matrix
from zonekit.padi import (SpinorField, anomalous_kernel, anomalous_zone_kernel, apply_padi,
                          eigenspinors, padi_square_residual, spinor_inner_product,
                          spinor_norm)
from zonekit.params import PhysParams
from zonekit.path_measure import (PathDiscretization, _sliced_chain, action_functional,
                                  probability_total_mass, radon_nikodym_density)
from zonekit.propagators import (evolve, partition_function, partition_function_trace,
                                 semigroup_residual, zonal_kernel)
from zonekit.special import flat_hermite_grid, laguerre, tensor_points
from zonekit.thermo import (average_energy, default_kappa, find_period_extrema, period,
                            quarter_time, specific_heat, stable_spread)
from zonekit.zones import (kernel_basis_residual, project_to_zone, zone_basis,
                           zone_basis_with_pivots, zone_kernel)

PAR = PhysParams(lam=1.0, k=2)
PAR4 = PhysParams(lam=1.0, k=4)


def report(n, text):
    print(f"[criterion {n:>2}] PASS  {text}")


def test_c01_spectrum():
    # eigenvalue law (2p + k/2) lam + 2 k lam^2 for every monomial label of
    # degree <= 8, independent of the antiholomorphic degree; raw monomials
    # with a holomorphic or antiholomorphic pure coordinate factorization are
    # themselves exact eigenvectors
    for params in (PAR, PAR4):
        lam, k, m = params.lam, params.k, params.m
        seen_by_p = {}
        ranges = itertools.product(range(9), repeat=2 * m)
        for exps in ranges:
            key = tuple((exps[2 * j], exps[2 * j + 1]) for j in range(m))
            deg = sum(p + v for p, v in key)
            if deg > 8:
                continue
            a = sum(v for _, v in key)
            p_tot = sum(p for p, _ in key)
            mu = (2 * p_tot + k / 2) * lam + 2 * k * lam * lam
            if all(min(p, v) == 0 for p, v in key):
                f = ZonePolynomial.monomial(key, params)
                assert norm(apply_zeeman(f, True) - mu * f) <= 1e-12 * mu * norm(f)
            pairs = dict(zone_basis_with_pivots(a, 8, params))
            vec = pairs[key]
            assert norm(apply_zeeman(vec, True) - mu * vec) <= 1e-12 * mu
            seen_by_p.setdefault((k, p_tot), set()).add(mu)
        for mus in seen_by_p.values():
            assert len(mus) == 1      # independent of the antiholomorphic index
    report(1, "Zeeman eigenvalue law on all degree-8 labels, k in {2,4}, rel 1e-12")


def test_c02_kernel_equivalence():
    rng = np.random.default_rng(101)
    Z = rng.uniform(-1, 1, (8, 1)) + 1j * rng.uniform(-1, 1, (8, 1))
    W = rng.uniform(-1, 1, (8, 1)) + 1j * rng.uniform(-1, 1, (8, 1))
    Z /= np.maximum(1.0, np.abs(Z))          # clamp into the unit disk
    W /= np.maximum(1.0, np.abs(W))
    for a in (0, 1, 2):
        res = kernel_basis_residual(a, 25, Z, W, PAR)
        assert res < 1e-8
    report(2, "closed-form kernels equal zone basis sums at N=25, residual < 1e-8")


def test_c03_reproducing_and_idempotency():
    axes, w = flat_hermite_grid(64, PAR.lam, PAR.k)
    zpts = tensor_points(axes)
    rng = np.random.default_rng(102)
    samples = rng.uniform(-0.9, 0.9, (4, 1)) + 1j * rng.uniform(-0.9, 0.9, (4, 1))
    # the standard-space identity int K(x, w) psi(w) dw = psi(x), psi = to_standard(vec)
    for a in (0, 1, 2):
        for vec in zone_basis(a, a + 2, PAR):
            psi = to_standard(vec)
            vals = psi(zpts)
            for s in samples:
                got = np.sum(w * zone_kernel(a, s[None, :], zpts, PAR) * vals)
                ref = psi(s[None, :])[0]
                assert abs(got - ref) < 1e-6 * max(1.0, abs(ref))
    for params in (PAR, PAR4):
        for _ in range(3):
            coeffs = {}
            for _ in range(5):
                key = []
                budget = 8
                for _ in range(params.m):
                    p = int(rng.integers(0, budget + 1))
                    v = int(rng.integers(0, budget - p + 1))
                    budget -= p + v
                    key.append((p, v))
                coeffs[tuple(key)] = complex(rng.normal(), rng.normal())
            f = ZonePolynomial(coeffs, params)
            scale = max(norm(f), 1.0)
            for a in (0, 1, 2):
                pa = project_to_zone(f, a)
                assert norm(project_to_zone(pa, a) - pa) <= 1e-11 * scale
                for b in (0, 1, 2):
                    if b != a:
                        assert norm(project_to_zone(pa, b)) <= 1e-11 * scale
    report(3, "reproducing property < 1e-6; projections idempotent and orthogonal")


def test_c04_trace_identity():
    for k in (2, 4):
        params = PhysParams(lam=1.0, k=k)
        for a in (0, 1, 2):
            for t in (0.25, 0.5, 1.0):
                ref = partition_function(1, a, t, params)
                got = partition_function_trace(1, a, t, params, order=28)
                assert abs(got - ref) / abs(ref) < 1e-6
    for t in (0.25, 0.5, 1.0):
        vals = {partition_function(1, a, t, PAR) for a in (0, 1, 2)}
        assert len(vals) == 1     # k=2 value is zone independent
    report(4, "quadrature traces match closed-form partition functions, rel < 1e-6")


def test_c05_semigroup():
    rng = np.random.default_rng(103)
    pairs = []
    for _ in range(4):
        x = rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1)
        y = rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1)
        pairs.append((x / max(1.0, abs(x[0])), y / max(1.0, abs(y[0]))))
    assert semigroup_residual(1, 0, 0.3, 0.3, pairs, PAR, order=64) < 1e-6
    assert semigroup_residual(1j, 0, 0.3, 0.3, pairs, PAR, order=64) < 1e-5
    report(5, "Chapman-Kolmogorov residuals < 1e-6 (heat) and < 1e-5 (oscillatory)")


def test_c06_unitarity():
    rng = np.random.default_rng(104)
    for params in (PAR, PAR4):
        for a in (0, 1):
            basis = zone_basis(a, a + 6, params)
            f = sum((complex(rng.normal(), rng.normal()) * v for v in basis),
                    ZonePolynomial({}, params))
            g = sum((complex(rng.normal(), rng.normal()) * v for v in basis),
                    ZonePolynomial({}, params))
            before = inner_product(f, g)
            after = inner_product(evolve(f, 1j, 0.8, params),
                                  evolve(g, 1j, 0.8, params))
            assert abs(after - before) <= 1e-9 * abs(before)
    report(6, "Dirac-Feynman zonal flow preserves inner products to 1e-9")


def test_c07_thermo_consistency():
    kappa = default_kappa(PAR)
    h = 1.0
    # log-derivative identity by finite differences
    for t in (0.5, 1.2, 2.0):
        dt = 1e-6
        s = lambda tt: h * tt / (2 * math.pi)
        dZ = (partition_function(1, 0, s(t + dt), PAR).real
              - partition_function(1, 0, s(t - dt), PAR).real) / (2 * dt)
        lhs = -(2 * math.pi / PAR.lam) * dZ
        rhs = partition_function(1, 0, s(t), PAR).real \
            * average_energy(1, 1.0 / t, kappa, h).real
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)
    # heat-branch specific heat limits
    assert abs(specific_heat(1, 1e-3 / kappa, kappa, h)) < 1e-12
    high = specific_heat(1, 1e3 / kappa, kappa, h).real
    assert abs(high - kappa) / kappa < 1e-2
    # oscillatory-branch rate at the high-temperature end
    rate_high = abs(specific_heat(1j, 1e3 * h / kappa, kappa, h))
    assert abs(rate_high - kappa) / kappa < 1e-2
    report(7, "log-derivative identity 1e-8; heat limits 0 and kappa; DF rate -> kappa (high end)")


@pytest.mark.xfail(strict=True,
                   reason="closed form gives |dE_i/dT| = kappa (x/2)^2/sin^2(x/2), "
                   "x = 2h/(kappa T): the low-temperature envelope grows without "
                   "bound instead of tending to kappa; see the README; `zonekit verify` "
                   "reports the same check with status fail")
def test_c07_df_rate_low_temperature_end():
    kappa = default_kappa(PAR)
    h = 1.0
    rate_low = abs(specific_heat(1j, 1e-3 * h / kappa, kappa, h))
    print(f"[criterion  7] FAIL  DF rate at the low end measured {rate_low:.4g} "
          f"vs kappa = {kappa:.4g}")
    assert abs(rate_low - kappa) / kappa < 1e-2


def test_c08_periodic_extrema_and_stable_spreads():
    P = period(PAR)                        # pi/lam, the |.|^2 period
    ext = find_period_extrema("partition_density", 0, PAR, n_samples=4097)
    mins = [t for t, kind in ext if kind == "min"]
    assert any(abs(t - P / 2) <= 1e-6 * P for t in mins)
    X = np.array([0.7 + 0.2j])
    ext = find_period_extrema("diagonal_density", 1, PAR, X=X, n_samples=4097)
    mins = [t for t, kind in ext if kind == "min"]
    assert any(abs(t - P / 2) <= 1e-6 * P for t in mins)
    # end/mid points of the doubled interval are the diagonal-density maxima
    vals = [abs(zonal_kernel(1j, 1, t, X[None, :], X[None, :], PAR)[0]) ** 2
            for t in (0.0, P, 2 * P)]
    interior = abs(zonal_kernel(1j, 1, 0.37 * P, X[None, :], X[None, :], PAR)[0]) ** 2
    assert all(v > interior for v in vals)
    rng = np.random.default_rng(105)
    Xs = rng.uniform(-0.8, 0.8, (5, 1)) + 1j * rng.uniform(-0.8, 0.8, (5, 1))
    Zs = rng.uniform(-0.8, 0.8, (5, 1)) + 1j * rng.uniform(-0.8, 0.8, (5, 1))
    for a in (0, 1, 2):
        for quarter in (1, 3):
            t = quarter_time(quarter, PAR)
            dk = zonal_kernel(1j, a, t, Xs, Zs, PAR)
            sp = stable_spread(a, quarter, Xs, Zs, PAR)
            assert np.max(np.abs(dk - sp)) < 1e-10
    report(8, "extrema at end/mid/quarter points to 1e-6 of the period; spreads 1e-10")


def test_c09_feynman_kac_reconstruction():
    x = np.array([0.35 + 0.2j])
    y = np.array([-0.3 + 0.1j])
    T = 0.5
    ref = zonal_kernel(1, 0, T, x[None, :], y[None, :], PAR)[0]
    errs = [abs(val - ref) / abs(ref)
            for val in _sliced_chain(1, 0, x, y, T, (1, 2, 3, 4), PAR, order=40)]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 0.05
    # Radon-Nikodym chain rule as a floating-point identity on the exponents
    rng = np.random.default_rng(106)
    for _ in range(6):
        mids = [rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1)
                for _ in range(int(rng.integers(1, 4)))]
        path = PathDiscretization.uniform(rng.uniform(-1, 1, 1) + 0j,
                                          rng.uniform(-1, 1, 1) + 0j, 0.9, mids)
        A = action_functional(path)
        assert complex(A, -A) == (1 - 1j) * A      # exponent identity is exact
        lhs = radon_nikodym_density("feynman_over_nu", path) \
            * radon_nikodym_density("nu_over_wk", path)
        rhs = radon_nikodym_density("feynman_over_wk", path)
        assert lhs == pytest.approx(rhs, rel=1e-13)
    masses = [probability_total_mass(0, x, T0, PAR, order=64) for T0 in (0.3, 0.8, 1.6)]
    for m_val in masses:
        assert abs(m_val - masses[0]) <= 1e-6 * masses[0]
    report(9, f"sliced reconstruction strictly decreasing, {errs[-1]:.3%} at n=4; "
              f"chain rule exact; mass constant {masses[0]:.6f} (lam^(k/2)), T-independent")


def test_c10_padi():
    rng = np.random.default_rng(107)
    # square identity on degree-5 spinors
    for _ in range(6):
        def poly():
            coeffs = {}
            for _ in range(4):
                p = int(rng.integers(0, 6))
                v = int(rng.integers(0, 6 - p))
                coeffs[((p, v),)] = complex(rng.normal(), rng.normal())
            return ZonePolynomial(coeffs, PAR)
        phi = SpinorField(poly(), poly())
        assert padi_square_residual(phi) <= 1e-12 * spinor_norm(phi)
    # eigenspinors, eigenvalues, zero mode
    for a in (0, 1):
        basis = zone_basis(a, a + 3, PAR)
        for vec in basis:
            nu = inner_product(apply_zeeman(vec), vec).real
            for j in (1, 2):
                mu = nu - PAR.lam if j == 1 else nu + PAR.lam
                for sign in (1, -1):
                    psi, ev = eigenspinors(vec, j, sign)
                    if psi.is_zero():
                        assert j == 1 and abs(mu) <= 1e-12 and sign == -1
                        continue
                    assert abs(ev - sign * math.sqrt(max(mu, 0.0))) <= 1e-12
                    assert spinor_norm(apply_padi(psi) - ev * psi) < 1e-10
        ground = basis[0]
        _, ev = eigenspinors(ground, 1, +1)
        assert ev == 0.0
    # anomalous kernels componentwise and idempotent under composition
    X = rng.uniform(-0.8, 0.8, (4, 1)) + 1j * rng.uniform(-0.8, 0.8, (4, 1))
    Y = rng.uniform(-0.8, 0.8, (4, 1)) + 1j * rng.uniform(-0.8, 0.8, (4, 1))
    lam = PAR.lam
    for a in (0, 1, 2):
        pair = np.sum(X * np.conj(Y), -1)
        anti = np.sum(np.conj(X) * Y, -1)
        gauss = np.exp(-0.5 * lam * (np.sum(np.abs(X) ** 2, -1) + np.sum(np.abs(Y) ** 2, -1)))
        common = laguerre(a, 0.0, lam * np.sum(np.abs(X - Y) ** 2, -1)) * np.exp(lam * pair)
        for j, sgn in ((1, 1.0), (2, -1.0)):
            q = anomalous_kernel(a, j, X, Y, PAR)
            assert np.allclose(q[..., 0, 0],
                               lam / (2 * np.pi) * (common + sgn * (lam * anti) ** a) * gauss,
                               rtol=1e-12)
            assert np.allclose(q[..., 1, 1], lam / (2 * np.pi) * common * gauss, rtol=1e-12)
            assert np.allclose(q[..., 0, 1], 0.0) and np.allclose(q[..., 1, 0], 0.0)
    axes, w = flat_hermite_grid(64, lam, 2)
    mgrid = tensor_points(axes)
    for a in (0, 1, 2):
        left = anomalous_zone_kernel(a, np.broadcast_to(X[0], mgrid.shape), mgrid, PAR)
        right = anomalous_zone_kernel(a, mgrid, np.broadcast_to(Y[0], mgrid.shape), PAR)
        comp = np.einsum("q,qij,qjk->ik", w, left, right)
        direct = anomalous_zone_kernel(a, X[0][None, :], Y[0][None, :], PAR)[0]
        assert np.max(np.abs(comp - direct)) < 1e-6 * np.max(np.abs(direct))
    # containment of momentum eigenspinors in the position span
    for a in (0, 1):
        s1_vecs = []
        for vec in zone_basis(a, a + 4, PAR):
            for sign in (1, -1):
                psi, _ = eigenspinors(vec, 1, sign)
                if not psi.is_zero():
                    s1_vecs.append(psi)
        ortho = []
        for v in s1_vecs:
            for e in ortho:
                v = v - spinor_inner_product(v, e) * e
            nv = spinor_norm(v)
            if nv > 1e-12:
                ortho.append((1.0 / nv) * v)
        for vec in zone_basis(a, a + 3, PAR):
            for sign in (1, -1):
                psi, _ = eigenspinors(vec, 2, sign)
                resid = psi
                for e in ortho:
                    resid = resid - spinor_inner_product(psi, e) * e
                assert spinor_norm(resid) < 1e-8
    report(10, "square identity 1e-12; eigenspinors 1e-10 with zero mode; "
               "anomalous kernels componentwise + idempotent; containment 1e-8")


def test_c11_clifford_table():
    expected = {1: (2, 1), 2: (4, 1), 3: (4, 2), 4: (8, 1), 5: (8, 1), 6: (8, 1),
                7: (8, 2), 8: (16, 1), 9: (32, 1), 10: (64, 1), 11: (64, 2),
                12: (128, 1)}
    for r, ref in expected.items():
        assert clifford_dimension(r) == ref
        assert clifford_dimension(r)[1] == (2 if r % 4 == 3 else 1)
    report(11, "minimal module dimensions and duplication rule for r = 1..12")


def test_c12_coulomb_galerkin():
    free = zonal_coulomb_matrix(0, 0.0, 8, PAR)
    lam = PAR.lam
    ref = np.array([(2 * p + 1) * lam + 4 * lam**2 for p in range(8)])
    assert np.max(np.abs(np.sort(free["eigenvalues"]) - ref)) < 1e-12
    out = zonal_coulomb_matrix(0, -0.5, 12, PAR)
    M = out["potential"]
    assert np.max(np.abs(M - M.conj().T)) < 1e-12
    lo = np.sort(out["eigenvalues"])[:3]
    hi = np.sort(zonal_coulomb_matrix(0, -0.5, 16, PAR)["eigenvalues"])[:3]
    assert np.max(np.abs(lo - hi)) < 1e-4
    groups = out["multiplicity_groups"]
    assert groups and all(c >= 1 for _, c in groups)     # report emitted, no threshold
    report(12, f"free limit exact; Hermitian 1e-12; lowest-3 stable < 1e-4; "
               f"{len(groups)} multiplicity groups reported")
