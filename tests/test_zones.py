"""Zone bases, projections, and the closed-form projection kernels."""

import math

import numpy as np
import pytest

from zonekit.algebra import ZonePolynomial, apply_zeeman, inner_product, norm
from zonekit.params import PhysParams
from zonekit.special import flat_hermite_grid, real_to_complex
from zonekit.zones import (kernel_basis_residual, project_to_zone, zone_basis,
                           zone_basis_with_pivots, zone_kernel)

PAR = PhysParams(lam=1.0, k=2)
PAR4 = PhysParams(lam=1.0, k=4)


@pytest.mark.parametrize("field_term", [False, True])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("lam", [0.4, 2.5])
def test_zeeman_eigenvalue_matches_operator(lam, k, field_term):
    params = PhysParams(lam=lam, k=k)
    for a in range(3):
        for vec in zone_basis(a, a + 3, params):
            mu = params.zeeman_eigenvalue(vec.holomorphic_degree(), field_term)
            image = apply_zeeman(vec, field_term)
            assert inner_product(image, vec) == pytest.approx(mu, rel=1e-12)
            assert norm(image - mu * vec) <= 1e-12 * mu


def test_holomorphic_zone_norms():
    # elements proportional to z^n with norms sqrt(pi n! / lam^(n+1))
    for lam in (1.0, 2.0):
        params = PhysParams(lam=lam, k=2)
        basis = zone_basis(0, 5, params)
        for n, vec in enumerate(basis):
            mono = ZonePolynomial.monomial([(n, 0)], params)
            nrm = math.sqrt(math.pi * math.factorial(n) / lam ** (n + 1))
            assert norm(vec - (1.0 / nrm) * mono) < 1e-12


def test_zone_one_structure():
    basis = zone_basis(1, 3, PAR)
    # first element proportional to zbar (already orthogonal to holomorphics)
    zb = ZonePolynomial.zbar(PAR)
    assert norm(basis[0] - (1.0 / norm(zb)) * zb) < 1e-13
    # second element proportional to z zbar - 1/lam
    eig = ZonePolynomial.z(PAR) * zb - ZonePolynomial.one(PAR)
    assert norm(basis[1] - (1.0 / norm(eig)) * eig) < 1e-12


def test_cross_zone_orthogonality():
    for params in (PAR, PAR4):
        b0 = zone_basis(0, 3, params)
        b1 = zone_basis(1, 3, params)
        b2 = zone_basis(2, 3, params)
        for bi in b0:
            for bj in list(b1) + list(b2):
                assert abs(inner_product(bi, bj)) < 1e-12
        for bi in b1:
            for bj in b2:
                assert abs(inner_product(bi, bj)) < 1e-12


def test_orthonormality():
    for params in (PAR, PAR4):
        basis = zone_basis(1, 4, params)
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                ref = 1.0 if i == j else 0.0
                assert abs(inner_product(bi, bj) - ref) < 1e-12


def test_truncation_guard():
    with pytest.raises(ValueError):
        zone_basis(3, 2, PAR)


def test_projection_examples():
    # f in the zone stays fixed
    for vec in zone_basis(1, 3, PAR):
        assert norm(project_to_zone(vec, 1) - vec) < 1e-12
    # zbar is orthogonal to the holomorphic zone
    assert project_to_zone(ZonePolynomial.zbar(PAR), 0).is_zero()
    # z zbar projects to 1/lam on the holomorphic zone
    f = ZonePolynomial.z(PAR) * ZonePolynomial.zbar(PAR)
    assert norm(project_to_zone(f, 0) - (1.0 / PAR.lam) * ZonePolynomial.one(PAR)) < 1e-13


def test_projection_idempotent_and_orthogonal():
    rng = np.random.default_rng(6)
    for params in (PAR, PAR4):
        for _ in range(3):
            coeffs = {}
            for _ in range(5):
                key = tuple((int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                            for _ in range(params.m))
                coeffs[key] = complex(rng.normal(), rng.normal())
            f = ZonePolynomial(coeffs, params)
            for a in (0, 1, 2):
                pa = project_to_zone(f, a)
                assert norm(project_to_zone(pa, a) - pa) < 1e-11 * max(norm(f), 1.0)
                assert norm(project_to_zone(pa, a + 1)) < 1e-11 * max(norm(f), 1.0)
            # projections resolve the state (zones up to max degree exhaust it)
            total = project_to_zone(f, 0)
            for a in range(1, f.max_degree() + 1):
                total = total + project_to_zone(f, a)
            assert norm(total - f) < 1e-11 * max(norm(f), 1.0)


def test_projection_self_adjoint():
    rng = np.random.default_rng(7)
    f = ZonePolynomial({((2, 1),): 1.0, ((0, 1),): 0.5j}, PAR)
    g = ZonePolynomial({((1, 0),): 1.0, ((1, 2),): -0.25}, PAR)
    for a in (0, 1, 2):
        assert inner_product(project_to_zone(f, a), g) == pytest.approx(
            inner_product(f, project_to_zone(g, a)), abs=1e-12)


# ---- closed-form kernel -----------------------------------------------------------


def test_zone_zero_kernel_is_bergman():
    rng = np.random.default_rng(8)
    Z = rng.uniform(-1, 1, (5, 1)) + 1j * rng.uniform(-1, 1, (5, 1))
    W = rng.uniform(-1, 1, (5, 1)) + 1j * rng.uniform(-1, 1, (5, 1))
    lam = PAR.lam
    pair = np.sum(Z * np.conj(W), axis=-1)
    ref = (lam / math.pi) * np.exp(lam * (pair - 0.5 * (np.sum(np.abs(Z) ** 2, -1)
                                                        + np.sum(np.abs(W) ** 2, -1))))
    assert np.allclose(zone_kernel(0, Z, W, PAR), ref, rtol=1e-14)


def test_kernel_diagonal_value():
    for params in (PAR, PAR4, PhysParams(lam=0.5, k=6)):
        k = params.k
        lam = params.lam
        Z = np.array([[0.3 + 0.4j] * (k // 2)])
        for a in (0, 1, 3):
            ref = (lam / math.pi) ** (k / 2) * math.comb(a + k // 2 - 1, a)
            assert zone_kernel(a, Z, Z, params)[0] == pytest.approx(ref, rel=1e-12)


def test_kernel_hermitian_symmetry():
    rng = np.random.default_rng(9)
    Z = rng.uniform(-1, 1, (6, 2)) + 1j * rng.uniform(-1, 1, (6, 2))
    W = rng.uniform(-1, 1, (6, 2)) + 1j * rng.uniform(-1, 1, (6, 2))
    for a in (0, 1, 2):
        assert np.allclose(zone_kernel(a, Z, W, PAR4),
                           np.conj(zone_kernel(a, W, Z, PAR4)), rtol=1e-13)


def test_kernel_basis_residual_small_and_monotone():
    rng = np.random.default_rng(10)
    Z = rng.uniform(-0.7, 0.7, (6, 1)) + 1j * rng.uniform(-0.7, 0.7, (6, 1))
    W = rng.uniform(-0.7, 0.7, (6, 1)) + 1j * rng.uniform(-0.7, 0.7, (6, 1))
    for a in (0, 1, 2):
        res25 = kernel_basis_residual(a, 25, Z, W, PAR)
        assert res25 < 1e-8
        res0 = kernel_basis_residual(a, 0, Z, W, PAR)
        assert res0 == pytest.approx(float(np.max(np.abs(zone_kernel(a, Z, W, PAR)))))
        last = res0
        for n in (5, 10, 15, 20, 25):
            cur = kernel_basis_residual(a, n, Z, W, PAR)
            assert cur <= last + 1e-15
            last = cur


def test_reproducing_property_quadrature():
    pts, w = flat_hermite_grid(64, PAR.lam, PAR.k)
    zpts = real_to_complex(pts)
    dens = np.exp(-PAR.lam * np.sum(np.abs(zpts) ** 2, -1))
    rng = np.random.default_rng(11)
    samples = rng.uniform(-0.8, 0.8, (4, 1)) + 1j * rng.uniform(-0.8, 0.8, (4, 1))
    for a in (0, 1, 2):
        for vec in zone_basis(a, a + 2, PAR):
            vals = vec.eval(zpts) * dens
            for s in samples:
                got = np.sum(w * zone_kernel(a, s[None, :], zpts, PAR, weighted=True) * vals)
                ref = vec.eval(s[None, :])[0]
                assert abs(got - ref) < 1e-6 * max(1.0, abs(ref))


def test_pivot_bookkeeping():
    pairs = zone_basis_with_pivots(2, 4, PAR4)
    for key, vec in pairs:
        assert sum(v for _, v in key) == 2
        assert abs(vec.coefficients.get(key, 0.0)) > 0  # pivot monomial present
