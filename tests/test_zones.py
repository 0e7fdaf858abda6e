"""Zone bases, projections, and the closed-form projection kernels."""

import itertools
import math

import numpy as np
import pytest

from zonekit.algebra import ZonePolynomial, apply_zeeman, inner_product, norm, to_standard
from zonekit.params import PhysParams
from zonekit.propagators import infer_zone
from zonekit.special import flat_hermite_grid, laguerre, tensor_points
from zonekit.zones import (kernel_basis_residual, pairing, project_to_zone, zone_basis,
                           zone_basis_with_pivots, zone_kernel)

PAR = PhysParams(lam=1.0, k=2)
PAR4 = PhysParams(lam=1.0, k=4)
FLIPPED = PhysParams(lam=1.0, k=2, charge_sign=-1)

# one coordinate's zone degree at each charge sign, written out here rather than taken
# from algebra.grades, so the oracle below does not share it with zone_basis
ZONE_DEGREE = {1: lambda p, v: v, -1: lambda p, v: p}


@pytest.mark.parametrize("field_term", [False, True])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("lam", [0.4, 2.5])
def test_zeeman_eigenvalue_matches_operator(lam, k, field_term):
    for charge_sign in (1, -1):
        params = PhysParams(lam=lam, k=k, charge_sign=charge_sign)
        for a in range(3):
            for vec in zone_basis(a, a + 3, params):
                mu = params.zeeman_eigenvalue(vec.zeeman_degree(), field_term)
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


def _gram_schmidt_basis(a, max_degree, params, zone):
    """Reference zone basis: modified Gram-Schmidt over the exact inner product.

    `zone(p, v)` is one coordinate's zone degree, and p + v - zone(p, v) its Zeeman
    grade.  Monomials of different angular classes (grade - zone in each coordinate)
    are orthogonal, so each class is orthogonalized alone, along its chain ordered by
    zone degree, then total degree, then key; the elements whose pivot has zone
    degree a form the zone, ordered by their grades.
    """
    def split(key):  # per-coordinate (grade, zone degree)
        return [(p + v - zone(p, v), zone(p, v)) for p, v in key]

    chains = {}
    for key in itertools.product(itertools.product(range(max_degree + 1), repeat=2),
                                 repeat=params.m):
        if sum(p + v for p, v in key) <= max_degree and sum(z for _, z in split(key)) <= a:
            chains.setdefault(tuple(g - z for g, z in split(key)), []).append(key)
    basis = []
    for mclass in sorted(chains):
        chain = sorted(chains[mclass], key=lambda key: (
            sum(z for _, z in split(key)), sum(p + v for p, v in key), key))
        done = []
        for key in chain:
            vec = ZonePolynomial.monomial(key, params)
            for e in done:
                vec = vec - inner_product(vec, e) * e
            vec = (1.0 / norm(vec)) * vec
            done.append(vec)
            if sum(z for _, z in split(key)) == a:
                basis.append((key, vec))
    basis.sort(key=lambda kv: (sum(g for g, _ in split(kv[0])),
                               tuple(g for g, _ in split(kv[0]))))
    return basis


@pytest.mark.parametrize("lam, k, max_degree", [(0.4, 2, 12), (1.3, 2, 12), (2.5, 2, 12),
                                                 (1.0, 4, 9)])
def test_closed_form_basis_matches_gram_schmidt(lam, k, max_degree):
    for charge_sign, zone in ZONE_DEGREE.items():
        params = PhysParams(lam=lam, k=k, charge_sign=charge_sign)
        for a in range(4):
            got = zone_basis_with_pivots(a, max_degree, params)
            ref = _gram_schmidt_basis(a, max_degree, params, zone)
            assert [key for key, _ in got] == [key for key, _ in ref]
            for (_, vec), (_, want) in zip(got, ref):
                scale = max(abs(c) for c in want.coefficients.values())
                diff = vec - want
                assert max(map(abs, diff.coefficients.values()), default=0.0) <= 1e-12 * scale


def _both_signs():
    return (PhysParams(lam=lam, k=k, charge_sign=s)
            for lam in (0.4, 1.0, 2.5) for k in (2, 4) for s in (1, -1))


def test_cross_zone_orthogonality():
    for params in _both_signs():
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
    for params in _both_signs():
        basis = zone_basis(1, 4, params)
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                ref = 1.0 if i == j else 0.0
                assert abs(inner_product(bi, bj) - ref) < 1e-12


def test_truncation_guard():
    with pytest.raises(ValueError):
        zone_basis(3, 2, PAR)


def test_zones_at_charge_sign_minus_one_are_the_conjugates():
    # the Zeeman grade is |V| at -1: zbar^n spans zone 0, z lies in zone 1
    z, zb = ZonePolynomial.z(FLIPPED), ZonePolynomial.zbar(FLIPPED)
    for n, vec in enumerate(zone_basis(0, 5, FLIPPED)):
        mono = ZonePolynomial.monomial([(0, n)], FLIPPED)
        assert norm(vec - (1.0 / norm(mono)) * mono) < 1e-12
    assert norm(project_to_zone(zb, 0) - zb) < 1e-13
    assert project_to_zone(z, 0).is_zero()
    assert infer_zone(z) == 1 and infer_zone(zb) == 0
    with pytest.raises(ValueError, match="single zone"):
        infer_zone(z + zb)
    # element i of zone a at -1 is the conjugate of element i at +1 (H_{v,p} = conj H_{p,v})
    for k in (2, 4):
        for a in range(3):
            plus = zone_basis(a, a + 3, PhysParams(lam=0.7, k=k))
            minus = zone_basis(a, a + 3, PhysParams(lam=0.7, k=k, charge_sign=-1))
            assert len(plus) == len(minus)
            for vp, vm in zip(plus, minus):
                mirror = {tuple((v, p) for p, v in key): c.conjugate()
                          for key, c in vp.coefficients.items()}
                assert mirror.keys() == vm.coefficients.keys()
                assert all(abs(vm.coefficients[key] - c) <= 1e-14 * abs(c)
                           for key, c in mirror.items())


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


@pytest.mark.parametrize("charge_sign", [1, -1])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("lam", [0.4, 2.5])
def test_zone_zero_kernel_skips_laguerre_bit_for_bit(lam, k, charge_sign):
    # zone 0 uses L_0 = 1 without computing distances; the explicit formula
    # with laguerre(0, ...) must give the same bits, also when broadcasting.  The
    # exponent is formed in the kernels' one order, lam (q Z.Wbar - (|Z|^2 + |W|^2)/2),
    # here with q = 1
    params = PhysParams(lam=lam, k=k, charge_sign=charge_sign)
    rng = np.random.default_rng(17)
    Z = rng.uniform(-1, 1, (7, k // 2)) + 1j * rng.uniform(-1, 1, (7, k // 2))
    W = rng.uniform(-1, 1, (5, k // 2)) + 1j * rng.uniform(-1, 1, (5, k // 2))
    for Zb, Wb in ((Z[:5], W), (Z[:, None, :], W[None, :, :])):
        lag = laguerre(0, k / 2 - 1, lam * np.sum(np.abs(Zb - Wb) ** 2, axis=-1))
        expo = pairing(Zb, Wb, params) - 0.5 * (np.sum(np.abs(Zb) ** 2, axis=-1)
                                                + np.sum(np.abs(Wb) ** 2, axis=-1))
        ref = (lam / np.pi) ** (k / 2) * lag * np.exp(lam * expo)
        got = zone_kernel(0, Zb, Wb, params)
        assert np.array_equal(got, ref)


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
    # at -1 the closed form conjugates its pairing and the basis its polynomials
    rng = np.random.default_rng(10)
    Z = rng.uniform(-0.7, 0.7, (6, 1)) + 1j * rng.uniform(-0.7, 0.7, (6, 1))
    W = rng.uniform(-0.7, 0.7, (6, 1)) + 1j * rng.uniform(-0.7, 0.7, (6, 1))
    for params, a in itertools.product((PAR, FLIPPED), (0, 1, 2)):
        res25 = kernel_basis_residual(a, 25, Z, W, params)
        assert res25 < 1e-8
        res0 = kernel_basis_residual(a, 0, Z, W, params)
        assert res0 == pytest.approx(float(np.max(np.abs(zone_kernel(a, Z, W, params)))))
        last = res0
        for n in (5, 10, 15, 20, 25):
            cur = kernel_basis_residual(a, n, Z, W, params)
            assert cur <= last + 1e-15
            last = cur


def test_reproducing_property_quadrature():
    axes, w = flat_hermite_grid(64, PAR.lam, PAR.k)
    zpts = tensor_points(axes)
    rng = np.random.default_rng(11)
    samples = rng.uniform(-0.8, 0.8, (4, 1)) + 1j * rng.uniform(-0.8, 0.8, (4, 1))
    # the standard-space identity int K(x, w) psi(w) dw = psi(x), psi = to_standard(vec)
    for a in (0, 1, 2):
        for vec in zone_basis(a, a + 2, PAR):
            psi = to_standard(vec)
            vals = psi(zpts)
            for s in samples:
                got = np.sum(w * zone_kernel(a, s[None, :], zpts, PAR) * vals)
                ref = psi(s[None, :])[0]
                assert abs(got - ref) < 1e-6 * max(1.0, abs(ref))


def test_pivot_bookkeeping():
    pairs = zone_basis_with_pivots(2, 4, PAR4)
    for key, vec in pairs:
        assert sum(v for _, v in key) == 2
        assert abs(vec.coefficients.get(key, 0.0)) > 0  # pivot monomial present
