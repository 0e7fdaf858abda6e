"""Clifford table, two-particle sub-zones, compressed Coulomb operator."""

import itertools
import math

import numpy as np
import pytest

from zonekit.algebra import ZonePolynomial, apply_zeeman, inner_product, norm
from zonekit.extensions import (clifford_dimension, coulomb_inner_product,
                                group_multiplicities, swap_coordinates, symmetrize_subzone,
                                unprojected_coulomb_matrix, zonal_coulomb_matrix)
from zonekit.params import PhysParams
from zonekit.special import hermite_axis
from zonekit.zones import zone_basis

PAR = PhysParams(lam=1.0, k=2)
PAR4 = PhysParams(lam=1.0, k=4)


def test_clifford_examples():
    assert clifford_dimension(1) == (2, 1)
    assert clifford_dimension(3) == (4, 2)
    assert clifford_dimension(8) == (16, 1)
    assert clifford_dimension(7) == (8, 2)
    assert clifford_dimension(12) == (128, 1)
    with pytest.raises(ValueError):
        clifford_dimension(0)


def test_clifford_period_eight():
    for r in range(1, 25):
        n_r, c_r = clifford_dimension(r)
        n_r8, c_r8 = clifford_dimension(r + 8)
        assert n_r8 == 16 * n_r
        assert c_r8 == c_r


def test_symmetrize_examples():
    z1, z2 = ZonePolynomial.z(PAR4, 0), ZonePolynomial.z(PAR4, 1)
    sym = z1 * z2
    assert symmetrize_subzone(sym, "fermionic").is_zero()
    assert norm(symmetrize_subzone(sym, "bosonic") - sym) < 1e-14
    f = symmetrize_subzone(z1, "fermionic")
    assert norm(f - 0.5 * (z1 - z2)) < 1e-14
    with pytest.raises(ValueError):
        symmetrize_subzone(z1, "mixed")
    with pytest.raises(ValueError):
        swap_coordinates(ZonePolynomial.one(PAR))


def test_subzones_invariant_under_hamiltonian():
    rng = np.random.default_rng(30)
    for _ in range(5):
        coeffs = {}
        for _ in range(4):
            key = tuple((int(rng.integers(0, 3)), int(rng.integers(0, 3))) for _ in range(2))
            coeffs[key] = complex(rng.normal(), rng.normal())
        f = ZonePolynomial(coeffs, PAR4)
        for kind in ("bosonic", "fermionic"):
            lhs = symmetrize_subzone(apply_zeeman(f), kind)
            rhs = apply_zeeman(symmetrize_subzone(f, kind))
            assert norm(lhs - rhs) <= 1e-12 * max(norm(f), 1.0)


def test_subzones_orthogonal_and_complete():
    rng = np.random.default_rng(31)
    f = ZonePolynomial({((2, 0), (0, 1)): 1.0, ((1, 1), (1, 0)): 0.5j}, PAR4)
    b = symmetrize_subzone(f, "bosonic")
    fm = symmetrize_subzone(f, "fermionic")
    assert abs(inner_product(b, fm)) < 1e-13
    assert norm(b + fm - f) < 1e-13


def test_coulomb_ground_state_matrix_element():
    basis = zone_basis(0, 0, PAR)
    val = coulomb_inner_product(basis[0], basis[0], 1.0)
    assert val == pytest.approx(math.sqrt(math.pi * PAR.lam), rel=1e-12)


@pytest.mark.parametrize("lam", [0.4, 1.0, 2.5])
def test_coulomb_inner_product_matches_hermite_moments(lam):
    # in polar coordinates the pair z^p zbar^v, z^q zbar^w leaves
    # int_0^inf r^{2n} e^{-lam r^2} 2 pi dr = pi int x^{2n} e^{-lam x^2} dx with n = p + w,
    # which a 40-node Gauss-Hermite rule integrates exactly up to n = 39
    par = PhysParams(lam=lam, k=2)
    x, w = hermite_axis(40, lam)
    for p, v, q, wd in itertools.product(range(11), repeat=4):
        f = ZonePolynomial({((p, v),): 1.0}, par)
        g = ZonePolynomial({((q, wd),): 1.0}, par)
        got = coulomb_inner_product(f, g, 1.0)
        if p - v != q - wd:
            assert got == 0.0
        else:
            assert got == pytest.approx(math.pi * np.sum(w * x ** (2 * (p + wd))), rel=1e-12)


@pytest.mark.parametrize("lam", [0.4, 1.0, 2.5])
def test_inner_product_matches_factorial_moments(lam):
    # the same moment sum with s = 1: pi (p + w)!/lam^(p + w + 1) on the angular class
    # p - v = q - w, up to degree 40, past math.gamma's exact factorial table at 22
    par = PhysParams(lam=lam, k=2)
    for p, v, w in itertools.product(range(21), repeat=3):
        f = ZonePolynomial({((p, v),): 1.0}, par)
        q = p - v + w
        if q >= 0:
            got = inner_product(f, ZonePolynomial({((q, w),): 1.0}, par))
            n = p + w
            assert got == pytest.approx(math.pi * math.factorial(n) / lam ** (n + 1), rel=2e-15)
        assert inner_product(f, ZonePolynomial({((max(q, 0) + 1, w),): 1.0}, par)) == 0.0


def test_coulomb_matrix_is_finite_beyond_the_old_quadrature_overflow():
    # degree 125 and up overflowed the radial quadrature to inf entries
    out = zonal_coulomb_matrix(0, -1.0, 130, PhysParams())
    assert np.all(np.isfinite(out["potential"]))
    assert np.all(np.isfinite(out["eigenvalues"]))


@pytest.mark.parametrize("a", [0, 1, 2])
def test_zonal_coulomb_matrix_is_exactly_diagonal(a):
    # at k = 2 each zone basis holds one element per angular class and 1/r is
    # rotation invariant, so the zone-compressed potential has no off-diagonal
    # entry; the cross-zone truncation couples zones of one angular class
    par = PhysParams(lam=1.3, k=2)
    M = zonal_coulomb_matrix(a, -1.0, 8, par)["potential"]
    assert np.all(M[~np.eye(len(M), dtype=bool)] == 0)
    assert np.all(np.diag(M) != 0)
    C = unprojected_coulomb_matrix(-1.0, a + 1, 4, par)["potential"]
    assert np.any(C[~np.eye(len(C), dtype=bool)] != 0)


def test_coulomb_matrix_hermitian():
    out = zonal_coulomb_matrix(1, -1.0, 8, PAR)
    M = out["potential"]
    assert np.max(np.abs(M - M.conj().T)) < 1e-12
    H = out["hamiltonian"]
    assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_coulomb_free_spectrum():
    out = zonal_coulomb_matrix(0, 0.0, 7, PAR)
    lam = PAR.lam
    ref = np.array([(2 * p + 1) * lam + 4 * lam**2 for p in range(7)])
    assert np.allclose(np.sort(out["eigenvalues"]), ref, atol=1e-12)
    assert np.max(np.abs(out["potential"])) == 0.0


def test_coulomb_eigenvalues_stable_under_basis_growth():
    lo = np.sort(zonal_coulomb_matrix(0, -0.5, 12, PAR)["eigenvalues"])[:3]
    hi = np.sort(zonal_coulomb_matrix(0, -0.5, 16, PAR)["eigenvalues"])[:3]
    assert np.max(np.abs(lo - hi)) < 1e-4


def test_coulomb_basis_size_guard():
    with pytest.raises(ValueError):
        zonal_coulomb_matrix(0, 1.0, 5, PAR4)


def test_multiplicity_grouping():
    groups = group_multiplicities(np.array([1.0, 1.0 + 5e-9, 2.0, 3.0, 3.0, 3.0]))
    assert [c for _, c in groups] == [2, 1, 3]


def test_cross_zone_report_runs():
    out = unprojected_coulomb_matrix(-0.5, 1, 4, PAR)
    assert len(out["eigenvalues"]) == 8
    assert all(c >= 1 for _, c in out["multiplicity_groups"])


def test_zonal_coulomb_matrix_at_charge_sign_minus_one_is_the_conjugate():
    # zone a at -1 is the conjugate of zone a at +1 and 1/r is real, so the potential
    # is conjugated and the spectrum kept
    plus = zonal_coulomb_matrix(1, -1.0, 6, PhysParams(lam=1.3, k=2))
    minus = zonal_coulomb_matrix(1, -1.0, 6, PhysParams(lam=1.3, k=2, charge_sign=-1))
    assert np.allclose(minus["potential"], np.conj(plus["potential"]), rtol=1e-12, atol=0)
    assert np.allclose(minus["eigenvalues"], plus["eigenvalues"], rtol=1e-12, atol=0)
