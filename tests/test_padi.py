"""Spinor machinery: spin matrices, operator action, square identity, anomalous kernels."""

import math

import numpy as np
import pytest

from zonekit.algebra import ZonePolynomial, apply_zeeman, inner_product, norm
from zonekit.padi import (SpinorField, anomalous_kernel, anomalous_zone_kernel, apply_padi,
                          d1, d2, eigenspinors, normalization_report, padi_square_residual,
                          spin_matrices, spinor_inner_product, spinor_norm)
from zonekit.params import PhysParams
from zonekit.special import flat_hermite_grid, tensor_points
from zonekit.zones import zone_basis, zone_kernel

PAR = PhysParams(lam=1.0, k=2)
SQRT2 = math.sqrt(2.0)


def test_spin_matrix_relations():
    s1, s2, s0 = spin_matrices()
    eye = np.eye(2)
    for i, a in enumerate((s1, s2)):
        for j, b in enumerate((s1, s2)):
            anti = a @ b + b @ a
            assert np.allclose(anti, 2.0 * (i == j) * eye, atol=1e-15)
    assert np.allclose(s0 @ s0, eye)
    assert np.allclose(s2, np.conj(s1))


def test_component_operator_examples():
    one = ZonePolynomial.one(PAR)
    z = ZonePolynomial.z(PAR)
    # raw canonically-conjugate operators carry the sqrt(2)
    assert norm(d2(z) - (SQRT2 * (-1 + 1j)) * one) < 1e-14
    assert norm(d1(one) - (-SQRT2 * (1 + 1j) * PAR.lam) * z) < 1e-14


def test_padi_maps_up_to_down():
    f = ZonePolynomial.z(PAR) + 0.5 * ZonePolynomial.zbar(PAR)
    phi = SpinorField(f, ZonePolynomial({}, PAR))
    out = apply_padi(phi, "Z")
    assert out.up.is_zero()
    assert norm(out.down - (1.0 / SQRT2) * d2(f)) < 1e-14


def test_padi_field_variant_adds_diagonal():
    f = ZonePolynomial.z(PAR)
    g = ZonePolynomial.zbar(PAR)
    phi = SpinorField(f, g)
    z_out = apply_padi(phi, "Z")
    zf_out = apply_padi(phi, "Zf")
    assert norm(zf_out.up - z_out.up - 2 * PAR.lam * f) < 1e-14
    assert norm(zf_out.down - z_out.down + 2 * PAR.lam * g) < 1e-14
    with pytest.raises(ValueError):
        apply_padi(phi, "X")


def random_spinor(rng, max_degree=5, params=PAR):
    def poly():
        coeffs = {}
        for _ in range(4):
            p = int(rng.integers(0, max_degree + 1))
            v = int(rng.integers(0, max_degree + 1 - p))
            coeffs[((p, v),)] = complex(rng.normal(), rng.normal())
        return ZonePolynomial(coeffs, params)
    return SpinorField(poly(), poly())


def test_square_identity_exact():
    rng = np.random.default_rng(26)
    for variant in ("Z", "Zf"):
        for _ in range(6):
            phi = random_spinor(rng)
            assert padi_square_residual(phi, variant) <= 1e-12 * spinor_norm(phi)


def test_square_identity_simple_cases():
    one_up = SpinorField(ZonePolynomial.one(PAR), ZonePolynomial({}, PAR))
    assert padi_square_residual(one_up) < 1e-14
    # bottom scalar level of each zone: squared operator annihilates the up spinor
    for a in (0, 1, 3):
        ground = ZonePolynomial.monomial([(0, a)], PAR)
        phi = SpinorField(ground, ZonePolynomial({}, PAR))
        sq = apply_padi(apply_padi(phi, "Z"), "Z")
        assert spinor_norm(sq) <= 1e-13 * norm(ground)


def test_eigenspinors_and_zero_mode():
    for a in (0, 1):
        basis = zone_basis(a, a + 3, PAR)
        for vec in basis:
            nu = inner_product(apply_zeeman(vec), vec).real
            for j in (1, 2):
                mu = nu - PAR.lam if j == 1 else nu + PAR.lam
                for sign in (1, -1):
                    psi, ev = eigenspinors(vec, j, sign)
                    if psi.is_zero():
                        assert mu <= 1e-12
                        continue
                    assert spinor_norm(psi) == pytest.approx(1.0, abs=1e-12)
                    assert ev == pytest.approx(sign * math.sqrt(max(mu, 0.0)), abs=1e-12)
                    res = spinor_norm(apply_padi(psi) - ev * psi)
                    assert res < 1e-10
        ground = basis[0]
        psi_plus, ev = eigenspinors(ground, 1, +1)
        assert ev == 0.0
        assert spinor_norm(psi_plus) == pytest.approx(1.0, abs=1e-13)
        psi_minus, _ = eigenspinors(ground, 1, -1)
        assert psi_minus.is_zero()


def test_eigenspinor_input_validation():
    not_eigen = ZonePolynomial.z(PAR) + ZonePolynomial.zbar(PAR)
    with pytest.raises(ValueError):
        eigenspinors(not_eigen, 1, +1)
    # two zone-0 elements of eigenvalues lam and 3 lam: no eigenfunction at any scale
    e0, e1 = zone_basis(0, 1, PAR)
    with pytest.raises(ValueError, match="not an eigenfunction"):
        eigenspinors(e0 + e1, 1, +1)
    with pytest.raises(ValueError):
        eigenspinors(ZonePolynomial.z(PAR), 3, +1)


def test_normalization_report_half_constant():
    rep = normalization_report(0, PAR)
    for row in rep["rows"]:
        assert row["enforced_Q"] == pytest.approx(1 / math.sqrt(2.0), abs=1e-10)


def test_anomalous_component_formulas():
    rng = np.random.default_rng(27)
    X = rng.uniform(-0.9, 0.9, (6, 1)) + 1j * rng.uniform(-0.9, 0.9, (6, 1))
    Y = rng.uniform(-0.9, 0.9, (6, 1)) + 1j * rng.uniform(-0.9, 0.9, (6, 1))
    lam = PAR.lam
    from zonekit.special import laguerre
    for a in (0, 1, 2):
        for j in (1, 2):
            q = anomalous_kernel(a, j, X, Y, PAR)
            assert np.allclose(q[..., 0, 1], 0.0) and np.allclose(q[..., 1, 0], 0.0)
            pair = np.sum(X * np.conj(Y), axis=-1)
            anti = np.sum(np.conj(X) * Y, axis=-1)
            gauss = np.exp(-0.5 * lam * (np.sum(np.abs(X) ** 2, -1)
                                         + np.sum(np.abs(Y) ** 2, -1)))
            common = laguerre(a, 0.0, lam * np.sum(np.abs(X - Y) ** 2, -1)) * np.exp(lam * pair)
            sgn = 1 if j == 1 else -1
            ref11 = lam / (2 * np.pi) * (common + sgn * (lam * anti) ** a) * gauss
            ref22 = lam / (2 * np.pi) * common * gauss
            assert np.allclose(q[..., 0, 0], ref11, rtol=1e-13)
            assert np.allclose(q[..., 1, 1], ref22, rtol=1e-13)
        # the bottom rank-one terms cancel in the j-sum
        q1 = anomalous_kernel(a, 1, X, Y, PAR)
        q2 = anomalous_kernel(a, 2, X, Y, PAR)
        assert np.allclose(q1[..., 0, 0] + q2[..., 0, 0], 2 * q1[..., 1, 1], rtol=1e-12)
    # zone 0: the 22-component is half the holomorphic point spread
    q0 = anomalous_kernel(0, 1, X, Y, PAR)
    assert np.allclose(q0[..., 1, 1], 0.5 * zone_kernel(0, X, Y, PAR), rtol=1e-13)


def test_anomalous_hermitian_symmetry():
    rng = np.random.default_rng(28)
    X = rng.uniform(-1, 1, (5, 1)) + 1j * rng.uniform(-1, 1, (5, 1))
    Y = rng.uniform(-1, 1, (5, 1)) + 1j * rng.uniform(-1, 1, (5, 1))
    for a in (0, 1, 2):
        for j in (1, 2):
            q_xy = anomalous_kernel(a, j, X, Y, PAR)
            q_yx = anomalous_kernel(a, j, Y, X, PAR)
            assert np.allclose(q_xy, np.conj(np.swapaxes(q_yx, -1, -2)), atol=1e-13)


def test_anomalous_zone_projection_idempotent():
    axes, w = flat_hermite_grid(64, PAR.lam, PAR.k)
    m = tensor_points(axes)
    rng = np.random.default_rng(29)
    X = rng.uniform(-0.7, 0.7, (3, 1)) + 1j * rng.uniform(-0.7, 0.7, (3, 1))
    Y = rng.uniform(-0.7, 0.7, (3, 1)) + 1j * rng.uniform(-0.7, 0.7, (3, 1))
    for a in (0, 1, 2):
        for x0, y0 in zip(X, Y):
            left = anomalous_zone_kernel(a, np.broadcast_to(x0, m.shape), m, PAR)
            right = anomalous_zone_kernel(a, m, np.broadcast_to(y0, m.shape), PAR)
            comp = np.einsum("q,qij,qjk->ik", w, left, right)
            direct = anomalous_zone_kernel(a, x0[None, :], y0[None, :], PAR)[0]
            assert np.max(np.abs(comp - direct)) < 1e-6 * np.max(np.abs(direct))
    # a single Q_(j) block is only a scaled projection: composing halves it
    a = 1
    x0, y0 = X[0], Y[0]
    left = anomalous_kernel(a, 1, np.broadcast_to(x0, m.shape), m, PAR)[..., 1, 1]
    right = anomalous_kernel(a, 1, m, np.broadcast_to(y0, m.shape), PAR)[..., 1, 1]
    comp = np.sum(w * left * right)
    direct = anomalous_kernel(a, 1, x0[None, :], y0[None, :], PAR)[0, 1, 1]
    assert comp == pytest.approx(0.5 * direct, rel=1e-10)


def test_momentum_eigenspinors_lie_in_position_span():
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


def test_spinor_requires_plane():
    par4 = PhysParams(lam=1.0, k=4)
    with pytest.raises(ValueError):
        SpinorField(ZonePolynomial.one(par4), ZonePolynomial.one(par4))


def test_padi_at_charge_sign_minus_one():
    # the generators read the sign, so the square identity, the eigenspinors and the
    # normalization constants carry over to -1 unchanged
    flipped = PhysParams(lam=1.0, k=2, charge_sign=-1)
    rng = np.random.default_rng(30)
    for variant in ("Z", "Zf"):
        for _ in range(6):
            phi = random_spinor(rng, params=flipped)
            assert padi_square_residual(phi, variant) <= 1e-12 * spinor_norm(phi)
    for a in (0, 1):
        for vec, plus in zip(zone_basis(a, a + 3, flipped), zone_basis(a, a + 3, PAR)):
            for j in (1, 2):
                for sign in (1, -1):
                    psi, ev = eigenspinors(vec, j, sign)
                    psi_plus, ev_plus = eigenspinors(plus, j, sign)
                    assert psi.is_zero() == psi_plus.is_zero()
                    assert ev == pytest.approx(ev_plus, rel=1e-13, abs=1e-13)
                    if not psi.is_zero():
                        assert spinor_norm(psi) == pytest.approx(1.0, abs=1e-12)
                        assert spinor_norm(apply_padi(psi) - ev * psi) < 1e-10
        # the bottom level of zone a is the zero mode
        ground = zone_basis(a, a, flipped)[0]
        assert eigenspinors(ground, 1, +1)[1] == 0.0
        assert eigenspinors(ground, 1, -1)[0].is_zero()
    for lam in (0.4, 1.3):
        for a in (0, 1):
            rows = normalization_report(a, PhysParams(lam=lam, k=2, charge_sign=-1))["rows"]
            ref = normalization_report(a, PhysParams(lam=lam, k=2))["rows"]
            assert len(rows) == len(ref)
            for row, want in zip(rows, ref):
                assert row == pytest.approx(want, rel=1e-13)
    assert np.all(np.isfinite(anomalous_kernel(1, 1, [[0.3j]], [[0.2]], flipped)))


@pytest.mark.parametrize("zone", [15, 20])
def test_padi_accepts_high_zones(tmp_path, zone):
    # the rounding of a closed-form element grows with its eigenvalue: relative to |b| it
    # is 1.7e-10 at zone 15 and 4.1e-10 at zone 20, beyond a fixed 1e-10 |b|
    from zonekit.cli import main
    assert main(["padi", "--zones", str(zone), "--outdir", str(tmp_path)]) == 0
    rows = (tmp_path / "padi_spectrum.csv").read_text().splitlines()
    assert len(rows) == 1 + 5 * 4  # pmax 4: five elements, two slots and two signs each
