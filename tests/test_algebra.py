"""Exact Gaussian-weighted algebra: inner products, operators, serialization."""

import json
import math

import numpy as np
import pytest

from zonekit.algebra import (ZonePolynomial, apply_rep, apply_zeeman, inner_product, norm,
                             to_standard)
from zonekit.extensions import coulomb_inner_product
from zonekit.params import PhysParams
from zonekit.special import hermite_axis

PAR = PhysParams(lam=1.0, k=2)
PAR4 = PhysParams(lam=1.0, k=4)
FLIPPED = PhysParams(lam=1.3, k=2, charge_sign=-1)


def disk_quadrature(fun, lam, order=120, rmax=9.0):
    """Polar-coordinate oracle for int f(z) e^{-lam |z|^2} dA over the plane."""
    from zonekit.special import gauss_legendre
    rad, wrad = gauss_legendre(order, 0.0, rmax)
    ang, wang = gauss_legendre(order, 0.0, 2 * math.pi)
    total = 0.0 + 0.0j
    for r, wr in zip(rad, wrad):
        z = r * np.exp(1j * ang)
        total += wr * r * math.exp(-lam * r * r) * np.sum(wang * fun(z))
    return total


def test_inner_product_constant_is_pi():
    one = ZonePolynomial.one(PAR)
    ref = disk_quadrature(lambda z: np.ones_like(z), 1.0)
    assert inner_product(one, one) == pytest.approx(math.pi, rel=1e-12)
    assert ref.real == pytest.approx(math.pi, rel=1e-10)


def test_inner_product_angular_selection():
    z = ZonePolynomial.z(PAR)
    zb = ZonePolynomial.zbar(PAR)
    assert inner_product(z, zb) == 0
    assert inner_product(z, z) == pytest.approx(math.pi, rel=1e-12)
    # polar oracle pi * 1! / lam^2
    ref = disk_quadrature(lambda w: w * np.conj(w), 1.0)
    assert ref.real == pytest.approx(math.pi, rel=1e-10)


def test_inner_product_conjugate_symmetric():
    rng = np.random.default_rng(0)
    for params in (PAR, PAR4):
        for _ in range(5):
            f = random_poly(rng, params)
            g = random_poly(rng, params)
            assert inner_product(f, g) == pytest.approx(
                np.conj(inner_product(g, f)), rel=1e-13)


def random_poly(rng, params, max_degree=4, n_terms=4):
    coeffs = {}
    for _ in range(n_terms):
        key = []
        budget = max_degree
        for _ in range(params.m):
            p = int(rng.integers(0, budget + 1))
            v = int(rng.integers(0, budget - p + 1))
            budget -= p + v
            key.append((p, v))
        coeffs[tuple(key)] = complex(rng.normal(), rng.normal())
    return ZonePolynomial(coeffs, params)


def test_constructor_refuses_malformed_keys_and_every_result_drops_zeros():
    with pytest.raises(ValueError, match="does not match k=2"):
        ZonePolynomial({((1, 0), (0, 1)): 1.0}, PAR)
    with pytest.raises(ValueError, match="negative exponent"):
        ZonePolynomial({((0, -1),): 1.0}, PAR)
    f = ZonePolynomial({((1, 0),): 2, ((0, 1),): 0}, PAR)
    assert f.coefficients == {((1, 0),): 2} and type(f.coefficients[((1, 0),)]) is complex
    # sums, scalings and products hold their coefficients the same way
    assert (f - f).coefficients == {} and (0 * f).coefficients == {}
    for g in (f + f, 3 * f, f * f, apply_rep("zbar", f)):
        assert all(type(c) is complex and c != 0 for c in g.coefficients.values())


def test_parameter_mismatch_rejected():
    f = ZonePolynomial.one(PAR)
    g = ZonePolynomial.one(PhysParams(lam=2.0, k=2))
    with pytest.raises(ValueError):
        inner_product(f, g)
    with pytest.raises(ValueError):
        coulomb_inner_product(f, g, 1.0)


def test_to_standard_gaussian_ground_state():
    wave = to_standard(ZonePolynomial.one(PAR))
    pts = np.array([[0.0 + 0.0j], [1.0 + 1.0j], [0.5 - 0.2j]])
    r2 = np.sum(np.abs(pts) ** 2, axis=-1)
    assert np.allclose(wave(pts), np.exp(-0.5 * r2))


def test_to_standard_norm_agreement():
    # 2D Gauss-Hermite oracle for the standard-space L2 norm
    f = ZonePolynomial.z(PAR) + 0.3 * ZonePolynomial.zbar(PAR)
    x, wx = hermite_axis(60, 1.0)
    wave = to_standard(f)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    pts = (xx + 1j * yy).reshape(-1, 1)
    vals = np.abs(wave(pts)) ** 2 * np.exp(np.sum(pts.real**2 + pts.imag**2, axis=-1))
    w2 = np.outer(wx, wx).ravel()
    std_norm2 = float(np.sum(w2 * vals))
    assert std_norm2 == pytest.approx(norm(f) ** 2, rel=1e-10)


def test_serialization_round_trip():
    rng = np.random.default_rng(1)
    for params in (PAR, PAR4):
        f = random_poly(rng, params)
        g = ZonePolynomial.from_records(json.loads(f.to_json()), params)
        assert norm(f - g) == 0.0


# ---- Zeeman operator ----------------------------------------------------------


def test_pure_monomials_are_exact_eigenvectors():
    lam = PAR.lam
    for p, v in [(0, 0), (1, 0), (0, 1), (3, 0), (0, 4)]:
        f = ZonePolynomial.monomial([(p, v)], PAR)
        out = apply_zeeman(f, include_field_term=True)
        mu = (2 * p + 1) * lam + 4 * lam * lam
        assert norm(out - mu * f) <= 1e-12 * mu * norm(f)


def test_field_term_examples():
    # worked eigenvalues at k=2, lam=1: 1 -> lam + 4 lam^2, z -> 3 lam + 4 lam^2
    one = ZonePolynomial.one(PAR)
    z = ZonePolynomial.z(PAR)
    zb = ZonePolynomial.zbar(PAR)
    assert norm(apply_zeeman(one, True) - 5.0 * one) < 1e-14
    assert norm(apply_zeeman(z, True) - 7.0 * z) < 1e-14
    assert norm(apply_zeeman(zb, True) - 5.0 * zb) < 1e-14


def test_mixed_monomial_sheds_cross_term():
    # z zbar is not an eigenvector: H(z zbar) = 3 lam z zbar - 2; the zone-1
    # eigenfunction is z zbar - 1/lam
    f = ZonePolynomial.z(PAR) * ZonePolynomial.zbar(PAR)
    out = apply_zeeman(f)
    expected = 3.0 * f - 2.0 * ZonePolynomial.one(PAR)
    assert norm(out - expected) < 1e-14
    eig = f - ZonePolynomial.one(PAR)
    assert norm(apply_zeeman(eig) - 3.0 * eig) < 1e-14


def test_zeeman_matches_finite_differences():
    # the standard-space operator's angular term carries the charge sign s.  The
    # central differences err by O(h^2): at h = 1e-3 that is 6.9e-7 at +1 and 1.2e-6
    # at -1, at h = 5e-4 a quarter of it; a wrong Zeeman grade errs by O(1)
    for s in (1, -1):
        params = PhysParams(lam=1.0, k=2, charge_sign=s)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, (8, 1)) + 1j * rng.uniform(-1, 1, (8, 1))
        h = 5e-4
        for _ in range(3):
            f = random_poly(rng, params, max_degree=3)
            psi = to_standard(f)

            def ev(dx, dy):
                return psi(pts + (dx + 1j * dy))

            lap = (ev(h, 0) + ev(-h, 0) + ev(0, h) + ev(0, -h) - 4 * ev(0, 0)) / h**2
            fx = (ev(h, 0) - ev(-h, 0)) / (2 * h)
            fy = (ev(0, h) - ev(0, -h)) / (2 * h)
            x, y = pts[..., 0].real, pts[..., 0].imag
            fd = -0.5 * lap - 1j * s * (-y * fx + x * fy) \
                + 0.5 * np.abs(pts[..., 0]) ** 2 * ev(0, 0)
            alg = to_standard(apply_zeeman(f))(pts)
            assert np.max(np.abs(alg - fd)) / np.max(np.abs(alg)) < 1e-6


def test_zeeman_hermitian():
    rng = np.random.default_rng(3)
    for params in (PAR, PAR4):
        for _ in range(4):
            f = random_poly(rng, params)
            g = random_poly(rng, params)
            assert inner_product(apply_zeeman(f), g) == pytest.approx(
                inner_product(f, apply_zeeman(g)), rel=1e-12)


def test_unsupported_dimension_rejected():
    with pytest.raises(ValueError):
        ZonePolynomial.monomial([(0, 0)] * 3, PhysParams(lam=1.0, k=6))


# ---- Heisenberg representation ------------------------------------------------------


def test_rep_generators():
    # at charge_sign -1 z and zbar trade places: rho(zbar) = d/dzbar, rho(z) = lam zbar - d/dz
    for par, hol, anti in ((PAR, ZonePolynomial.z, ZonePolynomial.zbar),
                           (FLIPPED, ZonePolynomial.zbar, ZonePolynomial.z)):
        z, zb, one = hol(par), anti(par), ZonePolynomial.one(par)
        assert norm(apply_rep("zbar", z) - one) == 0.0
        assert norm(apply_rep("z", one) - par.lam * z) == 0.0
        assert norm(apply_rep("z", zb) - (par.lam * z * zb - one)) == 0.0
        assert apply_rep("zbar", zb).is_zero()
        with pytest.raises(IndexError):
            apply_rep("z", one, i=1)
        with pytest.raises(ValueError):
            apply_rep("w", one)


def test_rep_commutator_is_scalar():
    for par in (PAR, FLIPPED):
        f = ZonePolynomial.monomial([(2, 1)], par)       # z^2 zbar
        comm = apply_rep("zbar", apply_rep("z", f)) - apply_rep("z", apply_rep("zbar", f))
        assert norm(comm - par.lam * f) < 1e-14
        for p in range(5):
            for v in range(5):
                g = ZonePolynomial.monomial([(p, v)], par)
                comm = apply_rep("zbar", apply_rep("z", g)) - apply_rep("z", apply_rep("zbar", g))
                assert norm(comm - par.lam * g) <= 1e-12 * norm(g)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysParams(lam=0.0)
    with pytest.raises(ValueError):
        PhysParams(lam=1.0, k=3)
    with pytest.raises(ValueError):
        PhysParams(lam=1.0, k=2, charge_sign=0)
    par6 = PhysParams(lam=1.0, k=6)
    assert par6.m == 3
    with pytest.raises(ValueError):
        par6.require_algebra_dim()


# ---- bit-for-bit references ----------------------------------------------------
# The all-pairs moment sum and the repeated `+` accumulation that the class-indexed
# `_moment_sum` and `_linear_combination` replace: every result must keep their bits,
# terms in the same order, keys in the same order and signed zeros as they were.

BIT_PARAMS = [PhysParams(lam=lam, k=k, charge_sign=s)
              for k in (2, 4) for lam in (0.4, 1.0, 2.5) for s in (1, -1)]


def _reference_moment_sum(f, g, s):
    total = 0.0 + 0.0j
    for kf, cf in f.coefficients.items():
        for kg, cg in g.coefficients.items():
            prod = 1.0
            for (p, v), (q, w) in zip(kf, kg):
                prod *= (math.pi * math.gamma(p + w + s) / f.params.lam ** (p + w + s)
                         if p - v == q - w else 0.0)
                if prod == 0.0:
                    break
            if prod:
                total += cf * np.conj(cg) * prod
    return complex(total)


def _reference_sum(terms, params):
    out = ZonePolynomial({}, params)
    for c, vec in terms:
        out = out + c * vec
    return out


def _reference_evolve(f, sigma, t, params, include_field_term=False):
    from zonekit.propagators import infer_zone
    from zonekit.zones import zone_basis
    sigma, out = complex(sigma), ZonePolynomial({}, params)  # as `evolve` checks it
    for vec in zone_basis(infer_zone(f), f.max_degree(), params):
        c = _reference_moment_sum(f, vec, 1)
        if c == 0:
            continue
        mu = params.zeeman_eigenvalue(vec.zeeman_degree(), include_field_term)
        out = out + (c * np.exp(-sigma * t * mu)) * vec
    return out


def _reference_apply_rep(generator, f, i):
    from zonekit.algebra import grades
    par, out = f.params, {}
    for key, c in f.coefficients.items():
        g, a = grades(key[i:i + 1], par)
        if generator == "zbar":
            terms = [((g - 1, a), g * c)] if g else []
        else:
            terms = [((g, a - 1), -a * c)] if a else []
            terms.append(((g + 1, a), par.lam * c))
        for ga, d in terms:
            new = key[:i] + (grades((ga,), par),) + key[i + 1:]
            out[new] = out.get(new, 0.0) + d
    return ZonePolynomial._of_valid_keys(out, par)


def _bits(c: complex):
    return complex(c).real.hex(), complex(c).imag.hex()


def assert_same_bits(got, want):
    if isinstance(got, ZonePolynomial):
        assert list(got.coefficients) == list(want.coefficients)  # the same keys, in order
        for key, c in got.coefficients.items():
            assert _bits(c) == _bits(want.coefficients[key]), key
    else:
        assert got == want and _bits(got) == _bits(want)


def _bit_poly(rng, params, n_terms=14, max_degree=7):
    """Keys in random order, crowded into few angular classes so that each class has
    several members; coefficients of mixed magnitude, some real with a -0.0 imaginary
    part and some the negatives of earlier ones, so that partial sums cancel."""
    coeffs = {}
    while len(coeffs) < n_terms:
        key = []
        for _ in range(params.m):
            v = int(rng.integers(0, max_degree // params.m))
            key.append((max(v + int(rng.integers(-1, 2)), 0), v))
        kind = rng.integers(4)
        if kind == 0 and coeffs:
            c = -list(coeffs.values())[int(rng.integers(len(coeffs)))]
        elif kind == 1:
            c = complex(rng.normal() * 10.0 ** rng.integers(-3, 4), -0.0)
        else:
            c = complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-3, 4)
        coeffs.setdefault(tuple(key), c)
    return ZonePolynomial(coeffs, params)


@pytest.mark.parametrize("params", BIT_PARAMS, ids=str)
def test_moment_sums_keep_the_all_pairs_bits(params):
    from zonekit.algebra import _moment_sum
    rng = np.random.default_rng([params.k, int(10 * params.lam), params.charge_sign + 1])
    for _ in range(12):
        f, g = _bit_poly(rng, params), _bit_poly(rng, params)
        assert_same_bits(inner_product(f, g), _reference_moment_sum(f, g, 1))
        assert_same_bits(inner_product(f, f), _reference_moment_sum(f, f, 1))
        want = math.sqrt(max(_reference_moment_sum(f, f, 1).real, 0.0))
        assert norm(f).hex() == want.hex()
        if params.k == 2:  # the Coulomb moments, s = 1/2
            assert_same_bits(_moment_sum(f, g, 0.5), _reference_moment_sum(f, g, 0.5))


@pytest.mark.parametrize("params", BIT_PARAMS, ids=str)
def test_linear_combination_keeps_the_repeated_sum_bits(params):
    from zonekit.algebra import _linear_combination
    rng = np.random.default_rng(7 + params.k)
    for _ in range(8):
        vecs = [_bit_poly(rng, params, n_terms=6) for _ in range(4)]
        # scalars that undo earlier terms, so running sums reach 0 and keys come back
        terms = [(complex(rng.normal(), rng.normal()), vec) for vec in vecs]
        terms += [(-c, vec) for c, vec in terms[:2]] + terms[:1]
        terms += [(complex(1.0, -0.0), vecs[3]), (0.0, vecs[2]), (-1.0, vecs[3]), (1.0, vecs[3])]
        # keys met once, by a product with a -0.0 imaginary part: the sum from zero makes
        # it +0.0
        fresh = ZonePolynomial({((20, 20),) * params.m: complex(2.0, -0.0),
                                ((21, 20),) * params.m: complex(-3.0, -0.0)}, params)
        terms.append((complex(1.0, -0.0), fresh))
        assert_same_bits(_linear_combination(terms, params), _reference_sum(terms, params))
        assert _linear_combination([], params).is_zero()


@pytest.mark.parametrize("params", BIT_PARAMS, ids=str)
def test_evolve_and_generators_keep_their_bits(params):
    from zonekit.propagators import evolve
    from zonekit.zones import zone_basis
    rng = np.random.default_rng(11 + params.k)
    for a in (0, 1, 2):
        basis = zone_basis(a, a + 3, params)
        picks = rng.choice(len(basis), size=min(4, len(basis)), replace=False)
        f = _reference_sum([(complex(rng.normal(), rng.normal()), basis[i]) for i in picks],
                           params)
        for sigma, t in ((1, 0.3), (1j, 0.8), (1j, 0.0)):
            for field in (False, True):
                assert_same_bits(evolve(f, sigma, t, params, include_field_term=field),
                                 _reference_evolve(f, sigma, t, params, field))
    g = _bit_poly(rng, params)
    for i in range(params.m):
        for generator in ("z", "zbar"):
            assert_same_bits(apply_rep(generator, g, i), _reference_apply_rep(generator, g, i))


@pytest.mark.parametrize("params", BIT_PARAMS[:2] + BIT_PARAMS[6:8], ids=str)
def test_eval_keeps_the_per_monomial_bits(params):
    rng = np.random.default_rng(3)
    f = _bit_poly(rng, params)
    pts = rng.normal(size=(5, 3, params.m)) + 1j * rng.normal(size=(5, 3, params.m))
    want = np.zeros(pts.shape[:-1], dtype=complex)
    for key, c in f.coefficients.items():
        term = c
        for z, (p, v) in zip(np.moveaxis(pts, -1, 0), key):
            if p:
                term = term * z ** p
            if v:
                term = term * np.conj(z) ** v
        want += term
    got = f.eval(pts)
    assert got.tobytes() == want.tobytes()
