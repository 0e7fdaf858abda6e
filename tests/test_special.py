"""Special-function layer: recurrences against series oracles, quadrature exactness."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from zonekit.special import (flat_hermite_grid, gauss_legendre, hermite_axis, laguerre,
                             multiplicity_factor, tensor_points)


def series_oracle(a, alpha, t):
    """Explicit power series sum_j binom(a+alpha, a-j) (-t)^j / j! in exact arithmetic."""
    tf = Fraction(t).limit_denominator(10**12)
    af = Fraction(alpha).limit_denominator(100)
    total = Fraction(0)
    for j in range(a + 1):
        binom = Fraction(1)
        for i in range(a - j):
            binom *= (af + j + 1 + i) / (i + 1)
        total += binom * (-tf) ** j / math.factorial(j)
    return float(total)


def test_order_zero_is_one():
    assert laguerre(0, 0.0, 5.0) == 1.0
    assert laguerre(0, 3.0, -2.0) == 1.0


def test_order_one_is_affine():
    for t in (-1.0, 0.0, 0.5, 3.0):
        assert laguerre(1, 0.0, t) == pytest.approx(1.0 - t, rel=1e-15)


def test_order_two_value():
    # series oracle gives (t^2 - 4t + 2)/2 = -1 at t = 2
    assert laguerre(2, 0.0, 2.0) == pytest.approx(-1.0, rel=1e-14)
    assert series_oracle(2, 0.0, 2.0) == pytest.approx(-1.0, rel=1e-14)


@pytest.mark.parametrize("a", [0, 1, 3, 7, 15, 30])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 0.5])
def test_recurrence_matches_series(a, alpha):
    for t in (-50.0, -7.25, -0.3, 0.0, 1.0, 12.5, 50.0):
        ref = series_oracle(a, alpha, t)
        got = laguerre(a, alpha, t)
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-10 * max(1.0, abs(ref)))


def test_value_at_zero_is_binomial():
    for a in range(10):
        for alpha in (0, 1, 4):
            assert laguerre(a, float(alpha), 0.0) == pytest.approx(
                math.comb(a + alpha, a), rel=1e-13)


@pytest.mark.parametrize("k", [2, 4])
def test_addition_formula_over_real_axes(k):
    # L_a^(k/2-1)(sum_i t_i) = sum_{|j|=a} prod_i L_(j_i)^(-1/2)(t_i) (A&S 22.12), with t_i
    # spanning lam (u - v)^2 on an order-64 Hermite grid
    t = np.random.default_rng(k).uniform(0.0, 500.0, (k, 200))
    axis = [[laguerre(j, -0.5, ti) for j in range(21)] for ti in t]
    for a in range(21):
        terms = [np.prod([table[ji] for ji, table in zip(j, axis)], axis=0)
                 for j in itertools.product(range(a + 1), repeat=k) if sum(j) == a]
        err = np.abs(np.sum(terms, axis=0) - laguerre(a, k / 2 - 1, t.sum(axis=0)))
        assert np.all(err <= 1e-12 * np.sum(np.abs(terms), axis=0)), a


def test_vectorized_evaluation():
    t = np.linspace(-3, 3, 11)
    vals = laguerre(2, 0.0, t)
    assert vals.shape == t.shape
    assert np.allclose(vals, (t**2 - 4 * t + 2) / 2)


def test_alpha_domain_guard():
    with pytest.raises(ValueError):
        laguerre(2, -1.0, 0.5)
    with pytest.raises(ValueError):
        laguerre(-1, 0.0, 0.5)


def test_multiplicity_factor_table():
    for a in range(6):
        assert multiplicity_factor(a, 2) == 1
    assert multiplicity_factor(0, 8) == 1
    assert multiplicity_factor(1, 4) == 2
    assert multiplicity_factor(2, 4) == 3
    assert multiplicity_factor(3, 6) == math.comb(5, 3)
    with pytest.raises(ValueError):
        multiplicity_factor(-1, 2)
    with pytest.raises(ValueError):
        multiplicity_factor(0, 3)


def test_hermite_rule_moments_exact():
    nodes, weights = hermite_axis(20, 1.0)
    assert len(nodes) == len(weights) == 20
    assert np.all(weights > 0)
    for m in range(0, 19):
        ref = math.gamma(m + 0.5)          # int x^{2m} e^{-x^2} dx
        got = float(np.sum(weights * nodes ** (2 * m)))
        assert got == pytest.approx(ref, rel=1e-12)


def test_legendre_rule_polynomials_exact():
    nodes, weights = gauss_legendre(12, 0.0, 2.0)
    for deg in range(0, 23):
        ref = 2.0 ** (deg + 1) / (deg + 1)
        got = float(np.sum(weights * nodes ** deg))
        assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("dim, orders", [(2, (5, 17, 64)), (4, (5, 12, 36)), (6, (5, 9))])
@pytest.mark.parametrize("lam", [0.4, 1.0, 1.4, 2.5])
def test_flat_hermite_grid_bits_match_pointwise_formula(dim, orders, lam):
    # the axes are the one-axis nodes, the points their tensor product packed
    # to complex coordinates, and the weights every point's product of axis
    # weights times e^{lam |x|^2}
    for order in orders:
        x, w = hermite_axis(order, lam)
        points = np.stack([g.ravel() for g in np.meshgrid(*[x] * dim, indexing="ij")], -1)
        wcols = np.meshgrid(*[w] * dim, indexing="ij")
        ref = (np.prod(np.stack([g.ravel() for g in wcols], axis=-1), axis=-1)
               * np.exp(lam * np.sum(points**2, axis=-1)))
        got_axes, got = flat_hermite_grid(order, lam, dim)
        assert len(got_axes) == dim
        assert all(np.array_equal(ax.view(np.uint64), x.view(np.uint64)) for ax in got_axes)
        got_points = tensor_points(got_axes)
        assert np.array_equal(got_points.real.view(np.uint64), points[:, 0::2].view(np.uint64))
        assert np.array_equal(got_points.imag.view(np.uint64), points[:, 1::2].view(np.uint64))
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("k, orders", [(2, (5, 12, 17, 64)), (4, (5, 12, 17))])
@pytest.mark.parametrize("lam", [0.4, 1.0, 2.5])
def test_hermite_nodes_are_odd_under_index_reversal(k, orders, lam):
    # the preconditions of the sliced Feynman-Kac sweep's mirrored fills:
    # m[N-1-i] == -m[i] exactly (== identifies only the +-0 of a middle node),
    # and reversing every imaginary-part axis (1, 3, ...) maps m to conj(m)
    for order in orders:
        x = hermite_axis(order, lam)[0]
        assert np.array_equal(x, -x[::-1])
        if order % 2:
            assert x[order // 2] == 0.0
        m = tensor_points(flat_hermite_grid(order, lam, k)[0])
        assert m.shape == (order**k, k // 2)
        assert np.array_equal(m, -m[::-1])
        ci = np.flip(np.arange(order**k).reshape((order,) * k), tuple(range(1, k, 2))).ravel()
        assert np.array_equal(m[ci], np.conj(m))
