"""Factored tensor-grid kernels against dense kernel matrices built from the
pointwise closed forms."""

import functools
import math

import numpy as np
import pytest

from zonekit import _factored
from zonekit._factored import diagonal_sum, point_axes, transfer
from zonekit.params import PhysParams
from zonekit.path_measure import _chain_form, cylinder_measure
from zonekit.propagators import global_kernel, zonal_kernel
from zonekit.special import flat_hermite_grid, gauss_legendre, tensor_points
from zonekit.zones import zone_kernel

POINTWISE = {
    "global_wk": lambda a, dt, U, V, p: global_kernel(1, dt, U, V, p),
    "global_df": lambda a, dt, U, V, p: global_kernel(1j, dt, U, V, p),
    "zonal_wk": lambda a, dt, U, V, p: zonal_kernel(1, a, dt, U, V, p),
    "zonal_df": lambda a, dt, U, V, p: zonal_kernel(1j, a, dt, U, V, p),
    "spread_amplitude": lambda a, dt, U, V, p: zone_kernel(a, U, V, p),
}
CASES = [(kind, a) for kind in POINTWISE
         for a in ((None,) if kind.startswith("global") else (0, 1, 2, 5))]
DT = 0.3
# nodes per real axis differ within each grid and between the two grids
SIZES = {2: ((4, 6), (5, 3)), 4: ((3, 4, 2, 3), (2, 3, 4, 3))}


def axes(sizes, lo, hi):
    return [gauss_legendre(n, lo + 0.1 * i, hi - 0.2 * i)[0] for i, n in enumerate(sizes)]


def dense(kind, a, params, U, V):
    return POINTWISE[kind](a, DT, U[:, None, :], V[None, :, :], params)


def close(got, ref):
    return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("charge_sign", [1, -1])
@pytest.mark.parametrize("lam", [0.4, 2.5])
@pytest.mark.parametrize("kind,a", CASES)
def test_factored_matches_dense(kind, a, lam, charge_sign, k):
    params = PhysParams(lam=lam, k=k, charge_sign=charge_sign)
    form = _chain_form(kind, a, params)(DT)
    src, dst = axes(SIZES[k][0], -1.6, 1.3), axes(SIZES[k][1], -1.2, 1.7)
    U, V = tensor_points(src), tensor_points(dst)
    rng = np.random.default_rng(5)
    f = rng.normal(size=len(U)) + 1j * rng.normal(size=len(U))

    got = transfer(f.reshape(SIZES[k][0]), form, params, src, dst)
    assert got.shape == SIZES[k][1]
    assert close(got.ravel(), f @ dense(kind, a, params, U, V))

    X = rng.uniform(-1, 1, (3, k // 2)) + 1j * rng.uniform(-1, 1, (3, k // 2))

    def from_points(form):  # transfer from each one-node grid point_axes(x) to dst
        return np.array([transfer(np.ones((1,) * k), form, params, point_axes(x), dst).ravel()
                         for x in X])

    assert close(from_points(form), dense(kind, a, params, X, V))
    # the swapped form is K(Y, X), taken from the same points
    assert close(from_points(form.swapped()), dense(kind, a, params, V, X).T)

    w = [rng.uniform(0.5, 1.5, len(x)) for x in src]
    ref = np.sum(functools.reduce(np.multiply.outer, w).ravel()
                 * POINTWISE[kind](a, DT, U, U, params))
    assert abs(diagonal_sum(form, src, w) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("lam", [0.4, 1.0])
@pytest.mark.parametrize("kind", ["zonal_wk", "zonal_df", "spread_amplitude"])
@pytest.mark.parametrize("a", [12, 20])
def test_high_zone_on_hermite_grid_matches_dense(a, kind, lam):
    # lam (u - v)^2 reaches 203 on this grid, where a power series in it loses digits
    params = PhysParams(lam=lam, k=2)
    form = _chain_form(kind, a, params)(DT)
    grid = flat_hermite_grid(32, lam, 2)[0]
    U = tensor_points(grid)
    f = np.random.default_rng(a).normal(size=len(U)) + 0j
    got = transfer(f.reshape(32, 32), form, params, grid, grid)
    assert close(got.ravel(), f @ dense(kind, a, params, U, U))


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("a", [0, 2, 5])
def test_transfer_makes_one_pass_per_addition_formula_term(k, a, monkeypatch):
    # C(a+k-1, k-1) products over the k real axes, each one contraction per complex coordinate
    calls, coordinate = [], _factored._coordinate

    def counted(*args):
        calls.append(args[1])
        return coordinate(*args)

    monkeypatch.setattr(_factored, "_coordinate", counted)
    params = PhysParams(lam=0.9, k=k)
    src, dst = axes(SIZES[k][0], -1.6, 1.3), axes(SIZES[k][1], -1.2, 1.7)
    transfer(np.ones(SIZES[k][0]), _chain_form("zonal_wk", a, params)(DT), params, src, dst)
    assert len(calls) == k // 2 * math.comb(a + k - 1, k - 1)


# one node on every axis (a point), or on one complex coordinate next to a grid on the other;
# as a source and as a destination
ONE_NODE = {2: [(1, 1)], 4: [(1, 1, 1, 1), (1, 1, 3, 2), (2, 3, 1, 1)]}


@pytest.mark.parametrize("charge_sign", [1, -1])
@pytest.mark.parametrize("kind", ["zonal_wk", "zonal_df", "spread_amplitude"])
@pytest.mark.parametrize("a", [0, 2])
@pytest.mark.parametrize("k, sizes", [(k, sizes) for k in ONE_NODE
                                      for sizes in ONE_NODE[k]])
def test_point_source_matches_dense(k, sizes, a, kind, charge_sign):
    # a one-node source coordinate is an outer product, not a contraction
    params = PhysParams(lam=0.9, k=k, charge_sign=charge_sign)
    form = _chain_form(kind, a, params)(DT)
    src, dst = axes(sizes, -1.4, 1.5), axes(SIZES[k][1], -1.2, 1.7)
    U, V = tensor_points(src), tensor_points(dst)
    rng = np.random.default_rng(sum(sizes) + a)
    f = rng.normal(size=len(U)) + 1j * rng.normal(size=len(U))
    for kernel in (form, form.swapped()):
        got = transfer(f.reshape(sizes), kernel, params, src, dst)
        ref = f @ (dense(kind, a, params, U, V) if kernel is form
                   else dense(kind, a, params, V, U).T)
        assert got.shape == SIZES[k][1]
        assert close(got.ravel(), ref)


@pytest.mark.parametrize("charge_sign", [1, -1])
@pytest.mark.parametrize("kind", ["zonal_wk", "zonal_df", "spread_amplitude"])
@pytest.mark.parametrize("a", [0, 2])
@pytest.mark.parametrize("k, sizes", [(k, sizes) for k in ONE_NODE
                                      for sizes in ONE_NODE[k]])
def test_point_destination_matches_dense(k, sizes, a, kind, charge_sign):
    # a one-node destination coordinate is two vector products, not a loop
    params = PhysParams(lam=0.9, k=k, charge_sign=charge_sign)
    form = _chain_form(kind, a, params)(DT)
    src, dst = axes(SIZES[k][0], -1.6, 1.3), axes(sizes, -1.4, 1.5)
    U, V = tensor_points(src), tensor_points(dst)
    rng = np.random.default_rng(sum(sizes) + a)
    f = rng.normal(size=len(U)) + 1j * rng.normal(size=len(U))
    for kernel in (form, form.swapped()):
        got = transfer(f.reshape(SIZES[k][0]), kernel, params, src, dst)
        ref = f @ (dense(kind, a, params, U, V) if kernel is form
                   else dense(kind, a, params, V, U).T)
        assert got.shape == sizes
        assert close(got.ravel(), ref)
    # and into point_axes(y), as at the end of a chain
    y = rng.uniform(-1, 1, k // 2) + 1j * rng.uniform(-1, 1, k // 2)
    got = transfer(f.reshape(SIZES[k][0]), form, params, src, point_axes(y))
    assert close(got.ravel(), f @ dense(kind, a, params, U, y[None, :]))


@pytest.mark.parametrize("kind,a", [("zonal_df", 1), ("global_wk", None)])
def test_k4_cylinder_chain_matches_dense_chain(kind, a):
    params = PhysParams(lam=0.7, k=4, charge_sign=-1)
    x, y = np.array([0.3 + 0.2j, -0.1 + 0.4j]), np.array([-0.4 + 0.1j, 0.2 - 0.3j])
    boxes = [[(-2.0, 2.2), (-1.8, 2.0), (-2.1, 1.9), (-2.0, 2.0)],
             [(-1.9, 2.0), (-2.0, 1.8), (-2.0, 2.1), (-1.7, 2.2)]]
    times, T, order = (0.2, 0.45), 0.7, 4
    got = cylinder_measure(kind, times, boxes, x, y, T, params, a=a, order=order)

    kernel = POINTWISE[kind]
    grids = []
    for box in boxes:
        nodes, weights = zip(*(gauss_legendre(order, lo, hi) for lo, hi in box))
        grids.append((tensor_points(nodes),
                      functools.reduce(np.multiply.outer, weights).ravel()))
    (P1, w1), (P2, w2) = grids
    f = kernel(a, 0.2, x[None, :], P1, params) * w1
    f = (f @ kernel(a, 0.25, P1[:, None, :], P2[None, :, :], params)) * w2
    ref = np.sum(f * kernel(a, 0.25, P2, y[None, :], params))
    assert abs(got - ref) <= 1e-12 * abs(ref)
