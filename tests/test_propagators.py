"""Closed-form propagator kernels, partition functions, spectral flow."""

import errno
import itertools
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from test_algebra import random_poly

from zonekit import propagators
from zonekit._factored import point_axes, transfer
from zonekit.algebra import ZonePolynomial, apply_zeeman, inner_product, norm, to_standard
from zonekit.params import PhysParams
from zonekit.propagators import (KernelGrid, SingularTimeError, _convolve, _zonal_form, evolve,
                                 evolve_by_convolution, field_term_multiplier, global_kernel,
                                 infer_zone, partition_function, partition_function_trace,
                                 semigroup_residual, zonal_kernel, zonal_kernel_spectral)
from zonekit.zones import pairing, zone_basis, zone_kernel

PAR = PhysParams(lam=1.0, k=2)
PAR4 = PhysParams(lam=1.0, k=4)


def test_global_heat_diagonal():
    for params in (PAR, PAR4):
        lam, k = params.lam, params.k
        X = np.array([[0.4 - 0.7j] * (k // 2)])
        for t in (0.2, 1.0):
            ref = (lam / (2 * math.pi * math.sinh(lam * t))) ** (k / 2)
            got = global_kernel(1, t, X, X, params)[0]
            assert got == pytest.approx(ref, rel=1e-13)
            assert got.imag == pytest.approx(0.0, abs=1e-15)
            assert got.real > 0


def test_global_heat_long_time_decay():
    X = np.array([[0.3 + 0.1j]])
    Y = np.array([[-0.2 + 0.4j]])
    vals = [abs(global_kernel(1, t, X, Y, PAR)[0]) for t in (1.0, 5.0, 15.0, 40.0)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 1e-15


def test_global_df_singular_times():
    X = np.array([[0.0 + 0.0j]])
    with pytest.raises(SingularTimeError):
        global_kernel(1j, math.pi / PAR.lam, X, X, PAR)
    with pytest.raises(ValueError):
        global_kernel(1, -0.5, X, X, PAR)


def test_zonal_kernel_reduces_to_point_spread_at_zero_time():
    # both kernels are one closed form, so at t = 0 they agree bit for bit
    rng = np.random.default_rng(12)
    for lam, k, charge_sign in itertools.product((0.4, 1.0, 2.5), (2, 4), (1, -1)):
        params = PhysParams(lam=lam, k=k, charge_sign=charge_sign)
        m = params.m
        X = rng.uniform(-1, 1, (5, m)) + 1j * rng.uniform(-1, 1, (5, m))
        Z = rng.uniform(-1, 1, (5, m)) + 1j * rng.uniform(-1, 1, (5, m))
        for a in (0, 1, 2):
            for sigma in (1, 1j):
                assert np.array_equal(zonal_kernel(sigma, a, 0.0, X, Z, params),
                                      zone_kernel(a, X, Z, params))


def test_zonal_df_phase_identity():
    # d_i^(a) = e^{-k lam t i/2} e^{lam (e^{-2 lam t i} - 1) X.Zbar} delta^(a)(X,Z)
    rng = np.random.default_rng(13)
    for params in (PAR, PAR4):
        m, lam, k = params.m, params.lam, params.k
        X = rng.uniform(-1, 1, (4, m)) + 1j * rng.uniform(-1, 1, (4, m))
        Z = rng.uniform(-1, 1, (4, m)) + 1j * rng.uniform(-1, 1, (4, m))
        for a in (0, 2):
            for t in (0.3, 1.7):
                q = np.exp(-2j * lam * t)
                ref = (np.exp(-0.5j * k * lam * t)
                       * np.exp(lam * (q - 1.0) * pairing(X, Z, params))
                       * zone_kernel(a, X, Z, params))
                got = zonal_kernel(1j, a, t, X, Z, params)
                assert np.allclose(got, ref, rtol=1e-12)


def test_zone_zero_kernel_matches_spectral_sum():
    # at charge_sign -1 the closed form takes its sign from the pairing and the
    # spectral sum from the zone basis, two independent places
    rng = np.random.default_rng(14)
    X = rng.uniform(-1, 1, (4, 1)) + 1j * rng.uniform(-1, 1, (4, 1))
    Z = rng.uniform(-1, 1, (4, 1)) + 1j * rng.uniform(-1, 1, (4, 1))
    for params, sigma in itertools.product((PAR, PhysParams(lam=1.0, k=2, charge_sign=-1)),
                                           (1, 1j)):
        ref = zonal_kernel(sigma, 0, 0.5, X, Z, params)
        for pmax, tol in ((10, 1e-4), (25, 1e-10), (40, 1e-13)):
            got = zonal_kernel_spectral(sigma, 0, 0.5, X, Z, params, pmax=pmax)
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert err < tol


def test_field_term_multiplier_sign():
    # the field-augmented spectral flow equals the bare one times e^{-2 k lam^2 sigma t}
    rng = np.random.default_rng(15)
    X = rng.uniform(-0.6, 0.6, (3, 1)) + 1j * rng.uniform(-0.6, 0.6, (3, 1))
    Z = rng.uniform(-0.6, 0.6, (3, 1)) + 1j * rng.uniform(-0.6, 0.6, (3, 1))
    for sigma in (1, 1j):
        bare = zonal_kernel_spectral(sigma, 0, 0.4, X, Z, PAR, pmax=36)
        aug = zonal_kernel_spectral(sigma, 0, 0.4, X, Z, PAR, pmax=36,
                                    include_field_term=True)
        mult = field_term_multiplier(sigma, 0.4, PAR)
        assert np.allclose(aug, mult * bare, rtol=1e-11)
        wrong = np.exp(+2.0 * sigma * PAR.lam**2 * 0.4)
        assert not np.allclose(aug, wrong * bare, rtol=1e-3)


def test_partition_function_values():
    lam = 1.0
    for a in (0, 1, 4):
        for t in (0.25, 1.0):
            ref = math.exp(-lam * t) / (1 - math.exp(-2 * lam * t))
            assert partition_function(1, a, t, PAR) == pytest.approx(ref, rel=1e-13)
    t = 0.5
    ref4 = 2 * math.exp(-2 * t) / (1 - math.exp(-2 * t)) ** 2
    assert partition_function(1, 1, t, PAR4) == pytest.approx(ref4, rel=1e-13)
    with pytest.raises(SingularTimeError):
        partition_function(1j, 0, math.pi / lam, PAR)


@pytest.mark.parametrize("k", [2, 4])
def test_trace_identity(k):
    params = PhysParams(lam=1.0, k=k)
    for a in (0, 1, 2):
        for t in (0.25, 0.5, 1.0):
            ref = partition_function(1, a, t, params)
            got = partition_function_trace(1, a, t, params, order=28)
            assert abs(got - ref) / abs(ref) < 1e-6


def test_k2_trace_is_zone_independent():
    vals = [partition_function(1, a, 0.5, PAR) for a in range(5)]
    assert max(abs(v - vals[0]) for v in vals) == 0.0


def test_evolve_identity_and_eigen_decay():
    f = sum((c * vec for c, vec in zip([1.0, 0.5j], zone_basis(1, 3, PAR))),
            ZonePolynomial({}, PAR))
    assert norm(evolve(f, 1, 0.0, PAR) - f) < 1e-12
    # eigenfunction decays at rate given by the algebra oracle
    vec = zone_basis(1, 3, PAR)[2]
    h = apply_zeeman(vec)
    mu = inner_product(h, vec).real
    out = evolve(vec, 1, 0.7, PAR)
    assert norm(out - math.exp(-0.7 * mu) * vec) < 1e-12


def test_evolve_unitarity():
    rng = np.random.default_rng(16)
    basis = zone_basis(1, 6, PAR)
    f = sum((complex(rng.normal(), rng.normal()) * v for v in basis),
            ZonePolynomial({}, PAR))
    before = norm(f)
    after = norm(evolve(f, 1j, 1.3, PAR))
    assert after == pytest.approx(before, rel=1e-10)


def test_evolve_agrees_with_kernel_convolution_zone_zero():
    rng = np.random.default_rng(17)
    f = ZonePolynomial({((0, 0),): 0.5, ((2, 0),): 1.0 - 0.5j}, PAR)
    X = rng.uniform(-0.7, 0.7, (4, 1)) + 1j * rng.uniform(-0.7, 0.7, (4, 1))
    for sigma in (1, 1j):
        ref = to_standard(evolve(f, sigma, 0.4, PAR))(X)
        got = evolve_by_convolution(f, sigma, 0.4, PAR, X, order=64)
        assert np.max(np.abs(got - ref)) < 1e-6 * np.max(np.abs(ref))


@pytest.mark.parametrize("charge_sign", [1, -1])
def test_evolve_matches_the_spectral_kernel(charge_sign):
    # the spectral kernel applied to a zone-1 state by Hermite quadrature, exact for
    # these degrees, is the evolved state
    from zonekit.special import flat_hermite_grid, tensor_points
    params = PhysParams(lam=0.8, k=2, charge_sign=charge_sign)
    rng = np.random.default_rng(18)
    f = sum((complex(rng.normal(), rng.normal()) * v for v in zone_basis(1, 4, params)),
            ZonePolynomial({}, params))
    X = rng.uniform(-0.7, 0.7, (4, 1)) + 1j * rng.uniform(-0.7, 0.7, (4, 1))
    axes, w = flat_hermite_grid(32, params.lam, params.k)
    Z = tensor_points(axes)
    for sigma in (1, 1j):
        K = zonal_kernel_spectral(sigma, 1, 0.4, X[:, None, :], Z[None, :, :], params, pmax=8)
        got = K @ (w * to_standard(f)(Z))
        ref = to_standard(evolve(f, sigma, 0.4, params))(X)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _dense_convolution(f, sigma, t, params, X, order):
    """sum_Z w(Z) d^(a)(t, X, Z) psi(Z) from the pointwise closed form on the Hermite grid."""
    from zonekit.special import flat_hermite_grid, tensor_points
    axes, w = flat_hermite_grid(order, params.lam, params.k)
    Z = tensor_points(axes)
    K = zonal_kernel(sigma, infer_zone(f), t, X[:, None, :], Z[None, :, :], params)
    return K @ (w * to_standard(f)(Z))


@pytest.mark.parametrize("k, order", [(2, 48), (4, 12)])
@pytest.mark.parametrize("a", [0, 1, 2])
def test_evolve_by_convolution_matches_dense_quadrature(k, order, a):
    # the factored convolution is the dense one on the same grid in every zone, and its
    # state on the tensor grid is to_standard(f) at the grid points; on zone 0 both
    # reproduce the spectral flow (the closed form is exact there)
    for lam in (0.4, 0.8, 2.5):
        params = PhysParams(lam=lam, k=k)
        rng = np.random.default_rng(20 + a)
        f = sum((complex(rng.normal(), rng.normal()) * v
                 for v in zone_basis(a, a + 1, params)), ZonePolynomial({}, params))
        X = rng.uniform(-0.7, 0.7, (3, k // 2)) + 1j * rng.uniform(-0.7, 0.7, (3, k // 2))
        for sigma in (1, 1j):
            got = evolve_by_convolution(f, sigma, 0.4, params, X, order=order)
            ref = _dense_convolution(f, sigma, 0.4, params, X, order)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), lam
            if a == 0:
                flow = to_standard(evolve(f, sigma, 0.4, params))(X)
                assert np.max(np.abs(got - flow)) < 1e-10 * np.max(np.abs(flow)), lam


@pytest.mark.parametrize("k, order", [(2, 24), (4, 8)])
@pytest.mark.parametrize("a", [0, 1, 2])
@pytest.mark.parametrize("charge_sign", [1, -1])
@pytest.mark.parametrize("lam", [0.4, 2.5])
def test_convolve_matches_transfer_of_the_materialised_state(lam, charge_sign, a, k, order):
    # the oracle is the grid path the rank-one contraction replaced: the wave function times
    # the flat weights, materialised on all order^k nodes of the tensor grid, taken to each
    # point by `transfer`; gated relative to the magnitudes of the quadrature's terms
    from zonekit.special import flat_hermite_grid, tensor_points
    params = PhysParams(lam=lam, k=k, charge_sign=charge_sign)
    rng = np.random.default_rng(30 + a)
    f = random_poly(rng, params, n_terms=5)
    X = rng.uniform(-0.8, 0.8, (3, k // 2)) + 1j * rng.uniform(-0.8, 0.8, (3, k // 2))
    grid_lam = 1.4 * lam
    axes, weights = flat_hermite_grid(order, grid_lam, k)
    Z = tensor_points(axes)
    g = weights * to_standard(f)(Z)
    for sigma in (1, 1j):
        form = _zonal_form(sigma, a, 0.3, params)
        ref = [transfer(g.reshape((order,) * k), form.swapped(), params, axes,
                        point_axes(x)).item() for x in X]
        magnitude = np.abs(zonal_kernel(sigma, a, 0.3, X[:, None, :], Z[None, :, :],
                                        params)) @ np.abs(g)
        got = _convolve(form, f, params, grid_lam, order, X)
        assert np.all(np.abs(got - ref) <= 1e-12 * magnitude)


def _never_called(*args, **kwargs):
    raise AssertionError("called after the refusal")


@pytest.mark.parametrize("charge_sign", [1, -1])
def test_evolve_by_convolution_at_k4_and_the_default_order(charge_sign, monkeypatch):
    # one order x order table per coordinate and monomial: no grid function of the
    # 64^4 = 16.8M nodes is formed, so a few MB suffice
    monkeypatch.setattr(propagators, "flat_hermite_grid", _never_called)
    params = PhysParams(lam=1.0, k=4, charge_sign=charge_sign)
    rng = np.random.default_rng(21)
    f = sum((complex(rng.normal(), rng.normal()) * v for v in zone_basis(0, 2, params)),
            ZonePolynomial({}, params))
    X = rng.uniform(-0.7, 0.7, (3, 2)) + 1j * rng.uniform(-0.7, 0.7, (3, 2))
    for sigma in (1, 1j):
        ref = to_standard(evolve(f, sigma, 0.4, params))(X)
        tracemalloc.start()
        try:
            got = evolve_by_convolution(f, sigma, 0.4, params, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert peak < 4e6, peak


def test_infer_zone_rejects_mixtures():
    f = ZonePolynomial.z(PAR) + ZonePolynomial.zbar(PAR)
    with pytest.raises(ValueError):
        infer_zone(f)
    assert infer_zone(ZonePolynomial.zbar(PAR)) == 1


def test_semigroup_residuals():
    rng = np.random.default_rng(18)
    pairs = [(rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1),
              rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1)) for _ in range(3)]
    assert semigroup_residual(1, 0, 0.3, 0.3, pairs, PAR, order=64) < 1e-6
    assert semigroup_residual(1j, 0, 0.3, 0.3, pairs, PAR, order=64) < 1e-5
    with pytest.raises(ValueError):
        semigroup_residual(1, 0, -0.1, 0.3, pairs, PAR)
    with pytest.raises(ValueError, match="at least one sample pair"):
        semigroup_residual(1, 0, 0.3, 0.3, [], PAR)


@pytest.mark.parametrize("charge_sign", [1, -1])
@pytest.mark.parametrize("lam", [0.4, 2.5])
@pytest.mark.parametrize("a", [0, 1, 2])
def test_semigroup_residual_matches_dense_quadrature(a, lam, charge_sign):
    # the factored chain x -> grid -> y is the dense one on the same grid; on zone 0
    # the closed forms compose exactly, on zones 1 and 2 they do not
    from zonekit.special import flat_hermite_grid, tensor_points
    params = PhysParams(lam=lam, k=2, charge_sign=charge_sign)
    rng = np.random.default_rng(30 + a)
    pairs = [(rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1),
              rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1)) for _ in range(3)]
    X, Y = (np.array(side) for side in zip(*pairs))
    axes, w = flat_hermite_grid(48, lam, 2)
    M = tensor_points(axes)[None]
    for sigma in (1, 1j):
        comp = np.sum(w * zonal_kernel(sigma, a, 0.2, X[:, None], M, params)
                      * zonal_kernel(sigma, a, 0.35, M, Y[:, None], params), axis=1)
        target = zonal_kernel(sigma, a, 0.55, X, Y, params)
        got = semigroup_residual(sigma, a, 0.2, 0.35, pairs, params, order=48)
        assert abs(got - np.max(np.abs(comp - target))) <= 1e-12 * np.max(np.abs(comp))
        if a == 0:
            assert got <= 1e-12 * np.max(np.abs(target))


def test_degenerate_composition_reproduces_point_spread():
    # composing with the t=0 kernel is the reproducing identity on the
    # holomorphic zone (where the closed form coincides with the spectral flow)
    rng = np.random.default_rng(19)
    from zonekit.special import flat_hermite_grid, tensor_points
    axes, w = flat_hermite_grid(64, PAR.lam, PAR.k)
    m = tensor_points(axes)
    X = rng.uniform(-0.8, 0.8, (1, 1)) + 1j * rng.uniform(-0.8, 0.8, (1, 1))
    Y = rng.uniform(-0.8, 0.8, (1, 1)) + 1j * rng.uniform(-0.8, 0.8, (1, 1))
    comp = np.sum(w * zonal_kernel(1, 0, 0.0, X, m, PAR)
                  * zonal_kernel(1, 0, 0.4, m, Y, PAR))
    ref = zonal_kernel(1, 0, 0.4, X, Y, PAR)[0]
    assert abs(comp - ref) < 1e-8


def test_higher_zone_closed_form_differs_from_spectral_flow():
    # documented discrepancy: away from t=0 the printed higher-zone kernels are
    # not the spectral flow of the zone basis (they agree at t=0 and in trace);
    # the deviation is real and stable, so pin its presence here
    rng = np.random.default_rng(21)
    X = rng.uniform(-0.8, 0.8, (4, 1)) + 1j * rng.uniform(-0.8, 0.8, (4, 1))
    Z = rng.uniform(-0.8, 0.8, (4, 1)) + 1j * rng.uniform(-0.8, 0.8, (4, 1))
    closed = zonal_kernel(1, 1, 0.4, X, Z, PAR)
    spectral = zonal_kernel_spectral(1, 1, 0.4, X, Z, PAR, pmax=40)
    dev = np.max(np.abs(closed - spectral)) / np.max(np.abs(spectral))
    assert dev > 1e-2
    # while both reproduce the same trace and the same t=0 kernel
    assert np.allclose(zonal_kernel(1, 1, 0.0, X, Z, PAR),
                       zonal_kernel_spectral(1, 1, 0.0, X, Z, PAR, pmax=40), rtol=1e-10)


def test_df_flow_preserves_inner_products():
    rng = np.random.default_rng(20)
    for params in (PAR, PAR4):
        basis = zone_basis(1, 5, params)
        f = sum((complex(rng.normal(), rng.normal()) * v for v in basis),
                ZonePolynomial({}, params))
        g = sum((complex(rng.normal(), rng.normal()) * v for v in basis),
                ZonePolynomial({}, params))
        before = inner_product(f, g)
        after = inner_product(evolve(f, 1j, 0.9, params), evolve(g, 1j, 0.9, params))
        assert abs(after - before) < 1e-9 * abs(before)


def test_kernel_grid_csv_round_trip(tmp_path):
    import csv as csvmod
    pts = np.array([[0.0 + 0.0j], [0.5 + 0.25j], [-0.5 - 1.0j]])
    grid = KernelGrid.sample(1j, 0.25, pts, pts, PAR, a=1)
    path = tmp_path / "grid.csv"
    grid.write_csv(str(path))
    with open(path) as fh:
        rows = list(csvmod.reader(fh))
    assert rows[0][-2:] == ["kernel_re", "kernel_im"]
    body = rows[1:]
    assert len(body) == 9
    for row in body:
        x = complex(float(row[0]), float(row[1]))
        y = complex(float(row[2]), float(row[3]))
        ref = zonal_kernel(1j, 1, 0.25, np.array([[x]]), np.array([[y]]), PAR)[0]
        assert complex(float(row[-2]), float(row[-1])) == pytest.approx(ref, rel=1e-15)


def _csv_writer_bytes(grid):
    """The grid's CSV as csv.writer writes it, one repr(float) per number."""
    import csv as csvmod
    import io
    m = grid.params.m
    buf = io.StringIO(newline="")
    wr = csvmod.writer(buf)
    wr.writerow([f"{p}_{z}{j+1}" for z in "zw" for j in range(m) for p in ("re", "im")]
                + ["sigma", "t", "a", "kernel_re", "kernel_im"])
    sig = "i" if grid.sigma == 1j else "1"
    for i, x in enumerate(grid.points_X):
        for y, v in zip(grid.points_Y, grid.row(i)):
            row = [repr(float(f(c))) for c in (*x, *y) for f in (np.real, np.imag)]
            wr.writerow(row + [sig, repr(float(grid.t)), "" if grid.a is None else grid.a,
                               repr(float(v.real)), repr(float(v.imag))])
    return buf.getvalue().encode()


def _use_cpus(monkeypatch, n, fork=True):
    """Make write_csv see `n` usable CPUs and give a writer as few as one CSV row; with
    one CPU, or `fork` false, forking is an error."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(propagators, "_WRITER_ROWS", 1)
    if n == 1 or not fork:
        def no_fork():
            raise AssertionError(f"forked with {n} usable CPUs")
        monkeypatch.setattr(os, "fork", no_fork)


def _use_rows(monkeypatch, rows):
    """Make every KernelGrid return row i of `rows` (an X x Y table) as its values; a
    forked writer inherits the patch."""
    rows = np.asarray(rows, dtype=complex)
    monkeypatch.setattr(KernelGrid, "row", lambda grid, i: rows[i])


@pytest.mark.parametrize("cpus", [1, 2, 3, 7, "3_without_copy_file_range"])
@pytest.mark.parametrize("case", ["zonal_k2", "global_k4", "edge_values", "empty_x",
                                  "empty_y"])
def test_kernel_grid_csv_bytes(tmp_path, monkeypatch, case, cpus):
    if case == "zonal_k2":
        pts = np.array([[-2.0 + 0.0j], [0.5 + 0.25j], [-0.5 - 1.0j], [0.1 + 2.0j]])
        grid = KernelGrid.sample(1j, 0.25, pts, pts, PAR, a=1)
    elif case == "global_k4":
        pts = np.array([[-2.0 + 0.5j, 0.3 - 0.1j], [0.0 + 1.0j, -1.0 + 0.0j],
                        [0.7 + 0.7j, 0.2 - 2.0j]])
        grid = KernelGrid.sample(1, 0.3, pts, pts[:2], PAR4, a=None)
        assert grid.a is None
    elif case == "edge_values":
        X = np.array([[-2.0 - 0.0j], [1e-20 + 3.0j]])
        Y = np.array([[complex(-0.0, -0.0)], [2.0 + 1e300j], [-1e-320 + 0.1j]])
        grid = KernelGrid.sample(1j, 1, X, Y, PAR, a=3)
        _use_rows(monkeypatch, [[complex(-0.0, 1e-20), 1e-20 - 0.0j, 2.0 + 0.0j],
                                [complex(0.0, -0.0), -2.0 + 5e-324j, 1.5e200 - 3.0j]])
    else:
        pts = np.array([[0.5 + 0.25j], [-0.5 - 1.0j]])
        X, Y = (pts[:0], pts) if case == "empty_x" else (pts, pts[:0])
        grid = KernelGrid.sample(1j, 1, X, Y, PAR, a=3)
        _use_rows(monkeypatch, np.empty((len(X), len(Y)), complex))
    if cpus == "3_without_copy_file_range":
        # the parts are joined by os.copy_file_range (Linux only): without it one writer
        monkeypatch.delattr(os, "copy_file_range", raising=False)
        _use_cpus(monkeypatch, 3, fork=False)
    else:
        _use_cpus(monkeypatch, cpus)
    path = tmp_path / "grid.csv"
    grid.write_csv(str(path))
    assert path.read_bytes() == _csv_writer_bytes(grid)
    assert os.listdir(tmp_path) == ["grid.csv"]
    if case.startswith("empty"):
        assert path.read_bytes().count(b"\r\n") == 1
    # a grid evaluated as it is written and one that returns stored rows: the same bytes
    _use_rows(monkeypatch, [grid.row(i) for i in range(len(grid.points_X))])
    stored = tmp_path / "stored.csv"
    grid.write_csv(str(stored))
    assert stored.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("rows", [4_096, 10_000])
def test_kernel_grid_forks_a_writer_only_where_it_pays(tmp_path, monkeypatch, rows):
    # on a 2-vCPU VM `zonekit kernel` was slower with 2 writers than with 1 at 4,096
    # CSV rows and faster at 10,000: the committed _WRITER_ROWS forks only for the latter
    X = (np.arange(rows) * 1e-3 + 0.5j)[:, None]
    grid = KernelGrid.sample(1j, 1, X, X[:1], PAR, a=3)
    _use_rows(monkeypatch, (np.arange(rows) - 2.5j)[:, None])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    path = tmp_path / "grid.csv"
    grid.write_csv(str(path))
    assert path.read_bytes() == _csv_writer_bytes(grid)
    assert len(forks) == (rows == 10_000 and hasattr(os, "copy_file_range"))
    assert os.listdir(tmp_path) == ["grid.csv"]


@pytest.mark.parametrize("fault",
                         ["child_raises", "child_oserror", "parent_interrupted", "append_fails"])
def test_kernel_grid_csv_failure_leaves_no_process_or_part(tmp_path, monkeypatch, capfd, fault):
    pts = np.array([[-2.0 + 0.0j], [0.5 + 0.25j], [-0.5 - 1.0j], [0.1 + 2.0j]])
    grid = KernelGrid.sample(1j, 0.25, pts, pts, PAR, a=1)
    first_row = grid.row(0)
    _use_cpus(monkeypatch, 3)
    write_rows = propagators._write_rows

    def failing_rows(fh, grid, block, xs, suffixes, path):
        # blocks of 4 X rows on 3 CPUs: the parent writes row 0, children 1 and 2-3
        if fault == "child_raises" and len(block) == 2:
            raise ValueError("formatting failed")
        if fault == "child_oserror" and len(block) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        if fault == "parent_interrupted" and np.array_equal(grid.row(block[0]), first_row):
            raise KeyboardInterrupt
        write_rows(fh, grid, block, xs, suffixes, path)

    def failing_copy(*args):
        raise OSError(errno.EXDEV, "copy_file_range failed")

    monkeypatch.setattr(propagators, "_write_rows", failing_rows)
    if fault == "append_fails":
        monkeypatch.setattr(os, "copy_file_range", failing_copy)
    if fault == "child_oserror":
        # the child's error reaches `zonekit kernel` (a 4-point grid) as one
        # usage-error line, and the child prints no traceback of its own
        from zonekit.cli import main
        assert main(["kernel", "--sigma", "i", "--a", "1", "--t", "0.25", "--grid=0:1:1",
                     "--outdir", str(tmp_path), "--output", "grid.csv"]) == 2
        assert capfd.readouterr().err == "error: [Errno 28] No space left on device\n"
    else:
        expected = {"child_raises": RuntimeError, "parent_interrupted": KeyboardInterrupt,
                    "append_fails": OSError}[fault]
        with pytest.raises(expected) as info:
            grid.write_csv(str(tmp_path / "grid.csv"))
        if fault == "child_raises":
            assert "exited with code 1" in str(info.value)
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == []


def test_df_partition_trace():
    # oscillatory-branch trace against the closed form: exact at the quarter
    # time (real decay), quadrature-tight at generic times
    t_quarter = math.pi / (2 * PAR.lam)
    for a in (0, 1, 2):
        ref = partition_function(1j, a, t_quarter, PAR)
        got = partition_function_trace(1j, a, t_quarter, PAR, order=40)
        assert abs(got - ref) < 1e-10 * abs(ref)
    ref = partition_function(1j, 1, 0.4, PAR)
    got = partition_function_trace(1j, 1, 0.4, PAR, order=96)
    assert abs(got - ref) < 1e-8 * abs(ref)


@pytest.mark.parametrize("params,order", [(PAR, 32), (PAR, 64), (PAR4, 24)])
def test_trace_raises_when_order_doubling_moves_it(params, order):
    # the oscillatory diagonal at t = 0.3 moves by 2e-2 (k=2, order 32), 1e-4
    # (k=2, order 64) and 0.15 (k=4, order 24) when the order is doubled
    from zonekit.propagators import QuadratureConvergenceError
    with pytest.raises(QuadratureConvergenceError, match="on order doubling"):
        partition_function_trace(1j, 0, 0.3, params, order=order)


def test_kernel_grid_singular_time_guard():
    pts = np.array([[0.1 + 0.1j]])
    with pytest.raises(SingularTimeError):
        KernelGrid.sample(1j, math.pi / PAR.lam, pts, pts, PAR, a=None)
    # zonal grids have no singular times
    grid = KernelGrid.sample(1j, math.pi / PAR.lam, pts, pts, PAR, a=0)
    assert grid.row(0).shape == (1,)


def test_evolve_field_term_is_constant_factor():
    # z^2 zbar alone straddles zones; subtract its holomorphic shadow
    f = ZonePolynomial({((0, 1),): 1.0, ((2, 1),): 0.5, ((1, 0),): -1.0 / PAR.lam}, PAR)
    t = 0.6
    bare = evolve(f, 1, t, PAR)
    aug = evolve(f, 1, t, PAR, include_field_term=True)
    factor = math.exp(-2 * PAR.k * PAR.lam**2 * t)
    assert norm(aug - factor * bare) < 1e-12 * norm(bare)


def test_zonal_kernel_time_guard():
    X = np.array([[0.1 + 0.1j]])
    with pytest.raises(ValueError):
        zonal_kernel(1, 0, -0.1, X, X, PAR)
    with pytest.raises(ValueError):
        zonal_kernel(2.0, 0, 0.1, X, X, PAR)


def test_kernels_satisfy_evolution_equation():
    # independent oracle: d/dt K = -sigma H_X K by finite differences, with
    # H = -(1/2)Lap - i lam D. + (lam^2/2)|X|^2 acting on the first argument
    rng = np.random.default_rng(34)
    lam = PAR.lam
    X = rng.uniform(-0.8, 0.8, (6, 1)) + 1j * rng.uniform(-0.8, 0.8, (6, 1))
    Y = rng.uniform(-0.8, 0.8, (6, 1)) + 1j * rng.uniform(-0.8, 0.8, (6, 1))
    h, ht = 1e-4, 1e-6

    def residual(ker, sigma, t0=0.4):
        f0 = ker(t0, X, Y)
        fpx, fmx = ker(t0, X + h, Y), ker(t0, X - h, Y)
        fpy, fmy = ker(t0, X + 1j * h, Y), ker(t0, X - 1j * h, Y)
        lap = (fpx + fmx + fpy + fmy - 4 * f0) / h**2
        fx, fy = (fpx - fmx) / (2 * h), (fpy - fmy) / (2 * h)
        x, y = X[..., 0].real, X[..., 0].imag
        ham = -0.5 * lap - 1j * lam * (-y * fx + x * fy) \
            + 0.5 * lam**2 * np.abs(X[..., 0]) ** 2 * f0
        dt = (ker(t0 + ht, X, Y) - ker(t0 - ht, X, Y)) / (2 * ht)
        return float(np.max(np.abs(dt + sigma * ham)) / np.max(np.abs(ham)))

    for sigma in (1, 1j):
        assert residual(lambda t, A, B: global_kernel(sigma, t, A, B, PAR), sigma) < 1e-6
        assert residual(lambda t, A, B: zonal_kernel(sigma, 0, t, A, B, PAR), sigma) < 1e-6
    # the printed higher-zone closed form is not a flow of this Hamiltonian
    assert residual(lambda t, A, B: zonal_kernel(1, 1, t, A, B, PAR), 1) > 1e-2


@pytest.mark.parametrize("params", [PAR, PAR4], ids=["k2", "k4"])
def test_kernel_bits_do_not_depend_on_the_batch(params):
    # one x against 20,000 points, all at once and 1,000 at a time: large equal-shape
    # operands must not change the operand order of the complex products
    rng = np.random.default_rng(71)
    Y = rng.uniform(-1, 1, (20000, params.m)) + 1j * rng.uniform(-1, 1, (20000, params.m))
    X = np.repeat(Y[:1] * 0.5 + 0.3j, len(Y), axis=0)
    kernels = {
        "pairing": lambda A, B: pairing(A, B, params),
        "zone_kernel": lambda A, B: zone_kernel(1, A, B, params),
        "zonal_kernel": lambda A, B: zonal_kernel(1j, 1, 0.3, A, B, params),
        "global_kernel": lambda A, B: global_kernel(1j, 0.3, A, B, params),
    }
    for name, ker in kernels.items():
        whole = ker(X, Y)
        parts = np.concatenate([ker(X[i:i + 1000], Y[i:i + 1000])
                                for i in range(0, len(Y), 1000)])
        assert np.array_equal(whole.view(float), parts.view(float)), name
