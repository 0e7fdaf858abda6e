"""Cylinder measures, path action, Radon-Nikodym densities, sliced reconstruction."""

import functools
import math
import os
import tracemalloc

import numpy as np
import pytest

import zonekit.path_measure as path_measure
from zonekit.params import PhysParams
from zonekit.path_measure import (PathDiscretization, action_functional, cylinder_measure,
                                  feynman_kac_sweep,
                                  probability_density, probability_total_mass,
                                  radon_nikodym_density, whole_space_box)
from zonekit.propagators import global_kernel, zonal_kernel
from zonekit.zones import zone_kernel

PAR = PhysParams(lam=1.0, k=2)
X0 = np.array([0.35 + 0.2j])
Y0 = np.array([-0.3 + 0.1j])


def test_path_validation():
    with pytest.raises(ValueError):
        PathDiscretization(1.0, (0.5, 0.4), (0j,), (0j,), ((0j,), (0j,)))
    with pytest.raises(ValueError):
        PathDiscretization(1.0, (1.5,), (0j,), (0j,), ((0j,),))
    with pytest.raises(ValueError):
        PathDiscretization(-1.0, (), (0j,), (0j,), ())
    with pytest.raises(ValueError):
        PathDiscretization(1.0, (0.5,), (0j,), (0j,), ())


def test_action_constant_paths():
    # at the origin the action is k T / 2; at |omega| = 1 it gains 2 T
    T = 1.3
    rest = PathDiscretization.uniform([0j], [0j], T, [[0j]] * 3)
    assert action_functional(rest) == pytest.approx(2 * T / 2, rel=1e-14)
    circ = PathDiscretization.uniform([1.0 + 0j], [1.0 + 0j], T, [[1.0 + 0j]] * 3)
    assert action_functional(circ) == pytest.approx(T + 2 * T, rel=1e-14)


def test_action_straight_line_converges_to_thirds():
    # straight path 0 -> 1 over [0, T]: integral of (tau/T)^2 is T/3
    T = 0.9
    ref = 2 * T / 2 + 2 * T / 3
    errs = []
    for n in (4, 16, 64, 256):
        mids = [[(i + 1) / (n + 1) + 0j] for i in range(n)]
        path = PathDiscretization.uniform([0j], [1.0 + 0j], T, mids)
        errs.append(abs(action_functional(path) - ref))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-5


def test_stopwatch_phase_properties():
    rng = np.random.default_rng(23)
    T = 1.1
    mids = [rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1) for _ in range(3)]
    path = PathDiscretization.uniform(rng.uniform(-1, 1, 1) + 0j,
                                      rng.uniform(-1, 1, 1) + 0j, T, mids)
    phase = functools.partial(radon_nikodym_density, "feynman_over_nu")  # e^{-i action}
    ph = phase(path)
    assert abs(abs(ph) - 1.0) < 1e-14
    rest = PathDiscretization.uniform([0j], [0j], T, [[0j]])
    assert phase(rest) == pytest.approx(np.exp(-1j * PAR.k * T / 2), rel=1e-13)


def test_stopwatch_concatenation_multiplies():
    # action additivity over adjacent horizons
    a = PathDiscretization.uniform([0j], [0.5 + 0j], 0.6, [[0.25 + 0j]])
    b = PathDiscretization.uniform([0.5 + 0j], [0j], 0.4, [[0.25 + 0j]])
    whole = PathDiscretization(1.0, (0.3, 0.6, 0.8),
                               (0j,), (0j,),
                               ((0.25 + 0j,), (0.5 + 0j,), (0.25 + 0j,)))
    phase = functools.partial(radon_nikodym_density, "feynman_over_nu")
    assert phase(a) * phase(b) == pytest.approx(phase(whole), rel=1e-12)


def test_radon_nikodym_chain_rule_and_moduli():
    rng = np.random.default_rng(24)
    for _ in range(5):
        mids = [rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1)
                for _ in range(int(rng.integers(1, 4)))]
        path = PathDiscretization.uniform(rng.uniform(-1, 1, 1) + 0j,
                                          rng.uniform(-1, 1, 1) + 0j, 0.8, mids)
        nu_wk = radon_nikodym_density("nu_over_wk", path)
        f_wk = radon_nikodym_density("feynman_over_wk", path)
        f_nu = radon_nikodym_density("feynman_over_nu", path)
        assert f_nu * nu_wk == pytest.approx(f_wk, rel=1e-14)
        assert abs(f_wk) == pytest.approx(nu_wk.real, rel=1e-14)
        A = action_functional(path)
        assert nu_wk == pytest.approx(math.exp(A), rel=1e-14)
    rest = PathDiscretization.uniform([0j], [0j], 0.8, [[0j]])
    assert radon_nikodym_density("nu_over_wk", rest) == pytest.approx(
        math.exp(PAR.k * 0.8 / 2), rel=1e-14)


def test_cylinder_single_time_reproduces_kernels():
    box = whole_space_box(PAR)
    T = 0.5
    for kind, a, ref in [
            ("global_wk", None, global_kernel(1, T, X0[None, :], Y0[None, :], PAR)[0]),
            ("zonal_wk", 0, zonal_kernel(1, 0, T, X0[None, :], Y0[None, :], PAR)[0]),
            ("zonal_df", 0, zonal_kernel(1j, 0, T, X0[None, :], Y0[None, :], PAR)[0]),
            ("spread_amplitude", 2, zone_kernel(2, X0[None, :], Y0[None, :], PAR)[0])]:
        got = cylinder_measure(kind, (0.3,), [box], X0, Y0, T, PAR, a=a, order=96)
        assert abs(got - ref) < 1e-5 * abs(ref)


def test_cylinder_empty_box_gives_zero():
    degenerate = [(0.2, 0.2), (-0.5, 0.5)]
    got = cylinder_measure("zonal_wk", (0.3,), [degenerate], X0, Y0, 0.5, PAR, a=0)
    assert got == 0.0


def test_cylinder_box_count_guard():
    box = whole_space_box(PAR)
    with pytest.raises(ValueError):
        cylinder_measure("zonal_wk", (0.2, 0.3), [box], X0, Y0, 0.5, PAR, a=0)
    with pytest.raises(ValueError):
        cylinder_measure("nope", (0.2,), [box], X0, Y0, 0.5, PAR)


def test_cylinder_magnitudes_bounded_under_refinement():
    box = whole_space_box(PAR, radius=4.0)
    T = 0.4
    bound = abs(zone_kernel(0, X0[None, :], Y0[None, :], PAR)[0]) * 3
    for n in (1, 2, 3, 4):
        times = tuple((i + 1) * T / (n + 1) for i in range(n))
        val = cylinder_measure("zonal_df", times, [box] * n, X0, Y0, T, PAR, a=0, order=24)
        assert abs(val) < bound


def test_feynman_kac_strict_convergence():
    T = 0.5
    for sigma in (1, 1j):
        ref = zonal_kernel(sigma, 0, T, X0[None, :], Y0[None, :], PAR)[0]
        errs = [abs(feynman_kac_sweep(sigma, 0, X0, Y0, T, (n,), PAR, order=40)[0] - ref)
                / abs(ref) for n in (1, 2, 3, 4)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 0.05


def test_feynman_kac_swapped_endpoints():
    T = 0.5
    ref = zonal_kernel(1j, 0, T, Y0[None, :], X0[None, :], PAR)[0]
    got = feynman_kac_sweep(1j, 0, Y0, X0, T, (4,), PAR, order=40)[0]
    assert abs(got - ref) / abs(ref) < 0.05


@functools.lru_cache(maxsize=1)
def _seed_dense(a, params, order):
    # the grid and the dense zone-kernel and pairing matrices: they depend on
    # neither sigma nor the slice count
    from zonekit.special import flat_hermite_grid, tensor_points
    from zonekit.zones import pairing
    axes, w = flat_hermite_grid(order, params.lam, params.k)
    m = tensor_points(axes)
    return (w, m, zone_kernel(a, m[:, None, :], m[None, :, :], params),
            pairing(m[:, None, :], m[None, :, :], params))


def _seed_feynman_kac(sigma, a, x, y, T, n_slices, params, order):
    # the per-slice-count evaluator as first written, kept as the exact
    # reference: every call rebuilds the end vectors and the dense step
    # element by element, from the K and P shared per (a, params, order)
    from zonekit.propagators import _check_sigma
    from zonekit.zones import pairing
    sigma = _check_sigma(sigma)
    lam, k = params.lam, params.k
    dt = T / (n_slices + 1)
    c = 2.0 * sigma * lam**2 * dt
    w, m, K, P = _seed_dense(a, params, order)
    f = zone_kernel(a, np.broadcast_to(x, m.shape), m, params) \
        * np.exp(-c * pairing(np.broadcast_to(x, m.shape), m, params))
    if n_slices > 1:
        # K first, as in the sweep: complex products are not bitwise
        # commutative, and numpy runs `K * temporary` as `temporary *= K`
        # once the temporary reaches 256 KiB
        step = np.multiply(K, np.exp(-c * P))
        for _ in range(n_slices - 1):
            f = (w * f) @ step
    val = np.sum(w * f * zone_kernel(a, m, np.broadcast_to(y, m.shape), params)
                 * np.exp(-c * pairing(m, np.broadcast_to(y, m.shape), params)))
    val *= np.exp(-sigma * k * lam * T / 2.0)
    return complex(val)


@pytest.mark.parametrize("charge_sign", [1, -1])
@pytest.mark.parametrize("k, order", [(2, 12), (2, 11), (4, 5)])
def test_kernel_and_real_step_are_conjugation_symmetric(k, order, charge_sign):
    # what the sweep's quarter fill relies on: with ci the conjugation mirror
    # of the grid, A[ci][:, ci] == conj(A) for K and for the step at real c
    # (== leaves only the sign of an exactly-zero imaginary part free)
    ci = np.flip(np.arange(order**k).reshape((order,) * k), tuple(range(1, k, 2))).ravel()
    for lam in (0.4, 2.5):
        params = PhysParams(lam=lam, k=k, charge_sign=charge_sign)
        c = 2.0 * (1 + 0j) * lam**2 * (0.5 / 3)  # sigma = 1, T = 0.5, two slices
        for a in (0, 1, 2):
            _, _, K, P = _seed_dense(a, params, order)
            assert np.all(K[ci][:, ci] == np.conj(K))
            step = np.multiply(K, np.exp(-c * P))
            assert np.all(step[ci][:, ci] == np.conj(step))


@pytest.mark.parametrize("charge_sign", [1, -1])
@pytest.mark.parametrize("k, order", [(2, 12), (2, 11), (4, 5)])
def test_sweep_matches_per_slice_reference_exactly(k, order, charge_sign):
    counts = (3, 1, 4, 2)
    x = np.array([0.35 + 0.2j, -0.1 + 0.25j][:k // 2])
    y = np.array([-0.3 + 0.1j, 0.2 - 0.15j][:k // 2])
    for lam in (0.4, 2.5):
        params = PhysParams(lam=lam, k=k, charge_sign=charge_sign)
        for a in (0, 1):
            for sigma in (1, 1j):
                got = feynman_kac_sweep(sigma, a, x, y, 0.5, counts, params, order=order)
                ref = [_seed_feynman_kac(sigma, a, x, y, 0.5, n, params, order)
                       for n in counts]
                assert got == ref


@pytest.mark.parametrize("k, order, lam", [(2, 20, 0.4), (4, 5, 2.5)])
def test_sweep_row_block_fill_is_exact_on_any_cpu_count(monkeypatch, k, order, lam):
    # N = 400 and 625 nodes.  Every fill range, a slab's quarter or mirrored rows
    # at either sigma, has at most ceil(order / 2) order^(k-2) rows (10 and 75)
    # and fits in one row block.  So this checks the pool, not block splitting:
    # with 2 or 3 usable CPUs the fill runs on a pool of 2 to that many threads,
    # with 1 it starts none, and the values equal the seed's exactly at each CPU
    # count.  test_sweep_is_exact_when_blocks_split_the_fill_ranges splits ranges
    n = order ** k
    half = (n + 1) // 2
    rows = path_measure._BLOCK_ELEMENTS // n
    assert 1 < rows < half and half % rows
    assert (order + 1) // 2 * order ** (k - 2) <= rows and order // 2 + order % 2 > 1
    params = PhysParams(lam=lam, k=k, charge_sign=-1)
    counts = (3, 1, 2)
    x = np.array([0.35 + 0.2j, -0.1 + 0.25j][:k // 2])
    y = np.array([-0.3 + 0.1j, 0.2 - 0.15j][:k // 2])
    ref = {(sigma, a): [_seed_feynman_kac(sigma, a, x, y, 0.5, n, params, order)
                        for n in counts]
           for sigma in (1, 1j) for a in (0, 1)}
    real_pool = path_measure.ThreadPoolExecutor
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pools = []

        def pool(workers):
            # one thread per usable CPU, and none with one usable CPU
            assert 1 < workers <= cpus
            pools.append(workers)
            return real_pool(workers)

        monkeypatch.setattr(path_measure, "ThreadPoolExecutor", pool)
        for sigma, a in ref:
            assert feynman_kac_sweep(sigma, a, x, y, 0.5, counts, params,
                                     order=order) == ref[sigma, a]
        assert bool(pools) == (cpus > 1)


def test_fill_rows_runs_every_range_through_one_pool(monkeypatch):
    # ranges longer than a block are cut into blocks, the last one short, and
    # empty ranges give no block
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    real_pool = path_measure.ThreadPoolExecutor
    pools, seen = [], []
    monkeypatch.setattr(path_measure, "ThreadPoolExecutor",
                        lambda workers: pools.append(workers) or real_pool(workers))
    n_cols = path_measure._BLOCK_ELEMENTS // 4
    path_measure._fill_rows(seen.append, [(0, 10), (12, 12), (20, 23)], n_cols)
    assert pools == [2]
    assert sorted((r.start, r.stop) for r in seen) == [(0, 4), (4, 8), (8, 10), (20, 23)]


@pytest.mark.parametrize("charge_sign", [1, -1])
@pytest.mark.parametrize("k, order", [(2, 12), (2, 11), (4, 5)])
def test_sliced_chain_matches_the_dense_sweep(k, order, charge_sign):
    # the factored chain against the per-slice reference and the dense sweep
    counts = (3, 1, 4, 2)
    x = np.array([0.35 + 0.2j, -0.1 + 0.25j][:k // 2])
    y = np.array([-0.3 + 0.1j, 0.2 - 0.15j][:k // 2])
    for lam in (0.4, 2.5):
        params = PhysParams(lam=lam, k=k, charge_sign=charge_sign)
        for a in (0, 1):
            for sigma in (1, 1j):
                got = np.array(path_measure._sliced_chain(sigma, a, x, y, 0.5, counts, params,
                                                          order=order))
                for ref in ([_seed_feynman_kac(sigma, a, x, y, 0.5, n, params, order)
                             for n in counts],
                            feynman_kac_sweep(sigma, a, x, y, 0.5, counts, params, order=order)):
                    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def _never_called(*args, **kwargs):
    raise AssertionError("called after the refusal")


def test_sliced_chain_memory_is_counted_before_allocating(monkeypatch):
    # eight complex grid functions, the real grid weights and the order x order
    # Hermite companion matrix, at any slice count
    asked = []
    monkeypatch.setattr(path_measure, "_require_memory",
                        lambda need, what: asked.append((need, what)))
    path_measure._sliced_chain(1, 0, X0, Y0, 0.5, (1, 2), PAR, order=6)
    path_measure._sliced_chain(1, 0, np.zeros(2), np.zeros(2), 0.5, (3,), PhysParams(k=4),
                               order=5)
    assert asked == [(16 * 8 * 36 + 8 * (36 + 36), "sliced quadrature at order 6 (36 nodes)"),
                     (16 * 8 * 625 + 8 * (625 + 25), "sliced quadrature at order 5 (625 nodes)")]
    monkeypatch.undo()
    # 200^4 nodes: about 218 GB, refused before the grid is built
    monkeypatch.setattr(path_measure, "flat_hermite_grid", _never_called)
    with pytest.raises(ValueError, match=r"^sliced quadrature at order 200 \(1600000000 nodes\) "
                       r"needs 218 GB"):
        path_measure._sliced_chain(1, 0, np.zeros(2), np.zeros(2), 0.5, (1,), PhysParams(k=4),
                                   order=200)


def test_verify_never_fills_a_dense_step(monkeypatch):
    # verify's path checks run through the factored chain, not the dense sweep
    from zonekit import verify
    monkeypatch.setattr(path_measure, "_fill_rows", _never_called)
    rows = verify.run_suite(["path"])
    assert "feynman_kac_convergence" in [r["check_name"] for r in rows]
    assert all(r["status"] == r["expected"] for r in rows)


def test_sweep_checks_every_slice_count():
    for run in (feynman_kac_sweep, path_measure._sliced_chain):
        for counts in ((2, 0), ()):
            with pytest.raises(ValueError, match="need slice counts of at least one slice"):
                run(1, 0, X0, Y0, 0.5, counts, PAR, order=8)
    # the two 48^4 x 48^4 matrices are refused before anything is allocated
    with pytest.raises(ValueError, match=r"^sliced quadrature at order 48 \(5308416 nodes\)"):
        feynman_kac_sweep(1, 0, np.zeros(2), np.zeros(2), 0.5, (1, 2), PhysParams(k=4),
                          order=48)


def test_sweep_memory_guard_counts_the_quarter_of_k_and_the_step(monkeypatch):
    # one N x N step and the conjugation quarter of K, complex: N = 36 at order 6
    # (3 slabs of 3 rows), and N = 81 at order 9 (4 slabs of 5 rows and the top
    # 5 rows of the middle slab)
    asked = []
    monkeypatch.setattr(path_measure, "_require_memory",
                        lambda need, what: asked.append((need, what)))
    feynman_kac_sweep(1, 0, X0, Y0, 0.5, (1, 2), PAR, order=6)
    feynman_kac_sweep(1, 0, X0, Y0, 0.5, (1, 2), PAR, order=9)
    feynman_kac_sweep(1, 0, X0, Y0, 0.5, (1,), PAR, order=6)  # no step matrix
    # every call also counts the order x order Hermite companion matrix and the
    # grid: its real weights, its complex points (k/2 = 1 per node) and four end vectors
    grid = {6: 16 * 5 * 36 + 8 * (36 + 36), 9: 16 * 5 * 81 + 8 * (81 + 81)}
    assert asked == [(grid[6] + 16 * (9 + 36) * 36, "sliced quadrature at order 6 (36 nodes)"),
                     (grid[9] + 16 * (25 + 81) * 81, "sliced quadrature at order 9 (81 nodes)"),
                     (grid[6], "sliced quadrature at order 6 (36 nodes)")]


@pytest.mark.parametrize("sigma", [1, 1j])
def test_sweep_holds_only_the_step_and_the_quarter_of_k(monkeypatch, sigma):
    # order 40: the 1600 x 1600 step is 41 MB and K's 400-row quarter 10.2 MB
    # (its 800-row parity half would be 20.5 MB).  On two CPUs each worker holds
    # at most three block-sized complex temporaries, and the grid and end
    # vectors are a few dozen complex N-vectors
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    n = 40**2
    step, quarter = 16 * n * n, 16 * 400 * n
    blocks, vectors = 2 * 3 * 16 * path_measure._BLOCK_ELEMENTS, 16 * 16 * n
    tracemalloc.start()
    try:
        feynman_kac_sweep(sigma, 0, X0, Y0, 0.5, (1, 2, 3), PAR, order=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step + quarter < peak < step + quarter + blocks + vectors


@pytest.mark.parametrize("k, order", [(2, 12), (2, 11), (4, 5)])
def test_sweep_is_exact_when_blocks_split_the_fill_ranges(monkeypatch, k, order):
    # three-row blocks: most quarter and mirrored ranges span several blocks, so
    # blocks start inside a range, where the K row and its mirror are offsets
    monkeypatch.setattr(path_measure, "_BLOCK_ELEMENTS", 3 * order**k)
    counts = (3, 1, 2)
    x = np.array([0.35 + 0.2j, -0.1 + 0.25j][:k // 2])
    y = np.array([-0.3 + 0.1j, 0.2 - 0.15j][:k // 2])
    params = PhysParams(lam=0.4, k=k)
    for sigma in (1, 1j):
        assert feynman_kac_sweep(sigma, 1, x, y, 0.5, counts, params, order=order) == \
            [_seed_feynman_kac(sigma, 1, x, y, 0.5, n, params, order) for n in counts]


def test_sigma_branches_share_measure_factors():
    # rebuild the sliced chain once and apply both sigma weightings: the
    # evaluator must agree with this shared-factor construction
    from zonekit.special import flat_hermite_grid, tensor_points
    from zonekit.zones import pairing
    T, n = 0.5, 3
    dt = T / (n + 1)
    axes, w = flat_hermite_grid(40, PAR.lam, PAR.k)
    m = tensor_points(axes)
    xs = np.broadcast_to(X0, m.shape)
    ys = np.broadcast_to(Y0, m.shape)
    ker_xm = zone_kernel(0, xs, m, PAR)
    ker_mm = zone_kernel(0, m[:, None, :], m[None, :, :], PAR)
    ker_my = zone_kernel(0, m, ys, PAR)
    act_xm = pairing(xs, m, PAR)
    act_mm = pairing(m[:, None, :], m[None, :, :], PAR)
    act_my = pairing(m, ys, PAR)
    for sigma in (1, 1j):
        c = 2.0 * sigma * PAR.lam**2 * dt
        f = ker_xm * np.exp(-c * act_xm)
        for _ in range(n - 1):
            f = (w * f) @ (ker_mm * np.exp(-c * act_mm))
        val = np.sum(w * f * ker_my * np.exp(-c * act_my)) \
            * np.exp(-sigma * PAR.k * PAR.lam * T / 2)
        got = feynman_kac_sweep(sigma, 0, X0, Y0, T, (n,), PAR, order=40)[0]
        assert got == pytest.approx(complex(val), rel=1e-12)


def test_probability_density_nonnegative_and_laguerre_ratio():
    rng = np.random.default_rng(25)
    for _ in range(5):
        x = rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1)
        y = rng.uniform(-1, 1, 1) + 1j * rng.uniform(-1, 1, 1)
        T = float(rng.uniform(0.2, 2.0))
        rho0 = probability_density(0, x, y, T, PAR)
        assert rho0 >= 0
        # zone dependence enters only through the Laguerre modulus
        from zonekit.special import laguerre
        u = PAR.lam * float(np.sum(np.abs(x - y) ** 2))
        for a in (1, 2, 3):
            rho_a = probability_density(a, x, y, T, PAR)
            assert rho_a == pytest.approx(rho0 * laguerre(a, 0.0, u) ** 2, rel=1e-10)


@pytest.mark.parametrize("charge_sign", [1, -1])
@pytest.mark.parametrize("lam", [0.4, 2.5])
@pytest.mark.parametrize("a", [0, 1, 2])
def test_probability_total_mass_matches_dense_quadrature(a, lam, charge_sign):
    # the factored kernel from x is the dense one on the same grid; on zone 0 the
    # mass is conserved at lam^{k/2}, on zones 1 and 2 it is not
    from zonekit.special import flat_hermite_grid, tensor_points
    params = PhysParams(lam=lam, k=2, charge_sign=charge_sign)
    x = np.array([0.4 + 0.3j])
    axes, w = flat_hermite_grid(48, lam, 2)
    M = tensor_points(axes)
    for T in (0.3, 1.7):
        ref = np.sum(w * np.pi * np.abs(zonal_kernel(1j, a, T, x[None], M, params)) ** 2)
        got = probability_total_mass(a, x, T, params, order=48)
        assert got == pytest.approx(ref, rel=1e-12)
        if a == 0:
            assert got == pytest.approx(lam, rel=1e-10)


def test_probability_total_mass_is_time_independent():
    for lam in (1.0, 1.7):
        params = PhysParams(lam=lam, k=2)
        x = np.array([0.4 + 0.3j])
        masses = [probability_total_mass(0, x, T, params, order=64)
                  for T in (0.3, 0.9, 1.6)]
        for m_val in masses:
            assert m_val == pytest.approx(masses[0], rel=1e-6)
        # measured constant is lam^{k/2}, not 1 (reported, not asserted as 1)
        assert masses[0] == pytest.approx(lam, rel=1e-8)
