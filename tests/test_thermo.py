"""Average energy, specific heat, tension, quarter-point states, period extrema."""

import math

import numpy as np
import pytest

from zonekit.params import PhysParams
from zonekit.propagators import SingularTimeError, _zonal_form, partition_function, zonal_kernel
from zonekit.thermo import (_refine_extremum, average_energy, average_energy_of_time,
                            default_kappa, diagonal_kernel, find_period_extrema, period,
                            period_density, quarter_time, specific_heat, stable_spread,
                            tension)

PAR = PhysParams(lam=1.0, k=2)
KAPPA = default_kappa(PAR)
H = 1.0


def test_energy_low_temperature_floor():
    assert average_energy(1, 1e-6, KAPPA, H) == pytest.approx(H, rel=1e-12)


def test_energy_high_temperature_divergence():
    vals = [average_energy(1, T, KAPPA, H).real for T in (10.0, 100.0, 1000.0)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    # equipartition start: E ~ kappa T at large T
    assert vals[-1] == pytest.approx(KAPPA * 1000.0, rel=1e-2)


def test_specific_heat_limits():
    assert abs(specific_heat(1, 1e-3 / KAPPA, KAPPA, H)) < 1e-50
    # series oracle: x = 2h/(kappa T) -> 0 gives (2h)^2 e^{-x}/(kappa T^2 (1-e^{-x})^2) -> kappa
    T = 1e3 / KAPPA
    assert specific_heat(1, T, KAPPA, H).real == pytest.approx(KAPPA, rel=1e-2)


def test_specific_heat_square_overflows_to_a_non_finite_value():
    # (2h)^2 leaves the float range at h = 1e300: a nan or inf heat, not an OverflowError
    for sigma in (1, 1j):
        c = specific_heat(sigma, np.array([1.0, 2.0]), KAPPA, 1e300)
        assert not np.isfinite(c).any()
    # at h = 1 the square is exact, and the heat keeps the bits of the float power
    T = np.linspace(0.05, 10.0, 200)
    for sigma in (1, 1j):
        x = np.exp(-2.0 * H * complex(sigma) / (KAPPA * T))
        ref = (2.0 * H) ** 2 * complex(sigma) * x / (KAPPA * T * T * (1.0 - x) ** 2)
        assert specific_heat(sigma, T, KAPPA, H).tobytes() == ref.tobytes()


def test_df_resonance_pole_guard():
    # e^{-2hi/(kappa T)} = 1 at T = h/(pi kappa n)
    T_pole = 2 * H / (KAPPA * 2 * math.pi)
    with pytest.raises(SingularTimeError):
        average_energy(1j, T_pole, KAPPA, H)


def test_df_rate_amplitude_is_kappa_scaled():
    # |dE_i/dT| = kappa (x/2)^2 / sin^2(x/2) with x = 2h/(kappa T)
    for T in (7.0, 31.0):
        x = 2 * H / (KAPPA * T)
        ref = KAPPA * (x / 2) ** 2 / math.sin(x / 2) ** 2
        assert abs(specific_heat(1j, T, KAPPA, H)) == pytest.approx(ref, rel=1e-10)


def test_log_derivative_identity():
    # finite differences of the partition function reproduce the average energy
    for t in (0.5, 1.2):
        dt = 1e-6
        s = lambda tt: H * tt / (2 * math.pi)
        dZ = (partition_function(1, 0, s(t + dt), PAR).real
              - partition_function(1, 0, s(t - dt), PAR).real) / (2 * dt)
        lhs = -(2 * math.pi / PAR.lam) * dZ
        rhs = partition_function(1, 0, s(t), PAR).real \
            * average_energy(1, 1.0 / t, KAPPA, H).real
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_tension_matches_finite_differences():
    X = np.array([0.6 + 0.2j])
    h = 1e-6
    for a in (0, 1, 2):
        for t in (0.3, 1.1):
            fd = (diagonal_kernel(1j, a, t + h, X, PAR)
                  - diagonal_kernel(1j, a, t - h, X, PAR)) / (2 * h)
            assert tension(a, t, X, PAR) == pytest.approx(fd, rel=1e-6)


def test_tension_modulus_constant_at_origin():
    X = np.array([0.0 + 0.0j])
    vals = [abs(tension(2, t, X, PAR)) for t in (0.1, 0.7, 2.9)]
    ref = (PAR.k / 2) * PAR.lam * (PAR.lam / math.pi) ** (PAR.k / 2) \
        * math.comb(2 + PAR.k // 2 - 1, 2)
    for v in vals:
        assert v == pytest.approx(ref, rel=1e-12)


def test_tension_minimum_at_quarter_point():
    X = np.array([0.8 + 0.1j])
    L = 2 * math.pi / PAR.lam
    ts = np.linspace(1e-4, L - 1e-4, 6001)
    vals = np.array([abs(tension(1, t, X, PAR)) for t in ts])
    tmin = ts[np.argmin(vals)]
    assert min(abs(tmin - L / 4), abs(tmin - 3 * L / 4)) < 2e-3 * L


def test_stable_spread_sign_flip_and_kernel_identity():
    rng = np.random.default_rng(22)
    X = rng.uniform(-0.8, 0.8, (5, 1)) + 1j * rng.uniform(-0.8, 0.8, (5, 1))
    Z = rng.uniform(-0.8, 0.8, (5, 1)) + 1j * rng.uniform(-0.8, 0.8, (5, 1))
    for a in (0, 1, 2):
        s1 = stable_spread(a, 1, X, Z, PAR)
        s3 = stable_spread(a, 3, X, Z, PAR)
        assert np.allclose(s3, -s1, rtol=1e-14)
        assert np.allclose(np.abs(s3), np.abs(s1), rtol=1e-14)
        for quarter, n in ((1, 0), (3, 0), (1, 2)):
            t = quarter_time(quarter, PAR, n=n)
            dk = zonal_kernel(1j, a, t, X, Z, PAR)
            sp = stable_spread(a, quarter, X, Z, PAR)
            assert np.max(np.abs(dk - sp)) < 1e-10


def test_partition_density_extrema():
    P = period(PAR)
    ext = find_period_extrema("partition_density", 0, PAR, n_samples=2001)
    mins = [t for t, kind in ext if kind == "min"]
    assert len(mins) == 1
    assert abs(mins[0] - P / 2) < 1e-6 * P
    poles = [t for t, kind in ext if kind == "pole"]
    assert poles == [0.0, P]


def test_diagonal_density_extrema():
    P = period(PAR)
    X = np.array([0.7 + 0.2j])
    ext = find_period_extrema("diagonal_density", 1, PAR, X=X, n_samples=2001)
    mins = [t for t, kind in ext if kind == "min"]
    maxs = [t for t, kind in ext if kind == "max"]
    assert any(abs(t - P / 2) < 1e-6 * P for t in mins)
    # interior maxima sit at the period boundary pattern; with the pi/lam
    # density period the only interior extremum is the midpoint minimum
    assert all(min(abs(t), abs(t - P)) < 1e-6 * P for t in maxs) or not maxs


def test_energy_density_extrema_pattern():
    kappa, h = KAPPA, 1.0
    P = math.pi * kappa / h
    ext = find_period_extrema("energy_density", 0, PAR, kappa=kappa, h=h, n_samples=2001)
    mins = [t for t, kind in ext if kind == "min"]
    assert any(abs(t - P / 2) < 1e-5 * P for t in mins)


def test_refinement_is_stable():
    ext1 = find_period_extrema("partition_density", 0, PAR, n_samples=1024)
    ext2 = find_period_extrema("partition_density", 0, PAR, n_samples=2048)
    m1 = [t for t, kind in ext1 if kind == "min"][0]
    m2 = [t for t, kind in ext2 if kind == "min"][0]
    assert abs(m1 - m2) < 1e-8 * period(PAR)


def test_non_periodic_request_rejected():
    with pytest.raises(ValueError):
        find_period_extrema("heat_capacity", 0, PAR)
    with pytest.raises(ValueError):
        find_period_extrema("diagonal_density", 0, PAR)   # missing X


def test_periodicity_of_df_quantities():
    P = 2 * math.pi / PAR.lam
    for t in (0.37, 1.21):
        z1 = partition_function(1j, 2, t, PAR)
        z2 = partition_function(1j, 2, t + P, PAR)
        assert abs(z1 - z2) < 1e-10 * abs(z1)
    PE = math.pi * KAPPA / H
    for t in (0.5, 2.2):
        e1 = average_energy_of_time(t, KAPPA, H)
        e2 = average_energy_of_time(t + PE, KAPPA, H)
        assert abs(e1 - e2) < 1e-10 * abs(e1)


def test_period_values():
    assert period(PAR) == pytest.approx(math.pi)
    assert period(PAR, "kernel") == pytest.approx(2 * math.pi)
    assert period(PhysParams(lam=1.0, k=4), "kernel") == pytest.approx(math.pi)
    assert period(PhysParams(lam=2.0, k=2)) == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        period(PAR, "spectrum")


# ---- array-valued times -----------------------------------------------------------


def _time_functions(lam, k, a):
    """name -> (f of one time or temperature, its valid times, bad times with their
    exception class); every f also takes a 1-D array of times."""
    params = PhysParams(lam=lam, k=k)
    X = np.array([0.6 - 0.3j, 0.2 + 0.4j][: k // 2])
    kappa = default_kappa(params)
    ts = np.linspace(0.05, 3.0, 41)
    nonneg = [(-0.5, ValueError), (-1e-300, ValueError)]
    positive = [(0.0, ValueError), (-2.0, ValueError)]
    return {
        "tension": (lambda t: tension(a, t, X, params), ts, nonneg),
        "diagonal_kernel_wk": (lambda t: diagonal_kernel(1, a, t, X, params), ts, nonneg),
        "diagonal_kernel_df": (lambda t: diagonal_kernel(1j, a, t, X, params), ts, nonneg),
        # the form's seven constants, one row per time
        "zonal_form": (lambda t: np.stack(np.broadcast_arrays(
            *_zonal_form(1j, a, t, params)), axis=-1).astype(complex), ts, nonneg),
        "partition_function_wk": (lambda t: partition_function(1, a, t, params), ts, positive),
        "partition_function_df": (lambda t: partition_function(1j, a, t, params), ts,
                                  positive + [(math.pi / lam, SingularTimeError)]),
        "average_energy_wk": (lambda T: average_energy(1, T, kappa, H), ts, positive),
        "average_energy_df": (lambda T: average_energy(1j, T, kappa, H), ts,
                              positive + [(H / (kappa * math.pi), SingularTimeError)]),
        "specific_heat_wk": (lambda T: specific_heat(1, T, kappa, H), ts, positive),
        "specific_heat_df": (lambda T: specific_heat(1j, T, kappa, H), ts,
                             positive + [(H / (kappa * math.pi), SingularTimeError)]),
        "average_energy_of_time": (lambda t: average_energy_of_time(t, kappa, H), ts,
                                   positive + [(kappa * math.pi / H, SingularTimeError)]),
    }


TIME_FUNCTIONS = sorted(_time_functions(1.0, 2, 0))


@pytest.mark.parametrize("name", TIME_FUNCTIONS)
@pytest.mark.parametrize("a", [0, 1, 2])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("lam", [0.4, 1.0, 2.5])
def test_array_of_times_agrees_with_scalar_calls(lam, k, a, name):
    fun, ts, _ = _time_functions(lam, k, a)[name]
    got = fun(ts)
    assert isinstance(got, np.ndarray) and got.shape[0] == len(ts)
    ref = np.array([fun(t) for t in ts])
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize("name", TIME_FUNCTIONS)
def test_bad_time_anywhere_in_the_array_raises_as_the_scalar_call(name):
    fun, ts, bad_times = _time_functions(2.5, 4, 1)[name]
    for bad, error in bad_times:
        with pytest.raises(error) as scalar:
            fun(bad)
        for i in (0, len(ts) // 2, len(ts) - 1):
            times = ts.copy()
            times[i] = bad
            with pytest.raises(error) as array:
                fun(times)
            assert str(array.value) == str(scalar.value)


def _scalar_scan_extrema(quantity, a, params, X, n_samples):
    """find_period_extrema with the period sampled one scalar call at a time."""
    P, poles, fun = period_density(quantity, a, params, X)
    eps = P * 1e-6
    ts = np.linspace(eps, P - eps, n_samples)
    vals = np.array([fun(t) for t in ts])
    out = [(p, "pole") for p in poles]
    for i in range(1, n_samples - 1):
        if vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]:
            out.append((_refine_extremum(fun, ts[i], ts[1] - ts[0], True), "min"))
        elif vals[i] > vals[i - 1] and vals[i] >= vals[i + 1]:
            out.append((_refine_extremum(fun, ts[i], ts[1] - ts[0], False), "max"))
    return sorted(out)


@pytest.mark.parametrize("n_samples", [2001, 4096])
@pytest.mark.parametrize("quantity", ["partition_density", "diagonal_density",
                                      "energy_density"])
@pytest.mark.parametrize("lam", [0.4, 1.0, 2.5])
def test_period_extrema_match_the_scalar_scan(lam, quantity, n_samples):
    params = PhysParams(lam=lam, k=2)
    X = np.array([0.7 + 0.2j])
    got = find_period_extrema(quantity, 1, params, X=X, n_samples=n_samples)
    assert got == _scalar_scan_extrema(quantity, 1, params, X, n_samples)
