"""Global and zonal Wiener-Kac / Dirac-Feynman kernels, partition functions, flow.

sigma = 1 selects the heat (Wiener-Kac) branch, sigma = i the Schrodinger
(Dirac-Feynman) branch.  All kernels act on standard-space wave functions;
points are arrays of complex coordinates with trailing axis of length k/2.
`partition_function` and `_zonal_form` (so `zonal_kernel` at one point) also
take a 1-D array of times and return one value per time.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from ._factored import KernelForm, chain, diagonal_sum, rank_one_to_point
from .algebra import ZonePolynomial, inner_product, norm
from .params import PhysParams
from .special import flat_hermite_grid, hermite_axis, multiplicity_factor
from .zones import _basis_sum, _laguerre_gauss, pairing, project_to_zone, zone_basis

SINGULAR_TIME_TOL = 1e-9
DEFAULT_ORDER = 64
# the fewest CSV rows a KernelGrid writer gets.  On a 2-vCPU VM a forked writer cost
# about 8 ms, and `zonekit kernel` took as long with 2 writers as with 1 at 6,561
# rows, was faster with 2 from 10,000 rows on and slower below 4,096 rows
_WRITER_ROWS = 1 << 12


class SingularTimeError(ValueError):
    """The Dirac-Feynman global kernel is evaluated at a pole of 1/sin(lam t)."""


class QuadratureConvergenceError(RuntimeError):
    """Doubling the quadrature order moved the result beyond the tolerance."""


class NonFiniteOutput(Exception):
    """A computed table value is nan or inf: a failed result, not data (exit 1)."""


# each branch by its name on the command line and in KernelGrid's sigma column
_SIGMAS = {"1": 1, "i": 1j}


def _check_sigma(sigma: complex) -> complex:
    sigma = complex(sigma)
    if sigma not in _SIGMAS.values():
        raise ValueError(f"sigma must be 1 (Wiener-Kac) or 1j (Dirac-Feynman), got {sigma}")
    return sigma


def _refuse(bad, t, error, message: str) -> None:
    """Raise error(message.format(t)) at the first time of `t` (a scalar or a 1-D
    array) where the matching `bad` is true; a scalar is named as given."""
    if np.any(bad):
        raise error(message.format(np.asarray(t)[bad][0] if np.ndim(t) else t))


def _per_time(values, t):
    """complex(values) for a scalar time, the array of values for an array of times."""
    return complex(values) if np.ndim(t) == 0 else values


def global_kernel(sigma: complex, t: float, X: np.ndarray, Y: np.ndarray,
                  params: PhysParams) -> np.ndarray:
    """Closed-form global propagator kernel of the Zeeman flow e^{-sigma t H}.

    For sigma=1 this is the magnetic Mehler heat kernel; sigma=i is its
    analytic continuation, singular at times where sin(lam t) vanishes.
    """
    form = _global_form(sigma, t, params)
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    Y = np.atleast_2d(np.asarray(Y, dtype=complex))
    dist2 = np.sum(np.abs(X - Y) ** 2, axis=-1)
    return form.pref * np.exp(form.A * dist2 + form.D * np.imag(pairing(X, Y, params)))


def _global_form(sigma: complex, t: float, params: PhysParams) -> KernelForm:
    """`global_kernel` as a `KernelForm`: exponent
    -lam coth(sigma lam t)/2 |X-Y|^2 - i lam Im(X.Ybar)."""
    sigma = _check_sigma(sigma)
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    lam, k = params.lam, params.k
    if sigma == 1j and abs(math.sin(lam * t)) < SINGULAR_TIME_TOL:
        raise SingularTimeError(f"sin(lam t) vanishes at t={t} (poles at n*pi/lam)")
    u = sigma * lam * t
    pref = (lam / (2.0 * np.pi * np.sinh(u))) ** (k / 2)
    coth = 1.0 / np.tanh(u)
    # phase sign fixed by the spectral oracle: the long-time limit must project
    # onto the lowest-energy (antiholomorphic) modes
    return KernelForm(pref, 0, -0.5 * lam * coth, -0.5 * lam * coth, lam * coth,
                      -1j * lam)


def zonal_kernel(sigma: complex, a: int, t: float, X: np.ndarray, Z: np.ndarray,
                 params: PhysParams) -> np.ndarray:
    """Closed-form zonal propagator kernel.

    Reduces to the zone projection kernel at t=0 and is entire in t for both
    branches (no singular times, unlike the global Dirac-Feynman kernel).
    """
    sigma = _check_sigma(sigma)
    form = _zonal_form(sigma, a, t, params)
    return _laguerre_gauss(form.pref, a, np.exp(-2.0 * sigma * params.lam * t), X, Z, params)


def _zonal_form(sigma: complex, a: int, t: float, params: PhysParams) -> KernelForm:
    """`zonal_kernel` as a `KernelForm`: exponent lam (q X.Zbar - (|X|^2 + |Z|^2)/2)."""
    sigma = _check_sigma(sigma)
    _refuse(t < 0, t, ValueError, "t must be nonnegative, got {}")
    lam, k = params.lam, params.k
    q = np.exp(-2.0 * sigma * lam * t)
    pref = (lam * np.exp(-sigma * lam * t) / np.pi) ** (k / 2)
    return KernelForm(pref, a, -0.5 * lam, -0.5 * lam, lam * q, 1j * lam * q)


def zonal_kernel_spectral(sigma: complex, a: int, t: float, X: np.ndarray, Z: np.ndarray,
                          params: PhysParams, pmax: int = 24,
                          include_field_term: bool = False) -> np.ndarray:
    """Truncated spectral sum sum_p e^{-sigma t mu_p} phi_p(X) conj(phi_p(Z)).

    Independent oracle for the closed-form kernel, built from the orthonormal
    zone basis and the explicit spectrum.
    """
    sigma = _check_sigma(sigma)
    terms = []
    for vec in zone_basis(a, a + pmax, params):
        mu = params.zeeman_eigenvalue(vec.zeeman_degree(), include_field_term)
        terms.append((np.exp(-sigma * t * mu), vec))
    return _basis_sum(terms, X, Z, params)


def field_term_multiplier(sigma: complex, t: float, params: PhysParams) -> complex:
    """Factor converting the bare-flow kernel into the field-augmented one.

    The field-augmented operator exceeds the bare one by the constant
    2 k lam^2, so its kernel is exp(-2 k lam^2 sigma t) times the bare kernel.
    The verification suite confirms the sign of the exponent against the
    spectral oracle.
    """
    sigma = _check_sigma(sigma)
    lam, k = params.lam, params.k
    return complex(np.exp(-2.0 * k * lam * lam * sigma * t))


def partition_function(sigma: complex, a: int, t, params: PhysParams):
    """Closed-form zonal partition function (trace of the zonal kernel), at a time
    or elementwise over a 1-D array of times."""
    sigma = _check_sigma(sigma)
    _refuse(t <= 0, t, ValueError, "t must be positive, got {}")
    lam, k = params.lam, params.k
    q = np.exp(-2.0 * sigma * lam * t)
    _refuse(abs(1.0 - q) < SINGULAR_TIME_TOL, t, SingularTimeError,
            "partition function pole at t={}")
    binom = multiplicity_factor(a, k)
    return _per_time(binom * np.exp(-0.5 * k * lam * t * sigma) / (1.0 - q) ** (k / 2), t)


def partition_function_trace(sigma: complex, a: int, t: float, params: PhysParams,
                             order: int = 40) -> complex:
    """Quadrature trace int d_sigma^(a)(t, X, X) dX, the oracle for the closed form.

    The diagonal factors over the real axes, so the tensor Hermite sum is a
    product of one-axis sums.  It is taken at `order` and at 2 * order, and a
    relative move above 1e-6 raises QuadratureConvergenceError.
    """
    sigma = _check_sigma(sigma)
    lam, k = params.lam, params.k
    q = complex(np.exp(-2.0 * sigma * lam * t))
    lam_eff = lam * (1.0 - q.real)
    if lam_eff <= 0:
        raise SingularTimeError(f"diagonal not integrable at t={t}")
    form = _zonal_form(sigma, a, t, params)

    def run(n):
        x, w = hermite_axis(n, lam_eff)
        return diagonal_sum(form, [x] * k, [w * np.exp(lam_eff * x * x)] * k)

    val, val2 = run(order), run(2 * order)
    if abs(val - val2) > 1e-6 * abs(val):
        raise QuadratureConvergenceError(
            f"trace moved from {val:.6e} to {val2:.6e} on order doubling")
    return val


# ---- zonal flow --------------------------------------------------------------


def infer_zone(f: ZonePolynomial) -> int:
    """Zone index of f (its projection keeps it to 1e-9 relative), or raise if f
    straddles several zones."""
    if f.is_zero():
        raise ValueError("cannot infer the zone of the zero state")
    nrm = norm(f)
    for a in range(f.max_degree() + 1):
        if norm(f - project_to_zone(f, a)) <= 1e-9 * nrm:
            return a
    raise ValueError("state does not lie in a single zone")


def evolve(f: ZonePolynomial, sigma: complex, t: float, params: PhysParams,
           include_field_term: bool = False) -> ZonePolynomial:
    """Propagate a single-zone state spectrally: coefficients pick up e^{-sigma t mu_p}.

    The eigenvalues are those of the bare Zeeman operator, matching the
    closed-form zonal kernels; `include_field_term` adds the constant
    2 k lam^2 (an overall phase/decay factor).
    """
    sigma = _check_sigma(sigma)
    if params != f.params:
        raise ValueError("parameter mismatch between state and request")
    a = infer_zone(f)
    deg = f.max_degree()
    out = ZonePolynomial({}, params)
    for vec in zone_basis(a, deg, params):
        c = inner_product(f, vec)
        if c == 0:
            continue
        mu = params.zeeman_eigenvalue(vec.zeeman_degree(), include_field_term)
        out = out + (c * np.exp(-sigma * t * mu)) * vec
    return out


def evolve_by_convolution(f: ZonePolynomial, sigma: complex, t: float,
                          params: PhysParams, X: np.ndarray,
                          order: int = DEFAULT_ORDER) -> np.ndarray:
    """Quadrature of the propagation integral int d^(a)(t,X,Z) psi(Z) dZ.

    Cross-check for `evolve`; `X` holds complex coordinate rows and the
    returned values are standard-space wave-function samples.
    """
    return _convolve(_zonal_form(sigma, infer_zone(f), t, params), f, params, params.lam,
                     order, X)


def _convolve(form: KernelForm, f: ZonePolynomial, params: PhysParams, grid_lam: float,
              order: int, X: np.ndarray) -> np.ndarray:
    """int K(X, Z) psi(Z) dZ at each complex coordinate row of `X`, with psi the
    standard-space wave function of `f` (`to_standard`), on the tensor grid of
    `hermite_axis(order, grid_lam)` with the Gaussian divided back out.

    psi and the weights are a sum of rank-one grid functions, one per monomial
    c z^P zbar^V: coordinate r is the order x order table z_r^p_r zbar_r^v_r
    e^(-lam |z_r|^2 / 2) w_i w_j e^(grid_lam (x_i^2 + x_j^2)), the first one times c.
    `_factored.rank_one_to_point` contracts each table against its coordinate of the
    kernel, so no grid function of order^k nodes is formed.
    """
    x, w = hermite_axis(order, grid_lam)
    z = x[:, None] + 1j * x
    half = np.multiply.outer(w, w) * np.exp((grid_lam - 0.5 * f.params.lam)
                                            * np.add.outer(x * x, x * x))
    keys = list(f.coefficients)
    factors = [np.array([z ** key[r][0] * np.conj(z) ** key[r][1] * half for key in keys])
               for r in range(params.m)]
    factors[0] *= np.array(list(f.coefficients.values()))[:, None, None]
    # the contraction sums over its first argument, so Z goes first: K'(Z, X) = K(X, Z)
    form, axes = form.swapped(), [x] * params.k
    return np.array([rank_one_to_point(factors, form, params, axes, y)
                     for y in np.atleast_2d(np.asarray(X, dtype=complex))])


def semigroup_residual(sigma: complex, a: int, s: float, t: float,
                       sample_pairs, params: PhysParams,
                       order: int = DEFAULT_ORDER) -> float:
    """Max Chapman-Kolmogorov defect |int d(s,X,M) d(t,M,Y) dM - d(s+t,X,Y)|."""
    sigma = _check_sigma(sigma)
    if s <= 0 or t <= 0:
        raise ValueError("both time arguments must be positive")
    pairs = list(sample_pairs)
    if not pairs:
        raise ValueError("need at least one sample pair")
    X, Y = (np.array(side, dtype=complex) for side in zip(*pairs))
    left, right = _zonal_form(sigma, a, s, params), _zonal_form(sigma, a, t, params)
    target = zonal_kernel(sigma, a, s + t, X, Y, params)
    axes, weights = flat_hermite_grid(order, params.lam, params.k)
    grid = (axes, weights.reshape((order,) * params.k))
    comp = [chain(x, y, [grid], [left, right], params) for x, y in zip(X, Y)]
    return float(np.max(np.abs(np.array(comp) - target)))


# ---- sampled kernel grids -----------------------------------------------------


@dataclass
class KernelGrid:
    """Complex kernel values over a rectangular X x Y grid, read one X row at a time.

    A grid from `sample` holds only its rule (sigma, t, a, params) and the two
    point sets, and `row(i)` evaluates the kernel of X point i against every Y
    point each time it is read, so no X x Y array is ever formed.  A grid built
    with explicit `values` (an X x Y array) returns its stored rows.
    """

    sigma: complex
    t: float
    points_X: np.ndarray
    points_Y: np.ndarray
    values: np.ndarray | None
    params: PhysParams
    a: int | None = None

    def __post_init__(self) -> None:
        self.sigma = _check_sigma(self.sigma)
        nx = np.atleast_2d(self.points_X).shape[0]
        ny = np.atleast_2d(self.points_Y).shape[0]
        if self.values is None:
            # the errors of the rule alone (t, a singular time) come up here, before any row
            if self.a is None:
                _global_form(self.sigma, self.t, self.params)
            else:
                _zonal_form(self.sigma, self.a, self.t, self.params)
        elif np.shape(self.values) != (nx, ny):
            raise ValueError(f"values must be a |points_X| x |points_Y| = {nx} x {ny} array, "
                             f"got shape {np.shape(self.values)}")
        if (self.a is None and self.sigma == 1j
                and abs(math.sin(self.params.lam * self.t)) < SINGULAR_TIME_TOL):
            raise SingularTimeError(f"global grid at singular time t={self.t}")

    @classmethod
    def sample(cls, sigma: complex, t: float, points_X: np.ndarray, points_Y: np.ndarray,
               params: PhysParams, a: int | None = None) -> "KernelGrid":
        """The grid of the global kernel (a None) or of zone a, evaluated row by row
        as it is read; an invalid sigma, t or singular time raises here."""
        X = np.atleast_2d(np.asarray(points_X, dtype=complex))
        Y = np.atleast_2d(np.asarray(points_Y, dtype=complex))
        return cls(sigma, t, X, Y, None, params, a)

    def row(self, i: int) -> np.ndarray:
        """The values of X point i against every Y point."""
        if self.values is not None:
            return self.values[i]
        Y = self.points_Y
        X = np.broadcast_to(self.points_X[i], Y.shape)
        if self.a is None:
            return global_kernel(self.sigma, self.t, X, Y, self.params)
        return zonal_kernel(self.sigma, self.a, self.t, X, Y, self.params)

    def write_csv(self, path: str) -> None:
        """One CSV row per (X, Y) pair, every number as ``repr(float)``, CRLF lines.

        Each grid point is formatted once, and each X row is read through `row`
        just before it is formatted, so no writer holds more than one X row of
        values.  A row with a nan or inf value raises NonFiniteOutput naming
        `path`, the column and the row number, and nothing is written.  The X
        rows are split into one contiguous block per usable CPU, at least
        ``_WRITER_ROWS`` CSV rows each: forked children read and write blocks
        1.. to ``<path>.part<j>`` while this process writes the header and
        block 0 to ``<path>.part0``, then each part is appended to part 0 in
        order and deleted, and part 0 is renamed onto `path`.  With one usable
        CPU, one X row, fewer than 2 * ``_WRITER_ROWS`` CSV rows or no
        ``os.copy_file_range`` nothing is forked.  An OSError or NonFiniteOutput
        in a child is raised here, the first in block order, as in block 0.
        On any failure no part and no `path` is left behind (an existing
        `path` is kept as it was).
        """
        m = self.params.m
        header = [f"{p}_{z}{j+1}" for z in "zw" for j in range(m) for p in ("re", "im")]
        header += ["sigma", "t", "a", "kernel_re", "kernel_im"]
        sig = next(name for name, value in _SIGMAS.items() if value == self.sigma)
        a = "" if self.a is None else self.a

        def coords(points):
            return [",".join(f"{c.real!r},{c.imag!r}" for c in p)
                    for p in np.asarray(points, dtype=complex).tolist()]

        suffixes = [f"{y},{sig},{float(self.t)!r},{a}," for y in coords(self.points_Y)]
        xs = coords(self.points_X)
        rows = len(xs) if suffixes else 0  # an empty Y grid has no rows, not bare X prefixes
        # the parts are joined by os.copy_file_range, which Python has only on Linux
        n = max(1, min(_usable_cpus(), rows, rows * len(suffixes) // _WRITER_ROWS)) \
            if hasattr(os, "copy_file_range") else 1
        blocks = [range(rows * j // n, rows * (j + 1) // n) for j in range(n)]
        parts = [f"{path}.part{j}" for j in range(n)]
        procs, pipes = [], []
        try:
            with open(parts[0], "w", newline="") as fh:
                fh.write(",".join(header) + "\r\n")
                fh.flush()  # a forked child must not inherit the buffered header
                # the children only evaluate, format and write; the other threads of
                # this process (BLAS workers) hold no lock they need
                ctx = multiprocessing.get_context("fork")
                for part, block in zip(parts[1:], blocks[1:]):
                    pipes.append(ctx.Pipe(duplex=False))
                    proc = ctx.Process(target=_write_part, daemon=True,
                                       args=(part, self, block, xs, suffixes, path,
                                             pipes[-1][1]))
                    proc.start()
                    procs.append(proc)
                _write_rows(fh, self, blocks[0], xs, suffixes, path)
                fh.flush()
                for proc, part, (error, _) in zip(procs, parts[1:], pipes):
                    proc.join()
                    if error.poll():  # the child sent the error it stopped at
                        raise error.recv()
                    if proc.exitcode != 0:
                        raise RuntimeError(f"writer of {part} exited with code {proc.exitcode}")
                    _append(fh.fileno(), part)
                    os.remove(part)
            os.replace(parts[0], path)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                proc.join()
            for ends in pipes:
                for conn in ends:
                    conn.close()
            for part in parts:
                if os.path.exists(part):
                    os.remove(part)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_rows(fh, grid: KernelGrid, block: range, xs, suffixes, path: str) -> None:
    """The CSV rows of the X rows `block` of `grid` (`xs` formatted) against every Y
    suffix; a row with a nan or inf value raises NonFiniteOutput naming `path`."""
    for i in block:
        values = grid.row(i)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            j = bad[0]
            column, v = ("kernel_im", values[j].imag) if math.isfinite(values[j].real) \
                else ("kernel_re", values[j].real)
            raise NonFiniteOutput(f"{path}: {column} is {float(v)!r} in row "
                                  f"{i * len(values) + j + 1}")
        x = xs[i] + ","
        fh.write(x + ("\r\n" + x).join(map("{}{},{}".format, suffixes,
                                           map(repr, values.real.tolist()),
                                           map(repr, values.imag.tolist()))) + "\r\n")


def _write_part(part, grid, block, xs, suffixes, path, error) -> None:
    """Write one block to `part` in a child; an OSError or NonFiniteOutput goes back
    through the pipe end `error` for the parent to raise, not to this child's stderr."""
    try:
        with open(part, "w", newline="") as fh:
            _write_rows(fh, grid, block, xs, suffixes, path)
    except (OSError, NonFiniteOutput) as exc:
        error.send(exc)


def _append(fd: int, path: str) -> None:
    """Append the whole file `path` at the offset of `fd`, inside the kernel."""
    with open(path, "rb") as src:
        left = os.fstat(src.fileno()).st_size
        while left:
            done = os.copy_file_range(src.fileno(), fd, left)
            if done == 0:
                raise RuntimeError(f"{path} ended {left} bytes short while appending")
            left -= done
