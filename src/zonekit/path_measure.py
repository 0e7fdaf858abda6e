"""Time-sliced reconstruction of the zonal path measures.

Cylinder-set measures chain propagator kernels over box integrals; the
discretized Feynman-Kac evaluator chains spread-amplitude kernels against the
path action and converges to the closed-form zonal kernel on the holomorphic
zone.  Radon-Nikodym densities tie the three measures together pointwise.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._factored import chain, point_axes, transfer
from .params import PhysParams
from .propagators import _check_sigma, _global_form, _usable_cpus, _zonal_form
from .special import _require_memory, flat_hermite_grid, gauss_legendre, tensor_points
from .zones import pairing, zone_kernel


@dataclass(frozen=True)
class PathDiscretization:
    """Time-sliced continuous path: horizon, interior times, endpoints, midpoints.

    Points are arrays of complex coordinates (length k/2); `midpoints` holds
    one point per interior time.
    """

    T: float
    times: tuple[float, ...]
    x: tuple[complex, ...]
    y: tuple[complex, ...]
    midpoints: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        if self.T <= 0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        ts = self.times
        if any(not 0.0 < t < self.T for t in ts):
            raise ValueError("interior times must lie strictly inside (0, T)")
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("interior times must be strictly increasing")
        if len(self.midpoints) != len(ts):
            raise ValueError("need exactly one midpoint per interior time")
        m = len(self.x)
        if len(self.y) != m or any(len(p) != m for p in self.midpoints):
            raise ValueError("all points must share the coordinate dimension")

    @classmethod
    def uniform(cls, x, y, T: float, midpoints) -> "PathDiscretization":
        n = len(midpoints)
        times = tuple((i + 1) * T / (n + 1) for i in range(n))
        return cls(T, times, tuple(complex(c) for c in np.atleast_1d(x)),
                   tuple(complex(c) for c in np.atleast_1d(y)),
                   tuple(tuple(complex(c) for c in np.atleast_1d(p)) for p in midpoints))

    @property
    def k(self) -> int:
        return 2 * len(self.x)


def action_functional(path: PathDiscretization) -> float:
    """Path action k T/2 + 2 int_0^T |omega|^2 dtau, trapezoid on the slice grid."""
    vals = [sum(abs(c) ** 2 for c in path.x)]
    vals += [sum(abs(c) ** 2 for c in p) for p in path.midpoints]
    vals.append(sum(abs(c) ** 2 for c in path.y))
    ts = (0.0,) + path.times + (path.T,)
    integral = sum(0.5 * (t2 - t1) * (f1 + f2)
                   for t1, t2, f1, f2 in zip(ts, ts[1:], vals, vals[1:]))
    return path.k * path.T / 2.0 + 2.0 * integral


def radon_nikodym_density(kind: str, path: PathDiscretization) -> complex:
    """Pointwise density between the three path measures.

    kind: "nu_over_wk" -> e^{+A}, "feynman_over_wk" -> e^{(1-i) A},
    "feynman_over_nu" -> e^{-i A}, the unit stopwatch phase, with A the path action.
    The three kinds satisfy the multiplicative chain rule exactly.
    """
    A = action_functional(path)
    if kind == "nu_over_wk":
        return complex(np.exp(A))
    if kind == "feynman_over_wk":
        return complex(np.exp((1.0 - 1j) * A))
    if kind == "feynman_over_nu":
        return complex(np.exp(-1j * A))
    raise ValueError(f"unknown density kind {kind!r}")


# ---- cylinder measures ---------------------------------------------------------


def _chain_form(kind: str, a: int | None, params: PhysParams):
    """The step kernel of a cylinder chain as a function dt -> KernelForm."""
    if kind == "global_wk":
        return lambda dt: _global_form(1, dt, params)
    if kind == "global_df":
        return lambda dt: _global_form(1j, dt, params)
    if kind == "zonal_wk":
        return lambda dt: _zonal_form(1, a, dt, params)
    if kind == "zonal_df":
        return lambda dt: _zonal_form(1j, a, dt, params)
    if kind == "spread_amplitude":
        return lambda dt: _zonal_form(1, a, 0.0, params)
    raise ValueError(f"unknown kernel kind {kind!r}")


def _box_axes(box, order: int):
    """Per-axis Gauss-Legendre nodes over a rectangular box in R^k, and the
    tensor product of their weights."""
    nodes, weights = zip(*(gauss_legendre(order, lo, hi) for lo, hi in box))
    return list(nodes), functools.reduce(np.multiply.outer, weights)


def cylinder_measure(kernel_kind: str, times, boxes, x, y, T: float,
                     params: PhysParams, a: int | None = None,
                     order: int = 24) -> complex:
    """Iterated kernel integral over rectangular boxes at the subdivision times.

    With every box covering the whole (numerically truncated) space this
    reproduces the closed-form kernel at horizon T; a degenerate box gives 0.
    `boxes` holds one box per interior time, each a sequence of k (lo, hi)
    pairs of real coordinates.  Each box is a Gauss-Legendre tensor grid of
    `order` nodes per axis, and `chain` integrates the kernel chain over them.
    """
    times = tuple(times)
    if len(boxes) != len(times):
        raise ValueError("need exactly one box per interior time")
    if any(not 0.0 < t < T for t in times) or any(
            t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("subdivision times must be strictly increasing inside (0, T)")
    if any(hi <= lo for box in boxes for lo, hi in box):
        return 0j
    form_at = _chain_form(kernel_kind, a, params)
    ts = (0.0,) + times + (T,)
    return chain(x, y, [_box_axes(box, order) for box in boxes],
                 [form_at(t2 - t1) for t1, t2 in zip(ts, ts[1:])], params)


def whole_space_box(params: PhysParams, radius: float | None = None):
    """Box truncating R^k where Gaussian tails (with moderate polynomial
    factors from the Laguerre kernels) drop below ~1e-12."""
    if radius is None:
        radius = math.sqrt(40.0 / params.lam)
    return [(-radius, radius)] * params.k


# ---- discretized Feynman-Kac ----------------------------------------------------


def _slice_counts(slice_counts) -> tuple[int, ...]:
    """The slice counts as a tuple, refused unless each has at least one slice."""
    counts = tuple(slice_counts)
    if not counts or min(counts) < 1:
        raise ValueError(f"need slice counts of at least one slice, got {counts}")
    return counts


def feynman_kac_sweep(sigma: complex, a: int, x, y, T: float, slice_counts,
                      params: PhysParams, order: int = 48) -> list[complex]:
    """Time-sliced spread-amplitude reconstruction of the zonal kernel at each
    of `slice_counts`, in the given order.

    At n slices, chains n + 1 zone kernels through n interior points at
    uniform times, weighted by e^{-sigma (kT/2 + 2 lam^2 S)}, S the Riemann
    sum of dt * omega(t_i).conj(omega(t_{i+1})) over the intervals.  The
    value converges to the closed-form zonal kernel on the holomorphic zone
    at first order in 1/n (relative error 4.6e-3, 2.5e-3, 1.7e-3 at n = 4, 8,
    12 for `zonekit path`'s defaults).

    The Gauss-Hermite grid over N = order^k nodes, the end vectors and the
    zone-kernel matrix K serve every n; each n refills one N x N step in
    place.  Grid parity gives step[N-1-i, N-1-j] == step[i, j], and grid
    conjugation (ci reverses every imaginary-part axis) gives A[ci][:, ci]
    == conj(A) for K and the sigma = 1 step, value for value.  K is held
    only on its conjugation quarter: first real index below order // 2 and
    first imaginary index below ceil(order / 2), plus the top half of an odd
    order's middle slab.  The step's top half is filled on that quarter and
    conjugated at sigma = 1, filled whole at sigma = i (reading
    conj(K[ci][:, ci]) off the quarter), and mirrored to the bottom half.
    The fills run in row blocks on every usable CPU (`_fill_rows`) and keep
    every bit of a one-thread fill.  An order whose step, K quarter, Hermite
    rule and grid exceed physical memory raises ValueError before anything
    is allocated.
    """
    sigma = _check_sigma(sigma)
    slice_counts = _slice_counts(slice_counts)
    lam, k = params.lam, params.k
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    chained = max(slice_counts) > 1  # else no step matrix is needed
    N = order**k
    half = (N + 1) // 2  # the parity half; the middle row of an odd N is its own mirror
    slab, lo = N // order, (order + 1) // 2 * (N // order**2)
    qrows = order // 2 * lo + half - order // 2 * slab  # the rows of `quarter` below
    # complex N-vectors: the grid points and four end vectors, and with a chain the
    # quarter of K and the step buffer; real: the Hermite rule's order x order
    # companion matrix and the grid weights
    vectors = params.m + 4 + (qrows + N if chained else 0)
    _require_memory(np.dtype(complex).itemsize * vectors * N
                    + np.dtype(float).itemsize * (order * order + N),
                    f"sliced quadrature at order {order} ({N} nodes)")
    # the conjugation quarter, and the conjugate rows that complete the parity half
    quarter = [(r * slab, r * slab + lo) for r in range(order // 2)] \
        + [(order // 2 * slab, half)]
    mirrored = [(r * slab + lo, (r + 1) * slab) for r in range(order // 2)]
    axes, w = flat_hermite_grid(order, lam, k)
    m = tensor_points(axes)
    xs, ys = np.broadcast_to(x, m.shape), np.broadcast_to(y, m.shape)
    ker_x, ker_y = zone_kernel(a, xs, m, params), zone_kernel(a, m, ys, params)
    act_x, act_y = pairing(xs, m, params), pairing(m, ys, params)
    if chained:
        K = np.empty((qrows, N), dtype=complex)
        step = np.empty((N, N), dtype=complex)
        ci = np.flip(np.arange(N).reshape((order,) * k), tuple(range(1, k, 2))).ravel()

        def krow(i):  # the row of K holding grid row i of the quarter
            return i // slab * lo + i % slab

        def kernel_rows(rows):  # K on a row block that lies within one fill range
            if rows.start % slab < lo:  # on the quarter: a view
                start = krow(rows.start)
                return K[start:start + rows.stop - rows.start]
            return np.conjugate(K[krow(ci[rows])][:, ci])

        def fill_kernel(rows):
            kernel_rows(rows)[...] = zone_kernel(a, m[rows, None, :], m[None, :, :], params)

        _fill_rows(fill_kernel, quarter, N)
    vals = []
    for n in slice_counts:
        c = 2.0 * sigma * lam**2 * (T / (n + 1))
        f = ker_x * np.exp(-c * act_x)

        def fill_step(rows):
            out = step[rows]
            np.multiply(-c, pairing(m[rows, None, :], m[None, :, :], params), out=out)
            np.exp(out, out=out)
            np.multiply(kernel_rows(rows), out, out=out)

        if n > 1:
            real = c.imag == 0  # then the step is conjugation symmetric like K
            _fill_rows(fill_step, quarter if real else quarter + mirrored, N)
            if real:
                _conjugate_rows(step, order, k)
            step[half:] = step[:N - half][::-1, ::-1]
        # the chain stays on this thread, after the fill, in one summation order
        for _ in range(n - 1):
            f = (w * f) @ step
        val = np.sum(w * f * ker_y * np.exp(-c * act_y))
        val *= np.exp(-sigma * k * lam * T / 2.0)
        vals.append(complex(val))
    return vals


def _sliced_chain(sigma: complex, a: int, x, y, T: float, slice_counts,
                  params: PhysParams, order: int = 48) -> list[complex]:
    """`feynman_kac_sweep`'s values through the factored kernel chain.

    The step kernel zone_kernel(a, Z, W) e^{-c Z.Wbar}, c = 2 sigma lam^2
    T/(n+1), is one `KernelForm`: the zone kernel's with c taken off its C
    and i c off its D.  At n slices `chain` runs it n + 1 times, from x
    through n copies of the Hermite grid to y, and the result carries the
    factor e^{-sigma k lam T/2}.  Equal to the dense sweep up to rounding.
    An order whose grid function and transfer temporaries exceed physical
    memory raises ValueError before anything is allocated.
    """
    sigma = _check_sigma(sigma)
    slice_counts = _slice_counts(slice_counts)
    lam, k = params.lam, params.k
    nodes = order**k
    # complex: the grid function, its weighted copy, the running sum over Laguerre
    # terms and the term, and `_coordinate`'s copy, output, product and BLAS result;
    # real: the grid weights and the Hermite rule's order x order companion matrix
    _require_memory(np.dtype(complex).itemsize * 8 * nodes
                    + np.dtype(float).itemsize * (nodes + order * order),
                    f"sliced quadrature at order {order} ({nodes} nodes)")
    axes, w = flat_hermite_grid(order, lam, k)
    grid = (axes, w.reshape((order,) * k))
    base = _zonal_form(1, a, 0.0, params)
    vals = []
    for n in slice_counts:
        c = 2.0 * sigma * lam**2 * (T / (n + 1))
        form = base._replace(C=base.C - c, D=base.D - 1j * c)
        val = chain(x, y, [grid] * n, [form] * (n + 1), params)
        vals.append(complex(val * np.exp(-sigma * k * lam * T / 2.0)))
    return vals


# elements per row block of a fill: a few block-sized temporaries stay
# in cache, and a small grid is one or a few blocks
_BLOCK_ELEMENTS = 1 << 16


def _fill_rows(fill, ranges, n_cols: int) -> None:
    """Call `fill(rows)` on contiguous row slices covering each (start, stop)
    row range of a matrix with n_cols columns.

    The blocks of all ranges go through one pool map, on one thread per
    usable CPU (numpy releases the GIL in the element-wise work), or inline
    with one usable CPU or one block.  Every block runs under the caller's
    numpy error state, which does not follow a thread by itself.
    """
    size = max(1, _BLOCK_ELEMENTS // n_cols)
    blocks = [slice(i, min(i + size, stop)) for start, stop in ranges
              for i in range(start, stop, size)]
    workers = min(_usable_cpus(), len(blocks))
    if workers <= 1:
        for rows in blocks:
            fill(rows)
        return
    err = np.geterr()

    def fill_block(rows):
        with np.errstate(**err):
            fill(rows)

    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(fill_block, blocks):  # re-raises a block's exception here
            pass


def _conjugate_rows(A, order: int, k: int) -> None:
    """Write the rows of A whose first real index is below order // 2 and whose
    first imaginary index is at least ceil(order / 2) as the conjugates of their
    conjugation mirrors, one slab at a time so that numpy needs no temporary."""
    h = order // 2
    slabs = A[:h * order**(k - 1)].reshape((h,) + (order,) * (2 * k - 1))
    for slab in slabs:
        # the slab's axes 0, 2, ... are the imaginary ones, row and column
        np.conjugate(np.flip(slab[:h], tuple(range(0, 2 * k - 1, 2))), out=slab[order - h:])


def probability_total_mass(a: int, x, T: float, params: PhysParams,
                           order: int = 64) -> float:
    """Quadrature over Y in R^k of the zonal arrival density pi^{k/2} |d_i^(a)(T, x, Y)|^2.

    Independent of the horizon T on the holomorphic zone (conservation); the
    constant equals lam^{k/2} rather than 1, which the verification suite
    reports alongside the conservation check.
    """
    k = params.k
    axes, w = flat_hermite_grid(order, params.lam, k)
    vals = transfer(np.ones((1,) * k), _zonal_form(1j, a, T, params), params, point_axes(x),
                    axes).ravel()
    dens = np.pi ** (k / 2) * np.abs(vals) ** 2
    return float(np.sum(w * dens))
