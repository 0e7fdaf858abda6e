"""Command-line front end: kernels, spectra, curves, and the verification suite.

Outputs are CSV (complex values split into _re/_im columns) or JSON reports.
A plain-text ``key=value`` config file supplies ``lambda`` and ``k`` defaults that
flags override; ZONEKIT_OUTDIR sets the default output directory.

The library works at macroscopic units (hbar = mass = 1).  The microscopic
operator follows from substituting lam -> lam/hbar together with rescaling
the center period by hbar; pass the rescaled lam explicitly if that is what
you want.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import thermo, verify
from .algebra import ZonePolynomial
from .extensions import clifford_dimension, unprojected_coulomb_matrix, zonal_coulomb_matrix
from .padi import anomalous_kernel, eigenspinors, normalization_report
from .params import PhysParams
from .path_measure import feynman_kac_sweep
from .propagators import (_SIGMAS, KernelGrid, NonFiniteOutput, QuadratureConvergenceError,
                          SingularTimeError, evolve, partition_function, zonal_kernel)
from .special import _require_memory, tensor_points
from .zones import zone_basis

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


# Peak bytes per row of each table over its whole command, by tracemalloc at the smaller
# of two sizes (Python 3.11, numpy 2.4); anomalous_kernel rows carry their grid points,
# clifford rows are taken where n_r has the most digits, and path rows at order 1.
_ROW_BYTES = {"spectrum": 350, "thermo": 820, "partition": 450, "anomalous_kernel": 610,
              "clifford": 11010, "path": 1080}

# the most decimal digits of a clifford n_r, Python's default int-to-string limit
_CLIFFORD_DIGITS = 4300

# the largest zone index of a sampled kernel (`kernel`, `path`): its Laguerre factor takes
# one recurrence step per degree on every point, so the work grows with --a, and
# 10^4 steps cost about 0.3 s on a 9-point kernel grid
_MAX_ZONE = 10**4

# config key -> (argument it sets where no flag does, its type); PhysParams holds the defaults
_CONFIG_KEYS = {"lambda": ("lam", float), "k": ("k", int)}


def _apply_config(args) -> None:
    """Fill --lambda and --k that were not given from the --config file.

    verify runs each check on its own parameter table, so it refuses both flags and
    both config keys.
    """
    if args.fn is cmd_verify:
        for key, (dest, _) in _CONFIG_KEYS.items():
            if getattr(args, dest) is not None:
                raise UsageError(f"verify does not take --{key}: each check runs on its own "
                                 "parameter table")
    cfg = {}
    if args.config:
        with open(args.config) as fh, _parsing("--config", "key=value text", args.config):
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise UsageError(f"unknown config key {key!r} in {args.config} "
                                     f"(known: {', '.join(_CONFIG_KEYS)})")
                cfg[key] = val.strip()
    if args.fn is cmd_verify and cfg:
        raise UsageError(f"verify does not take {next(iter(cfg))} from {args.config}: each "
                         "check runs on its own parameter table")
    for key, (dest, kind) in _CONFIG_KEYS.items():
        if key in cfg and getattr(args, dest) is None:
            with _parsing(f"config key {key!r} in {args.config}", kind.__name__, cfg[key]):
                setattr(args, dest, kind(cfg[key]))


def _params(args) -> PhysParams:
    """PhysParams of the --lambda and --k that a flag or the config file set."""
    return PhysParams(**{dest: getattr(args, dest) for dest, _ in _CONFIG_KEYS.values()
                         if getattr(args, dest) is not None})


def _sigma(args) -> complex:
    return _SIGMAS[args.sigma]


def _output(args, name: str | None = None) -> str:
    """Path of an output file (default --output) in the output directory, which is created."""
    out = args.outdir or os.environ.get("ZONEKIT_OUTDIR", ".")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name or args.output)


@contextlib.contextmanager
def _parsing(flag: str, form: str, text: str):
    """Refuse a ValueError raised while parsing `text` as a usage error that names its flag
    (or config key) and the form it expects."""
    try:
        yield
    except ValueError:
        raise UsageError(f"{flag} must be {form}, got {text!r}") from None


def _grid_points(text: str, flag: str, row_bytes: int = 0) -> tuple[float, float, int]:
    """lo, hi and the point count n of lo:hi:step for one real axis; the step must
    divide hi - lo to 1e-9 relative.

    A step so large that hi - lo rounds to no step at all does not divide it either:
    only lo:lo:step is a one-point grid.  Memory is checked for the points and for
    one table row of `row_bytes` per point.
    """
    with _parsing(flag, "lo:hi:step, three numbers", text):
        lo, hi, step = (float(p) for p in text.split(":"))
    if step == 0:
        raise UsageError(f"grid step must be nonzero, got {text!r}")
    if (hi - lo) * step < 0:
        raise UsageError(f"grid step must have the sign of hi - lo, got {text!r}")
    steps = (hi - lo) / step
    if not all(map(math.isfinite, (lo, hi, step, steps))):
        raise UsageError(f"grid needs a finite range, step and step count, got {text!r}")
    n = int(math.floor(steps + 0.5)) + 1
    if abs(steps - (n - 1)) > 1e-9 * max(abs(steps), 1.0) or (n == 1 and hi != lo):
        raise UsageError(f"grid step must divide hi - lo, got {text!r}")
    _require_memory((np.dtype(float).itemsize + row_bytes) * n, f"grid {text!r} of {n} points")
    return lo, hi, n


def _parse_grid(text: str, flag: str, row_bytes: int = 0) -> np.ndarray:
    """The axis of lo:hi:step, checked by `_grid_points`."""
    return np.linspace(*_grid_points(text, flag, row_bytes))


def _point(text: str, params: PhysParams, flag: str) -> np.ndarray:
    """Comma-separated complex coordinates of one point, exactly k/2 of them."""
    with _parsing(flag, "comma-separated complex coordinates", text):
        pt = np.array([complex(c) for c in text.split(",")])
    if len(pt) != params.m:
        raise UsageError(f"{flag} needs one complex coordinate per particle, k/2 = {params.m} "
                         f"at k={params.k}; got {len(pt)} in {text!r}")
    if not np.all(np.isfinite(pt)):
        raise UsageError(f"{flag} needs finite coordinates, got {text!r}")
    return pt


def _parse_range(text: str, flag: str, least: int):
    """Either 'a..b' with least <= a <= b, or a single integer of at least least."""
    with _parsing(flag, "an integer or a..b", text):
        lo, hi = (int(p) for p in text.split("..")) if ".." in text else (int(text),) * 2
    if hi < lo:
        raise UsageError(f"range {text!r} is empty")
    if lo < least:
        raise UsageError(f"{flag} must be at least {least}, got {text!r}")
    return range(lo, hi + 1)


def _finite(args, dest: str, positive: bool = False) -> None:
    """Refuse a nan or inf flag value, or with `positive` one <= 0, naming the flag."""
    value = getattr(args, dest)
    if not math.isfinite(value):
        raise UsageError(f"--{dest} must be finite, got {value}")
    if positive and not value > 0:
        raise UsageError(f"--{dest} must be positive, got {value}")


def _at_least(args, dest: str, least, most=None) -> None:
    """Refuse a flag value below least (or nan), or above most, naming the flag."""
    value = getattr(args, dest)
    if not value >= least:
        raise UsageError(f"--{dest.replace('_', '-')} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise UsageError(f"--{dest.replace('_', '-')} must be at most {most}, got {value}")


def _write(args, text: str, name: str | None = None) -> None:
    """Write one output file and print its path; `main` removes it if the command fails."""
    path = _output(args, name)
    args.written.append(path)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(path)


def _write_csv(args, header, rows, name: str | None = None) -> None:
    """Write one CSV table, refusing it whole if a value formatted by `_fmt` is not finite."""
    for i, row in enumerate(rows, 1):
        for column, cell in zip(header, row):
            if cell in ("nan", "inf", "-inf"):
                raise NonFiniteOutput(f"{_output(args, name)}: {column} is {cell} in row {i}")
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    _write(args, buf.getvalue(), name)


def _write_curve(args, header, points, row, name: str | None = None) -> None:
    """CSV of row(p) over the points, leaving out singular ones and counting them on stderr."""
    rows, skipped = [], 0
    for p in points:
        try:
            rows.append(row(p))
        except SingularTimeError:
            skipped += 1
    _write_csv(args, header, rows, name)
    if skipped:
        print(f"{name or args.output}: skipped {skipped} singular points", file=sys.stderr)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---- subcommands -----------------------------------------------------------------


def cmd_kernel(args) -> int:
    params = _params(args)
    _at_least(args, "a", -math.inf, _MAX_ZONE)
    a = None if args.a < 0 else args.a
    _finite(args, "t", positive=a is None)
    _at_least(args, "t", 0)
    lo, hi, count = _grid_points(args.grid, "--grid")
    n = count ** params.k  # grid points, before building them or their axis
    _require_memory(np.dtype(complex).itemsize * n * n, f"kernel grid of {n} points")
    pts = tensor_points([np.linspace(lo, hi, count)] * params.k)
    grid = KernelGrid.sample(_sigma(args), args.t, pts, pts, params, a=a)
    path = _output(args)
    grid.write_csv(path)
    print(path)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    params = _params(args)
    _at_least(args, "pmax", 0)
    zones = _parse_range(args.zones, "--zones", 0)
    n = len(zones) * (args.pmax + 1)
    _require_memory(_ROW_BYTES["spectrum"] * n, f"{args.output} of {n} rows")
    rows = []
    for a in zones:
        for p in range(args.pmax + 1):
            rows.append([a, p, _fmt(params.zeeman_eigenvalue(p)),
                         _fmt(params.zeeman_eigenvalue(p, field_term=True))])
    _write_csv(args, ["zone", "p", "eigenvalue_bare", "eigenvalue_with_field_term"], rows)
    return EXIT_OK


def cmd_zones(args) -> int:
    params = _params(args)
    zones = _parse_range(args.zones, "--zones", 0)
    _at_least(args, "max_degree", zones[-1])
    rows = []
    for a in zones:
        basis = zone_basis(a, args.max_degree, params)
        for i, vec in enumerate(basis):
            rows.append([a, i, vec.zeeman_degree(), vec.to_json()])
    _write_csv(args, ["zone", "index", "p", "state_json"], rows)
    return EXIT_OK


def cmd_evolve(args) -> int:
    params = _params(args)
    _finite(args, "t")
    with open(args.state) as fh, _parsing("--state", "a JSON file of state records", args.state):
        records = json.load(fh)
    f = ZonePolynomial.from_records(records, params)
    out = evolve(f, _sigma(args), args.t, params, include_field_term=args.field_term)
    for i, record in enumerate(out.to_records(), 1):
        for part in ("re", "im"):
            if not math.isfinite(record[part]):
                raise NonFiniteOutput(f"{_output(args)}: {part} is {record[part]} in record {i}")
    _write(args, out.to_json())
    return EXIT_OK


def cmd_thermo(args) -> int:
    params = _params(args)
    _at_least(args, "a", 0)
    for dest in ("kappa", "h"):
        if getattr(args, dest) is not None:
            _finite(args, dest, positive=True)
    kappa = args.kappa if args.kappa is not None else thermo.default_kappa(params)
    h = args.h
    sigma = _sigma(args)
    Ts = _parse_grid(args.T_grid, "--T-grid", _ROW_BYTES["thermo"])
    ts = _parse_grid(args.partition_t_grid, "--partition-t-grid", _ROW_BYTES["partition"]) \
        if args.partition_t_grid else None
    for flag, grid in (("--T-grid", Ts), ("--partition-t-grid", ts)):
        if grid is not None and not grid.min() > 0:
            raise UsageError(f"{flag} must be positive, got {float(grid.min())}")
    X = _point(args.scan_point, params, "--scan-point") \
        if args.scan == "diagonal_density" else None

    def energy_row(T):
        e = thermo.average_energy(sigma, T, kappa, h)
        c = thermo.specific_heat(sigma, T, kappa, h)
        return [_fmt(T), _fmt(e.real), _fmt(e.imag), _fmt(abs(e)),
                _fmt(c.real), _fmt(c.imag), _fmt(abs(c))]

    def partition_row(t):
        z = partition_function(sigma, args.a, t, params)
        return [_fmt(t), _fmt(z.real), _fmt(z.imag)]

    _write_curve(args, ["T", "energy_re", "energy_im", "energy_abs",
                        "heat_re", "heat_im", "heat_abs"], Ts, energy_row)
    if ts is not None:
        _write_curve(args, ["t", "re", "im"], ts, partition_row, "partition.csv")
    if args.scan:
        ext = thermo.find_period_extrema(args.scan, args.a, params, X=X,
                                         kappa=kappa, h=h)
        P, _, density = thermo.period_density(args.scan, args.a, params, X, kappa, h)
        srow = [[_fmt(t), _fmt(density(t))] for t in np.linspace(P * 1e-6, P * (1 - 1e-6), 512)]
        _write_csv(args, ["t", "abs2"], srow, "period_scan.csv")
        erow = [[_fmt(t), kind] for t, kind in ext]
        _write_csv(args, ["t", "kind"], erow, "period_extrema.csv")
    return EXIT_OK


def cmd_path(args) -> int:
    params = _params(args)
    _at_least(args, "n_slices", 1)
    _require_memory(_ROW_BYTES["path"] * args.n_slices,
                    f"{args.output} of {args.n_slices} rows")
    _at_least(args, "order", 1)
    _at_least(args, "a", 0, _MAX_ZONE)
    _finite(args, "T")
    _at_least(args, "T", 0)
    sigma = _sigma(args)
    x = _point(args.x, params, "--x")
    y = _point(args.y, params, "--y")
    target = zonal_kernel(sigma, args.a, args.T, x[None, :], y[None, :], params)[0]
    if target == 0:
        raise UsageError(f"target kernel underflows to 0 between x={args.x} and y={args.y}, "
                         "so the relative error is undefined")
    counts = range(1, args.n_slices + 1)
    approx = feynman_kac_sweep(sigma, args.a, x, y, args.T, counts, params, order=args.order)
    rows = [[n, "quadrature", _fmt(v.real), _fmt(v.imag), _fmt(target.real),
             _fmt(target.imag), _fmt(abs(v - target) / abs(target))]
            for n, v in zip(counts, approx)]
    _write_csv(args, ["n_slices", "method", "approx_re", "approx_im",
                      "target_re", "target_im", "rel_err"], rows)
    return EXIT_OK


def cmd_padi(args) -> int:
    params = _params(args)
    if params.k != 2:
        raise UsageError("padi requires k=2")
    _at_least(args, "pmax", 0)
    zones = _parse_range(args.zones, "--zones", 0)
    pts = None
    if args.kernel_grid:
        axis = _parse_grid(args.kernel_grid, "--kernel-grid")
        n = len(zones) * 2 * len(axis) ** params.k * 2  # zone, j, grid point, component
        _require_memory(_ROW_BYTES["anomalous_kernel"] * n, f"anomalous_kernel.csv of {n} rows")
        pts = tensor_points([axis] * params.k)
    rows = []
    for a in zones:
        basis = zone_basis(a, a + args.pmax, params)
        for vec in basis:
            p = vec.zeeman_degree()
            for j in (1, 2):
                for sign in (1, -1):
                    psi, ev = eigenspinors(vec, j, sign)
                    rows.append([a, p, j, sign, _fmt(ev),
                                 0 if psi.is_zero() else 1])
    _write_csv(args, ["zone", "p", "j", "sign", "eigenvalue", "nonzero"], rows)
    if pts is not None:
        krows = []
        for a in zones:
            for j in (1, 2):
                vals = anomalous_kernel(a, j, pts, pts, params)
                for idx in range(pts.shape[0]):
                    for ci, tag in ((0, "11"), (1, "22")):
                        v = vals[idx, ci, ci]
                        krows.append([a, j, _fmt(pts[idx, 0].real), _fmt(pts[idx, 0].imag),
                                      tag, _fmt(v.real), _fmt(v.imag)])
        _write_csv(args, ["zone", "j", "x_re", "x_im", "component", "re", "im"], krows,
                   "anomalous_kernel.csv")
    if args.normalization_report:
        _write(args, json.dumps(normalization_report(zones[0], params), indent=2),
               "padi_normalization.json")
    return EXIT_OK


def cmd_coulomb(args) -> int:
    params = _params(args)
    _at_least(args, "a", 0)
    _at_least(args, "basis_size", 1)
    _at_least(args, "max_zone", 0)
    _finite(args, "Q")
    out = zonal_coulomb_matrix(args.a, args.Q, args.basis_size, params)
    rows = [[i, _fmt(ev)] for i, ev in enumerate(out["eigenvalues"])]
    _write_csv(args, ["index", "eigenvalue"], rows)
    mrows = [[_fmt(v), c] for v, c in out["multiplicity_groups"]]
    _write_csv(args, ["eigenvalue", "multiplicity"], mrows, "coulomb_multiplicity.csv")
    if args.cross_zone:
        cz = unprojected_coulomb_matrix(args.Q, args.max_zone, args.basis_size, params)
        crows = [[_fmt(v), c] for v, c in cz["multiplicity_groups"]]
        _write_csv(args, ["eigenvalue", "multiplicity"], crows,
                   "coulomb_cross_zone_multiplicity.csv")
    return EXIT_OK


def cmd_clifford(args) -> int:
    rs = _parse_range(args.r, "--r", 1)
    _require_memory(_ROW_BYTES["clifford"] * len(rs), f"--r {args.r!r} table of {len(rs)} rows")
    # n_r = 2^(4p) (1..8) at r = 8p + s grows with r; r // 8 >= digits already means
    # n_r >= 16^digits, so no huge int is built to find that out
    if rs[-1] // 8 >= _CLIFFORD_DIGITS or clifford_dimension(rs[-1])[0] >= 10**_CLIFFORD_DIGITS:
        raise UsageError(f"--r {rs[-1]} gives an n_r of more than {_CLIFFORD_DIGITS} digits")
    rows = []
    for r in rs:
        n_r, count = clifford_dimension(r)
        rows.append([r, n_r, count])
    _write_csv(args, ["r", "n_r", "irreducible_count"], rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = args.suite.split(",") if args.suite is not None else None
    report = verify.run_suite(suites)
    _write(args, verify.report_to_json(report))
    for row in report:
        print(f"[{row['status']:>6s}] {row['suite']}/{row['check_name']}"
              f"  measured={row['measured']} tol={row['tolerance']}")
    return verify.exit_code(report)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="zonekit", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--outdir", help="output directory (or ZONEKIT_OUTDIR)")
    common.add_argument("--lambda", dest="lam", type=float, help="magnetic coupling, > 0")
    common.add_argument("--k", type=int, help="real configuration dimension, even")
    branch = argparse.ArgumentParser(add_help=False)
    branch.add_argument("--sigma", choices=list(_SIGMAS), default="1")
    sub = ap.add_subparsers(dest="command")

    def command(fn, output: str, help: str, sigma: bool = False):
        """The subcommand cmd_<name> runs, its --output defaulting to `output`."""
        p = sub.add_parser(fn.__name__.removeprefix("cmd_"), help=help,
                           parents=[common, branch] if sigma else [common])
        p.set_defaults(fn=fn, output=output)
        return p

    p = command(cmd_kernel, "kernel.csv", "sample a propagator kernel on a grid", sigma=True)
    p.add_argument("--a", type=int, default=-1, help="zone index; negative for global")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", required=True, help="lo:hi:step for each real axis")

    p = command(cmd_spectrum, "spectrum.csv", "tabulate zone spectra")
    p.add_argument("--zones", default="0..3")
    p.add_argument("--pmax", type=int, default=5)

    p = command(cmd_zones, "zones.csv", "dump orthonormal zone bases as JSON state records")
    p.add_argument("--zones", default="0..2")
    p.add_argument("--max-degree", type=int, default=6)

    p = command(cmd_evolve, "evolved.json", "propagate a serialized state spectrally",
                sigma=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--state", required=True, help="JSON state file")
    p.add_argument("--field-term", action="store_true")

    p = command(cmd_thermo, "thermo.csv", "energy and specific-heat curves", sigma=True)
    p.add_argument("--kappa", type=float, help="default 2 pi mu / lambda with mu = 1")
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--T-grid", default="0.05:10:0.05")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--partition-t-grid", help="also dump partition.csv over this t grid")
    p.add_argument("--scan", choices=["partition_density", "diagonal_density",
                                      "energy_density"],
                   help="also dump a one-period density scan and its extrema")
    p.add_argument("--scan-point", default="0.7+0.2j",
                   help="base point for diagonal_density scans")

    p = command(cmd_path, "path.csv", "sliced Feynman-Kac reconstruction table", sigma=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--T", type=float, default=0.5)
    p.add_argument("--x", default="0.3+0.2j")
    p.add_argument("--y", default="-0.3+0.1j")
    p.add_argument("--n-slices", type=int, default=4)
    p.add_argument("--order", type=int, default=40)

    p = command(cmd_padi, "padi_spectrum.csv", "spinor spectrum tables and anomalous kernels")
    p.add_argument("--zones", default="0..2")
    p.add_argument("--pmax", type=int, default=4)
    p.add_argument("--kernel-grid", help="lo:hi:step to also dump kernel components")
    p.add_argument("--normalization-report", action="store_true")

    p = command(cmd_coulomb, "coulomb_spectrum.csv", "zone-compressed Coulomb spectra")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--Q", type=float, default=-1.0)
    p.add_argument("--basis-size", type=int, default=12)
    p.add_argument("--cross-zone", action="store_true")
    p.add_argument("--max-zone", type=int, default=2)

    p = command(cmd_clifford, "clifford.csv", "minimal module dimension table")
    p.add_argument("--r", default="1..12")

    p = command(cmd_verify, "verify_report.json", "run the invariant suite and emit a JSON report")
    p.add_argument("--suite", help="comma-separated subset of suites")

    for p in sub.choices.values():  # --output ends each usage line; command() set its default
        p.add_argument("--output")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "fn", None):
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    args.written = []  # the files `_write` wrote, removed again if a later step fails
    try:
        with np.errstate(all="ignore"):  # a nan or inf result is refused by name
            _apply_config(args)
            return args.fn(args)
    # OSError: a path that cannot be opened; OverflowError: a number beyond the float range
    except (UsageError, ValueError, OverflowError, OSError) as exc:
        code, message = EXIT_USAGE, str(exc)
    except (QuadratureConvergenceError, NonFiniteOutput) as exc:
        code, message = EXIT_CHECK_FAILED, str(exc)
    for path in args.written:
        with contextlib.suppress(OSError):
            os.remove(path)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
