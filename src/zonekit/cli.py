"""Command-line front end: kernels, spectra, curves, and the verification suite.

Outputs are CSV (complex values split into _re/_im columns) or JSON reports.
A plain-text ``key=value`` config file supplies defaults that flags override;
the ZONEKIT_OUTDIR environment variable sets the default output directory.

The library works at macroscopic units (hbar = mass = 1).  The microscopic
operator follows from substituting lam -> lam/hbar together with rescaling
the center period by hbar; pass the rescaled lam explicitly if that is what
you want.
"""

from __future__ import annotations

import argparse
import csv
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
from .path_measure import feynman_kac_sweep, monte_carlo_feynman_kac
from .propagators import (KernelGrid, QuadratureConvergenceError, SingularTimeError,
                          _require_memory, evolve, partition_function, zonal_kernel)
from .special import real_to_complex
from .zones import zone_basis

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _load_config(path: str | None) -> dict:
    cfg = {}
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                cfg[key.strip()] = val.strip()
    return cfg


class UsageError(Exception):
    pass


def _params(args, cfg) -> PhysParams:
    lam = args.lam if args.lam is not None else float(cfg.get("lambda", 1.0))
    k = args.k if args.k is not None else int(cfg.get("k", 2))
    return PhysParams(lam=lam, k=k)


def _sigma(args) -> complex:
    return 1j if args.sigma == "i" else 1


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _outdir(args) -> str:
    out = args.outdir or os.environ.get("ZONEKIT_OUTDIR", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _parse_grid(text: str):
    """lo:hi:step for one real axis."""
    lo, hi, step = (float(p) for p in text.split(":"))
    if step == 0:
        raise UsageError(f"grid step must be nonzero, got {text!r}")
    if (hi - lo) * step < 0:
        raise UsageError(f"grid step must have the sign of hi - lo, got {text!r}")
    n = int(math.floor((hi - lo) / step + 0.5)) + 1
    return np.linspace(lo, hi, n)


def _grid_points(text: str, m: int) -> np.ndarray:
    axis = _parse_grid(text)
    grids = np.meshgrid(*[axis] * (2 * m), indexing="ij")
    return real_to_complex(np.stack([g.ravel() for g in grids], axis=-1))


def _point(text: str, params: PhysParams, flag: str) -> np.ndarray:
    """Comma-separated complex coordinates of one point, exactly k/2 of them."""
    pt = np.array([complex(c) for c in text.split(",")])
    if len(pt) != params.m:
        raise UsageError(f"{flag} needs one complex coordinate per particle, k/2 = {params.m} "
                         f"at k={params.k}; got {len(pt)} in {text!r}")
    return pt


def _parse_range(text: str):
    """Either 'a..b' with a <= b, or a single integer."""
    if ".." in text:
        lo, hi = (int(p) for p in text.split(".."))
        if hi < lo:
            raise UsageError(f"range {text!r} is empty")
        return range(lo, hi + 1)
    return [int(text)]


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    print(path)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---- subcommands -----------------------------------------------------------------


def cmd_kernel(args, cfg) -> int:
    params = _params(args, cfg)
    n = len(_parse_grid(args.grid)) ** (2 * params.m)  # grid points, before building them
    _require_memory(np.dtype(complex).itemsize * n * n, f"kernel grid of {n} points")
    pts = _grid_points(args.grid, params.m)
    a = None if args.a is None or args.a < 0 else args.a
    grid = KernelGrid.sample(_sigma(args), args.t, pts, pts, params, a=a)
    grid.write_csv(os.path.join(_outdir(args), args.output))
    return EXIT_OK


def cmd_spectrum(args, cfg) -> int:
    params = _params(args, cfg)
    rows = []
    for a in _parse_range(args.zones):
        for p in range(args.pmax + 1):
            rows.append([a, p, _fmt(params.zeeman_eigenvalue(p)),
                         _fmt(params.zeeman_eigenvalue(p, field_term=True))])
    _write_csv(os.path.join(_outdir(args), args.output),
               ["zone", "p", "eigenvalue_bare", "eigenvalue_with_field_term"], rows)
    return EXIT_OK


def cmd_zones(args, cfg) -> int:
    params = _params(args, cfg)
    rows = []
    for a in _parse_range(args.zones):
        basis = zone_basis(a, args.max_degree, params)
        for i, vec in enumerate(basis):
            rows.append([a, i, vec.holomorphic_degree(), vec.to_json()])
    _write_csv(os.path.join(_outdir(args), args.output),
               ["zone", "index", "p", "state_json"], rows)
    return EXIT_OK


def cmd_evolve(args, cfg) -> int:
    params = _params(args, cfg)
    with open(args.state) as fh:
        f = ZonePolynomial.from_json(fh.read(), params)
    out = evolve(f, _sigma(args), args.t, params, include_field_term=args.field_term)
    path = os.path.join(_outdir(args), args.output)
    with open(path, "w") as fh:
        fh.write(out.to_json())
    print(path)
    return EXIT_OK


def cmd_thermo(args, cfg) -> int:
    params = _params(args, cfg)
    kappa = args.kappa if args.kappa is not None else thermo.default_kappa(params)
    h = args.h
    sigma = _sigma(args)
    Ts = _parse_grid(args.T_grid)
    X = _point(args.scan_point, params, "--scan-point") \
        if args.scan == "diagonal_density" else None
    rows, skipped = [], 0
    for T in Ts:
        try:
            e = thermo.average_energy(sigma, T, params, kappa, h)
            c = thermo.specific_heat(sigma, T, params, kappa, h)
        except SingularTimeError:
            skipped += 1
            continue
        rows.append([_fmt(T), _fmt(e.real), _fmt(e.imag), _fmt(abs(e)),
                     _fmt(c.real), _fmt(c.imag), _fmt(abs(c))])
    _write_csv(os.path.join(_outdir(args), args.output),
               ["T", "energy_re", "energy_im", "energy_abs",
                "heat_re", "heat_im", "heat_abs"], rows)
    if skipped:
        print(f"{args.output}: skipped {skipped} singular points", file=sys.stderr)
    if args.partition_t_grid:
        prow, skipped = [], 0
        for t in _parse_grid(args.partition_t_grid):
            try:
                z = partition_function(sigma, args.a, t, params)
            except SingularTimeError:
                skipped += 1
                continue
            prow.append([_fmt(t), _fmt(z.real), _fmt(z.imag)])
        _write_csv(os.path.join(_outdir(args), "partition.csv"), ["t", "re", "im"], prow)
        if skipped:
            print(f"partition.csv: skipped {skipped} singular points", file=sys.stderr)
    if args.scan:
        ext = thermo.find_period_extrema(args.scan, args.a, params, X=X,
                                         kappa=kappa, h=h)
        P, _, density = thermo.period_density(args.scan, args.a, params, X, kappa, h)
        srow = [[_fmt(t), _fmt(density(t))] for t in np.linspace(P * 1e-6, P * (1 - 1e-6), 512)]
        _write_csv(os.path.join(_outdir(args), "period_scan.csv"), ["t", "abs2"], srow)
        erow = [[_fmt(t), kind] for t, kind in ext]
        _write_csv(os.path.join(_outdir(args), "period_extrema.csv"), ["t", "kind"], erow)
    return EXIT_OK


def cmd_path(args, cfg) -> int:
    params = _params(args, cfg)
    sigma = _sigma(args)
    quad_counts = range(1, min(args.n_slices, args.quadrature_max_slices) + 1)
    x = _point(args.x, params, "--x")
    y = _point(args.y, params, "--y")
    target = zonal_kernel(sigma, args.a, args.T, x[None, :], y[None, :], params)[0]
    if target == 0:
        raise UsageError(f"target kernel underflows to 0 between x={args.x} and y={args.y}, "
                         "so the relative error is undefined")
    quad = feynman_kac_sweep(sigma, args.a, x, y, args.T, quad_counts, params,
                             order=args.order) if quad_counts else []
    rows = []
    for n in range(1, args.n_slices + 1):
        if n <= args.quadrature_max_slices:
            approx = quad[n - 1]
            method = "quadrature"
        else:
            approx, _ = monte_carlo_feynman_kac(sigma, args.a, x, y, args.T, n, params,
                                                n_samples=args.samples, seed=args.seed)
            method = "monte-carlo"
        rel = abs(approx - target) / abs(target)
        rows.append([n, method, _fmt(approx.real), _fmt(approx.imag),
                     _fmt(target.real), _fmt(target.imag), _fmt(rel)])
    _write_csv(os.path.join(_outdir(args), args.output),
               ["n_slices", "method", "approx_re", "approx_im",
                "target_re", "target_im", "rel_err"], rows)
    return EXIT_OK


def cmd_padi(args, cfg) -> int:
    params = _params(args, cfg)
    if params.k != 2:
        return _usage_error("padi requires k=2")
    rows = []
    for a in _parse_range(args.zones):
        basis = zone_basis(a, a + args.pmax, params)
        for vec in basis:
            p = vec.holomorphic_degree()
            for j in (1, 2):
                for sign in (1, -1):
                    psi, ev = eigenspinors(vec, j, sign)
                    rows.append([a, p, j, sign, _fmt(ev),
                                 0 if psi.is_zero() else 1])
    _write_csv(os.path.join(_outdir(args), args.output),
               ["zone", "p", "j", "sign", "eigenvalue", "nonzero"], rows)
    if args.kernel_grid:
        pts = _grid_points(args.kernel_grid, params.m)
        krows = []
        for a in _parse_range(args.zones):
            for j in (1, 2):
                vals = anomalous_kernel(a, j, pts, pts, params)
                for idx in range(pts.shape[0]):
                    for ci, tag in ((0, "11"), (1, "22")):
                        v = vals[idx, ci, ci]
                        krows.append([a, j, _fmt(pts[idx, 0].real), _fmt(pts[idx, 0].imag),
                                      tag, _fmt(v.real), _fmt(v.imag)])
        _write_csv(os.path.join(_outdir(args), "anomalous_kernel.csv"),
                   ["zone", "j", "x_re", "x_im", "component", "re", "im"], krows)
    if args.normalization_report:
        path = os.path.join(_outdir(args), "padi_normalization.json")
        with open(path, "w") as fh:
            json.dump(normalization_report(_parse_range(args.zones)[0], params), fh, indent=2)
        print(path)
    return EXIT_OK


def cmd_coulomb(args, cfg) -> int:
    params = _params(args, cfg)
    out = zonal_coulomb_matrix(args.a, args.Q, args.basis_size, params)
    rows = [[i, _fmt(ev)] for i, ev in enumerate(out["eigenvalues"])]
    _write_csv(os.path.join(_outdir(args), args.output), ["index", "eigenvalue"], rows)
    mrows = [[_fmt(v), c] for v, c in out["multiplicity_groups"]]
    _write_csv(os.path.join(_outdir(args), "coulomb_multiplicity.csv"),
               ["eigenvalue", "multiplicity"], mrows)
    if args.cross_zone:
        cz = unprojected_coulomb_matrix(args.Q, args.max_zone, args.basis_size, params)
        crows = [[_fmt(v), c] for v, c in cz["multiplicity_groups"]]
        _write_csv(os.path.join(_outdir(args), "coulomb_cross_zone_multiplicity.csv"),
                   ["eigenvalue", "multiplicity"], crows)
    return EXIT_OK


def cmd_clifford(args, cfg) -> int:
    rows = []
    for r in _parse_range(args.r):
        n_r, count = clifford_dimension(r)
        rows.append([r, n_r, count])
    _write_csv(os.path.join(_outdir(args), args.output),
               ["r", "n_r", "irreducible_count"], rows)
    return EXIT_OK


def cmd_verify(args, cfg) -> int:
    suites = args.suite.split(",") if args.suite else None
    report = verify.run_suite(suites)
    path = os.path.join(_outdir(args), args.output)
    with open(path, "w") as fh:
        fh.write(verify.report_to_json(report))
    print(path)
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
    sub = ap.add_subparsers(dest="command")

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("kernel", help="sample a propagator kernel on a grid")
    p.add_argument("--sigma", choices=["1", "i"], default="1")
    p.add_argument("--a", type=int, default=-1, help="zone index; negative for global")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", required=True, help="lo:hi:step for each real axis")
    p.add_argument("--output", default="kernel.csv")
    p.set_defaults(fn=cmd_kernel)

    p = add_parser("spectrum", help="tabulate zone spectra")
    p.add_argument("--zones", default="0..3")
    p.add_argument("--pmax", type=int, default=5)
    p.add_argument("--output", default="spectrum.csv")
    p.set_defaults(fn=cmd_spectrum)

    p = add_parser("zones", help="dump orthonormal zone bases as JSON state records")
    p.add_argument("--zones", default="0..2")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--output", default="zones.csv")
    p.set_defaults(fn=cmd_zones)

    p = add_parser("evolve", help="propagate a serialized state spectrally")
    p.add_argument("--sigma", choices=["1", "i"], default="1")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--state", required=True, help="JSON state file")
    p.add_argument("--field-term", action="store_true")
    p.add_argument("--output", default="evolved.json")
    p.set_defaults(fn=cmd_evolve)

    p = add_parser("thermo", help="energy and specific-heat curves")
    p.add_argument("--sigma", choices=["1", "i"], default="1")
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
    p.add_argument("--output", default="thermo.csv")
    p.set_defaults(fn=cmd_thermo)

    p = add_parser("path", help="sliced Feynman-Kac reconstruction table")
    p.add_argument("--sigma", choices=["1", "i"], default="1")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--T", type=float, default=0.5)
    p.add_argument("--x", default="0.3+0.2j")
    p.add_argument("--y", default="-0.3+0.1j")
    p.add_argument("--n-slices", type=int, default=4)
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--quadrature-max-slices", type=int, default=8)
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="path.csv")
    p.set_defaults(fn=cmd_path)

    p = add_parser("padi", help="spinor spectrum tables and anomalous kernels")
    p.add_argument("--zones", default="0..2")
    p.add_argument("--pmax", type=int, default=4)
    p.add_argument("--kernel-grid", help="lo:hi:step to also dump kernel components")
    p.add_argument("--normalization-report", action="store_true")
    p.add_argument("--output", default="padi_spectrum.csv")
    p.set_defaults(fn=cmd_padi)

    p = add_parser("coulomb", help="zone-compressed Coulomb spectra")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--Q", type=float, default=-1.0)
    p.add_argument("--basis-size", type=int, default=12)
    p.add_argument("--cross-zone", action="store_true")
    p.add_argument("--max-zone", type=int, default=2)
    p.add_argument("--output", default="coulomb_spectrum.csv")
    p.set_defaults(fn=cmd_coulomb)

    p = add_parser("clifford", help="minimal module dimension table")
    p.add_argument("--r", default="1..12")
    p.add_argument("--output", default="clifford.csv")
    p.set_defaults(fn=cmd_clifford)

    p = add_parser("verify", help="run the invariant suite and emit a JSON report")
    p.add_argument("--suite", help="comma-separated subset of suites")
    p.add_argument("--output", default="verify_report.json")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "fn", None):
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args, _load_config(args.config))
    except (UsageError, ValueError, OSError) as exc:  # OSError: a path that cannot be opened
        return _usage_error(str(exc))
    except QuadratureConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
