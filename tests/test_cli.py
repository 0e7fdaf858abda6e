"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import multiprocessing
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import zonekit
from zonekit import path_measure
from zonekit.cli import build_parser, main
from zonekit.params import PhysParams
from zonekit.propagators import KernelGrid, partition_function, zonal_kernel
from zonekit.verify import CHECKS

from test_propagators import _use_cpus, _use_rows


def run(tmp_path, *argv):
    return main([*argv, "--outdir", str(tmp_path)])


@pytest.mark.parametrize("k, lam", [(2, 1.0), (4, 0.7), (2, 2.5)])
def test_spectrum_values(tmp_path, k, lam):
    assert run(tmp_path, "spectrum", "--k", str(k), "--lambda", str(lam), "--zones", "0..3",
               "--pmax", "5") == 0
    with open(tmp_path / "spectrum.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 6
    for row in rows:
        p = int(row["p"])
        bare = (2 * p + k / 2) * lam
        assert float(row["eigenvalue_bare"]) == pytest.approx(bare, rel=1e-15)
        assert float(row["eigenvalue_with_field_term"]) == pytest.approx(
            bare + 2 * k * lam**2, rel=1e-15)


def test_kernel_round_trip(tmp_path):
    assert run(tmp_path, "kernel", "--sigma", "i", "--a", "1", "--t", "0.25",
               "--grid=-2:2:1") == 0
    params = PhysParams(lam=1.0, k=2)
    with open(tmp_path / "kernel.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "kernel grid must not be empty"
    for row in rows[:40]:
        x = complex(float(row["re_z1"]), float(row["im_z1"]))
        y = complex(float(row["re_w1"]), float(row["im_w1"]))
        ref = zonal_kernel(1j, 1, 0.25, np.array([[x]]), np.array([[y]]), params)[0]
        got = complex(float(row["kernel_re"]), float(row["kernel_im"]))
        assert got == pytest.approx(ref, rel=1e-12)


def test_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        assert main(["path", "--sigma", "1", "--a", "0", "--T", "0.4", "--n-slices", "3",
                     "--order", "24", "--outdir", str(out)]) == 0
    assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()


def test_path_runs_the_quadrature_sweep_at_every_slice_count(tmp_path):
    short, long = tmp_path / "short", tmp_path / "long"
    for out, n in ((short, "8"), (long, "12")):
        assert main(["path", "--order", "12", "--n-slices", n, "--outdir", str(out)]) == 0
    short_rows = (short / "path.csv").read_text().splitlines()
    long_rows = (long / "path.csv").read_text().splitlines()
    assert long_rows[:9] == short_rows  # the header and rows 1-8, byte for byte
    rows = list(csv.DictReader(long_rows))
    assert [int(r["n_slices"]) for r in rows] == list(range(1, 13))
    assert {r["method"] for r in rows} == {"quadrature"}
    errs = [float(r["rel_err"]) for r in rows]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:])), errs


def test_readme_cli_examples_parse():
    # every command in the README's CLI block, with bracketed optional parts removed
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        lines = [line.strip() for line in fh if line.startswith("zonekit ")]
    assert len(lines) == 10
    parser = build_parser()
    for line in lines:
        argv = shlex.split(re.sub(r"\[[^]]*\]", "", line))[1:]
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
        assert args.command == argv[0]


def test_package_exports_as_many_names_as_the_readme_states():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        counts = re.findall(r"The package exports (\d+) names", fh.read())
    assert counts == [str(len(zonekit.__all__))]


def test_thermo_curve(tmp_path):
    assert run(tmp_path, "thermo", "--sigma", "1", "--T-grid", "0.5:5:0.5") == 0
    with open(tmp_path / "thermo.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert all(float(r["heat_re"]) > 0 for r in rows)


def test_thermo_skips_and_counts_singular_points(tmp_path, capsys, monkeypatch):
    import zonekit.thermo as thermo
    from zonekit.propagators import SingularTimeError

    average_energy = thermo.average_energy

    def resonant_at_one(sigma, T, *args):
        if T == 1.0:
            raise SingularTimeError(f"resonance temperature T={T}")
        return average_energy(sigma, T, *args)

    monkeypatch.setattr(thermo, "average_energy", resonant_at_one)
    assert run(tmp_path, "thermo", "--sigma", "1", "--T-grid", "0.5:5:0.5") == 0
    with open(tmp_path / "thermo.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["T"]) for r in rows] == [0.5 * n for n in range(1, 11) if n != 2]
    assert capsys.readouterr().err == "thermo.csv: skipped 1 singular points\n"


def test_thermo_nonpositive_temperature_is_usage_error(tmp_path, capsys):
    assert run(tmp_path, "thermo", "--T-grid=0:1:0.5") == 2
    assert capsys.readouterr().err == "error: --T-grid must be positive, got 0.0\n"
    assert not (tmp_path / "thermo.csv").exists()


def test_clifford_table(tmp_path):
    assert run(tmp_path, "clifford", "--r", "1..12") == 0
    with open(tmp_path / "clifford.csv") as fh:
        rows = list(csv.DictReader(fh))
    table = {int(r["r"]): (int(r["n_r"]), int(r["irreducible_count"])) for r in rows}
    assert table[1] == (2, 1) and table[3] == (4, 2) and table[8] == (16, 1)
    # the last r whose n_r has at most 4300 digits (28569 is refused in test_usage_errors)
    assert run(tmp_path, "clifford", "--r", "28568") == 0
    with open(tmp_path / "clifford.csv") as fh:
        [row] = csv.DictReader(fh)
    assert len(row["n_r"]) == 4300


def test_zones_and_evolve_round_trip(tmp_path):
    assert run(tmp_path, "zones", "--zones", "1", "--max-degree", "3") == 0
    with open(tmp_path / "zones.csv") as fh:
        rows = list(csv.DictReader(fh))
    state = rows[0]["state_json"]
    src = tmp_path / "state.json"
    src.write_text(state)
    assert run(tmp_path, "evolve", "--sigma", "i", "--t", "0.7", "--state", str(src)) == 0
    out = json.loads((tmp_path / "evolved.json").read_text())
    # unitary evolution of an eigenstate keeps coefficient magnitudes
    ref = json.loads(state)
    got_norm = math.hypot(*[c for rec in out for c in (rec["re"], rec["im"])])
    ref_norm = math.hypot(*[c for rec in ref for c in (rec["re"], rec["im"])])
    assert got_norm == pytest.approx(ref_norm, rel=1e-12)


def test_coulomb_outputs(tmp_path):
    assert run(tmp_path, "coulomb", "--a", "0", "--Q", "-0.5", "--basis-size", "8",
               "--cross-zone", "--max-zone", "1") == 0
    assert (tmp_path / "coulomb_spectrum.csv").exists()
    assert (tmp_path / "coulomb_multiplicity.csv").exists()
    assert (tmp_path / "coulomb_cross_zone_multiplicity.csv").exists()


def test_verify_subset_passes(tmp_path):
    assert run(tmp_path, "verify", "--suite", "special,extensions") == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert all(r["status"] in ("pass", "report") for r in report)
    names = {r["check_name"] for r in report}
    assert "clifford_table" in names
    assert all(r["module_invariant"] for r in report)


def test_verify_full_reports_known_discrepancy(tmp_path):
    # the full suite carries one documented failing check (low-temperature rate
    # claim); exit code 1 is the honest outcome
    assert run(tmp_path, "verify", "--suite", "thermo") == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    failing = [r for r in report if r["status"] == "fail"]
    assert [r["check_name"] for r in failing] == ["df_energy_rate_low_T"]
    assert failing[0]["expected"] == "fail"


def _never_called(*args, **kwargs):
    raise AssertionError("called after the refusal")


def test_usage_errors(tmp_path, capsys, monkeypatch):
    assert main(["kernel", "--t", "1", "--grid", "0:1:1", "--lambda", "-2",
                 "--outdir", str(tmp_path)]) == 2
    assert main(["kernel", "--t", "1", "--grid", "0:1:1", "--k", "3",
                 "--outdir", str(tmp_path)]) == 2
    assert main(["kernel", "--t", "0.25", "--grid=0:1:0", "--outdir", str(tmp_path)]) == 2
    assert main(["thermo", "--T-grid=0:1:0", "--outdir", str(tmp_path)]) == 2
    # a step pointing away from hi
    assert main(["kernel", "--t", "0.25", "--grid=0:1:-2", "--outdir", str(tmp_path)]) == 2
    assert main(["thermo", "--T-grid=1:0:0.5", "--outdir", str(tmp_path)]) == 2
    assert not (tmp_path / "kernel.csv").exists()
    assert not (tmp_path / "thermo.csv").exists()
    # unknown suite names, alone or next to a known one (names are case-sensitive)
    capsys.readouterr()
    assert main(["verify", "--suite", "nosuch", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: unknown suite 'nosuch' (known: algebra, extensions, padi, path, "
        "propagators, special, thermo, zones)\n")
    assert main(["verify", "--suite", "special,Zones", "--outdir", str(tmp_path)]) == 2
    assert not (tmp_path / "verify_report.json").exists()
    assert main([]) == 2
    # reversed zone ranges, and counts that would leave a table with only its header
    for argv, output in ((["padi", "--zones", "3..1", "--normalization-report"],
                          "padi_spectrum.csv"),
                         (["spectrum", "--zones", "3..1"], "spectrum.csv"),
                         (["path", "--n-slices", "0"], "path.csv"),
                         (["path", "--n-slices", "-2"], "path.csv"),
                         # zone indices whose Laguerre recurrence would run for minutes
                         (["kernel", "--t", "0.25", "--grid", "0:1:0.5", "--a", "10001"],
                          "kernel.csv"),
                         (["path", "--a", "100000000"], "path.csv")):
        capsys.readouterr()
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / output).exists()
    assert not (tmp_path / "padi_normalization.json").exists()
    # a failure after the command wrote its first tables leaves none of them behind
    capsys.readouterr()
    assert run(tmp_path, "coulomb", "--cross-zone", "--lambda=1e-300", "--basis-size=1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: complex Hermite product") and err.count("\n") == 1, err
    assert not [name for name in os.listdir(tmp_path) if name.startswith("coulomb")]
    # a config key other than lambda and k, grid steps that do not divide hi - lo
    # (1e300 leaves hi - lo within 1e-9 of no step at all), and grids without a
    # finite step count (1e308 steps overflow to inf)
    cfg = tmp_path / "conf"
    cfg.write_text("zones=0..1\nbogus=3\n")
    vcfg = {"lambda": tmp_path / "lambda.cfg", "k": tmp_path / "k.cfg"}
    vcfg["lambda"].write_text("lambda = 5\n")
    vcfg["k"].write_text("# the other key\nk=4\n")
    state = tmp_path / "z100.json"
    state.write_text('[{"degrees": [[100, 0]], "re": 1.0, "im": 0.0}]')
    z1 = tmp_path / "z1.json"
    z1.write_text('[{"degrees": [[1, 0]], "re": 1.0, "im": 0.0}]')
    # valid JSON that is not a list of {degrees, re, im} records
    shapes = {}
    for i, text in enumerate(('{"x": 1}', '[1]', '[{"degrees": [[1, 0]], "im": 0.0}]',
                              '[{"degrees": [[1, 0]], "re": "a", "im": 0.0}]',
                              '[{"degrees": [[1, 0]], "re": NaN, "im": 0.0}]')):
        shapes[text] = tmp_path / f"shape{i}.json"
        shapes[text].write_text(text)
    badcfg = {"lambda": tmp_path / "bad_lambda.cfg", "k": tmp_path / "bad_k.cfg"}
    badcfg["lambda"].write_text("lambda = abc\n")
    badcfg["k"].write_text("k = 2.5\n")
    bincfg = tmp_path / "bin.cfg"
    bincfg.write_bytes(b"k = 2\n\x81\n")
    notjson = tmp_path / "state.txt"
    notjson.write_text("z^2\n")
    for argv, output, message in (
            (["spectrum", "--pmax", "-1"], "spectrum.csv",
             "error: --pmax must be at least 0, got -1\n"),
            (["padi", "--pmax", "-1"], "padi_spectrum.csv",
             "error: --pmax must be at least 0, got -1\n"),
            # refused before any grid is built, not by numpy's Hermite rule
            (["path", "--order", "0"], "path.csv",
             "error: --order must be at least 1, got 0\n"),
            # non-finite inputs would run the whole quadrature into a table of nan
            (["path", "--T", "nan"], "path.csv", "error: --T must be finite, got nan\n"),
            (["path", "--T", "inf"], "path.csv", "error: --T must be finite, got inf\n"),
            (["path", "--x", "nan"], "path.csv",
             "error: --x needs finite coordinates, got 'nan'\n"),
            (["path", "--k", "4", "--x=0.1,nan+1j", "--y=0,0"], "path.csv",
             "error: --x needs finite coordinates, got '0.1,nan+1j'\n"),
            (["path", "--y", "1+infj"], "path.csv",
             "error: --y needs finite coordinates, got '1+infj'\n"),
            # bounds named by their flag, not by the library parameter they feed
            (["path", "--T", "-1"], "path.csv", "error: --T must be at least 0, got -1.0\n"),
            (["path", "--a", "-1"], "path.csv", "error: --a must be at least 0, got -1\n"),
            (["coulomb", "--a", "-1"], "coulomb_spectrum.csv",
             "error: --a must be at least 0, got -1\n"),
            # the global kernel needs t > 0, a zonal one t >= 0
            (["kernel", "--t", "-1", "--grid", "0:1:1"], "kernel.csv",
             "error: --t must be positive, got -1.0\n"),
            (["kernel", "--a", "1", "--t", "-1", "--grid", "0:1:1"], "kernel.csv",
             "error: --t must be at least 0, got -1.0\n"),
            # a non-finite time would write a table of nan (or zeros for a zone)
            (["kernel", "--t", "inf", "--grid", "0:1:1"], "kernel.csv",
             "error: --t must be finite, got inf\n"),
            (["kernel", "--a", "1", "--t", "nan", "--grid", "0:1:1"], "kernel.csv",
             "error: --t must be finite, got nan\n"),
            # the default --zones 0..2 needs degree 2
            (["zones", "--max-degree", "-1"], "zones.csv",
             "error: --max-degree must be at least 2, got -1\n"),
            # degrees whose normalized basis coefficient 1/sqrt(pi n!) underflows a float
            (["zones", "--max-degree", "301"], "zones.csv",
             "error: complex Hermite product ((301, 0),) at lam=1.0 has a coefficient "
             "e^-710.88 outside the float range\n"),
            # the Gaussian moment 100!/lam^101 of z^100: lam^101 underflows at 1e-5, and
            # the quotient overflows at 1e-3
            *((["evolve", "--state", str(state), "--lambda", lam, "--t", "0.1"], "evolved.json",
               f"error: Gaussian moment of degree 100 leaves the float range at lam={lam}\n")
              for lam in ("1e-05", "0.001")),
            (["evolve", "--state", str(shapes['{"x": 1}']), "--t", "0.1"], "evolved.json",
             "error: state must be a list of records, got {'x': 1}\n"),
            *((["evolve", "--state", str(shapes[text]), "--t", "0.1"], "evolved.json",
               "error: state record is not {'degrees': [[p, v], ...], 're': x, 'im': y}: "
               f"{record}\n")
              for text, record in (
                  ('[1]', "1"),
                  ('[{"degrees": [[1, 0]], "im": 0.0}]', "{'degrees': [[1, 0]], 'im': 0.0}"),
                  ('[{"degrees": [[1, 0]], "re": "a", "im": 0.0}]',
                   "{'degrees': [[1, 0]], 're': 'a', 'im': 0.0}"),
                  ('[{"degrees": [[1, 0]], "re": NaN, "im": 0.0}]',
                   "{'degrees': [[1, 0]], 're': nan, 'im': 0.0}"))),
            # an infinite coupling would write tables of nan and inf
            (["kernel", "--t", "0.5", "--grid", "0:1:1", "--lambda", "inf"], "kernel.csv",
             "error: lam must be finite and positive, got inf\n"),
            (["spectrum", "--lambda", "inf"], "spectrum.csv",
             "error: lam must be finite and positive, got inf\n"),
            # and whose Coulomb moment pi Gamma(n + 1/2)/lam^(n + 1/2) overflows one
            (["coulomb", "--basis-size", "175"], "coulomb_spectrum.csv",
             "error: Gaussian moment of degree 171 leaves the float range at lam=1.0\n"),
            (["coulomb", "--lambda", "0.4", "--basis-size", "150"], "coulomb_spectrum.csv",
             "error: Gaussian moment of degree 145 leaves the float range at lam=0.4\n"),
            (["thermo", "--kappa", "0", "--T-grid", "1:2:1"], "thermo.csv",
             "error: --kappa must be positive, got 0.0\n"),
            (["thermo", "--h", "0", "--T-grid", "1:2:1"], "thermo.csv",
             "error: --h must be positive, got 0.0\n"),
            (["thermo", "--h", "-1", "--T-grid", "1:2:1"], "thermo.csv",
             "error: --h must be positive, got -1.0\n"),
            # an infinite kappa makes every point singular, an infinite h overflows
            (["thermo", "--kappa", "inf", "--T-grid", "1:2:1"], "thermo.csv",
             "error: --kappa must be finite, got inf\n"),
            (["thermo", "--h", "inf", "--T-grid", "1:2:1"], "thermo.csv",
             "error: --h must be finite, got inf\n"),
            (["thermo", "--kappa", "nan", "--T-grid", "1:2:1"], "thermo.csv",
             "error: --kappa must be finite, got nan\n"),
            # a non-finite time would write a state of nan coefficients
            *((["evolve", "--state", str(z1), "--t", t], "evolved.json",
               f"error: --t must be finite, got {t}\n") for t in ("nan", "inf")),
            # the Galerkin eigensolver does not converge on a non-finite charge
            *((["coulomb", "--Q", q], "coulomb_spectrum.csv",
               f"error: --Q must be finite, got {q}\n") for q in ("nan", "inf")),
            (["thermo", "--a", "-1", "--partition-t-grid", "0.1:0.2:0.1", "--T-grid", "1:2:1"],
             "thermo.csv", "error: --a must be at least 0, got -1\n"),
            (["spectrum", "--zones=-1..0"], "spectrum.csv",
             "error: --zones must be at least 0, got '-1..0'\n"),
            (["coulomb", "--max-zone", "-1", "--cross-zone"], "coulomb_spectrum.csv",
             "error: --max-zone must be at least 0, got -1\n"),
            (["coulomb", "--basis-size", "0"], "coulomb_spectrum.csv",
             "error: --basis-size must be at least 1, got 0\n"),
            # both grids are checked before any table is written (--T-grid=0:1:0.5
            # is test_thermo_nonpositive_temperature_is_usage_error)
            (["thermo", "--T-grid=-1:1:1"], "thermo.csv",
             "error: --T-grid must be positive, got -1.0\n"),
            (["thermo", "--T-grid", "1:2:1", "--partition-t-grid", "0:0.2:0.1"], "thermo.csv",
             "error: --partition-t-grid must be positive, got 0.0\n"),
            (["thermo", "--scan", "diagonal_density", "--scan-point=-inf"], "thermo.csv",
             "error: --scan-point needs finite coordinates, got '-inf'\n"),
            (["spectrum", "--config", str(cfg)], "spectrum.csv",
             f"error: unknown config key 'zones' in {cfg} (known: lambda, k)\n"),
            (["kernel", "--t", "0.25", "--grid=0:1:0.3"], "kernel.csv",
             "error: grid step must divide hi - lo, got '0:1:0.3'\n"),
            (["thermo", "--T-grid=0:1:0.4"], "thermo.csv",
             "error: grid step must divide hi - lo, got '0:1:0.4'\n"),
            (["thermo", "--partition-t-grid=0.1:1:0.2"], "thermo.csv",
             "error: grid step must divide hi - lo, got '0.1:1:0.2'\n"),
            (["padi", "--kernel-grid=0:1:0.3"], "padi_spectrum.csv",
             "error: grid step must divide hi - lo, got '0:1:0.3'\n"),
            (["thermo", "--T-grid=0.5:1:1e300"], "thermo.csv",
             "error: grid step must divide hi - lo, got '0.5:1:1e300'\n"),
            (["kernel", "--t", "0.25", "--grid=0:1:1e300"], "kernel.csv",
             "error: grid step must divide hi - lo, got '0:1:1e300'\n"),
            *((["thermo", f"--T-grid={text}"], "thermo.csv",
               f"error: grid needs a finite range, step and step count, got {text!r}\n")
              for text in ("0:1e308:1e-300", "nan:1:0.5", "-inf:inf:1", "0:1:inf")),
            # each verify check runs on its own parameter table, so the flags would be ignored
            *((["verify", flag, value, "--suite", "special"], "verify_report.json",
               f"error: verify does not take {flag}: each check runs on its own parameter "
               "table\n")
              for flag, value in (("--lambda", "5"), ("--k", "4"))),
            # and so would the config keys
            *((["verify", "--config", str(conf), "--suite", "special"], "verify_report.json",
               f"error: verify does not take {key} from {conf}: each check runs on its own "
               "parameter table\n")
              for key, conf in vcfg.items()),
            # an empty --suite names one empty suite, as --suite , names two
            (["verify", "--suite="], "verify_report.json",
             "error: unknown suite '' (known: algebra, extensions, padi, path, propagators, "
             "special, thermo, zones)\n"),
            # malformed flag text is refused by its flag and the form it expects
            (["kernel", "--t", "0.25", "--grid=1:2"], "kernel.csv",
             "error: --grid must be lo:hi:step, three numbers, got '1:2'\n"),
            (["thermo", "--T-grid=a:b:c"], "thermo.csv",
             "error: --T-grid must be lo:hi:step, three numbers, got 'a:b:c'\n"),
            (["thermo", "--T-grid", "1:2:1", "--partition-t-grid=0.1:x:0.1"], "thermo.csv",
             "error: --partition-t-grid must be lo:hi:step, three numbers, got '0.1:x:0.1'\n"),
            (["padi", "--kernel-grid=0:1:1:1"], "padi_spectrum.csv",
             "error: --kernel-grid must be lo:hi:step, three numbers, got '0:1:1:1'\n"),
            *((["spectrum", "--zones", text], "spectrum.csv",
               f"error: --zones must be an integer or a..b, got {text!r}\n")
              for text in ("1..2..3", "x", "")),
            (["clifford", "--r", "1..x"], "clifford.csv",
             "error: --r must be an integer or a..b, got '1..x'\n"),
            (["path", "--x=abc"], "path.csv",
             "error: --x must be comma-separated complex coordinates, got 'abc'\n"),
            (["path", "--k", "4", "--x=0.1,0.2", "--y=0.3,,0.1"], "path.csv",
             "error: --y must be comma-separated complex coordinates, got '0.3,,0.1'\n"),
            (["thermo", "--scan", "diagonal_density", "--scan-point=1+"], "thermo.csv",
             "error: --scan-point must be comma-separated complex coordinates, got '1+'\n"),
            *((["spectrum", "--config", str(conf)], "spectrum.csv",
               f"error: config key {key!r} in {conf} must be {kind}, got {value!r}\n")
              for (key, conf), kind, value in zip(badcfg.items(), ("float", "int"),
                                                  ("abc", "2.5"))),
            (["spectrum", "--config", str(bincfg)], "spectrum.csv",
             f"error: --config must be key=value text, got {str(bincfg)!r}\n"),
            (["evolve", "--state", str(notjson), "--t", "0.1"], "evolved.json",
             f"error: --state must be a JSON file of state records, got {str(notjson)!r}\n"),
            # n_r of more than 4300 digits, which Python would refuse to print
            *((["clifford", "--r", r], "clifford.csv",
               f"error: --r {r.split('..')[-1]} gives an n_r of more than 4300 digits\n")
              for r in ("120000", "28569", "3..28569"))):
        capsys.readouterr()
        assert run(tmp_path, *argv) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / output).exists()
    assert not (tmp_path / "partition.csv").exists()
    # an order whose Hermite rule and grid exceed memory is refused at one slice too,
    # before either is built
    with monkeypatch.context() as mp:
        mp.setattr(path_measure, "flat_hermite_grid", _never_called)
        capsys.readouterr()
        assert run(tmp_path, "path", "--order", "100000", "--n-slices", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sliced quadrature at order 100000 (10000000000 nodes) "
                              "needs 960 GB, more than the ") and err.count("\n") == 1, err
        assert not (tmp_path / "path.csv").exists()
    # a degenerate lo:lo:step grid is still its one point, whatever the step
    assert run(tmp_path, "thermo", "--T-grid=0.5:0.5:1e300") == 0
    with open(tmp_path / "thermo.csv") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["T", "0.5"]
    # the bound itself is allowed
    assert run(tmp_path, "path", "--T", "0", "--n-slices", "1") == 0
    assert run(tmp_path, "kernel", "--a", "1", "--t", "0", "--grid", "0:1:1") == 0


# sha256 of each output file, recorded before the output helpers were shared
RECORDED_DIGESTS = [
    (["spectrum"], {
        "spectrum.csv": "5eb1ba791fc7d27ba34cdfea1dc0578a36bddf331738678e2e389b7e288eab86"}),
    # the bases, re-recorded when they took the closed complex Hermite form
    (["zones", "--zones", "0..2", "--max-degree", "6"], {
        "zones.csv": "a136fcb1d19368936828388793706909e48f4a4b213db540e0be8d5ac9f157c4"}),
    pytest.param(["zones", "--k", "4", "--zones", "0..6", "--max-degree", "16"], {
        "zones.csv": "b9e8e641492db97ba77ab774ac4a813c9b18162d536101cdea2eb0e61470fbe3"},
        id="zones_k4"),
    (["clifford"], {
        "clifford.csv": "24da250135b1a2d2dc437a5943e4ee6dbbaac09447eee59414ec53879939398a"}),
    # the zone-compressed and the cross-zone Coulomb spectra, re-recorded when the radial
    # integral took its closed form, and the cross-zone one again with the closed-form bases
    (["coulomb", "--a", "0", "--Q", "-0.5", "--basis-size", "12", "--cross-zone"], {
        "coulomb_spectrum.csv": "61ce467d868c2e8f2f28279c6cc56928114795e0a89ef20cf4d2774ad5cccc4b",
        "coulomb_multiplicity.csv":
            "8d5ef9c69abc459688905cb3f11900121513c9a861fb39a21435f4399bbd5240",
        "coulomb_cross_zone_multiplicity.csv":
            "1963a7b7555d7996d432812618d4650c2f5a5a91a1c4166dd5d0e5026d5ff081"}),
    # re-recorded with the closed-form bases
    (["padi", "--zones", "0..1", "--pmax", "2", "--normalization-report"], {
        "padi_spectrum.csv": "664f64bf31b34cfa11c9990613524a972083a8624e983f6389be7642e51b8c39",
        "padi_normalization.json":
            "f78ac3535609157ec18a4abb19dc654209808d6166a29296c3b4b14190f5cbc6"}),
    (["kernel", "--sigma", "i", "--a", "1", "--t", "0.25", "--grid=-1:1:0.5"], {
        "kernel.csv": "5594b59cc320616cc387df2f199671f32b7e4be78f85383550dc99e3f7cea6c1"}),
    # zonal bits away from lam = 1, and the zonal kernel at t = 0 (the zone kernel)
    pytest.param(["kernel", "--lambda", "2.5", "--sigma", "i", "--a", "1", "--t", "0.25",
                  "--grid=-1:1:0.5"], {
        "kernel.csv": "fc83303b47d2599d277ca7524ab9b363b9c09d15c8cdbf07cbda0f70a97bd511"},
        id="kernel_lambda"),
    pytest.param(["kernel", "--a", "0", "--t", "0", "--grid=-1:1:0.5"], {
        "kernel.csv": "4e38405a3043026034fb2b4322a2a408756198ea6eb62a0fdd33942aeb59a162"},
        id="kernel_zero_time"),
    # the sliced Feynman-Kac sweep on the plane and on two particles
    (["path", "--order", "12", "--n-slices", "3"], {
        "path.csv": "74d18939c8e4c57b466e2b9432c808c0b719165237a14642691993b006b2b9e7"}),
    (["path", "--k", "4", "--order", "6", "--n-slices", "3", "--x=0.1,0.2", "--y=0.3,0.1"], {
        "path.csv": "0b8abc6b67c2b39537751e3228c0393b3c40ab96f8af04a5ae1883b8b30ef510"}),
    # the one-period density scans and their refined extrema
    pytest.param(["thermo", "--scan", "diagonal_density"], {
        "thermo.csv": "7ff29596750df88f4c8a72d4f2c5c0ff259019f290ae8a04204445f02f00765e",
        "period_scan.csv": "10ba158586a8bc9d99df416496d7df6965175e57982a1d54d81a30807e6f0bb6",
        "period_extrema.csv":
            "32d604bf1e22c8a179b12e61f202a8bcc3c56724b5df45064060856c9cc64acb"},
        id="thermo_diagonal_density"),
    pytest.param(["thermo", "--scan", "partition_density"], {
        "thermo.csv": "7ff29596750df88f4c8a72d4f2c5c0ff259019f290ae8a04204445f02f00765e",
        "period_scan.csv": "9001c3c67ff108d24fa1be5b878e9769a4c941158e453cd3cb66ca864a932fbf",
        "period_extrema.csv":
            "dc799a14c41b46d837b95792db98888bb8fc7b39d8bfd9112128f6297e68c78c"},
        id="thermo_partition_density"),
    pytest.param(["thermo", "--scan", "energy_density"], {
        "thermo.csv": "7ff29596750df88f4c8a72d4f2c5c0ff259019f290ae8a04204445f02f00765e",
        "period_scan.csv": "bfef268ab3db5b1510e8efd5ae456557cf38ce7c7a64c185d233d45195759fae",
        "period_extrema.csv":
            "54f22d13bea63b2a54f3ffc9087911f5a06e80d463804b8fd9a4ef4fa5a2cb76"},
        id="thermo_energy_density"),
]


# the id of a pytest.param entry overrides the one listed here
@pytest.mark.parametrize("argv, digests", RECORDED_DIGESTS,
                         ids=[argv[0] for argv, *_ in RECORDED_DIGESTS])
def test_outputs_match_recorded_digests(tmp_path, capsys, argv, digests):
    assert run(tmp_path, *argv) == 0
    assert capsys.readouterr().out.splitlines() == [str(tmp_path / name) for name in digests]
    assert sorted(os.listdir(tmp_path)) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# the arguments each subcommand requires, to parse it at all
REQUIRED = {"kernel": ["--t", "1", "--grid", "0:1:1"], "evolve": ["--t", "1", "--state", "s"]}
# the first file of each digest case is its command's --output; evolve and verify have none
DEFAULT_OUTPUTS = {argv[0]: next(iter(digests))
                   for argv, digests in (getattr(case, "values", case) for case in
                                         RECORDED_DIGESTS)} \
    | {"evolve": "evolved.json", "verify": "verify_report.json"}


def test_parser_shape():
    # every subcommand answers --help, has the --output its digest case expects, and
    # only the four that take a branch have --sigma
    parser = build_parser()
    assert sorted(DEFAULT_OUTPUTS) == sorted(
        ["kernel", "spectrum", "zones", "evolve", "thermo", "path", "padi", "coulomb",
         "clifford", "verify"])
    for command, output in DEFAULT_OUTPUTS.items():
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(io.StringIO()):
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0, command
        required = REQUIRED.get(command, [])
        args = parser.parse_args([command, *required])
        assert args.output == output, command
        if command in ("kernel", "evolve", "thermo", "path"):
            assert args.sigma == "1"
            assert parser.parse_args([command, "--sigma", "i", *required]).sigma == "i"
            bad = ["--sigma", "2"]
        else:
            assert not hasattr(args, "sigma"), command
            bad = ["--sigma", "1"]
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            parser.parse_args([command, *bad, *required])
        assert exc.value.code == 2, command


@pytest.mark.parametrize("argv", [
    ["kernel", "--t", "0.25", "--grid=0:1:1", "--output", "nodir/x.csv"],
    ["spectrum", "--output", "nodir/x.csv"],
    ["kernel", "--t", "0.25", "--grid=0:1:1", "--outdir", "afile"],
    ["spectrum", "--config", "nodir/zonekit.cfg"],
], ids=["kernel_output", "spectrum_output", "outdir_is_file", "missing_config"])
def test_unusable_path_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ZONEKIT_OUTDIR", raising=False)
    (tmp_path / "afile").write_text("")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1, err
    assert sorted(os.listdir(tmp_path)) == ["afile"]


def test_small_lambda_high_degree_zone_has_no_empty_state(tmp_path):
    # 1/sqrt(pi 160! / 0.4^161) is about e^-400: formed from its logarithm, not from 160!
    assert run(tmp_path, "zones", "--lambda", "0.4", "--max-degree", "160", "--zones", "0") == 0
    with open(tmp_path / "zones.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["p"]) for row in rows] == list(range(161))
    assert all(json.loads(row["state_json"]) for row in rows)


def test_kernel_grid_is_refused_from_its_point_count_before_the_axis_is_built(
        tmp_path, capsys, monkeypatch):
    # 1,000,000,001 axis points (8 GB) pass the axis guard on a 9 GiB host, and their
    # 1e18 kernel points are refused before np.linspace would build the axis
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 9 * 2**18 if name == "SC_PHYS_PAGES"
                        else 4096 if name == "SC_PAGE_SIZE" else sysconf(name))

    def linspace(*args, **kwargs):
        raise AssertionError("the axis was built")

    monkeypatch.setattr(np, "linspace", linspace)
    tracemalloc.start()
    try:
        assert run(tmp_path, "kernel", "--t", "0.25", "--grid=0:1:1e-9") == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error: kernel grid of 1000000002000000001 points needs ") \
        and err.count("\n") == 1, err
    assert peak < 1e6, peak
    assert os.listdir(tmp_path) == []


def test_kernel_memory_grows_with_the_points_not_their_pairs(tmp_path, monkeypatch):
    # at one CPU the rows are evaluated and written one at a time: 441 points would be
    # 3.1 MB of pair values, and the whole command stays under 1 MB; 3.6 times the
    # points (13 times the pairs) take less than 4 times the memory
    _use_cpus(monkeypatch, 1)
    peaks = {}
    for step, points in (("1", 9), ("0.2", 121), ("0.1", 441)):  # the first run warms up
        tracemalloc.start()
        try:
            assert run(tmp_path, "kernel", "--sigma", "i", "--a", "1", "--t", "0.25",
                       f"--grid=-1:1:{step}", "--output", f"kernel{points}.csv") == 0
            peaks[points] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with open(tmp_path / f"kernel{points}.csv", "rb") as fh:
            assert sum(1 for _ in fh) == points * points + 1
    assert peaks[441] < 1e6 and peaks[441] < 4 * peaks[121], peaks


def test_oversized_kernel_grid_is_refused_before_allocating(tmp_path, capsys):
    # k=4 squares the grid: 41^4 points, about 1.3e14 bytes of kernel values
    assert run(tmp_path, "kernel", "--k", "4", "--sigma", "i", "--a", "1", "--t", "0.25",
               "--grid=-2:2:0.1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kernel grid of 2825761 points needs 1.28e+05 GB")
    assert not (tmp_path / "kernel.csv").exists()


@pytest.mark.parametrize("argv, gb", [(["thermo", "--T-grid", "0.001:1:1e-12"], "8.27e+05"),
                                      (["kernel", "--t", "0.25", "--grid=0.001:1:1e-12"],
                                       "7.99e+03")],
                         ids=["thermo", "kernel"])
def test_oversized_axis_grid_is_refused_before_allocating(tmp_path, capsys, argv, gb):
    # 999,000,000,001 grid values, about 8e12 bytes before any kernel or scan, and
    # for thermo one 820-byte table row per value on top
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: grid '0.001:1:1e-12' of 999000000001 points needs {gb} GB") \
        and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == []


def test_table_memory_is_counted_from_rows_before_building(tmp_path, monkeypatch):
    # each table asks for its measured cost per row times the rows it then writes
    import zonekit.cli as cli
    asked = []
    monkeypatch.setattr(cli, "_require_memory", lambda need, what: asked.append((need, what)))
    assert run(tmp_path, "spectrum", "--zones", "0..2", "--pmax", "4") == 0
    assert run(tmp_path, "thermo", "--T-grid", "1:3:1", "--partition-t-grid", "0.1:0.3:0.1") == 0
    assert run(tmp_path, "padi", "--zones", "0..1", "--pmax", "0", "--kernel-grid", "0:1:0.5") == 0
    assert run(tmp_path, "clifford", "--r", "3..9") == 0
    assert run(tmp_path, "path", "--order", "4", "--n-slices", "3") == 0
    row = cli._ROW_BYTES
    assert asked == [(15 * row["spectrum"], "spectrum.csv of 15 rows"),
                     (3 * (8 + row["thermo"]), "grid '1:3:1' of 3 points"),
                     (3 * (8 + row["partition"]), "grid '0.1:0.3:0.1' of 3 points"),
                     (3 * 8, "grid '0:1:0.5' of 3 points"),
                     (72 * row["anomalous_kernel"], "anomalous_kernel.csv of 72 rows"),
                     (7 * row["clifford"], "--r '3..9' table of 7 rows"),
                     (3 * row["path"], "path.csv of 3 rows")]
    for name, rows in (("spectrum.csv", 15), ("thermo.csv", 3), ("partition.csv", 3),
                       ("anomalous_kernel.csv", 72), ("clifford.csv", 7), ("path.csv", 3)):
        with open(tmp_path / name) as fh:
            assert len(fh.readlines()) == rows + 1, name


@pytest.mark.parametrize("argv, message", [
    # 4 zones of 10^10 + 1 rows each
    (["spectrum", "--pmax", "10000000000"], "spectrum.csv of 40000000004 rows needs 1.4e+04 GB"),
    # 3 zones x 2 j x 20001^2 points x 2 components
    (["padi", "--kernel-grid=-100:100:0.01"],
     "anomalous_kernel.csv of 4800480012 rows needs 2.93e+03 GB"),
    # 10^10 rows at the cost of a row whose n_r has 4300 digits
    (["clifford", "--r", "1..10000000000"], "--r '1..10000000000' table of 10000000000 rows "
     "needs 1.1e+05 GB"),
], ids=["spectrum", "padi", "clifford"])
def test_oversized_table_is_refused_before_its_first_row(tmp_path, capsys, monkeypatch, argv,
                                                         message):
    import zonekit.cli as cli
    monkeypatch.setattr(cli, "_fmt", _never_called)  # every row formats its values
    monkeypatch.setattr(cli, "tensor_points", _never_called)
    monkeypatch.setattr(cli, "clifford_dimension", _never_called)
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}, more than the ") and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == []


def test_oversized_path_sweep_is_refused_before_allocating(tmp_path, capsys):
    # k=4 at order 32: 32^4 nodes, the conjugation quarter of K and the whole
    # step, about 2.2e13 bytes of complex values
    assert run(tmp_path, "path", "--k", "4", "--order", "32", "--n-slices", "2",
               "--x=0.3+0.2j,0.1", "--y=-0.3+0.1j,0.2j") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sliced quadrature at order 32 (1048576 nodes) needs 2.2e+04 GB")
    assert not (tmp_path / "path.csv").exists()


# zonekit in a child that sees an 8 GiB host and caps its own address space at 1 GiB, so
# a guard that lets a request through ends in a MemoryError traceback there, not in
# gigabytes allocated here
CAPPED = """
import os, resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
host = {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 4096}
os.sysconf = lambda name, sysconf=os.sysconf: host.get(name) or sysconf(name)
runpy.run_module("zonekit", run_name="__main__")
"""


@pytest.mark.parametrize("argv, message", [
    # each zone basis is refused from its pivot count, before it is enumerated
    (["zones", "--zones", "0", "--max-degree", "100000000"],
     "zone 0 to degree 100000000 (100000001 elements) needs 46 GB"),
    (["zones", "--zones", "0", "--max-degree", "100000000", "--k", "4"],
     "zone 0 to degree 100000000 (5000000150000001 elements) needs 2.3e+09 GB"),
    # priced per term: a zone-10 element at k = 4 holds up to 36 terms, not zone 0's one
    (["zones", "--k", "4", "--zones", "10", "--max-degree", "600"],
     "zone 10 to degree 600 (1924296 elements) needs 12.4 GB"),
    (["coulomb", "--basis-size", "100000000"],
     "zone 0 to degree 99999999 (100000000 elements) needs 46 GB"),
    # one element, whose normalization leaves the float range
    (["coulomb", "--a", "100000000", "--basis-size", "1"],
     "complex Hermite product ((0, 100000000),) at lam=1.0 has a coefficient"),
    (["padi", "--zones", "0", "--pmax", "100000000"],
     "zone 0 to degree 100000000 (100000001 elements) needs 46 GB"),
    (["path", "--order", "100000000"],
     "sliced quadrature at order 100000000 (10000000000000000 nodes) needs 2e+24 GB"),
    (["path", "--order", "4", "--n-slices", "100000000"],
     "path.csv of 100000000 rows needs 108 GB"),
], ids=["zones", "zones_k4", "zones_k4_zone10", "coulomb_basis", "coulomb_a", "padi",
        "path_order", "path_slices"])
def test_oversized_size_flag_is_refused_before_allocating(tmp_path, argv, message):
    proc = subprocess.run([sys.executable, "-c", CAPPED, *argv, "--outdir", str(tmp_path)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1, \
        proc.stderr
    assert os.listdir(tmp_path) == []


def test_path_with_vanishing_target_is_usage_error(tmp_path, capsys, monkeypatch):
    import zonekit.cli as cli

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature must not run")

    monkeypatch.setattr(cli, "feynman_kac_sweep", no_quadrature)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "path", "--x", "0", "--y", "40", "--order", "8",
                   "--n-slices", "2") == 2
    assert capsys.readouterr().err.startswith("error: target kernel underflows to 0")
    assert not (tmp_path / "path.csv").exists()


@pytest.mark.parametrize("argv, output, message", [
    # the Mehler kernel's coth and prefactor overflow to nan this close to t = 0
    (["kernel", "--t", "1e-310", "--grid", "0:1:1"], "kernel.csv", "kernel_re is nan in row 1"),
    (["thermo", "--T-grid", "1e-300:1e-300:1"], "thermo.csv", "heat_re is nan in row 1"),
    # (2h)^2 overflows to inf, which a float power would raise as a usage error
    (["thermo", "--h", "1e300", "--T-grid", "1:2:1"], "thermo.csv", "heat_re is nan in row 1"),
    # the field term 2 k lam^2 overflows while the bare eigenvalue does not
    (["spectrum", "--lambda", "1e200"], "spectrum.csv",
     "eigenvalue_with_field_term is inf in row 1"),
    # e^{1000 mu} overflows; the JSON state is refused as a table is
    (["evolve", "--t=-1000", "--state", "STATE"], "evolved.json", "re is nan in record 1"),
], ids=["kernel", "thermo", "thermo_h", "spectrum", "evolve"])
def test_non_finite_value_fails_and_writes_no_table(tmp_path_factory, tmp_path, capsys, argv,
                                                    output, message):
    state = tmp_path_factory.mktemp("state") / "z1.json"
    state.write_text('[{"degrees": [[1, 0]], "re": 1.0, "im": 0.0}]')
    argv = [str(state) if arg == "STATE" else arg for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / output}: {message}\n"
    assert os.listdir(tmp_path) == []


NAN_ROW = r"error: [^\n]* is nan in (row|record) 1\n"


@pytest.mark.parametrize("argv, code, stderr", [
    (["kernel", "--t", "1e-310", "--grid", "0:1:1"], 1, NAN_ROW),
    (["thermo", "--T-grid", "1e-300:1e-300:1"], 1, NAN_ROW),
    (["evolve", "--t=-1000", "--state", "STATE"], 1, NAN_ROW),
    # the dense sweep's step overflows, partly in its fill threads
    (["path", "--lambda", "1e3"], 1, NAN_ROW),
    (["path", "--sigma", "i", "--T", "1e5"], 1, NAN_ROW),
    # the Gaussian moment sum overflows before its guard names the degree
    (["padi", "--lambda", "1e200", "--zones", "0..1", "--pmax", "2"], 2,
     r"error: Gaussian moment of degree 1 leaves the float range at lam=1e\+200\n"),
], ids=["kernel", "thermo", "evolve", "path_lambda", "path_sigma_i", "padi"])
def test_non_finite_failure_prints_only_its_error_line(tmp_path, tmp_path_factory, argv, code,
                                                       stderr):
    # numpy's overflow warnings would only repeat what the error line says
    state = tmp_path_factory.mktemp("state") / "z1.json"
    state.write_text('[{"degrees": [[1, 0]], "re": 1.0, "im": 0.0}]')
    argv = [str(state) if arg == "STATE" else arg for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "zonekit", *argv, "--outdir", str(tmp_path)],
                          env=_src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == code
    assert re.fullmatch(stderr, proc.stderr), proc.stderr


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_kernel_grid_names_the_first_non_finite_value(tmp_path, capfd, monkeypatch, cpus):
    # the first bad value is an imaginary part, in the second X row; the third X row is
    # bad too, so at 3 CPUs two children stop and the parent names the first block's value
    pts, sample = np.array([[0j], [1j], [2j]]), KernelGrid.sample
    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(KernelGrid, "sample", staticmethod(
        lambda sigma, t, X, Y, params, a=None: sample(sigma, t, pts, pts[:2], params, a)))
    _use_rows(monkeypatch, [[1.0, 2.0], [complex(3.0, math.inf), math.nan], [math.nan, 4.0]])
    assert run(tmp_path, "kernel", "--a", "0", "--t", "0.5", "--grid", "0:1:1") == 1
    # one line, from the parent: no child printed a traceback of its own
    assert capfd.readouterr().err == \
        f"error: {tmp_path / 'kernel.csv'}: kernel_im is inf in row 3\n"
    assert os.listdir(tmp_path) == []
    assert multiprocessing.active_children() == []


def test_quadrature_convergence_error_exits_1(tmp_path, capsys, monkeypatch):
    import zonekit.cli as cli
    from zonekit.propagators import QuadratureConvergenceError

    def diverging(*args, **kwargs):
        raise QuadratureConvergenceError("residual moved on order doubling")

    monkeypatch.setattr(cli, "feynman_kac_sweep", diverging)
    assert run(tmp_path, "path", "--n-slices", "1") == 1
    err = capsys.readouterr().err
    assert err == "error: residual moved on order doubling\n"


def test_path_point_needs_k_over_2_coordinates(tmp_path, capsys):
    # at k=4 the default one-coordinate --x would be compared against a different kernel
    assert run(tmp_path, "path", "--k", "4", "--order", "8", "--n-slices", "1") == 2
    assert capsys.readouterr().err.startswith(
        "error: --x needs one complex coordinate per particle, k/2 = 2 at k=4; got 1")
    assert run(tmp_path, "path", "--x=0.3+0.2j,0.1", "--order", "8", "--n-slices", "1") == 2
    assert "--x needs" in capsys.readouterr().err
    assert run(tmp_path, "path", "--y=1,2,3", "--order", "8", "--n-slices", "1") == 2
    assert "--y needs" in capsys.readouterr().err
    assert not (tmp_path / "path.csv").exists()


def test_thermo_scan_point_needs_k_over_2_coordinates(tmp_path, capsys):
    assert run(tmp_path, "thermo", "--scan", "diagonal_density",
               "--scan-point", "0.5,0.1") == 2
    assert capsys.readouterr().err.startswith(
        "error: --scan-point needs one complex coordinate per particle, k/2 = 1 at k=2; got 2")
    # refused before any curve is written
    assert not (tmp_path / "thermo.csv").exists()


@pytest.mark.parametrize("kind", ["partition_density", "diagonal_density", "energy_density"])
def test_thermo_scan_of_each_density(tmp_path, kind):
    params = PhysParams(lam=1.0, k=2)
    X = np.array([[0.7 + 0.2j]])  # the default --scan-point
    kappa = 2 * math.pi  # the default kappa at lam = 1
    density, P = {
        "partition_density": (lambda t: abs(partition_function(1j, 0, t, params)) ** 2, math.pi),
        "diagonal_density": (lambda t: abs(zonal_kernel(1j, 0, t, X, X, params)[0]) ** 2,
                             math.pi),
        "energy_density": (lambda t: abs(1 + 2 / (np.exp(2j * t / kappa) - 1)) ** 2,
                           math.pi * kappa),
    }[kind]
    assert run(tmp_path, "thermo", "--scan", kind, "--T-grid=0.5:1:0.5") == 0
    with open(tmp_path / "period_scan.csv") as fh:
        scan = [(float(r["t"]), float(r["abs2"])) for r in csv.DictReader(fh)]
    assert len(scan) == 512
    assert [scan[0][0], scan[-1][0]] == pytest.approx([1e-6 * P, P - 1e-6 * P])
    for t, val in scan:
        assert val == pytest.approx(density(t), rel=1e-9)
    with open(tmp_path / "period_extrema.csv") as fh:
        extrema = [(float(r["t"]), r["kind"]) for r in csv.DictReader(fh)]
    poles = [t for t, what in extrema if what == "pole"]
    assert poles == ([] if kind == "diagonal_density" else [0.0, pytest.approx(P)])
    # each density is symmetric about the half period, where it is smallest
    assert [(t, what) for t, what in extrema if what != "pole"] == \
        [(pytest.approx(P / 2, rel=1e-6), "min")]


def _src_env():
    """os.environ with this checkout's src directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(zonekit.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_m_zonekit(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "zonekit", "verify", "--suite", "special",
                           "--outdir", str(tmp_path)], env=_src_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert [r["check_name"] for r in report] == [
        e["name"] for e in CHECKS if e["suite"] == "special"]
    assert len(report) == 3


# zonekit does not depend on scipy, which would cost about 0.3 s of start-up
SCIPY_PROBE = """
import sys
from zonekit import cli
loaded = ["scipy" in sys.modules]
for argv in sys.argv[2:]:
    assert cli.main([*argv.split(), "--outdir", sys.argv[1]]) == 0, argv
    loaded.append("scipy" in sys.modules)
print(loaded)
"""


def test_no_command_loads_scipy(tmp_path):
    commands = ["path --order 8 --n-slices 2", "kernel --t 0.25 --grid=0:1:1", "spectrum",
                "thermo", "zones --zones 0..1 --max-degree 4", "clifford",
                "padi --zones 0..1 --pmax 2 --kernel-grid 0:1:1",
                "coulomb --a 0 --basis-size 4 --cross-zone", "verify --suite extensions"]
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path), *commands],
                          env=_src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # absent after the import and after every command
    assert proc.stdout.splitlines()[-1] == str([False] * (1 + len(commands)))


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "conf"
    cfg.write_text("lambda = 2.0\nk = 2\n")
    assert main(["spectrum", "--zones", "0", "--pmax", "1", "--config", str(cfg),
                 "--outdir", str(tmp_path)]) == 0
    with open(tmp_path / "spectrum.csv") as fh:
        rows = list(csv.DictReader(fh))
    # eigenvalue (2p + 1) lam with lam = 2
    assert float(rows[0]["eigenvalue_bare"]) == pytest.approx(2.0)
    assert float(rows[1]["eigenvalue_bare"]) == pytest.approx(6.0)


def test_padi_outputs(tmp_path):
    assert run(tmp_path, "padi", "--zones", "0..1", "--pmax", "2",
               "--kernel-grid", "0:1:1", "--normalization-report") == 0
    with open(tmp_path / "padi_spectrum.csv") as fh:
        rows = list(csv.DictReader(fh))
    # zero mode present: zone ground state, j=1, minus branch marked zero
    zero_rows = [r for r in rows if r["p"] == "0" and r["j"] == "1"]
    assert any(r["nonzero"] == "0" and r["sign"] == "-1" for r in zero_rows)
    assert (tmp_path / "anomalous_kernel.csv").exists()
    report = json.loads((tmp_path / "padi_normalization.json").read_text())
    assert report["rows"], "normalization comparison must not be empty"
