"""Command-line interface: outputs, determinism, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from zonekit.cli import main
from zonekit.params import PhysParams
from zonekit.propagators import zonal_kernel


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
                     "--order", "24", "--seed", "11", "--outdir", str(out)]) == 0
    assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()


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
    assert capsys.readouterr().err == "error: temperature must be positive, got 0.0\n"


def test_clifford_table(tmp_path):
    assert run(tmp_path, "clifford", "--r", "1..12") == 0
    with open(tmp_path / "clifford.csv") as fh:
        rows = list(csv.DictReader(fh))
    table = {int(r["r"]): (int(r["n_r"]), int(r["irreducible_count"])) for r in rows}
    assert table[1] == (2, 1) and table[3] == (4, 2) and table[8] == (16, 1)


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


def test_usage_errors(tmp_path):
    assert main(["kernel", "--t", "1", "--grid", "0:1:1", "--lambda", "-2",
                 "--outdir", str(tmp_path)]) == 2
    assert main(["kernel", "--t", "1", "--grid", "0:1:1", "--k", "3",
                 "--outdir", str(tmp_path)]) == 2
    assert main(["kernel", "--t", "0.25", "--grid=0:1:0", "--outdir", str(tmp_path)]) == 2
    assert main(["thermo", "--T-grid=0:1:0", "--outdir", str(tmp_path)]) == 2
    assert main([]) == 2


def test_oversized_kernel_grid_is_refused_before_allocating(tmp_path, capsys):
    # k=4 squares the grid: 41^4 points, about 1.3e14 bytes of kernel values
    assert run(tmp_path, "kernel", "--k", "4", "--sigma", "i", "--a", "1", "--t", "0.25",
               "--grid=-2:2:0.1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kernel grid of 2825761 points needs 1.28e+05 GB")
    assert not (tmp_path / "kernel.csv").exists()


def test_quadrature_convergence_error_exits_1(tmp_path, capsys, monkeypatch):
    import zonekit.cli as cli
    from zonekit.propagators import QuadratureConvergenceError

    def diverging(*args, **kwargs):
        raise QuadratureConvergenceError("residual moved on order doubling")

    monkeypatch.setattr(cli, "discretized_feynman_kac", diverging)
    assert run(tmp_path, "path", "--n-slices", "1") == 1
    err = capsys.readouterr().err
    assert err == "error: residual moved on order doubling\n"


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
