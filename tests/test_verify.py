"""The verify driver runs the selected checks one after another in this process,
and the full report reproduces the benchmark's recorded one."""

import importlib.util
import json
import math
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from zonekit import thermo, verify
from zonekit.params import PhysParams

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_rows_in_declaration_order_and_seconds_within_wall_time():
    suites = ["special", "zones"]
    t0 = time.perf_counter()
    rows = verify.run_suite(suites)
    wall = time.perf_counter() - t0
    assert [r["check_name"] for r in rows] == \
        [e["name"] for e in verify.CHECKS if e["suite"] in suites]
    # each row's seconds is rounded to the millisecond
    assert 0 <= sum(r["seconds"] for r in rows) <= wall + 0.0005 * len(rows)


def test_row_reports_the_worst_case_of_its_table(monkeypatch):
    # one synthetic check over a table of (PhysParams, kwargs) records with one
    # keyword axis n: the case lam 2, n 1 measures the most and fails
    seen = []
    measured = {(1.0, 0): (1e-9, 1e-6), (1.0, 1): (1e-8, 1e-6),
                (2.0, 0): (1e-10, 1e-6), (2.0, 1): (1e-3, 1e-6)}

    def fn(params, n):
        seen.append((params.lam, n))
        if params.lam == 3.0:
            raise ValueError("case refused")
        return measured[params.lam, n]

    lams = (PhysParams(lam=1.0), PhysParams(lam=2.0))
    entry = {"name": "synthetic", "suite": "special", "invariant": "a table of cases",
             "expected": "pass", "cases": verify._table(lams, n=(0, 1)), "fn": fn}
    monkeypatch.setattr(verify, "CHECKS", [entry])
    [row] = verify.run_suite(None)
    # params is the outer loop of the table
    assert seen == [(1.0, 0), (1.0, 1), (2.0, 0), (2.0, 1)]
    assert (row["measured"], row["tolerance"], row["status"]) == (1e-3, 1e-6, "fail")
    # the worst case decides the status even when it comes first
    seen.clear()
    entry["cases"] = verify._table(lams[::-1], n=(1, 0))
    measured[2.0, 1] = (1e-7, 1e-6)
    [row] = verify.run_suite(None)
    assert seen == [(2.0, 1), (2.0, 0), (1.0, 1), (1.0, 0)]
    assert (row["measured"], row["status"]) == (1e-7, "pass")
    # a nan from any case fails the row and is the value it reports: max() alone would
    # keep the finite cases before it
    seen.clear()
    measured[4.0, 0] = (float("nan"), 1e-6)
    measured[4.0, 1] = (1e-9, 1e-6)
    entry["cases"] = verify._table((lams[0], PhysParams(lam=4.0), lams[1]), n=(0, 1))
    [row] = verify.run_suite(None)
    assert seen == [(1.0, 0), (1.0, 1), (4.0, 0), (4.0, 1), (2.0, 0), (2.0, 1)]
    assert row["status"] == "fail" and math.isnan(row["measured"]) and row["tolerance"] == 1e-6
    # so does an inf, also against an infinite tolerance and in a report row
    measured[4.0, 0] = (float("inf"), float("inf"))
    entry["expected"] = "report"
    [row] = verify.run_suite(None)
    assert (row["measured"], row["status"]) == (float("inf"), "fail")
    entry["expected"] = "pass"
    # a case that raises makes the whole row an error
    entry["cases"] = verify._table((*lams, PhysParams(lam=3.0)), n=(0, 1))
    [row] = verify.run_suite(None)
    assert row["status"] == "error: case refused"
    assert math.isnan(row["measured"]) and math.isnan(row["tolerance"])


@pytest.mark.parametrize("name, target, zone", [
    ("trace_identity", "partition_function_trace", 1),
    ("heat_diagonal_positivity", "zonal_kernel", 2),
])
def test_a_nan_in_one_sub_case_fails_its_row(monkeypatch, name, target, zone):
    # the closed form turns nan at one zone only; every other case of the row
    # still measures a small finite number
    real = getattr(verify, target)

    def at_one_zone(sigma, a, *args, **kwargs):
        value = real(sigma, a, *args, **kwargs)
        return value * math.nan if a == zone else value

    monkeypatch.setattr(verify, target, at_one_zone)
    monkeypatch.setattr(verify, "CHECKS", [e for e in verify.CHECKS if e["name"] == name])
    [row] = verify.run_suite(None)
    assert row["status"] == "fail" and math.isnan(row["measured"])


def test_a_nan_at_the_quarter_point_fails_the_tension_row(monkeypatch):
    # argmin would pick the nan as the smallest |tension|, right at P / 4
    real = thermo.tension

    def nan_at_quarter(a, t, X, params):
        value = real(a, t, X, params)
        return np.where(np.arange(np.size(t)) == 1000, math.nan, value) if np.ndim(t) else value

    monkeypatch.setattr(thermo, "tension", nan_at_quarter)
    monkeypatch.setattr(verify, "CHECKS", [e for e in verify.CHECKS
                                           if e["name"] == "tension_minimum_at_quarter"])
    [row] = verify.run_suite(None)
    assert row["status"] == "fail" and math.isnan(row["measured"])


def _perfbench_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", PERFBENCH / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def test_full_report_matches_the_benchmark_reference():
    # every suite; every field but `seconds` must match the recorded report row
    # for row, `measured` up to rounding by the benchmark oracle's
    # `same_measure`, and the exit code is the recorded 1 (a documented failure)
    expected = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]["verify"]
    assert expected["exit_code"] == 1
    rows = verify.run_suite(None)
    seen = [{k: v for k, v in r.items() if k != "seconds"}
            for r in json.loads(verify.report_to_json(rows))]
    assert _perfbench_oracle().mismatch({"exit_code": verify.exit_code(rows), "verify": seen},
                                        expected) is None


def test_exact_laguerre_oracle_satisfies_the_recurrence_and_its_value_at_zero():
    # properties the series does not use, over the check's own table: the three-term
    # recurrence (n+1) L_{n+1} = (2n+1+alpha-t) L_n - (n+alpha) L_{n-1} exactly, and
    # L_a(0) = C(a+alpha, a), for alpha = 1/2 the central binomial (2a+1) C(2a, a) / 4^a
    [entry] = [e for e in verify.CHECKS if e["name"] == "laguerre_recurrence_vs_series"]
    cases = [kw for _, kw in entry["cases"]]
    top = max(kw["a"] for kw in cases)
    assert top == 30
    for alpha in sorted({kw["alpha"] for kw in cases}):
        af = Fraction(alpha)
        for t in sorted({kw["t"] for kw in cases}):
            tf = Fraction(t).limit_denominator(10**9)
            L = [verify._laguerre_exact(n, af, tf) for n in range(top + 1)]
            assert L[0] == 1 and L[1] == 1 + af - tf
            for n in range(1, top):
                assert (n + 1) * L[n + 1] == (2 * n + 1 + af - tf) * L[n] - (n + af) * L[n - 1]
        for a in range(top + 1):
            ref = (math.comb(a + int(af), a) if af.denominator == 1
                   else Fraction((2 * a + 1) * math.comb(2 * a, a), 4**a))
            assert verify._laguerre_exact(a, af, Fraction(0)) == ref


def test_benchmark_harness_selftest_passes():
    # the harness's own tests of its tracing hooks and output oracle
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
