"""The verify driver runs the selected checks one after another in this process,
and the full report reproduces the benchmark's recorded one."""

import importlib.util
import json
import math
import pathlib
import time

from zonekit import verify
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
    # one synthetic check over two cases: the second measures more and fails
    seen = []
    measured = {1.0: (1e-9, 1e-6), 2.0: (1e-3, 1e-6)}

    def fn(params):
        seen.append(params.lam)
        if params.lam == 3.0:
            raise ValueError("case refused")
        return measured[params.lam]

    cases = (PhysParams(lam=1.0), PhysParams(lam=2.0))
    entry = {"name": "synthetic", "suite": "special", "invariant": "two cases",
             "expected": "pass", "cases": cases, "fn": fn}
    monkeypatch.setattr(verify, "CHECKS", [entry])
    [row] = verify.run_suite(None)
    assert seen == [1.0, 2.0]
    assert (row["measured"], row["tolerance"], row["status"]) == (1e-3, 1e-6, "fail")
    # the worst case decides the status even when it comes first
    seen.clear()
    entry["cases"] = cases[::-1]
    measured[2.0] = (1e-7, 1e-6)
    [row] = verify.run_suite(None)
    assert seen == [2.0, 1.0]
    assert (row["measured"], row["status"]) == (1e-7, "pass")
    # a nan from any case fails the row and is the value it reports: max() alone would
    # keep the finite first case
    seen.clear()
    measured[4.0] = (float("nan"), 1e-6)
    entry["cases"] = (cases[0], PhysParams(lam=4.0), cases[1])
    [row] = verify.run_suite(None)
    assert seen == [1.0, 4.0, 2.0]
    assert row["status"] == "fail" and math.isnan(row["measured"]) and row["tolerance"] == 1e-6
    # so does an inf, also against an infinite tolerance and in a report row
    measured[4.0] = (float("inf"), float("inf"))
    entry["expected"] = "report"
    [row] = verify.run_suite(None)
    assert (row["measured"], row["status"]) == (float("inf"), "fail")
    entry["expected"] = "pass"
    # a case that raises makes the whole row an error
    entry["cases"] = (*cases, PhysParams(lam=3.0))
    [row] = verify.run_suite(None)
    assert row["status"] == "error: case refused"
    assert math.isnan(row["measured"]) and math.isnan(row["tolerance"])


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
