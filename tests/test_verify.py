"""The verify driver runs the selected checks one after another in this process,
and the full report reproduces the benchmark's recorded one."""

import importlib.util
import json
import pathlib
import time

from zonekit import verify

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
