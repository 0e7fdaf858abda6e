"""The verify driver runs the selected checks one after another in this process,
and the kernel suites reproduce the benchmark's recorded report."""

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


def test_kernel_suites_match_the_benchmark_reference():
    # every field but `seconds` must match the recorded report row for row;
    # `measured` up to rounding, by the benchmark oracle's `same_measure`
    suites = ["zones", "propagators", "path"]
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    expected = [r for r in reference["workloads"]["verify"]["verify"] if r["suite"] in suites]
    rows = verify.run_suite(suites)
    seen = [{k: v for k, v in r.items() if k != "seconds"}
            for r in json.loads(verify.report_to_json(rows))]
    assert _perfbench_oracle().mismatch({"exit_code": verify.exit_code(rows), "verify": seen},
                                        {"exit_code": 0, "verify": expected}) is None
