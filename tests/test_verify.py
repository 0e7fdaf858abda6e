"""The verify driver runs the selected checks one after another in this process."""

import time

from zonekit import verify


def test_rows_in_declaration_order_and_seconds_within_wall_time():
    suites = ["special", "zones"]
    t0 = time.perf_counter()
    rows = verify.run_suite(suites)
    wall = time.perf_counter() - t0
    assert [r["check_name"] for r in rows] == \
        [e["name"] for e in verify.CHECKS if e["suite"] in suites]
    # each row's seconds is rounded to the millisecond
    assert 0 <= sum(r["seconds"] for r in rows) <= wall + 0.0005 * len(rows)

