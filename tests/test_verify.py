"""The verify driver: the process pool against a serial loop, when the checks
stay in this process, and a dead worker."""

import concurrent.futures
import os
import time
from concurrent.futures.process import BrokenProcessPool

from zonekit import verify
from zonekit.cli import main

SUITES = ["special", "algebra", "zones", "extensions"]


def pool_allowed(monkeypatch, suites, cpus=2):
    """Pretend to have `cpus` usable CPUs and count the checks of `suites` as slow."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(verify, "_SLOW_CHECKS",
                        frozenset(e["name"] for e in verify.CHECKS if e["suite"] in suites))


class NoPool:
    """Stands in for ProcessPoolExecutor where no pool may be started."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


def serial_suite(suites):
    """Reference: the checks run one after another in this process."""
    report = []
    for entry in verify.CHECKS:
        if entry["suite"] not in suites:
            continue
        t0 = time.perf_counter()
        try:
            measured, tol = entry["fn"]()
            status = "pass" if measured <= tol else "fail"
            if entry["expected"] == "report":
                status = "report"
        except Exception as exc:   # noqa: BLE001 - mirror the driver's error rows
            measured, tol, status = float("nan"), float("nan"), f"error: {exc}"
        report.append({
            "check_name": entry["name"],
            "suite": entry["suite"],
            "status": status,
            "measured": measured,
            "tolerance": tol,
            "expected": entry["expected"],
            "module_invariant": entry["invariant"],
            "seconds": round(time.perf_counter() - t0, 3),
        })
    return report


def without_seconds(report):
    return [{k: v for k, v in row.items() if k != "seconds"} for row in report]


def test_pool_rows_equal_serial_loop(monkeypatch):
    pool_allowed(monkeypatch, SUITES)
    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            started.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    pooled = verify.run_suite(SUITES)
    assert started == [2]
    serial = serial_suite(SUITES)
    # same rows in CHECKS declaration order; measured values bit for bit
    assert without_seconds(pooled) == without_seconds(serial)
    assert all(r["seconds"] >= 0 for r in pooled)


def test_slow_checks_are_declared():
    names = {e["name"] for e in verify.CHECKS}
    assert verify._SLOW_CHECKS <= names
    # the full suite holds two or more slow checks, so it runs on the pool
    assert len(verify._SLOW_CHECKS) >= 2


def test_fewer_than_two_slow_checks_run_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    assert without_seconds(verify.run_suite(SUITES)) == without_seconds(serial_suite(SUITES))


def test_one_usable_cpu_runs_in_process(monkeypatch):
    pool_allowed(monkeypatch, SUITES, cpus=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    assert without_seconds(verify.run_suite(SUITES)) == without_seconds(serial_suite(SUITES))


def test_replaced_check_function_runs_in_process(monkeypatch):
    # a spawned worker would run the declared function, not the replacement
    pool_allowed(monkeypatch, ["special"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    entry = next(e for e in verify.CHECKS if e["suite"] == "special")
    monkeypatch.setitem(entry, "fn", lambda: (0.25, 1.0))
    rows = verify.run_suite(["special"])
    assert [r["check_name"] for r in rows] == \
        [e["name"] for e in verify.CHECKS if e["suite"] == "special"]
    assert (rows[0]["measured"], rows[0]["status"]) == (0.25, "pass")


def test_dead_worker_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    pool_allowed(monkeypatch, ["special"])

    class DeadPool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            raise BrokenProcessPool("a worker was terminated abruptly")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DeadPool)
    assert main(["verify", "--suite", "special", "--outdir", str(tmp_path)]) == 1
    out = capsys.readouterr()
    assert out.err == "error: a worker process died: a worker was terminated abruptly\n"
    assert out.out == ""
    assert not (tmp_path / "verify_report.json").exists()
