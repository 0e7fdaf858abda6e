"""Self-tests of the benchmark harness: span arithmetic, restoring the traced
names, and the output oracle.

    python3 perfbench/selftest.py

Not collected by pytest (no test_ prefix), so the tier-1 suite is unchanged.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    def test_self_time_of_a_synthetic_tree(self):
        # main [0, 10] > a [1, 4] > b [2, 3];  main > c [5, 9] > b [6, 8.5]
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.5, 9.0, 10.0])
        tr = tracing.Tracer(clock=lambda: next(ticks))
        t_main = tr.begin()
        t_a = tr.begin()
        t_b = tr.begin()
        tr.end("b", t_b)
        tr.end("a", t_a)
        t_c = tr.begin()
        t_b = tr.begin()
        tr.end("b", t_b)
        tr.end("c", t_c)
        tr.end("main", t_main)
        got = {n: (s.calls, s.total_s, s.self_s) for n, s in tr.stats.items()}
        self.assertEqual(got, {"main": (1, 10.0, 3.0), "a": (1, 3.0, 2.0),
                               "b": (2, 3.5, 3.5), "c": (1, 4.0, 1.5)})
        stats = {n: s.to_dict() for n, s in tr.stats.items()}
        self.assertEqual(tracing.total_self_s(stats), 10.0)


def _snapshot(modules):
    namespaces = list(modules)
    for mod in modules:
        namespaces += [obj for obj in vars(mod).values()
                       if isinstance(obj, type) and obj.__module__.startswith("zonekit")]
    snap = [(ns, dict(vars(ns))) for ns in namespaces]
    checks = [dict(entry) for entry in sys.modules["zonekit.verify"].CHECKS]
    return snap, checks


class TracedRunRestores(unittest.TestCase):
    def test_every_rebound_name_is_restored(self):
        from zonekit import cli
        modules = tracing.package_modules()
        snap, checks = _snapshot(modules)
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            self.assertIsNot(cli.main, snap[[m for m, _ in snap].index(cli)][1]["main"])
            with tempfile.TemporaryDirectory() as out, \
                    contextlib.redirect_stdout(io.StringIO()):
                argv = ["--outdir", out]
                self.assertEqual(cli.main(["zones", "--zones", "0..1", "--max-degree", "3",
                                           *argv]), 0)
                self.assertEqual(cli.main(["kernel", "--sigma", "1", "--a", "0", "--t", "0.5",
                                           "--grid=-1:1:1", *argv]), 0)
                csv_bytes = os.path.getsize(os.path.join(out, "kernel.csv"))
                self.assertEqual(cli.main(["verify", "--suite", "special", *argv]), 0)
        finally:
            installed.restore()
        stats = tracer.stats
        self.assertEqual(stats["cli.main"].calls, 3)
        # k=2, degree <= 3: zone 0 holds p = 0..3, zone 1 holds p = 0..2
        self.assertEqual(stats["zones.zone_basis"].counts["states"], 7)
        self.assertEqual(stats["propagators.KernelGrid.write_csv"].counts,
                         {"rows": 81, "bytes": csv_bytes})
        self.assertEqual(stats["propagators.zonal_kernel"].counts["pairs"], 81)
        self.assertIn("propagators.KernelGrid.sample", stats)
        self.assertIn("algebra.ZonePolynomial.__init__", stats)
        self.assertEqual(stats["verify.check.laguerre_value_at_zero"].calls, 1)
        for ns, before in snap:
            after = vars(ns)
            self.assertEqual(set(after), set(before), ns)
            for key, obj in before.items():
                self.assertIs(after[key], obj, f"{ns!r}.{key}")
        for entry, before in zip(sys.modules["zonekit.verify"].CHECKS, checks):
            self.assertIs(entry["fn"], before["fn"], entry["name"])


class OracleFlagsChanges(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.out = self.dir.name

    def tearDown(self):
        self.dir.cleanup()

    def _write(self, name, data: bytes):
        with open(os.path.join(self.out, name), "wb") as fh:
            fh.write(data)

    def test_one_changed_byte_in_a_data_file(self):
        data = b"zone,index,p\n" + b"0,1,2\n" * 1000
        self._write("zones.csv", data)
        expected = oracle.observe(self.out, "zones.csv", 0)
        self.assertIsNone(oracle.mismatch(oracle.observe(self.out, "zones.csv", 0), expected))
        changed = bytearray(data)
        changed[len(data) // 2] ^= 0x01
        self._write("zones.csv", bytes(changed))
        self.assertIsNotNone(oracle.mismatch(oracle.observe(self.out, "zones.csv", 0),
                                             expected))
        self._write("zones.csv", data)
        self.assertIsNotNone(oracle.mismatch(oracle.observe(self.out, "zones.csv", 2),
                                             expected))

    def test_verify_report_changes(self):
        with open(os.path.join(HERE, "reference.json")) as fh:
            expected = json.load(fh)["workloads"]["verify"]
        rows = [dict(row, seconds=0.5) for row in expected["verify"]]

        def check(text):
            self._write("verify_report.json", text.encode())
            return oracle.mismatch(oracle.observe(self.out, "verify_report.json", 1), expected)

        text = json.dumps(rows, indent=2)
        self.assertIsNone(check(text))
        self.assertIsNone(check(text.replace('"seconds": 0.5', '"seconds": 9.5')))
        self.assertIsNotNone(check(text.replace('"status": "pass"', '"status": "pasS"', 1)))
        self.assertIsNotNone(check(text.replace('"tolerance": 1e-06', '"tolerance": 1e-05', 1)))
        # a change in the leading digit of a measured value
        row = next(r for r in rows if isinstance(r["measured"], float) and r["measured"] > 1e-3)
        old = json.dumps(row["measured"])
        new = ("2" if old[0] != "2" else "3") + old[1:]
        self.assertIsNotNone(check(text.replace(f'"measured": {old}', f'"measured": {new}', 1)))
        # a rounding-level difference is accepted
        bumped = [dict(r) for r in rows]
        bumped[0]["measured"] *= 1 + 1e-14
        self.assertIsNone(check(json.dumps(bumped)))


if __name__ == "__main__":
    unittest.main()
