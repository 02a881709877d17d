#!/usr/bin/env python3
"""Tests for the bench-smoke schema gate (check_bench_smoke.py).

The acceptance criterion: a report that parses as valid JSON but carries
zero cells (or cells stripped of their schema keys) must fail — that is
exactly the artifact `python3 -m json.tool` waves through.
"""

import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))
import check_bench_smoke  # noqa: E402


def ok_report():
    return {
        "bench": "chaos",
        "reps": 1,
        "cells": [{
            "scenario": "ssd_write_storm", "requests": 1000,
            "completed": True, "failpoint_fires": 7, "shed_rate": 0.01,
            "ok": True,
        }],
    }


class CheckBenchSmokeTest(unittest.TestCase):
    def test_ok_report_passes(self):
        self.assertEqual(
            check_bench_smoke.check_report("BENCH_chaos.json", ok_report()),
            [])

    def test_empty_cells_fail(self):
        report = ok_report()
        report["cells"] = []
        errors = check_bench_smoke.check_report("BENCH_chaos.json", report)
        self.assertTrue(any("silently-empty" in e for e in errors))

    def test_missing_cells_key_fails(self):
        report = ok_report()
        del report["cells"]
        errors = check_bench_smoke.check_report("BENCH_chaos.json", report)
        self.assertTrue(any("silently-empty" in e for e in errors))

    def test_empty_cell_object_fails(self):
        report = ok_report()
        report["cells"].append({})
        errors = check_bench_smoke.check_report("BENCH_chaos.json", report)
        self.assertTrue(any("cell 1 is not a non-empty object" in e
                            for e in errors))

    def test_missing_schema_key_fails(self):
        report = ok_report()
        del report["cells"][0]["shed_rate"]
        errors = check_bench_smoke.check_report("BENCH_chaos.json", report)
        self.assertTrue(any("missing keys" in e and "shed_rate" in e
                            for e in errors))

    def test_missing_bench_name_fails(self):
        report = ok_report()
        report["bench"] = ""
        errors = check_bench_smoke.check_report("BENCH_chaos.json", report)
        self.assertTrue(any('"bench" missing or empty' in e for e in errors))

    def test_zero_reps_fails(self):
        report = ok_report()
        report["reps"] = 0
        errors = check_bench_smoke.check_report("BENCH_chaos.json", report)
        self.assertTrue(any('"reps"' in e for e in errors))

    def test_unknown_report_gets_generic_checks(self):
        errors = check_bench_smoke.check_report(
            "BENCH_future.json", {"bench": "future", "reps": 1,
                                  "cells": [{"anything": 1}]})
        self.assertEqual(errors, [])
        errors = check_bench_smoke.check_report(
            "BENCH_future.json", {"bench": "future", "reps": 1, "cells": []})
        self.assertTrue(errors)

    def test_required_keys_cover_all_smoke_reports(self):
        # The bench-smoke job emits exactly these reports today; keep the
        # schema map in lockstep so none regresses to generic-only checks.
        for name in ("BENCH_cache_ops.json", "BENCH_classifier.json",
                     "BENCH_obs_overhead.json", "BENCH_chaos.json",
                     "BENCH_scenarios.json", "BENCH_daemon.json"):
            self.assertIn(name, check_bench_smoke.REQUIRED_CELL_KEYS)


if __name__ == "__main__":
    unittest.main()
