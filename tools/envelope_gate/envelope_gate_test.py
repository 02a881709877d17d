#!/usr/bin/env python3
"""Tests for envelope_gate.py, one case class per job the gate serves.

ctest runs each class on its own (scenario_gate.fixtures ->
ScenarioGateTest, daemon_gate.fixtures -> DaemonGateTest,
bench_gate.fixtures -> BenchGateTest); run one by hand with
`envelope_gate_test.py DaemonGateTest`.
"""

import json
import pathlib
import re
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
FIXTURES = HERE / "fixtures"

sys.path.insert(0, str(HERE))
import envelope_gate  # noqa: E402


def load(path):
    return json.loads(path.read_text())


FIXTURE_ENVELOPES = load(FIXTURES / "envelopes.json")
LIVE_ENVELOPES = load(HERE / "envelopes.json")


def check(report):
    return envelope_gate.check_report(report, FIXTURE_ENVELOPES)


class GateCase:
    """Shared by the three unittest.TestCase classes below."""

    def ok(self):
        return load(FIXTURES / self.ok_fixture)

    def test_ok_report_passes(self):
        self.assertEqual(check(self.ok()), [])

    def assert_fails(self, report, *needles):
        errors = check(report)
        self.assertTrue(any(all(n in e for n in needles) for e in errors),
                        f"no violation naming {needles} in {errors}")

    def assert_live_envelope_sane(self, bench):
        """Every live rule parses, names a key the bench emits (so CI fails
        with a violation, never a KeyError) and has lo <= hi."""
        for cid, rules in LIVE_ENVELOPES[bench]["cells"].items():
            required = (envelope_gate.REQUIRED.get(f"{bench}/{cid}") or
                        envelope_gate.REQUIRED[bench]).split()
            for key, bound in rules.items():
                _, metric = envelope_gate.parse_rule(key)
                self.assertIn(metric, required, f"{bench} {cid} {key}")
                if isinstance(bound, list):
                    self.assertLessEqual(bound[0], bound[1], f"{cid} {key}")


class ScenarioGateTest(GateCase, unittest.TestCase):
    ok_fixture = "scenarios_ok.json"

    def test_injected_hit_rate_regression_fails(self):
        errors = check(load(FIXTURES / "scenarios_hit_rate_regressed.json"))
        self.assertEqual(len(errors), 1)
        self.assertIn("toy_scan/Proposal", errors[0])
        self.assertIn("file_hit_rate", errors[0])

    def test_missing_scenario_fails(self):
        report = self.ok()
        report["cells"] = [c for c in report["cells"]
                           if c["mode"] != "Proposal"]
        self.assert_fails(report, "toy_scan/Proposal", "missing from report")

    def test_unexpected_scenario_fails(self):
        report = self.ok()
        report["cells"].append(dict(report["cells"][0], scenario="rogue"))
        self.assert_fails(report, "rogue/Original", "no envelope")

    def test_duplicate_cell_fails(self):
        report = self.ok()
        report["cells"].append(report["cells"][0])
        self.assert_fails(report, "toy_scan/Original", "duplicate")

    def test_requests_drift_fails(self):
        report = self.ok()
        report["cells"][0]["requests"] += 1
        self.assert_fails(report, "requests = 1001 != 1000", "drifted")

    def test_missing_metric_fails_cleanly(self):
        report = self.ok()
        del report["cells"][0]["requests"]
        report["cells"][1]["insertions"] = "many"
        self.assert_fails(report, "toy_scan/Original", "missing keys",
                          "requests")
        self.assert_fails(report, "insertions = 'many' cannot be checked")

    def test_shed_ceiling_fails(self):
        report = self.ok()
        report["cells"][1]["shed_requests"] = 11
        self.assert_fails(report, "shed_requests = 11 > 10")

    def test_ok_false_cell_fails(self):
        report = self.ok()
        report["cells"][0]["ok"] = False
        self.assert_fails(report, "ok=false")

    def test_main_exit_codes(self):
        envelopes = str(FIXTURES / "envelopes.json")
        main = envelope_gate.main
        self.assertEqual(main(["gate", envelopes,
                               str(FIXTURES / "scenarios_ok.json"),
                               str(FIXTURES / "daemon_ok.json")]), 0)
        self.assertEqual(main(["gate", envelopes, str(
            FIXTURES / "scenarios_hit_rate_regressed.json")]), 1)
        self.assertEqual(main(["gate", envelopes]), 2)
        self.assertEqual(main(["gate", envelopes, "/nonexistent.json"]), 2)

    def registered_names(self):
        header = (REPO / "src" / "scenario" / "scenario_names.h").read_text()
        body = header[header.index("kKnownScenarios"):]
        return re.findall(r'"([^"]+)"', body[:body.index("}")])

    def test_envelopes_cover_every_registered_scenario(self):
        expected = sorted(f"{name}/{mode}" for name in self.registered_names()
                          for mode in ("Original", "Proposal"))
        self.assertEqual(sorted(LIVE_ENVELOPES["scenarios"]["cells"]),
                         expected)

    def test_mis_scaled_report_fails(self):
        report = self.ok()
        report["provenance"]["otac_scale"] = 0.2
        self.assert_fails(report, "otac_scale = 0.2", "calibrated at 1.0")

    def test_envelope_windows_are_sane(self):
        self.assert_live_envelope_sane("scenarios")
        for rules in LIVE_ENVELOPES["scenarios"]["cells"].values():
            self.assertGreater(rules["requests"], 0)
            self.assertGreaterEqual(rules["max_shed_requests"], 0)


class DaemonGateTest(GateCase, unittest.TestCase):
    ok_fixture = "daemon_ok.json"

    def test_injected_p99_regression_fails(self):
        errors = check(load(FIXTURES / "daemon_p99_regressed.json"))
        self.assertEqual(len(errors), 1)
        self.assertIn("p99_us", errors[0])
        self.assertIn("client", errors[0])

    def test_empty_report_fails(self):
        report = self.ok()
        report["cells"] = []
        self.assert_fails(report, "no cells")

    def test_missing_schema_key_fails(self):
        report = self.ok()
        del report["cells"][1]["eviction_hash"]
        del report["cells"][0]["wall_seconds"]
        self.assert_fails(report, "server", "missing keys", "eviction_hash")
        self.assert_fails(report, "client", "missing keys", "wall_seconds")

    def test_missing_server_cell_fails(self):
        report = self.ok()
        report["cells"] = [c for c in report["cells"]
                           if c["side"] != "server"]
        self.assert_fails(report, "server: missing from report")

    def test_unanswered_frames_fail(self):
        report = self.ok()
        report["cells"][0]["replies"] -= 7
        self.assert_fails(report, "client", "unanswered")

    def test_request_count_drift_fails(self):
        report = self.ok()
        report["cells"][0]["requests"] += 1
        self.assert_fails(report, "client: requests", "drifted")

    def test_server_replay_drift_fails(self):
        report = self.ok()
        report["cells"][1]["requests"] -= 1
        self.assert_fails(report, "server: requests", "drifted")

    def test_transport_error_fails(self):
        report = self.ok()
        report["cells"][0]["errors"] = 1
        self.assert_fails(report, "client: errors = 1 > 0")

    def test_no_trainings_fails(self):
        report = self.ok()
        report["cells"][1]["trainings"] = 0
        self.assert_fails(report, "server: trainings")

    def test_zero_eviction_hash_fails(self):
        report = self.ok()
        report["cells"][1]["eviction_hash"] = "0x0000000000000000"
        self.assert_fails(report, "fingerprint dead")

    def test_mis_scaled_report_fails(self):
        report = self.ok()
        report["provenance"]["otac_scale"] = 0.05
        self.assert_fails(report, "otac_scale = 0.05", "calibrated at 1.0")

    def test_checked_in_envelopes_are_loadable(self):
        self.assert_live_envelope_sane("daemon")
        cells = LIVE_ENVELOPES["daemon"]["cells"]
        self.assertEqual(sorted(cells), ["client", "server"])
        for key in ("requests", "max_errors", "max_retries", "max_shed",
                    "min_achieved_rps", "p50_us", "p99_us", "p999_us"):
            self.assertIn(key, cells["client"])
        for key in ("requests", "file_hit_rate", "trainings",
                    "max_shed_requests", "max_retrain_timeouts",
                    "eviction_hash_nonzero"):
            self.assertIn(key, cells["server"])


class BenchGateTest(GateCase, unittest.TestCase):
    ok_fixture = "cache_ops_ok.json"

    def test_empty_cells_fail(self):
        report = self.ok()
        report["cells"] = []
        self.assert_fails(report, "silently-empty")

    def test_missing_cells_key_fails(self):
        report = self.ok()
        del report["cells"]
        self.assert_fails(report, "silently-empty")

    def test_empty_cell_object_fails(self):
        report = self.ok()
        report["cells"].append({})
        self.assert_fails(report, "cell 1 is not a non-empty object")

    def test_missing_schema_key_fails(self):
        report = self.ok()
        del report["cells"][0]["hit_rate"]
        self.assert_fails(report, "missing keys", "hit_rate")

    def test_missing_bench_name_fails(self):
        report = self.ok()
        report["bench"] = ""
        self.assert_fails(report, '"bench" missing or empty')

    def test_zero_reps_fails(self):
        report = self.ok()
        report["reps"] = 0
        self.assert_fails(report, '"reps"')

    def test_missing_provenance_fails(self):
        report = self.ok()
        del report["provenance"]["commit"]
        self.assert_fails(report, "provenance missing keys", "commit")
        del report["provenance"]
        self.assert_fails(report, '"provenance" missing')

    def test_unknown_report_gets_generic_checks(self):
        report = dict(self.ok(), bench="future", cells=[{"anything": 1}])
        self.assertEqual(check(report), [])
        self.assert_fails(dict(report, cells=[]), "silently-empty")

    def test_required_keys_cover_all_smoke_reports(self):
        # Every bench that writes a report has its own key list, so none
        # regresses to the generic checks only.
        sources = [*REPO.glob("bench/*.cpp"), *REPO.glob("tools/*/*.cpp")]
        benches = {bench for path in sources for bench in re.findall(
            r'report\.bench = "(\w+)"', path.read_text())}
        self.assertEqual(len(benches), 5)
        for bench in (*benches, "daemon/client", "daemon/server"):
            self.assertIn(bench, envelope_gate.REQUIRED)

    def test_checked_in_reports_pass(self):
        paths = sorted(REPO.glob("BENCH_*.json"))
        self.assertTrue(paths)
        for path in paths:
            self.assertEqual(envelope_gate.check_report(
                load(path), LIVE_ENVELOPES), [], path.name)


if __name__ == "__main__":
    unittest.main()
