#!/usr/bin/env python3
"""Tests for otac-analyze: the violation fixtures must report exactly the
pinned finding counts, the symbol gate must flag a compiled leaky object,
the clean tree must report zero findings, and configuration errors must
exit 2 rather than silently pass.

Run directly (`python3 tools/otac_analyze/otac_analyze_test.py`) or via
ctest (label `lint`). The clean-tree symbol test needs a configured build
directory (compile_commands.json + objects); it honors
OTAC_ANALYZE_BUILD_DIR and defaults to <repo>/build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

TOOL_DIR = Path(__file__).resolve().parent
REPO_ROOT = TOOL_DIR.parents[1]
ANALYZER = TOOL_DIR / "otac_analyze.py"
FIXTURES = TOOL_DIR / "fixtures"
VIOLATION_TREE = FIXTURES / "violation_tree"
BUILD_DIR = Path(os.environ.get("OTAC_ANALYZE_BUILD_DIR",
                                REPO_ROOT / "build"))

# violation_tree, checks layering+locks -> exact multiset of finding kinds
EXPECTED_TREE = {
    "layer-dep": 1,            # src/util/clock.h includes core/engine.h
    "layer-cycle": 1,          # core -> util -> core
    "include-unresolved": 1,   # missing/gone.h
    "lock-io": 1,              # fprintf under hot lock (2nd site suppressed)
    "lock-wait": 1,            # cv_.wait under hot lock
    "lock-trainer": 2,         # ->fit under hot lock, ->advance under
                               # queue lock
    "lock-order": 1,           # rank 5 acquired under rank 20
    "lock-registry": 2,        # unregistered rogue_mutex_ + stale entry
    "lock-guard": 1,           # guard on the unregistered mutex
}

# hot_leaky.o via --hotpath-object, empty compile DB, stale allowlist
EXPECTED_SYMBOLS = {
    "symbol-banned": 6,     # _Znwm, __cxa_allocate_exception, __cxa_throw,
                            # clock_gettime, malloc, rand
    "symbol-missing": 7,    # each designated TU absent from the empty DB
    "symbol-allowlist": 2,  # non-hot-path TU entry + unknown family
}


def run_analyzer(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ANALYZER), *args],
        capture_output=True, text=True, check=False)


def kind_hits(stdout: str) -> Counter:
    """Parse `path:line: [kind] message` lines into a kind multiset."""
    hits: Counter = Counter()
    for line in stdout.splitlines():
        if ": [" in line and "] " in line:
            kind = line.split(": [", 1)[1].split("]", 1)[0]
            hits[kind] += 1
    return hits


def find_cxx() -> str:
    for name in (os.environ.get("CXX"), "c++", "g++", "clang++"):
        if name and shutil.which(name):
            return name
    raise RuntimeError("no C++ compiler found for the symbol fixture")


class ViolationTreeTest(unittest.TestCase):
    def test_pinned_finding_counts(self):
        result = run_analyzer("--root", str(VIOLATION_TREE),
                              "--checks", "layering,locks")
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertEqual(dict(kind_hits(result.stdout)), EXPECTED_TREE)

    def test_json_report_matches_pinned_counts(self):
        result = run_analyzer("--root", str(VIOLATION_TREE),
                              "--checks", "layering,locks",
                              "--format", "json")
        self.assertEqual(result.returncode, 1, result.stderr)
        report = json.loads(result.stdout)
        self.assertFalse(report["clean"])
        self.assertEqual(report["counts"], EXPECTED_TREE)
        self.assertEqual(len(report["findings"]),
                         sum(EXPECTED_TREE.values()))
        for finding in report["findings"]:
            self.assertEqual(sorted(finding),
                             ["check", "kind", "line", "message", "path"])

    def test_dot_artifact_marks_back_edge(self):
        with tempfile.TemporaryDirectory() as tmp:
            dot = Path(tmp) / "layering.dot"
            run_analyzer("--root", str(VIOLATION_TREE),
                         "--checks", "layering", "--dot", str(dot))
            text = dot.read_text()
            self.assertIn('"core" -> "util"', text)   # legal edge
            self.assertIn('"util" -> "core" [color=red', text)  # back-edge

    def test_json_out_file_written(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "findings.json"
            run_analyzer("--root", str(VIOLATION_TREE),
                         "--checks", "layering,locks",
                         "--json-out", str(out))
            report = json.loads(out.read_text())
            self.assertEqual(report["counts"], EXPECTED_TREE)


class SymbolGateTest(unittest.TestCase):
    def test_leaky_object_and_stale_allowlist(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            root = tmp / "root"
            build = tmp / "build"
            (root / "tools" / "otac_analyze").mkdir(parents=True)
            build.mkdir()
            (root / "tools" / "otac_analyze"
             / "hotpath_symbols.json").write_text(json.dumps({
                 "src/core/not_a_tu.cpp": {"operator-new": "stale entry"},
                 "src/core/serving_core.cpp": {"cosmic-rays": "unknown"},
             }))
            (build / "compile_commands.json").write_text("[]")
            obj = tmp / "hot_leaky.o"
            subprocess.run(
                [find_cxx(), "-O0", "-std=c++20", "-c",
                 str(FIXTURES / "hot_leaky.cpp"), "-o", str(obj)],
                check=True)
            result = run_analyzer("--root", str(root),
                                  "--build-dir", str(build),
                                  "--checks", "symbols",
                                  "--hotpath-object", f"hot_leaky={obj}")
            self.assertEqual(result.returncode, 1, result.stderr)
            self.assertEqual(dict(kind_hits(result.stdout)),
                             EXPECTED_SYMBOLS)

    def test_missing_compile_db_is_a_config_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "root" / "tools" / "otac_analyze").mkdir(parents=True)
            (tmp / "root" / "tools" / "otac_analyze"
             / "hotpath_symbols.json").write_text("{}")
            result = run_analyzer("--root", str(tmp / "root"),
                                  "--build-dir", str(tmp / "nope"),
                                  "--checks", "symbols")
            self.assertEqual(result.returncode, 2)
            self.assertIn("compile database", result.stderr)

    def test_missing_allowlist_is_a_config_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            result = run_analyzer("--root", str(tmp),
                                  "--checks", "symbols")
            self.assertEqual(result.returncode, 2)
            self.assertIn("allowlist", result.stderr)


class LockWindowTest(unittest.TestCase):
    """The unlock()/lock() window semantics: work done between
    guard.unlock() and guard.lock() is NOT held-under-lock (the
    trainer-watchdog fit pattern)."""

    REGISTRY = """
    enum class LockClass { hot, queue, barrier, io_writer };
    inline constexpr LockInfo kKnownLocks[] = {
        {"core.w.coord", "src/core/w", "mutex_", LockClass::queue, 10},
    };
    """

    def _run_tree(self, body: str) -> Counter:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            core = root / "src" / "core"
            core.mkdir(parents=True)
            (core / "lock_names.h").write_text(self.REGISTRY)
            (core / "w.cpp").write_text(
                "#include <mutex>\nstd::mutex mutex_;\n" + body)
            result = run_analyzer("--root", str(root), "--checks", "locks")
            return kind_hits(result.stdout)

    def test_fit_inside_unlock_window_is_clean(self):
        hits = self._run_tree("""
        void worker(Trainer& t) {
          std::unique_lock<std::mutex> lock(mutex_);
          lock.unlock();
          t.fit(1);
          lock.lock();
        }
        """)
        self.assertEqual(dict(hits), {})

    def test_fit_while_held_is_flagged(self):
        hits = self._run_tree("""
        void worker(Trainer& t) {
          std::unique_lock<std::mutex> lock(mutex_);
          t.fit(1);
        }
        """)
        self.assertEqual(dict(hits), {"lock-trainer": 1})

    def test_engine_barrier_calls_while_held_are_flagged(self):
        # advance/finish/replay run the engine's pending retrain barriers,
        # so each is a fit as far as the lock classes are concerned.
        hits = self._run_tree("""
        void worker(ShardEngine& engine, ShardEngine* other) {
          std::lock_guard<std::mutex> lock(mutex_);
          engine.advance(7);
          other->finish(1);
          engine.replay(2);
        }
        """)
        self.assertEqual(dict(hits), {"lock-trainer": 3})


class CleanTreeTest(unittest.TestCase):
    def test_layering_and_locks_clean(self):
        result = run_analyzer("--root", str(REPO_ROOT),
                              "--checks", "layering,locks")
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)

    def test_symbols_clean(self):
        if not (BUILD_DIR / "compile_commands.json").is_file():
            self.skipTest(f"no compile database under {BUILD_DIR}; "
                          f"run via ctest or scripts/ci.sh analyze")
        result = run_analyzer("--root", str(REPO_ROOT),
                              "--build-dir", str(BUILD_DIR),
                              "--checks", "symbols")
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)


class CliTest(unittest.TestCase):
    def test_unknown_check_exits_2(self):
        result = run_analyzer("--root", str(VIOLATION_TREE),
                              "--checks", "layering,astrology")
        self.assertEqual(result.returncode, 2)
        self.assertIn("unknown checks", result.stderr)

    def test_list_checks(self):
        result = run_analyzer("--list-checks")
        self.assertEqual(result.returncode, 0)
        for check in ("layering", "symbols", "locks"):
            self.assertIn(check, result.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
