#!/usr/bin/env python3
"""otac-lint: project-invariant linter for the otacache tree.

The reproduction's headline claims (byte-identical golden evictions,
shards=1 bit-identity, seed-deterministic RunResults) rest on invariants
no compiler checks: no ambient time or randomness on the replay path, no
iteration over unordered containers feeding serialized output, failpoint
and metric names drawn from single central registries, one hash function
for golden sequences, and basic header hygiene. This tool makes those
invariants machine-enforced.

Usage:
    otac_lint.py [--root DIR] [--list-rules] [paths...]

With no paths, lints src/, bench/, and examples/ under --root (default:
the repository root containing this tool) with every rule, plus tools/
and tests/ with the determinism rules (wall-clock, ambient-random,
unknown-suppression) — gate tooling and tests must obey the same
no-ambient-time/no-ambient-randomness contract as the product tree, with
audited exceptions listed in AUX_WALLCLOCK_ALLOWLIST. Violation-fixture
directories (any path component named `fixtures`) are skipped in the
aux tree. Paths may be files or directories; explicitly named paths get
every rule. Exit status: 0 clean, 1 violations found, 2 usage error.

Suppression pragmas (all rules are suppressible; a suppression should say
why in a neighbouring comment):

    // otac-lint: allow(<rule>[, <rule>...])       same line or line above
    // otac-lint: allow-file(<rule>[, <rule>...])  whole file
    // otac-lint: serialization-boundary           mark file for the
                                                   unordered-serialization
                                                   rule (in addition to the
                                                   built-in boundary list)
    // otac-lint: hotpath-file                     mark file for the
                                                   hotpath-alloc rule (in
                                                   addition to the built-in
                                                   hot-path list)
    // otac-lint: retry-path                       mark file for the
                                                   bounded-retry rule (in
                                                   addition to the built-in
                                                   retry-path list)

Adding a rule: subclass Rule, implement check(), append an instance to
RULES, add a fixture in tools/otac_lint/fixtures/ plus an expectation in
otac_lint_test.py, and document it in DESIGN.md §11.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".h", ".cpp"}
DEFAULT_SCAN_DIRS = ("src", "bench", "examples")

# The aux tree: gate tooling and tests. Scanned by default with the
# determinism subset below — a load generator that timestamps requests
# from the wall clock or a test that seeds from std::random_device
# breaks reproducibility exactly like product code would.
AUX_SCAN_DIRS = ("tools", "tests")
AUX_RULES = ("wall-clock", "ambient-random", "unknown-suppression")

# Audited aux-tree wall-clock exceptions: rel paths here may reference
# ambient time (e.g. a future loadgen feature stamping report metadata
# with a capture date). Every entry must say why in a comment. Currently
# empty on purpose: the loadgen and daemon tooling measure with
# std::chrono::steady_clock, which the wall-clock rule already permits.
AUX_WALLCLOCK_ALLOWLIST: set[str] = set()

FAILPOINT_REGISTRY = "src/util/failpoint_names.h"
METRIC_REGISTRY = "src/obs/metric_names.h"
SCENARIO_REGISTRY = "src/scenario/scenario_names.h"

# Files whose output is serialized, hashed, or golden-pinned: checkpoint
# bytes, run reports, bench JSON, trace files, eviction-sequence hashes.
# Iteration order inside these files is contractual. Files can also opt in
# with the serialization-boundary pragma.
SERIALIZATION_BOUNDARY_FILES = {
    "bench/bench_json.h",
    "src/cachesim/cache_stats.h",
    "src/core/checkpoint.cpp",
    "src/core/run_metrics.cpp",
    "src/obs/metrics.cpp",
    "src/obs/report.cpp",
    "src/trace/trace_io.cpp",
}

# Translation units containing the per-request replay loops: every request
# of a 25M-op replay crosses these, so a stray allocation or type-erased
# call is a systematic throughput regression, not noise. Cold sites inside
# them (setup, retrain barriers, report assembly) carry allow() pragmas.
HOTPATH_FILES = {
    "src/core/serving_core.cpp",
    "src/core/shard_engine.cpp",
    "src/core/sharded_cache.cpp",
    "src/ml/compiled_tree.cpp",
    "src/net/daemon.cpp",
    "src/net/protocol.cpp",
}

# Files on the serving / checkpoint retry paths (DESIGN.md §13): every
# retry loop here must be bounded by an attempt budget (util/backoff.h),
# because an unbounded `while (true) retry();` turns a persistent fault
# into a hang that the watchdog and chaos suite exist to prevent. Files
# can also opt in with the retry-path pragma.
RETRY_PATH_FILES = {
    "src/core/checkpoint.cpp",
    "src/core/model_slot.h",
    "src/core/shard_engine.cpp",
    "src/core/shard_queue.cpp",
    "src/core/sharded_cache.cpp",
    "src/core/trainer_watchdog.cpp",
    "src/net/daemon.cpp",
    "src/net/loadgen.cpp",
    "src/net/protocol.cpp",
    "src/net/socket.cpp",
    "src/util/backoff.h",
}

ALLOW_RE = re.compile(r"otac-lint:\s*allow\(([a-z0-9\-,\s]+)\)")
ALLOW_FILE_RE = re.compile(r"otac-lint:\s*allow-file\(([a-z0-9\-,\s]+)\)")
BOUNDARY_PRAGMA_RE = re.compile(r"otac-lint:\s*serialization-boundary")
HOTPATH_PRAGMA_RE = re.compile(r"otac-lint:\s*hotpath-file")
RETRY_PRAGMA_RE = re.compile(r"otac-lint:\s*retry-path")


def strip_comments(text: str) -> str:
    """Replace comment bodies with spaces (string literals are preserved,
    newlines kept so offsets map back to line numbers)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append(c)
                out.append(nxt)
                i += 2
                continue
            if c == '"':
                state = "code"
            out.append(c)
        else:  # char
            if c == "\\":
                out.append(c)
                out.append(nxt)
                i += 2
                continue
            if c == "'":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class FileContext:
    """One scanned file: raw text for pragmas, comment-stripped text for
    rule matching, and the suppression state."""

    def __init__(self, root: Path, path: Path):
        self.abs_path = path
        self.rel_path = path.relative_to(root).as_posix()
        self.raw_text = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = self.raw_text.splitlines()
        self.code_text = strip_comments(self.raw_text)
        self.code_lines = self.code_text.splitlines()
        # Like code_text but with string-literal *contents* blanked too —
        # for rules that match identifiers, so "response time (ms)" in a
        # banner string cannot trip the wall-clock pattern. Rules that
        # check registered names keep using code_text.
        self.ident_text = re.sub(r'"(?:[^"\\\n]|\\.)*"',
                                 lambda m: '"' + " " * (len(m.group(0)) - 2)
                                 + '"',
                                 self.code_text)
        self.file_allows: set[str] = set()
        self.line_allows: dict[int, set[str]] = {}
        self.boundary_pragma = False
        self.hotpath_pragma = False
        self.retry_pragma = False
        for lineno, line in enumerate(self.raw_lines, start=1):
            m = ALLOW_FILE_RE.search(line)
            if m:
                self.file_allows.update(_split_rules(m.group(1)))
            m = ALLOW_RE.search(line)
            if m:
                rules = _split_rules(m.group(1))
                # A pragma suppresses its own line and the line below, so
                # it can sit above the flagged statement.
                self.line_allows.setdefault(lineno, set()).update(rules)
                self.line_allows.setdefault(lineno + 1, set()).update(rules)
            if BOUNDARY_PRAGMA_RE.search(line):
                self.boundary_pragma = True
            if HOTPATH_PRAGMA_RE.search(line):
                self.hotpath_pragma = True
            if RETRY_PRAGMA_RE.search(line):
                self.retry_pragma = True

    def allowed(self, rule: str, lineno: int) -> bool:
        if rule in self.file_allows:
            return True
        return rule in self.line_allows.get(lineno, set())

    def line_of_offset(self, offset: int) -> int:
        return self.code_text.count("\n", 0, offset) + 1

    def is_header(self) -> bool:
        return self.abs_path.suffix == ".h"

    def is_serialization_boundary(self) -> bool:
        return (self.rel_path in SERIALIZATION_BOUNDARY_FILES
                or self.boundary_pragma)

    def is_hotpath_file(self) -> bool:
        return self.rel_path in HOTPATH_FILES or self.hotpath_pragma

    def is_retry_path_file(self) -> bool:
        return self.rel_path in RETRY_PATH_FILES or self.retry_pragma


def _split_rules(spec: str) -> set[str]:
    return {r.strip() for r in spec.split(",") if r.strip()}


class Rule:
    name = ""
    summary = ""

    def check(self, ctx: FileContext) -> list[Violation]:
        raise NotImplementedError

    def _hit(self, ctx: FileContext, lineno: int, message: str) -> Violation:
        return Violation(ctx.rel_path, lineno, self.name, message)


class WallClockRule(Rule):
    """Replay output must be a pure function of (trace, config, seed);
    ambient time sources break that. Monotonic steady_clock is allowed —
    it only feeds the *_seconds wall-clock histograms, which reports and
    RunResult identity explicitly exclude (core/run_metrics.h)."""

    name = "wall-clock"
    summary = ("no std::chrono::system_clock / time() / clock() / "
               "localtime() / gmtime(); sim time and steady_clock only")

    PATTERNS = [
        (re.compile(r"std::chrono::system_clock"),
         "std::chrono::system_clock"),
        (re.compile(r"(?<![A-Za-z0-9_])(?:std::|::)?"
                    r"(time|clock|localtime|gmtime|ctime|strftime)\s*\("),
         None),
    ]

    def check(self, ctx: FileContext) -> list[Violation]:
        out = []
        for pattern, label in self.PATTERNS:
            for m in pattern.finditer(ctx.ident_text):
                lineno = ctx.line_of_offset(m.start())
                if ctx.allowed(self.name, lineno):
                    continue
                what = label or f"{m.group(1)}()"
                out.append(self._hit(
                    ctx, lineno,
                    f"ambient wall-clock source {what}; replay paths use "
                    f"simulated time (util/sim_time.h), timing metrics use "
                    f"std::chrono::steady_clock"))
        return out


class AmbientRandomRule(Rule):
    """All randomness flows from util/rng.h (SplitMix64, explicit seeds).
    std::random_device & friends reseed from the environment and vary
    across libstdc++ versions — both break seed-determinism."""

    name = "ambient-random"
    summary = ("no rand()/srand()/std::random_device/std::mt19937/<random> "
               "engines or distributions outside util/rng.*")

    EXEMPT_FILES = {"src/util/rng.h", "src/util/rng.cpp"}
    PATTERN = re.compile(
        r"(?<![A-Za-z0-9_])(?:std::)?"
        r"(rand\s*\(|srand\s*\(|random_device|mt19937(?:_64)?|"
        r"minstd_rand0?|default_random_engine|knuth_b|ranlux\w+|"
        r"\w+_distribution\s*<)")

    def check(self, ctx: FileContext) -> list[Violation]:
        if ctx.rel_path in self.EXEMPT_FILES:
            return []
        out = []
        for m in self.PATTERN.finditer(ctx.ident_text):
            lineno = ctx.line_of_offset(m.start())
            if ctx.allowed(self.name, lineno):
                continue
            out.append(self._hit(
                ctx, lineno,
                f"ambient randomness '{m.group(1).strip()}'; use the seeded "
                f"Rng in util/rng.h so replays stay deterministic"))
        return out


class UnorderedSerializationRule(Rule):
    """In files that feed serialization or golden hashes, iterating a
    std::unordered_{map,set} makes output depend on hash-table layout
    (libstdc++ version, insertion history). Sort keys at the boundary or
    use the deterministic open-addressing tables in util/open_hash.h."""

    name = "unordered-serialization"
    summary = ("no range-for / begin() iteration over std::unordered_map/"
               "set in serialization-boundary files; sort first or use "
               "util/open_hash.h")

    DECL_RE = re.compile(
        r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
        r"[^;{}()]*?>\s+(\w+)\s*[;{=]")

    def check(self, ctx: FileContext) -> list[Violation]:
        if not ctx.is_serialization_boundary():
            return []
        names = set(self.DECL_RE.findall(ctx.ident_text))
        if not names:
            return []
        out = []
        alt = "|".join(re.escape(n) for n in sorted(names))
        usage = re.compile(
            r"(?:for\s*\([^;)]*:\s*(?:this->)?(" + alt + r")\b)"
            r"|(?:\b(" + alt + r")\s*\.\s*c?begin\s*\()")
        for m in usage.finditer(ctx.ident_text):
            lineno = ctx.line_of_offset(m.start())
            if ctx.allowed(self.name, lineno):
                continue
            name = m.group(1) or m.group(2)
            out.append(self._hit(
                ctx, lineno,
                f"iteration over unordered container '{name}' in a "
                f"serialization-boundary file; iteration order is not "
                f"deterministic — sort keys first or use util/open_hash.h"))
        return out


class FailpointRegistryRule(Rule):
    """Failpoint names live in src/util/failpoint_names.h; a site using an
    unlisted name would register fine and silently never be scriptable by
    name from the central table."""

    name = "failpoint-registry"
    summary = ("every OTAC_FAILPOINT_ACTIVE/THROW string literal must "
               "appear in util/failpoint_names.h")

    # The macro definitions themselves take an unquoted parameter.
    EXEMPT_FILES = {"src/util/failpoint.h"}
    SITE_RE = re.compile(
        r'OTAC_FAILPOINT_(?:ACTIVE|THROW)\s*\(\s*"([^"]+)"')

    def __init__(self, known_names: set[str], test_prefix: str = "test."):
        self.known_names = known_names
        self.test_prefix = test_prefix

    def check(self, ctx: FileContext) -> list[Violation]:
        if ctx.rel_path in self.EXEMPT_FILES:
            return []
        out = []
        for m in self.SITE_RE.finditer(ctx.code_text):
            name = m.group(1)
            if name in self.known_names or name.startswith(self.test_prefix):
                continue
            lineno = ctx.line_of_offset(m.start())
            if ctx.allowed(self.name, lineno):
                continue
            out.append(self._hit(
                ctx, lineno,
                f'failpoint "{name}" is not listed in '
                f"{FAILPOINT_REGISTRY}; add it to the central registry"))
        return out


class MetricRegistryRule(Rule):
    """Metric names live in src/obs/metric_names.h; unlisted names drift
    into reports and dashboards unreviewed."""

    name = "metric-registry"
    summary = ("every literal metric name bound via counter()/gauge()/"
               "histogram()/set()/set_gauge() must appear in "
               "obs/metric_names.h")

    SITE_RE = re.compile(
        r'(?:\.|->)\s*(?:counter|gauge|histogram|set|set_gauge)\s*'
        r'\(\s*"([^"]+)"')

    def __init__(self, known_names: set[str]):
        self.known_names = known_names

    def check(self, ctx: FileContext) -> list[Violation]:
        out = []
        for m in self.SITE_RE.finditer(ctx.code_text):
            name = m.group(1)
            if name in self.known_names:
                continue
            lineno = ctx.line_of_offset(m.start())
            if ctx.allowed(self.name, lineno):
                continue
            out.append(self._hit(
                ctx, lineno,
                f'metric "{name}" is not listed in {METRIC_REGISTRY}; '
                f"add it to the central registry"))
        return out


class ScenarioRegistryRule(Rule):
    """Scenario names live in src/scenario/scenario_names.h; a
    scenario::find("...") call naming anything else only fails at runtime
    (std::invalid_argument), and a misspelled name in a bench or example
    silently drops that scenario from its matrix. Catch it at lint time."""

    name = "scenario-registry"
    summary = ('every scenario::find("...") string literal must appear in '
               "scenario/scenario_names.h")

    SITE_RE = re.compile(r'scenario\s*::\s*find\s*\(\s*"([^"]+)"')

    def __init__(self, known_names: set[str]):
        self.known_names = known_names

    def check(self, ctx: FileContext) -> list[Violation]:
        out = []
        for m in self.SITE_RE.finditer(ctx.code_text):
            name = m.group(1)
            if name in self.known_names:
                continue
            lineno = ctx.line_of_offset(m.start())
            if ctx.allowed(self.name, lineno):
                continue
            out.append(self._hit(
                ctx, lineno,
                f'scenario "{name}" is not listed in {SCENARIO_REGISTRY}; '
                f"register it (name, spec, and gate envelopes) before "
                f"referencing it"))
        return out


class GoldenHashRule(Rule):
    """util/fnv.h is the one hash for golden sequences: std::hash is
    implementation-defined (goldens would differ across standard
    libraries), and crc32 is reserved for checkpoint integrity."""

    name = "golden-hash"
    summary = ("util/fnv.h is the only hash for golden sequences: no "
               "std::hash, crc32 only in util/crc32.*, core/checkpoint.*, "
               "and net/protocol.cpp")

    CRC_EXEMPT = {
        "src/util/crc32.h",
        "src/util/crc32.cpp",
        "src/core/checkpoint.h",
        "src/core/checkpoint.cpp",
        "src/net/protocol.cpp",
    }
    STD_HASH_RE = re.compile(r"\bstd\s*::\s*hash\s*<")
    CRC_RE = re.compile(r'(?<![A-Za-z0-9_])crc32\s*\(|"util/crc32\.h"')

    def check(self, ctx: FileContext) -> list[Violation]:
        out = []
        for m in self.STD_HASH_RE.finditer(ctx.ident_text):
            lineno = ctx.line_of_offset(m.start())
            if ctx.allowed(self.name, lineno):
                continue
            out.append(self._hit(
                ctx, lineno,
                "std::hash is implementation-defined; golden/behavior-"
                "identity hashes must use util/fnv.h"))
        if ctx.rel_path not in self.CRC_EXEMPT:
            for m in self.CRC_RE.finditer(ctx.code_text):
                lineno = ctx.line_of_offset(m.start())
                if ctx.allowed(self.name, lineno):
                    continue
                out.append(self._hit(
                    ctx, lineno,
                    "crc32 is reserved for checkpoint integrity "
                    "(core/checkpoint.*); golden sequences use util/fnv.h"))
        return out


class HotpathAllocRule(Rule):
    """The admission path's zero-allocation contract (DESIGN.md §12): the
    per-request replay loops pre-size every buffer at construction, so any
    heap traffic that appears later is a regression the throughput benches
    will pay for on every one of ~25M requests. Cold sites inside hot-path
    translation units (setup, retrain barriers, report assembly) suppress
    with an allow() pragma stating why they are cold."""

    name = "hotpath-alloc"
    summary = ("no new/make_unique/make_shared, std::function, or "
               "vector-growth calls (push_back/emplace_back/resize/reserve) "
               "in hot-path files; cold sites carry allow() pragmas")

    PATTERNS = [
        (re.compile(r"(?<![A-Za-z0-9_])new(?![A-Za-z0-9_])"),
         "operator new"),
        (re.compile(r"\bstd\s*::\s*(make_unique|make_shared)\s*[<(]"),
         "heap allocation"),
        (re.compile(r"\bstd\s*::\s*function\s*<"),
         "type-erased std::function (allocates and indirects)"),
        (re.compile(r"(?:\.|->)\s*"
                    r"(push_back|emplace_back|resize|reserve)\s*\("),
         "container growth"),
    ]

    def check(self, ctx: FileContext) -> list[Violation]:
        if not ctx.is_hotpath_file():
            return []
        out = []
        for pattern, label in self.PATTERNS:
            for m in pattern.finditer(ctx.ident_text):
                lineno = ctx.line_of_offset(m.start())
                if ctx.allowed(self.name, lineno):
                    continue
                what = (m.group(1) if pattern.groups else m.group(0)).strip()
                out.append(self._hit(
                    ctx, lineno,
                    f"{label} '{what}' in a hot-path file; the admission "
                    f"path is zero-allocation — pre-size at construction, "
                    f"or mark a cold site with an allow() pragma"))
        return out


class BoundedRetryRule(Rule):
    """Retry loops on the serving and checkpoint paths must be bounded by
    an attempt budget (util/backoff.h): an unbounded `while (true)
    retry();` turns a persistent fault into a hang, which is exactly the
    failure mode the watchdog and chaos suite (DESIGN.md §13) guard
    against. Loops that are unbounded by design — the seqlock reader in
    core/model_slot.h, whose retry is bounded by publisher progress, not
    an attempt count — suppress with an allow() pragma stating why."""

    name = "bounded-retry"
    summary = ("no unconditional loops (while(true)/while(1)/for(;;)) in "
               "retry-path files; bound retries with an attempt budget "
               "(util/backoff.h)")

    PATTERN = re.compile(
        r"\bwhile\s*\(\s*(?:true|1)\s*\)|\bfor\s*\(\s*;\s*;\s*\)")

    def check(self, ctx: FileContext) -> list[Violation]:
        if not ctx.is_retry_path_file():
            return []
        out = []
        for m in self.PATTERN.finditer(ctx.ident_text):
            lineno = ctx.line_of_offset(m.start())
            if ctx.allowed(self.name, lineno):
                continue
            out.append(self._hit(
                ctx, lineno,
                f"unconditional loop '{m.group(0).strip()}' in a retry-path "
                f"file; retries must be bounded by an attempt budget "
                f"(util/backoff.h), or mark a progress-bounded loop with an "
                f"allow() pragma"))
        return out


class HeaderHygieneRule(Rule):
    """Headers carry #pragma once and never inject namespaces into every
    includer."""

    name = "header-hygiene"
    summary = "headers must use #pragma once and must not 'using namespace'"

    USING_RE = re.compile(r"^\s*using\s+namespace\s+[\w:]+\s*;")

    def check(self, ctx: FileContext) -> list[Violation]:
        if not ctx.is_header():
            return []
        out = []
        if "#pragma once" not in ctx.code_text:
            if not ctx.allowed(self.name, 1):
                out.append(self._hit(ctx, 1, "header missing #pragma once"))
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if self.USING_RE.match(line) and not ctx.allowed(self.name,
                                                             lineno):
                out.append(self._hit(
                    ctx, lineno,
                    "'using namespace' in a header leaks into every "
                    "includer; qualify names instead"))
        return out


class UnknownSuppressionRule(Rule):
    """A typo'd rule name inside allow()/allow-file() suppresses nothing —
    and looks exactly like it does, so the masking is invisible in review.
    Reject any pragma naming a rule that does not exist."""

    name = "unknown-suppression"
    summary = ("allow()/allow-file() pragmas may only name rules that "
               "exist (--list-rules); a typo'd suppression masks itself")

    def __init__(self, known_rules: set[str]):
        self.known_rules = known_rules

    def check(self, ctx: FileContext) -> list[Violation]:
        out = []
        for lineno, line in enumerate(ctx.raw_lines, start=1):
            for regex, kind in ((ALLOW_FILE_RE, "allow-file"),
                                (ALLOW_RE, "allow")):
                m = regex.search(line)
                if not m:
                    continue
                for rule_name in sorted(_split_rules(m.group(1))):
                    if rule_name in self.known_rules:
                        continue
                    if ctx.allowed(self.name, lineno):
                        continue
                    out.append(self._hit(
                        ctx, lineno,
                        f"{kind}() pragma names unknown rule "
                        f"'{rule_name}', so it suppresses nothing; "
                        f"see --list-rules for the rule table"))
        return out


def parse_registry_names(root: Path, rel_path: str) -> set[str]:
    """All quoted names inside the registry header's initializer lists
    (comments stripped, so prose examples don't register names)."""
    path = root / rel_path
    if not path.is_file():
        return set()
    code = strip_comments(path.read_text(encoding="utf-8", errors="replace"))
    return set(re.findall(r'"([^"]+)"', code))


def build_rules(root: Path) -> list[Rule]:
    rules: list[Rule] = [
        WallClockRule(),
        AmbientRandomRule(),
        UnorderedSerializationRule(),
        FailpointRegistryRule(parse_registry_names(root, FAILPOINT_REGISTRY)),
        MetricRegistryRule(parse_registry_names(root, METRIC_REGISTRY)),
        ScenarioRegistryRule(parse_registry_names(root, SCENARIO_REGISTRY)),
        GoldenHashRule(),
        HotpathAllocRule(),
        BoundedRetryRule(),
        HeaderHygieneRule(),
    ]
    known = {rule.name for rule in rules} | {UnknownSuppressionRule.name}
    rules.append(UnknownSuppressionRule(known))
    return rules


def collect_files(root: Path, paths: list[str]) -> list[Path]:
    if not paths:
        paths = [d for d in DEFAULT_SCAN_DIRS if (root / d).is_dir()]
    files: list[Path] = []
    for p in paths:
        path = (root / p) if not Path(p).is_absolute() else Path(p)
        if path.is_dir():
            files.extend(f for f in sorted(path.rglob("*"))
                         if f.suffix in CXX_SUFFIXES and f.is_file())
        elif path.is_file():
            files.append(path)
        else:
            print(f"otac-lint: no such file or directory: {p}",
                  file=sys.stderr)
            sys.exit(2)
    return files


def collect_aux_files(root: Path) -> list[Path]:
    """tools/ and tests/ sources, minus violation-fixture directories
    (their whole point is to trip rules)."""
    files: list[Path] = []
    for d in AUX_SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for f in sorted(base.rglob("*")):
            if f.suffix not in CXX_SUFFIXES or not f.is_file():
                continue
            if "fixtures" in f.relative_to(root).parts:
                continue
            files.append(f)
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="otac-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: this tool's repo)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src bench "
                             "examples)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    rules = build_rules(root)

    if args.list_rules:
        for rule in rules:
            print(f"{rule.name}: {rule.summary}")
        return 0

    violations: list[Violation] = []
    for path in collect_files(root, args.paths):
        ctx = FileContext(root, path)
        for rule in rules:
            violations.extend(rule.check(ctx))

    # Default runs also sweep the aux tree (tools/, tests/) with the
    # determinism subset; explicitly named paths already got every rule.
    if not args.paths:
        for path in collect_aux_files(root):
            ctx = FileContext(root, path)
            for rule in rules:
                if rule.name not in AUX_RULES:
                    continue
                if (rule.name == "wall-clock"
                        and ctx.rel_path in AUX_WALLCLOCK_ALLOWLIST):
                    continue
                violations.extend(rule.check(ctx))

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    for violation in violations:
        print(violation)
    if violations:
        print(f"otac-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
