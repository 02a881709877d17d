#!/usr/bin/env python3
"""otac-analyze: whole-program invariant analyzer for the otacache tree.

otac-lint (tools/otac_lint) enforces per-line invariants; this tool
enforces the invariants that only exist *between* files — the ones a
regex over one translation unit cannot see:

  layering   The module dependency DAG. Each src/ module declares the
             modules it may include (ALLOWED_DEPS below); the real
             include graph is extracted from the tree and every edge is
             checked. Back-edges (util including core) and cycles are
             findings, as are quoted includes that resolve to nothing.
             The observed graph is emitted as a DOT artifact (--dot).

  symbols    The hot-path symbol gate. For the designated hot-path
             translation units (HOTPATH_TUS), the *built object files*
             are inspected with nm: every undefined symbol is checked
             against the banned families (operator new, __cxa_throw,
             wall clocks, libc randomness). A reference outside the
             audited allowlist (hotpath_symbols.json) is a finding —
             this closes the gap where line-level lint misses an
             allocation or clock reached through a callee in the same
             TU. Stale allowlist entries are findings too: the audit
             may not rot.

  locks      The lock-discipline pass. Every mutex in src/ must be
             registered in src/core/lock_names.h with a class (hot,
             queue, barrier, io_writer) and a lock-order rank; guard
             scopes on registered mutexes are scanned token-by-token
             for the blocking operations the class forbids (file and
             socket I/O, condition waits/sleeps, trainer fits), with
             unlock()/lock() windows honored, and nested guard
             acquisitions must follow ascending rank.

Usage:
    otac_analyze.py [--root DIR] [--build-dir DIR] [--checks a,b]
                    [--format text|json] [--json-out PATH] [--dot PATH]

Exit status: 0 clean, 1 findings, 2 usage/configuration error (missing
compile database, nm not found, malformed registry or allowlist).

Suppression (say why in a neighbouring comment):
    // otac-analyze: allow(<kind>[, <kind>...])   same line or line above

Finding kinds: layer-dep, layer-cycle, include-unresolved, symbol-banned,
symbol-allowlist, symbol-missing, lock-io, lock-wait, lock-trainer,
lock-order, lock-registry, lock-guard.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

CXX_SUFFIXES = {".h", ".cpp"}

# ---------------------------------------------------------------------------
# Layering: the declared module DAG.
#
# Real architecture (PR 1-10): util and storage are leaves; obs/ml/trace
# sit on util; cachesim composes policies with trace+storage+obs; core
# (the serving layer) sits on everything below it, including cachesim;
# net/scenario/experiments drive core; bench/examples/tools/tests consume
# anything. Note cachesim is *below* core — ISSUE 10's shorthand put it
# beside net/scenario, but IntelligentCache and ShardedCache replay
# through cachesim policies, so the real (and declared) edge is core ->
# cachesim.
# ---------------------------------------------------------------------------

SRC_MODULES = ("util", "storage", "obs", "ml", "trace", "cachesim", "core",
               "net", "scenario", "experiments")

_SRC_ALL = set(SRC_MODULES)

ALLOWED_DEPS: dict[str, set[str]] = {
    "util": set(),
    "storage": set(),
    "obs": {"util"},
    "ml": {"util"},
    "trace": {"util"},
    "cachesim": {"util", "storage", "obs", "trace"},
    "core": {"util", "storage", "obs", "ml", "trace", "cachesim"},
    "net": {"util", "storage", "obs", "ml", "trace", "cachesim", "core"},
    "scenario": {"util", "storage", "obs", "ml", "trace", "cachesim", "core"},
    "experiments": {"util", "storage", "obs", "ml", "trace", "cachesim",
                    "core"},
    "bench": set(_SRC_ALL),
    "examples": set(_SRC_ALL),
    "tools": set(_SRC_ALL),
    "tests": set(_SRC_ALL),
}

# The consumer tier: leaf harness directories (executables and gate
# tooling) that sit above every src/ module. They may include each other
# freely (otac_loadgen reuses bench/bench_json) — they are peers on one
# rank, not layers — so consumer<->consumer edges are exempt from both
# the DAG check and cycle detection. src/ modules remain strictly ordered.
CONSUMER_MODULES = {"bench", "examples", "tools", "tests"}


def edge_allowed(a: str, b: str) -> bool:
    if a in CONSUMER_MODULES and b in CONSUMER_MODULES:
        return True
    return b in ALLOWED_DEPS.get(a, set())

SCAN_DIRS = ("src", "bench", "examples", "tools", "tests")

# ---------------------------------------------------------------------------
# Symbols: designated hot-path TUs and banned symbol families.
# ---------------------------------------------------------------------------

HOTPATH_TUS = (
    "src/core/serving_core.cpp",
    "src/core/shard_engine.cpp",
    "src/core/sharded_cache.cpp",
    "src/core/history_table.cpp",
    "src/ml/compiled_tree.cpp",
    "src/net/daemon.cpp",
    "src/net/protocol.cpp",
)

ALLOWLIST_FILE = "tools/otac_analyze/hotpath_symbols.json"

SYMBOL_FAMILIES: dict[str, re.Pattern] = {
    # Itanium-mangled operator new/new[] (with and without align_val_t /
    # nothrow) plus the raw libc allocators.
    "operator-new": re.compile(
        r"^_Znw[jm]"
        r"|^_Zna[jm]"
        r"|^(?:malloc|calloc|realloc|aligned_alloc|posix_memalign)$"),
    "throw": re.compile(
        r"^__cxa_(?:throw|allocate_exception|rethrow)$"),
    "wall-clock": re.compile(
        r"^(?:clock_gettime|gettimeofday|time|clock|localtime(?:_r)?|"
        r"gmtime(?:_r)?|ftime)$"),
    "random": re.compile(
        r"^(?:rand|srand|random|srandom|rand_r|[dlm]rand48|arc4random\w*)$"),
}

# ---------------------------------------------------------------------------
# Locks: registry location, guard patterns, and the blocking-operation
# token sets each lock class forbids.
# ---------------------------------------------------------------------------

LOCK_REGISTRY = "src/core/lock_names.h"

LOCK_ENTRY_RE = re.compile(
    r'\{\s*"([^"]+)"\s*,\s*"([^"]+)"\s*,\s*"([^"]+)"\s*,'
    r"\s*LockClass\s*::\s*(\w+)\s*,\s*(\d+)\s*\}")

MUTEX_DECL_RE = re.compile(
    r"\b(?:mutable\s+)?std\s*::\s*(?:shared_)?mutex\s+(\w+)\s*;")

GUARD_RE = re.compile(
    r"\b(?:const\s+)?std\s*::\s*"
    r"(lock_guard|unique_lock|scoped_lock|shared_lock)\s*"
    r"(?:<[^;{}>]*>)?\s+(\w+)\s*\(([^;{}]*)\)\s*;")

LOCK_TAGS = {"defer_lock", "try_to_lock", "adopt_lock"}

IO_PATTERNS = [
    re.compile(r"\b(?:send_all|recv_exact|tcp_listen|tcp_connect)\s*\("),
    re.compile(r"::\s*(?:send|recv|sendto|recvfrom|read|write|accept|"
               r"connect|poll|select|epoll_wait|fsync|open|openat)\s*\("),
    re.compile(r"\b(?:fopen|fread|fwrite|fflush|fclose|fprintf|fscanf|"
               r"fgets|fputs)\s*\("),
    re.compile(r"\bstd\s*::\s*[oi]?fstream\b"),
]

WAIT_PATTERNS = [
    re.compile(r"\.\s*wait(?:_for|_until)?\s*\("),
    re.compile(r"\bsleep_(?:for|until)\s*\("),
]

TRAINER_PATTERNS = [
    re.compile(r"(?:\.|->)\s*(?:train|retrain|fit)\s*\("),
    # ShardEngine calls that run pending retrain barriers, fits included.
    re.compile(r"(?:\.|->)\s*(?:advance|finish|replay)\s*\("),
]

# class -> categories banned while held
LOCK_CLASS_BANS = {
    "hot": ("lock-io", "lock-wait", "lock-trainer"),
    "queue": ("lock-io", "lock-trainer"),
    "barrier": ("lock-io",),
    "io_writer": ("lock-wait", "lock-trainer"),
}

CATEGORY_PATTERNS = {
    "lock-io": IO_PATTERNS,
    "lock-wait": WAIT_PATTERNS,
    "lock-trainer": TRAINER_PATTERNS,
}

CATEGORY_LABEL = {
    "lock-io": "file/socket I/O",
    "lock-wait": "condition wait / sleep",
    "lock-trainer": "trainer fit or retrain barrier",
}

ALLOW_RE = re.compile(r"otac-analyze:\s*allow\(([a-z0-9\-,\s]+)\)")

ALL_CHECKS = ("layering", "symbols", "locks")


class ConfigError(Exception):
    """Setup problem (missing compile DB, nm, malformed registry):
    exit 2, never a silent pass."""


class Finding:
    def __init__(self, check: str, kind: str, path: str, line: int,
                 message: str):
        self.check = check
        self.kind = kind
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.kind}] {self.message}"

    def to_json(self) -> dict:
        return {"check": self.check, "kind": self.kind, "path": self.path,
                "line": self.line, "message": self.message}


def strip_comments(text: str) -> str:
    """Replace comment bodies with spaces (string literals preserved,
    newlines kept so offsets map back to line numbers)."""
    out = []
    i, n = 0, len(text)
    state = "code"
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
            out.append(c if c == "\n" else " ")
            if c == "\n":
                state = "code"
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


def blank_literals(code: str) -> str:
    """Blank string and char literal *contents* (quotes kept) so brace
    depth tracking and identifier matching never trip over them."""
    code = re.sub(r'"(?:[^"\\\n]|\\.)*"',
                  lambda m: '"' + " " * (len(m.group(0)) - 2) + '"', code)
    code = re.sub(r"'(?:[^'\\\n]|\\.)+'",
                  lambda m: "'" + " " * (len(m.group(0)) - 2) + "'", code)
    return code


class SourceFile:
    """One scanned file: pragma state plus comment-stripped views."""

    def __init__(self, root: Path, path: Path):
        self.abs_path = path
        self.rel_path = path.relative_to(root).as_posix()
        self.raw_text = path.read_text(encoding="utf-8", errors="replace")
        self.code_text = strip_comments(self.raw_text)
        self.scan_text = blank_literals(self.code_text)
        self.allows: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.raw_text.splitlines(), start=1):
            m = ALLOW_RE.search(line)
            if m:
                kinds = {k.strip() for k in m.group(1).split(",") if k.strip()}
                self.allows.setdefault(lineno, set()).update(kinds)
                self.allows.setdefault(lineno + 1, set()).update(kinds)

    def allowed(self, kind: str, lineno: int) -> bool:
        return kind in self.allows.get(lineno, set())

    def line_of_offset(self, offset: int) -> int:
        return self.code_text.count("\n", 0, offset) + 1

    @property
    def unit(self) -> str:
        return self.rel_path.rsplit(".", 1)[0]


def collect_sources(root: Path) -> list[SourceFile]:
    files: list[SourceFile] = []
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            # Violation fixtures (otac_lint, otac_analyze) are intentional
            # rule breakage; scanning them would fail every clean tree.
            if "fixtures" in path.relative_to(root).parts:
                continue
            files.append(SourceFile(root, path))
    return files


def module_of(rel_path: str) -> str | None:
    parts = rel_path.split("/")
    if parts[0] == "src" and len(parts) > 1:
        return parts[1] if parts[1] in _SRC_ALL else None
    if parts[0] in ("bench", "examples", "tools", "tests"):
        return parts[0]
    return None


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def check_layering(root: Path, sources: list[SourceFile],
                   dot_path: Path | None) -> list[Finding]:
    findings: list[Finding] = []
    # Sanity: the declared DAG itself must be acyclic and closed.
    for mod, deps in ALLOWED_DEPS.items():
        unknown = deps - set(ALLOWED_DEPS)
        if unknown:
            raise ConfigError(
                f"ALLOWED_DEPS[{mod}] names unknown modules: {unknown}")
    order: list[str] = []
    seen: dict[str, int] = {}  # 0 = visiting, 1 = done

    def visit(mod: str, stack: tuple[str, ...]) -> None:
        state = seen.get(mod)
        if state == 1:
            return
        if state == 0:
            raise ConfigError(
                f"declared ALLOWED_DEPS graph has a cycle: "
                f"{' -> '.join(stack + (mod,))}")
        seen[mod] = 0
        for dep in sorted(ALLOWED_DEPS[mod]):
            visit(dep, stack + (mod,))
        seen[mod] = 1
        order.append(mod)

    for mod in ALLOWED_DEPS:
        visit(mod, ())

    # Observed file-level edges -> module edges.
    edges: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for src in sources:
        mod = module_of(src.rel_path)
        if mod is None:
            continue
        src_dir = src.abs_path.parent
        for m in INCLUDE_RE.finditer(src.code_text):
            inc = m.group(1)
            lineno = src.line_of_offset(m.start())
            if (root / "src" / inc).is_file():
                target = module_of(f"src/{inc}")
            elif (root / inc).is_file():
                target = module_of(inc)
            elif (src_dir / inc).is_file():
                target = mod  # includer-relative: same module
            else:
                if not src.allowed("include-unresolved", lineno):
                    findings.append(Finding(
                        "layering", "include-unresolved", src.rel_path,
                        lineno,
                        f'include "{inc}" resolves to no file under src/, '
                        f"the repo root, or the includer's directory"))
                continue
            if target is None or target == mod:
                continue
            edges.setdefault((mod, target), []).append(
                (src.rel_path, lineno))

    for (a, b), sites in sorted(edges.items()):
        if edge_allowed(a, b):
            continue
        for rel_path, lineno in sites:
            src = next(s for s in sources if s.rel_path == rel_path)
            if src.allowed("layer-dep", lineno):
                continue
            findings.append(Finding(
                "layering", "layer-dep", rel_path, lineno,
                f"module '{a}' may not depend on '{b}' "
                f"(declared deps: "
                f"{', '.join(sorted(ALLOWED_DEPS.get(a, set()))) or 'none'}"
                f"); this is a layering back-edge"))

    # Cycles in the observed graph (independent of the per-edge verdicts,
    # so a future ALLOWED_DEPS edit cannot quietly legalize a cycle).
    graph: dict[str, set[str]] = {}
    for (a, b) in edges:
        if a in CONSUMER_MODULES and b in CONSUMER_MODULES:
            continue
        graph.setdefault(a, set()).add(b)
    state: dict[str, int] = {}

    def find_cycle(node: str, stack: list[str]) -> list[str] | None:
        state[node] = 0
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 0:
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = find_cycle(nxt, stack)
                if cycle:
                    return cycle
        stack.pop()
        state[node] = 1
        return None

    reported: set[frozenset] = set()
    for node in sorted(graph):
        if node in state:
            continue
        cycle = find_cycle(node, [])
        if cycle and frozenset(cycle) not in reported:
            reported.add(frozenset(cycle))
            findings.append(Finding(
                "layering", "layer-cycle", "src", 1,
                f"include cycle between modules: {' -> '.join(cycle)}"))

    if dot_path is not None:
        write_dot(dot_path, order, edges)
    return findings


def write_dot(dot_path: Path, topo_order: list[str],
              edges: dict[tuple[str, str], list]) -> None:
    """Observed module graph, one rank per declared layer depth; edges
    the DAG forbids are red+dashed so a back-edge is visible at a
    glance in the CI artifact."""
    depth: dict[str, int] = {}
    for mod in topo_order:  # children first
        deps = ALLOWED_DEPS[mod] & set(depth)
        depth[mod] = 1 + max((depth[d] for d in ALLOWED_DEPS[mod]),
                             default=-1) if ALLOWED_DEPS[mod] else 0
    lines = ["digraph otac_layering {", "  rankdir=BT;",
             '  node [shape=box, fontname="Helvetica"];']
    by_depth: dict[int, list[str]] = {}
    for mod in sorted(ALLOWED_DEPS):
        by_depth.setdefault(depth[mod], []).append(mod)
    for d in sorted(by_depth):
        members = "; ".join(f'"{m}"' for m in by_depth[d])
        lines.append(f"  {{ rank=same; {members}; }}")
    for (a, b), sites in sorted(edges.items()):
        ok = edge_allowed(a, b)
        style = "" if ok else " [color=red, style=dashed, penwidth=2]"
        lines.append(f'  "{a}" -> "{b}"{style};  // {len(sites)} include(s)')
    lines.append("}")
    dot_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


def load_compile_db(root: Path, build_dir: Path) -> list[dict]:
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        raise ConfigError(
            f"no compile database at {db_path}; configure with "
            f"-DCMAKE_EXPORT_COMPILE_COMMANDS=ON (scripts/ci.sh analyze "
            f"does this)")
    try:
        return json.loads(db_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ConfigError(f"malformed compile database {db_path}: {error}")


def object_for(entry: dict) -> Path | None:
    if "arguments" in entry:
        args = list(entry["arguments"])
    else:
        args = shlex.split(entry["command"])
    for i, arg in enumerate(args):
        if arg == "-o" and i + 1 < len(args):
            return Path(entry["directory"]) / args[i + 1]
        if arg.startswith("-o") and len(arg) > 2:
            return Path(entry["directory"]) / arg[2:]
    return None


def undefined_symbols(nm_tool: str, obj: Path) -> set[str]:
    result = subprocess.run(
        [nm_tool, "--undefined-only", "--format=posix", str(obj)],
        capture_output=True, text=True, check=False)
    if result.returncode != 0:
        raise ConfigError(
            f"{nm_tool} failed on {obj}: {result.stderr.strip()}")
    symbols = set()
    for line in result.stdout.splitlines():
        name = line.split()[0] if line.split() else ""
        if name:
            symbols.add(name.split("@", 1)[0])
    return symbols


def load_allowlist(root: Path) -> dict[str, dict[str, str]]:
    path = root / ALLOWLIST_FILE
    if not path.is_file():
        raise ConfigError(f"missing hot-path symbol allowlist {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ConfigError(f"malformed allowlist {path}: {error}")
    for tu, families in data.items():
        if not isinstance(families, dict) or not all(
                isinstance(r, str) for r in families.values()):
            raise ConfigError(
                f"allowlist entry for {tu} must map family -> reason")
    return data


def check_symbols(root: Path, build_dir: Path, nm_tool: str | None,
                  extra_objects: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    allowlist = load_allowlist(root)
    nm = nm_tool or shutil.which("nm") or shutil.which("llvm-nm")
    if nm is None:
        raise ConfigError("neither nm nor llvm-nm found; the symbol gate "
                          "cannot run (and must not silently pass)")

    for tu in sorted(allowlist):
        if tu not in HOTPATH_TUS:
            findings.append(Finding(
                "symbols", "symbol-allowlist", ALLOWLIST_FILE, 1,
                f"allowlist names '{tu}', which is not a designated "
                f"hot-path TU; remove the stale entry"))
        for family in sorted(allowlist[tu]):
            if family not in SYMBOL_FAMILIES:
                findings.append(Finding(
                    "symbols", "symbol-allowlist", ALLOWLIST_FILE, 1,
                    f"allowlist for {tu} names unknown symbol family "
                    f"'{family}' (known: "
                    f"{', '.join(sorted(SYMBOL_FAMILIES))})"))

    db = load_compile_db(root, build_dir)
    by_file = {}
    for entry in db:
        by_file[Path(entry["file"]).resolve()] = entry

    targets: list[tuple[str, Path]] = []
    for tu in HOTPATH_TUS:
        entry = by_file.get((root / tu).resolve())
        if entry is None:
            findings.append(Finding(
                "symbols", "symbol-missing", tu, 1,
                f"designated hot-path TU has no compile-database entry in "
                f"{build_dir}; the symbol gate cannot vouch for it"))
            continue
        obj = object_for(entry)
        if obj is None or not obj.is_file():
            findings.append(Finding(
                "symbols", "symbol-missing", tu, 1,
                f"object file for designated hot-path TU not found "
                f"(expected {obj}); build the tree first"))
            continue
        targets.append((tu, obj))
    for spec in extra_objects:
        name, _, path = spec.partition("=")
        targets.append((name, Path(path)))

    for tu, obj in targets:
        symbols = undefined_symbols(nm, obj)
        allowed = allowlist.get(tu, {})
        used_families: set[str] = set()
        for symbol in sorted(symbols):
            for family, pattern in SYMBOL_FAMILIES.items():
                if not pattern.search(symbol):
                    continue
                if family in allowed:
                    used_families.add(family)
                else:
                    findings.append(Finding(
                        "symbols", "symbol-banned", tu, 1,
                        f"object {obj.name} references banned symbol "
                        f"'{symbol}' (family {family}); the hot path must "
                        f"not reach it — fix the code or audit it in "
                        f"{ALLOWLIST_FILE}"))
        for family in sorted(set(allowed) & set(SYMBOL_FAMILIES)):
            if family not in used_families:
                findings.append(Finding(
                    "symbols", "symbol-allowlist", tu, 1,
                    f"allowlisted family '{family}' is no longer "
                    f"referenced by {obj.name}; prune the stale audit "
                    f"entry so the allowlist stays tight"))
    return findings


# ---------------------------------------------------------------------------
# Locks
# ---------------------------------------------------------------------------


class LockEntry:
    def __init__(self, name: str, unit: str, identifier: str, cls: str,
                 rank: int):
        self.name = name
        self.unit = unit
        self.identifier = identifier
        self.cls = cls
        self.rank = rank


def parse_lock_registry(root: Path) -> list[LockEntry]:
    path = root / LOCK_REGISTRY
    if not path.is_file():
        raise ConfigError(f"missing lock registry {path}")
    code = strip_comments(path.read_text(encoding="utf-8", errors="replace"))
    entries = []
    for m in LOCK_ENTRY_RE.finditer(code):
        name, unit, identifier, cls, rank = m.groups()
        if cls not in LOCK_CLASS_BANS:
            raise ConfigError(
                f"{LOCK_REGISTRY}: entry '{name}' has unknown class "
                f"'{cls}' (known: {', '.join(sorted(LOCK_CLASS_BANS))})")
        entries.append(LockEntry(name, unit, identifier, cls, int(rank)))
    if not entries:
        raise ConfigError(f"{LOCK_REGISTRY}: no lock entries parsed")
    return entries


class GuardScope:
    def __init__(self, entry: LockEntry, decl_offset: int, decl_line: int,
                 segments: list[tuple[int, int]]):
        self.entry = entry
        self.decl_offset = decl_offset
        self.decl_line = decl_line
        self.segments = segments

    def active_at(self, offset: int) -> bool:
        return any(a <= offset < b for a, b in self.segments)


def scope_end(text: str, start: int) -> int:
    """Offset of the enclosing block's closing brace, token-level."""
    depth = 0
    i = start
    n = len(text)
    while i < n:
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            if depth == 0:
                return i
            depth -= 1
        i += 1
    return n


def guard_segments(text: str, var: str, start: int, end: int
                   ) -> list[tuple[int, int]]:
    """[start,end) minus any var.unlock() .. var.lock() windows."""
    events = []
    for m in re.finditer(r"\b" + re.escape(var) + r"\s*\.\s*(un)?lock\s*\(",
                         text[start:end]):
        events.append((start + m.start(), m.group(1) == "un"))
    segments = []
    seg_start = start
    held = True
    for offset, is_unlock in events:
        if is_unlock and held:
            segments.append((seg_start, offset))
            held = False
        elif not is_unlock and not held:
            seg_start = offset
            held = True
    if held:
        segments.append((seg_start, end))
    return segments


def check_locks(root: Path, sources: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    entries = parse_lock_registry(root)

    names = {}
    ranks = {}
    keys = {}
    for e in entries:
        for attr, table, value in (("name", names, e.name),
                                   ("rank", ranks, e.rank),
                                   ("unit+identifier", keys,
                                    (e.unit, e.identifier))):
            if value in table:
                findings.append(Finding(
                    "locks", "lock-registry", LOCK_REGISTRY, 1,
                    f"duplicate {attr} {value!r} in the lock registry"))
            table[value] = e

    by_key = {(e.unit, e.identifier): e for e in entries}
    by_identifier: dict[str, list[LockEntry]] = {}
    for e in entries:
        by_identifier.setdefault(e.identifier, []).append(e)

    src_files = [s for s in sources if s.rel_path.startswith("src/")]

    # Cross-check 1: every mutex declaration registered, no stale entries.
    declared: set[tuple[str, str]] = set()
    for src in src_files:
        for m in MUTEX_DECL_RE.finditer(src.scan_text):
            identifier = m.group(1)
            declared.add((src.unit, identifier))
            if (src.unit, identifier) not in by_key:
                lineno = src.line_of_offset(m.start())
                if src.allowed("lock-registry", lineno):
                    continue
                findings.append(Finding(
                    "locks", "lock-registry", src.rel_path, lineno,
                    f"mutex '{identifier}' is not registered in "
                    f"{LOCK_REGISTRY}; every lock must be audited, "
                    f"classified, and ranked"))
    for e in entries:
        # A unit may declare in the header and guard in the source; the
        # registry pins the unit stem, so either file satisfies it.
        unit_files = {f"{e.unit}.h", f"{e.unit}.cpp"}
        if not any((root / f).is_file() for f in unit_files):
            findings.append(Finding(
                "locks", "lock-registry", LOCK_REGISTRY, 1,
                f"registry entry '{e.name}' points at unit '{e.unit}', "
                f"but neither {e.unit}.h nor {e.unit}.cpp exists"))
            continue
        if (e.unit, e.identifier) not in declared:
            findings.append(Finding(
                "locks", "lock-registry", LOCK_REGISTRY, 1,
                f"registry entry '{e.name}' names mutex "
                f"'{e.identifier}' in unit '{e.unit}', but no such "
                f"declaration exists; prune the stale entry"))

    # Cross-check 2: guard scopes obey the class policy and lock order.
    for src in src_files:
        text = src.scan_text
        scopes: list[GuardScope] = []
        for m in GUARD_RE.finditer(text):
            var = m.group(2)
            args = [a.strip() for a in m.group(3).split(",") if a.strip()]
            lineno = src.line_of_offset(m.start())
            for arg in args:
                ids = re.findall(r"\w+", arg)
                identifier = ids[-1] if ids else ""
                if identifier in LOCK_TAGS or not identifier:
                    continue
                entry = by_key.get((src.unit, identifier))
                if entry is None:
                    candidates = by_identifier.get(identifier, [])
                    if len(candidates) == 1:
                        entry = candidates[0]
                    elif not src.allowed("lock-guard", lineno):
                        problem = ("ambiguous across units "
                                   + ", ".join(sorted(c.unit
                                                      for c in candidates))
                                   if candidates else "unregistered")
                        findings.append(Finding(
                            "locks", "lock-guard", src.rel_path, lineno,
                            f"guard '{var}' locks mutex '{identifier}' "
                            f"which is {problem} in {LOCK_REGISTRY}"))
                        continue
                if entry is None:
                    continue
                end = scope_end(text, m.end())
                segments = guard_segments(text, var, m.end(), end)
                scopes.append(GuardScope(entry, m.start(), lineno, segments))

        for scope in scopes:
            bans = LOCK_CLASS_BANS[scope.entry.cls]
            for category in bans:
                for pattern in CATEGORY_PATTERNS[category]:
                    for seg_start, seg_end in scope.segments:
                        for m in pattern.finditer(text, seg_start, seg_end):
                            lineno = src.line_of_offset(m.start())
                            if src.allowed(category, lineno):
                                continue
                            findings.append(Finding(
                                "locks", category, src.rel_path, lineno,
                                f"{CATEGORY_LABEL[category]} "
                                f"'{m.group(0).strip()}' while holding "
                                f"'{scope.entry.name}' (class "
                                f"{scope.entry.cls}, {LOCK_REGISTRY})"))
            # Lock order: any other guard acquired inside this scope's
            # active segments must carry a strictly greater rank.
            for inner in scopes:
                if inner is scope or not scope.active_at(inner.decl_offset):
                    continue
                if inner.entry.rank <= scope.entry.rank:
                    if src.allowed("lock-order", inner.decl_line):
                        continue
                    findings.append(Finding(
                        "locks", "lock-order", src.rel_path,
                        inner.decl_line,
                        f"'{inner.entry.name}' (rank {inner.entry.rank}) "
                        f"acquired while holding '{scope.entry.name}' "
                        f"(rank {scope.entry.rank}); the pinned order in "
                        f"{LOCK_REGISTRY} requires ascending ranks"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="otac-analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2])
    parser.add_argument("--build-dir", type=Path, default=None,
                        help="build tree with compile_commands.json and "
                             "objects (default: <root>/build)")
    parser.add_argument("--checks", default=",".join(ALL_CHECKS),
                        help=f"comma list of {'/'.join(ALL_CHECKS)}")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--json-out", type=Path, default=None,
                        help="also write the JSON findings report here")
    parser.add_argument("--dot", type=Path, default=None,
                        help="write the observed layering graph as DOT")
    parser.add_argument("--nm", default=None,
                        help="nm tool to use (default: nm, then llvm-nm)")
    parser.add_argument("--hotpath-object", action="append", default=[],
                        metavar="NAME=PATH",
                        help="extra designated object for the symbol gate "
                             "(fixture hook; empty allowlist)")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args(argv)

    if args.list_checks:
        print("layering: declared module DAG vs the real include graph; "
              "back-edges, cycles, unresolvable includes")
        print("symbols: nm over designated hot-path objects; banned symbol "
              "families outside the audited allowlist")
        print("locks: registered-mutex guard scopes free of the blocking "
              "operations their class forbids; ascending lock order")
        return 0

    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        print(f"otac-analyze: unknown checks: {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    root = args.root.resolve()
    build_dir = (args.build_dir or root / "build").resolve()

    try:
        sources = collect_sources(root)
        findings: list[Finding] = []
        if "layering" in checks:
            findings.extend(check_layering(root, sources, args.dot))
        if "symbols" in checks:
            findings.extend(check_symbols(root, build_dir, args.nm,
                                          args.hotpath_object))
        if "locks" in checks:
            findings.extend(check_locks(root, sources))
    except ConfigError as error:
        print(f"otac-analyze: {error}", file=sys.stderr)
        return 2

    findings.sort(key=lambda f: (f.path, f.line, f.kind, f.message))
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.kind] = counts.get(f.kind, 0) + 1
    report = {
        "version": 1,
        "checks": checks,
        "findings": [f.to_json() for f in findings],
        "counts": dict(sorted(counts.items())),
        "clean": not findings,
    }
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for f in findings:
            print(f)
    if findings:
        print(f"otac-analyze: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
