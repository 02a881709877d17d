#!/usr/bin/env bash
# Single entry point for every CI job. GitHub Actions
# (.github/workflows/ci.yml) and local runs execute the same commands, so
# "works in CI" and "works on my machine" cannot drift apart.
#
# Usage: scripts/ci.sh <job> [build-dir]
#
# Jobs:
#   build        configure + build everything + full ctest (the tier-1 gate)
#   robustness   ASan+UBSan over the `robustness` ctest label
#                (failpoints, crash-safe checkpointing, crash recovery)
#   concurrency  TSan over the `concurrency` ctest label
#                (sharded stress + determinism)
#   bench-smoke  reduced-iteration micro-bench pass (OTAC_SCALE, default
#                0.02; the scenario report at 0.2) that emits the
#                BENCH_*.json reports and checks their schema with the
#                envelope gate
#   scenarios    scenario and fault-schedule gate: the envelope gate's
#                self-test, the `chaos` ctest label (the registry's fault
#                scenarios) under ASan+UBSan and under TSan, then the
#                ASan micro_scenarios replays every registered scenario
#                (src/scenario) at scale 1.0 through Original and
#                Proposal admission, emits BENCH_scenarios.json (exits
#                nonzero if a replay is incomplete, a checkpoint store
#                does not recover or a golden run differs), and
#                tools/envelope_gate validates every cell against the
#                checked-in envelopes (hit rate, write count, shed
#                ceiling, p99)
#   daemon       serving-daemon smoke gate: otacd replays the pinned
#                bench workload behind real loopback sockets while
#                otac_loadgen offers the trace open-loop, the resulting
#                BENCH_daemon.json must sit inside the daemon cells of
#                tools/envelope_gate/envelopes.json (after the gate's own
#                self-test proves it can fail), and the daemon e2e suite
#                runs under TSan
#   lint         three-layer static-analysis gate: otac-lint invariants,
#                hardened-warning build (OTAC_WERROR=ON), curated
#                clang-tidy over the compile database (mandatory when
#                CI=true, skipped with a notice on tool-less local boxes)
#   analyze      whole-program invariant gate (tools/otac_analyze): the
#                analyzer self-test (violation fixtures must fail with
#                their pinned counts), then the real tree across all
#                three checks — module layering DAG vs the real include
#                graph, hot-path symbol gate over the built objects
#                (nm, audited allowlist), and lock discipline against
#                src/core/lock_names.h. Emits JSON findings + the DOT
#                layering graph as artifacts.
#   format       clang-format drift check over the tracked C++ sources
#
# Compiler/launcher selection flows through the standard environment
# variables (CC, CXX, CMAKE_{C,CXX}_COMPILER_LAUNCHER), which is how the
# workflow wires up gcc/clang and ccache without this script knowing.
set -euo pipefail

cd "$(dirname "$0")/.."

JOB="${1:-}"
BUILD_DIR="${2:-}"

case "$JOB" in
  build)
    BUILD_DIR="${BUILD_DIR:-build}"
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD_DIR" -j"$(nproc)"
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"
    ;;

  robustness)
    BUILD_DIR="${BUILD_DIR:-build-asan}"
    cmake -B "$BUILD_DIR" -S . -DOTAC_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD_DIR" --target test_robustness -j"$(nproc)"
    ctest --test-dir "$BUILD_DIR" -L robustness --output-on-failure -j"$(nproc)"
    echo "robustness suite clean under ASan+UBSan"
    ;;

  concurrency)
    BUILD_DIR="${BUILD_DIR:-build-tsan}"
    cmake -B "$BUILD_DIR" -S . -DOTAC_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD_DIR" --target test_concurrency test_daemon_e2e \
      test_lru_estimate -j"$(nproc)"
    ctest --test-dir "$BUILD_DIR" -L concurrency --output-on-failure -j"$(nproc)"
    echo "concurrency suite clean under TSan"
    ;;

  bench-smoke)
    BUILD_DIR="${BUILD_DIR:-build}"
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build "$BUILD_DIR" -j"$(nproc)" \
      --target micro_cache_ops micro_classifier micro_obs_overhead \
               micro_scenarios
    mkdir -p "$BUILD_DIR/bench-smoke"
    (
      cd "$BUILD_DIR/bench-smoke"
      export OTAC_SCALE="${OTAC_SCALE:-0.02}"
      ../bench/micro_cache_ops BENCH_cache_ops.json
      ../bench/micro_classifier BENCH_classifier.json
      ../bench/micro_obs_overhead BENCH_obs_overhead.json
      # Scenario report at a smoke scale, self-failing on any failed cell
      # (its windows are calibrated at scale 1.0 — the `scenarios` job
      # owns that gate).
      OTAC_SCALE=0.2 ../bench/micro_scenarios BENCH_scenarios.json
    )
    # Schema gate: a report that does not parse, silently emitted zero
    # cells, dropped the keys the perf notes read or carries no
    # provenance fails the job instead of uploading. The envelopes are
    # calibrated at other scales, so an empty set ({}) applies the schema
    # check alone.
    python3 tools/envelope_gate/envelope_gate.py <(echo '{}') \
      "$BUILD_DIR"/bench-smoke/BENCH_*.json
    echo "bench smoke passed (OTAC_SCALE=${OTAC_SCALE:-0.02}); reports in $BUILD_DIR/bench-smoke"
    ;;

  scenarios)
    # Both sanitizers on purpose: ASan+UBSan catches lifetime bugs on the
    # fault paths (abandoned retrains, checkpoint retries), TSan
    # race-checks the watchdog worker and the mid-serve checkpointer
    # thread. The build dirs match the robustness/concurrency jobs so
    # local runs and CI share their caches.
    ASAN_DIR="${BUILD_DIR:-build-asan}"
    TSAN_DIR="${BUILD_DIR:+$BUILD_DIR-tsan}"
    TSAN_DIR="${TSAN_DIR:-build-tsan}"
    # Self-test first: the injected regressions must fail, so a gate that
    # cannot fail cannot pass the job.
    python3 tools/envelope_gate/envelope_gate_test.py
    echo "envelope gate self-test passed (regression fixtures fail as required)"
    cmake -B "$ASAN_DIR" -S . -DOTAC_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$ASAN_DIR" --target test_chaos micro_scenarios -j"$(nproc)"
    ctest --test-dir "$ASAN_DIR" -L chaos --output-on-failure -j"$(nproc)"
    echo "chaos suite clean under ASan+UBSan"
    cmake -B "$TSAN_DIR" -S . -DOTAC_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$TSAN_DIR" --target test_chaos -j"$(nproc)"
    ctest --test-dir "$TSAN_DIR" -L chaos --output-on-failure -j"$(nproc)"
    echo "chaos suite clean under TSan"
    # Scale 1.0 with the bench's pinned seed: every deterministic cell
    # equals the Release numbers the envelopes were calibrated on, so the
    # gate's windows are drift, not noise. Running the ASan binary keeps
    # the fault paths honest about lifetimes; micro_scenarios exits
    # nonzero on any failed cell.
    mkdir -p "$ASAN_DIR/bench-smoke"
    OTAC_SCALE=1.0 "$ASAN_DIR/bench/micro_scenarios" \
      "$ASAN_DIR/bench-smoke/BENCH_scenarios.json"
    # The regression gate proper: per-(scenario, mode) windows on hit
    # rate, write count, shed ceiling, and p99. Fails on any cell outside
    # its envelope, any scenario missing from either side, or a report
    # run at another scale.
    python3 tools/envelope_gate/envelope_gate.py \
      tools/envelope_gate/envelopes.json \
      "$ASAN_DIR/bench-smoke/BENCH_scenarios.json"
    echo "scenario gate passed; report in $ASAN_DIR/bench-smoke/BENCH_scenarios.json"
    ;;

  daemon)
    # Loopback smoke of the serving stack: otacd replays the pinned bench
    # workload (seed 42, scale 0.02, overload ladder + threaded watchdog
    # on) behind real sockets while the open-loop load generator offers
    # the first 20k requests at 40k rps; the resulting BENCH_daemon.json
    # (client p50/p99/p999 + the server-side replay summary, eviction
    # hash included) must sit inside its cells of
    # tools/envelope_gate/envelopes.json. The gate's self-test (injected
    # p99 regression, silently-empty report) runs first, so a gate that
    # cannot fail cannot pass the job. Finally the daemon e2e suite — real acceptor/
    # reader/worker threads reproducing the in-process replay
    # bit-for-bit — runs under TSan. Build dirs match the bench-smoke
    # and concurrency jobs so local runs and CI share caches.
    BUILD_DIR="${BUILD_DIR:-build}"
    TSAN_DIR="${2:+$2-tsan}"
    TSAN_DIR="${TSAN_DIR:-build-tsan}"
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build "$BUILD_DIR" --target otacd otac_loadgen -j"$(nproc)"
    python3 tools/envelope_gate/envelope_gate_test.py
    echo "envelope gate self-test passed (regression fixtures fail as required)"
    mkdir -p "$BUILD_DIR/bench-smoke"
    PORT_FILE="$BUILD_DIR/bench-smoke/otacd.port"
    rm -f "$PORT_FILE"
    # --port 0 + --port-file is the bind handshake: the kernel picks a
    # free port, otacd writes it after listen(), the loadgen polls the
    # file. No fixed port, no bind races on shared CI machines.
    "$BUILD_DIR/tools/otacd/otacd" \
      --port 0 --port-file "$PORT_FILE" \
      --seed 42 --scale 0.02 --shards 4 --overload \
      --watchdog-timeout 0.5 &
    OTACD_PID=$!
    trap 'kill "$OTACD_PID" 2>/dev/null || true' EXIT
    "$BUILD_DIR/tools/otac_loadgen/otac_loadgen" \
      --port-file "$PORT_FILE" \
      --seed 42 --scale 0.02 --requests 20000 --offered-rps 40000 \
      --out "$BUILD_DIR/bench-smoke/BENCH_daemon.json"
    # The loadgen's SHUTDOWN handshake stops the daemon; a hang here is
    # a bug the job should time out on, not silently kill away.
    wait "$OTACD_PID"
    trap - EXIT
    python3 tools/envelope_gate/envelope_gate.py \
      tools/envelope_gate/envelopes.json \
      "$BUILD_DIR/bench-smoke/BENCH_daemon.json"
    cmake -B "$TSAN_DIR" -S . -DOTAC_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$TSAN_DIR" --target test_daemon_e2e -j"$(nproc)"
    ctest --test-dir "$TSAN_DIR" -L concurrency -R DaemonE2e \
      --output-on-failure -j"$(nproc)"
    echo "daemon e2e clean under TSan"
    echo "daemon gate passed; report in $BUILD_DIR/bench-smoke/BENCH_daemon.json"
    ;;

  lint)
    BUILD_DIR="${BUILD_DIR:-build-lint}"
    # Layer 3's prerequisites are checked up front: in CI (CI=true, set by
    # GitHub Actions) a runner image missing clang-tidy must FAIL the job
    # immediately — a silent skip would let the curated .clang-tidy config
    # stop gating merges without anyone noticing. Local gcc-only boxes
    # still get the skip-with-notice path.
    HAVE_TIDY=0
    if command -v clang-tidy >/dev/null 2>&1 && \
       command -v run-clang-tidy >/dev/null 2>&1; then
      HAVE_TIDY=1
    elif [ "${CI:-false}" = "true" ]; then
      echo "lint: CI mode requires clang-tidy + run-clang-tidy (layer 3);" \
           "install clang-tidy and clang-tools on the runner" >&2
      exit 1
    fi
    # The compile database is configured before any lint layer runs, so
    # layer 3 always has compile_commands.json even if an earlier layer's
    # diagnostics need it for reproduction. Release (-O3) rather than
    # RelWithDebInfo (-O2): some warnings (e.g. GCC 12's -Wrestrict on
    # inlined std::string concatenation) only fire at -O3, and the
    # benchmarks ship Release builds.
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
      -DOTAC_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    # Layer 1: otac-lint — project determinism/invariant rules
    # (tools/otac_lint; rule table via --list-rules, docs in DESIGN.md §11).
    python3 tools/otac_lint/otac_lint.py
    echo "otac-lint clean"
    # Layer 2: hardened-warning build — OTAC_WERROR=ON promotes the
    # OTAC_HARDENED_WARNINGS set (-Wshadow -Wconversion -Wdouble-promotion
    # -Wnon-virtual-dtor -Wimplicit-fallthrough) to errors across src/,
    # bench/, and examples/.
    cmake --build "$BUILD_DIR" -j"$(nproc)"
    echo "hardened-warning build clean (-Werror)"
    # Layer 3: curated clang-tidy (.clang-tidy) over the compile database,
    # restricted to the product tree.
    if [ "$HAVE_TIDY" = 1 ]; then
      clang-tidy --version
      run-clang-tidy -p "$BUILD_DIR" -quiet "/(src|bench|examples)/"
      echo "clang-tidy clean"
    else
      echo "clang-tidy/run-clang-tidy not found; skipping layer 3" \
           "(mandatory in CI)"
    fi
    echo "lint gate passed"
    ;;

  analyze)
    BUILD_DIR="${BUILD_DIR:-build}"
    # The symbol gate inspects real objects, so build the libraries that
    # own the designated hot-path TUs (core: serving_core, sharded_cache,
    # history_table; ml: compiled_tree; net: daemon, protocol) against
    # the exported compile database.
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD_DIR" --target otac_core otac_ml otac_net \
      -j"$(nproc)"
    # Self-test first: the violation fixtures (layering back-edge +
    # cycle, leaky hot-path object, lock-held I/O/wait/fit, rank
    # inversion, stale registry entries) must fail with their exact
    # pinned counts — a gate that cannot fail cannot pass the job.
    OTAC_ANALYZE_BUILD_DIR="$BUILD_DIR" \
      python3 tools/otac_analyze/otac_analyze_test.py
    echo "otac-analyze self-test passed (fixtures fail as required)"
    # The real tree: all three checks, artifacts alongside the findings.
    mkdir -p "$BUILD_DIR/analyze"
    python3 tools/otac_analyze/otac_analyze.py \
      --root "$PWD" --build-dir "$BUILD_DIR" \
      --json-out "$BUILD_DIR/analyze/ANALYZE_findings.json" \
      --dot "$BUILD_DIR/analyze/layering.dot"
    python3 -m json.tool "$BUILD_DIR/analyze/ANALYZE_findings.json" \
      > /dev/null
    echo "otac-analyze clean (layering DAG, hot-path symbol gate," \
         "lock discipline); artifacts in $BUILD_DIR/analyze"
    ;;

  format)
    clang-format --version
    git ls-files '*.h' '*.cpp' | xargs clang-format --dry-run --Werror
    echo "formatting clean"
    ;;

  *)
    echo "usage: scripts/ci.sh {build|robustness|concurrency|bench-smoke|scenarios|daemon|lint|analyze|format} [build-dir]" >&2
    exit 2
    ;;
esac
