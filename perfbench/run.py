#!/usr/bin/env python3
"""Build and run the otacache benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
drivers from source into .bench_build (or $CARGO_TARGET_DIR); later runs
only rebuild what changed. --trace 0 runs the end-to-end driver and prints
the end-to-end metrics; --trace 1 runs the traced driver and prints the
per-layer metrics. Each workload runs in its own process; --workload all
runs every workload serially.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it stamps the run's provenance. The
exit code is 0 when every check passed, 1 when a check failed (the result
then carries no numbers), and 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["proposal", "original"]
TARGETS = {0: "otac_bench_e2e", 1: "otac_bench_traced"}
BUILD_TYPE = "Release"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def run_step(command, timeout):
    """Runs a build step with its output on stderr; exits 2 on failure."""
    # Compiler temporaries stay inside the build directory too.
    scratch = build_dir() / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(command)}")


def build(target):
    if not (ROOT / "src" / "core" / "sharded_cache.h").is_file():
        fail(f"otacache sources not found under {ROOT / 'src'}")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in \
            cache.read_text(errors="replace"):
        shutil.rmtree(out)  # configured for another checkout
    if not cache.is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_step(configure, BUILD_TIMEOUT_S)
    jobs = str(len(os.sched_getaffinity(0)))
    run_step(["cmake", "--build", str(out), "--target", target, "-j", jobs],
             BUILD_TIMEOUT_S)
    return out / target


def cmake_cache_value(key):
    prefix = key + ":"
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(prefix):
            return line.split("=", 1)[1]
    return "unknown"


def source_digest():
    """SHA-256 over the product and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler():
    path = cmake_cache_value("CMAKE_CXX_COMPILER")
    try:
        done = subprocess.run([path, "--version"], capture_output=True,
                              text=True, timeout=10, check=False)
        return done.stdout.splitlines()[0] if done.stdout else path
    except (OSError, subprocess.TimeoutExpired):
        return path


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return 0, 0
    ticks = [int(f) for f in fields[:8]]  # user .. steal; guest is in user
    return ticks[7], sum(ticks)


def provenance(args, info, steal_frac):
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "compiler": compiler(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": info,
        # Share of CPU time the hypervisor took during the run: on a shared
        # VM, a high value means the host, not the code, set the numbers.
        "host_steal_frac": steal_frac,
    }


def run_workload(binary, args, workload):
    """Runs one workload in its own process; returns (result, exit code)."""
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    steal_before, total_before = cpu_ticks()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
    steal_after, total_after = cpu_ticks()
    steal_frac = round((steal_after - steal_before) /
                       max(1, total_after - total_before), 4)
    lines = done.stdout.splitlines()
    info = {}
    for line in lines:
        if line.startswith("info "):
            info = json.loads(line[len("info "):])
        elif not line.startswith("{"):
            print(line)  # the driver's metric table
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload}: no result (exit code {done.returncode})")
    result = json.loads(lines[-1])
    print("provenance " +
          json.dumps(provenance(args, info, steal_frac), sort_keys=True))
    return result, done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(TARGETS[args.trace])
    if args.workload != "all":
        result, code = run_workload(binary, args, args.workload)
        print(json.dumps(result), flush=True)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        result, code = run_workload(binary, args, workload)
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)
    sys.exit(worst)


if __name__ == "__main__":
    main()
