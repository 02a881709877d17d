#!/usr/bin/env python3
"""Schema gate for the bench-smoke artifacts.

Usage: check_bench_smoke.py <bench-smoke-dir>

`python3 -m json.tool` only proves the BENCH_*.json reports parse; a
bench that silently produced zero cells (or cells stripped of the keys
the perf notes and gates read) would still pass and upload an empty
artifact. This gate walks every BENCH_*.json in the directory and
requires, per report:

  - top-level "bench" (non-empty string), "reps" (int >= 1), and a
    non-empty "cells" list,
  - every cell is a non-empty JSON object,
  - every cell carries the report's expected keys (REQUIRED_CELL_KEYS,
    keyed by file name -- extend it when adding a bench).

Unknown BENCH_*.json files still get the generic checks, so a new bench
cannot upload an empty artifact just because this map lags behind. Exit
code 0 = all reports well-formed, 1 = any violation, 2 = usage/IO error.
"""

import json
import pathlib
import sys

REQUIRED_CELL_KEYS = {
    "BENCH_cache_ops.json": ("policy", "workload", "ops", "ns_per_op",
                             "ops_per_sec", "hit_rate"),
    "BENCH_classifier.json": ("cell", "ops", "ns_per_op", "ops_per_sec"),
    # obs_overhead ends with a heterogeneous summary cell ("ratio"/"bound"),
    # so only the key all cells share is required.
    "BENCH_obs_overhead.json": ("cell",),
    "BENCH_chaos.json": ("scenario", "requests", "completed",
                         "failpoint_fires", "shed_rate", "ok"),
    "BENCH_scenarios.json": ("scenario", "mode", "requests", "file_hit_rate",
                             "insertions", "shed_requests", "p99_latency_us",
                             "ok"),
    "BENCH_daemon.json": ("side", "requests"),
}


def check_report(name, report):
    """Return a list of violation messages for one parsed report."""
    errors = []
    bench = report.get("bench")
    if not isinstance(bench, str) or not bench:
        errors.append(f'{name}: "bench" missing or empty')
    reps = report.get("reps")
    if not isinstance(reps, int) or reps < 1:
        errors.append(f'{name}: "reps" missing or < 1')
    cells = report.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append(f"{name}: no cells (silently-empty artifact)")
        return errors

    required = REQUIRED_CELL_KEYS.get(name, ())
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict) or not cell:
            errors.append(f"{name}: cell {i} is not a non-empty object")
            continue
        missing = [k for k in required if k not in cell]
        if missing:
            errors.append(f"{name}: cell {i} missing keys {missing}")
    return errors


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    smoke_dir = pathlib.Path(argv[1])
    reports = sorted(smoke_dir.glob("BENCH_*.json"))
    if not reports:
        print(f"bench-gate: no BENCH_*.json under {smoke_dir}",
              file=sys.stderr)
        return 2

    errors = []
    for path in reports:
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as error:
            errors.append(f"{path.name}: cannot load: {error}")
            continue
        errors.extend(check_report(path.name, report))

    if errors:
        for error in errors:
            print(f"bench-gate: FAIL {error}")
        print(f"bench-gate: {len(errors)} violation(s)")
        return 1
    print(f"bench-gate: OK ({len(reports)} reports, schemas intact)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
