#!/usr/bin/env python3
"""Check bench reports (BENCH_*.json) against the checked-in envelopes.

Usage: envelope_gate.py <envelopes.json> <BENCH_*.json>...

Every bench::Report (bench/bench_json.h) passes one schema check: a
non-empty "bench", "reps" >= 1, a "provenance" with PROVENANCE_KEYS, and
non-empty "cells", each carrying the keys REQUIRED lists for its bench
and none reporting "ok": false. A bench with an entry in envelopes.json
must have run at the envelope's "scale" (provenance "otac_scale"), if it
declares one, and is then checked cell by cell: a cell's id is its
"cell_id" fields joined by "/", a duplicate, missing or unexpected cell
fails, and each envelope key is one rule on one metric -- "metric": n is
exact, "metric": [lo, hi] a window, "max_metric"/"min_metric" a
ceiling/floor, "metric_nonzero" a live hex fingerprint. A cell carrying "replies" (the daemon client) must
have answered every frame it sent: replies == requests + puts.

Exit code 0 = pass, 1 = any violation, 2 = usage/IO error. When a
workload or the serving path changes on purpose, rerun its job
(`scripts/ci.sh scenarios` or `daemon`) and update envelopes.json in the
same commit.
"""

import json
import math
import pathlib
import sys

PROVENANCE_KEYS = ("commit", "cpu_model", "nproc", "compiler", "build_type",
                   "otac_scale")

# Keys every cell must carry, per bench. The daemon's two cells differ, so
# "daemon/<side>" refines "daemon" for them.
REQUIRED = {
    "cache_ops": "policy workload ops ns_per_op ops_per_sec hit_rate",
    "classifier": "cell ops ns_per_op ops_per_sec",
    # obs_overhead ends with a summary cell ("ratio"/"bound"), so only the
    # key all its cells share is required.
    "obs_overhead": "cell",
    "scenarios": "scenario mode requests file_hit_rate byte_write_rate "
                 "insertions shed_requests p99_latency_us failpoint_fires "
                 "retrain_retries retrain_timeouts checkpoint_recovered "
                 "golden_identical ok",
    "daemon": "side requests",
    "daemon/client": "side requests puts replies hits admitted rejected shed "
                     "retries degraded errors wall_seconds offered_rps "
                     "achieved_rps p50_us p99_us p999_us",
    "daemon/server": "side requests hits insertions rejected evictions "
                     "shed_requests degraded_admits overload_transitions "
                     "retrain_timeouts trainings file_hit_rate byte_hit_rate "
                     "mean_latency_us eviction_hash",
}


def parse_rule(key):
    """Envelope key -> (kind, metric)."""
    if key.startswith(("max_", "min_")):
        return key[:3], key[4:]
    if key.endswith("_nonzero"):
        return "nonzero", key[:-len("_nonzero")]
    return "exact", key


def rule_violation(kind, metric, value, bound):
    """The violation message for one rule, or None when it holds."""
    if kind == "nonzero":
        if bound and int(value, 16) == 0:
            return f"{metric} is zero (fingerprint dead)"
    elif kind == "max":
        if value > bound:
            return f"{metric} = {value} > {bound}"
    elif kind == "min":
        if value < bound:
            return f"{metric} = {value:g} < {bound:g}"
    elif isinstance(bound, list):
        lo, hi = bound
        if not lo <= value <= hi:
            return f"{metric} = {value:g} outside envelope [{lo:g}, {hi:g}]"
    elif value != bound:
        return f"{metric} = {value} != {bound} (drifted)"
    return None


def check_cell(cid, cell, required, rules, errors):
    rules = [(key, *parse_rule(key), bound) for key, bound in rules.items()]
    wanted = dict.fromkeys([*required, *(metric for _, _, metric, _ in rules)])
    missing = [k for k in wanted if k not in cell]
    if missing:
        errors.append(f"{cid}: missing keys {missing}")
    if cell.get("ok") is False:
        errors.append(f"{cid}: cell reports ok=false")
    for key, kind, metric, bound in rules:
        if metric not in cell:
            continue
        try:
            message = rule_violation(kind, metric, cell[metric], bound)
        except (TypeError, ValueError):
            message = f"{metric} = {cell[metric]!r} cannot be checked by {key}"
        if message:
            errors.append(f"{cid}: {message}")
    if all(k in cell for k in ("replies", "requests", "puts")):
        sent = cell["requests"] + cell["puts"]
        if cell["replies"] != sent:
            errors.append(f'{cid}: replies = {cell["replies"]} != '
                          f"requests + puts = {sent} (sent frames unanswered)")


def check_report(report, envelopes):
    """Return a list of violation messages (empty = the report passes)."""
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    errors = []
    bench = report.get("bench")
    if not isinstance(bench, str) or not bench:
        errors.append('"bench" missing or empty')
    reps = report.get("reps")
    if not isinstance(reps, int) or reps < 1:
        errors.append('"reps" missing or < 1')
    provenance = report.get("provenance")
    if not isinstance(provenance, dict):
        errors.append('"provenance" missing')
    else:
        missing = [k for k in PROVENANCE_KEYS if k not in provenance]
        if missing:
            errors.append(f"provenance missing keys {missing}")
    cells = report.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append("no cells (silently-empty artifact)")
        return errors

    envelope = envelopes.get(bench) if isinstance(bench, str) else None
    if envelope and "scale" in envelope and isinstance(provenance, dict):
        scale = provenance.get("otac_scale")
        if not isinstance(scale, (int, float)) or not math.isclose(
                scale, envelope["scale"], rel_tol=1e-6):
            errors.append(f"provenance otac_scale = {scale!r} but the "
                          f'envelope is calibrated at {envelope["scale"]}')
    seen = set()
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict) or not cell:
            errors.append(f"cell {i} is not a non-empty object")
            continue
        cid, rules = f"cell {i}", {}
        if envelope:
            cid = "/".join(str(cell.get(f)) for f in envelope["cell_id"])
            if cid in seen:
                errors.append(f"{cid}: duplicate cell in report")
            seen.add(cid)
            rules = envelope["cells"].get(cid, {})
        required = REQUIRED.get(f"{bench}/{cid}") or REQUIRED.get(bench, "")
        check_cell(cid, cell, required.split(), rules, errors)
    if envelope:
        for cid in sorted(envelope["cells"].keys() - seen):
            errors.append(f"{cid}: missing from report (cell dropped?)")
        for cid in sorted(seen - envelope["cells"].keys()):
            errors.append(f"{cid}: present in report but has no envelope")
    return errors


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        envelopes, *reports = [json.loads(pathlib.Path(path).read_text())
                               for path in argv[1:]]
    except (OSError, json.JSONDecodeError) as error:
        print(f"envelope-gate: cannot load inputs: {error}", file=sys.stderr)
        return 2
    errors = [f"{pathlib.Path(path).name}: {error}"
              for path, report in zip(argv[2:], reports)
              for error in check_report(report, envelopes)]
    if errors:
        for error in errors:
            print(f"envelope-gate: FAIL {error}")
        print(f"envelope-gate: {len(errors)} violation(s)")
        return 1
    print(f"envelope-gate: OK ({len(reports)} report(s) pass)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
