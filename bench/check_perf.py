#!/usr/bin/env python3
"""Perf-smoke regression gate.

Usage: check_perf.py BASELINE RESULT.json [RESULT.json ...]

Each RESULT file is the --json output of one bench run and names itself via
its "bench" field. The BASELINE file (bench/perf_baseline.json) declares,
per bench:

  floors       throughput metrics; fail when current < floor * tolerance
               (tolerance 0.75 == the ">25% regression" gate)
  exact_min    machine-independent metrics (ratios, coverage); fail when
               current < floor, no tolerance
  exact_max    machine-independent metrics that must not grow (exactly
               accounted byte peaks); fail when current > ceiling, no
               tolerance
  require_true booleans that must be true (e.g. byte-identical race sets)

Exit status 0 when every gate passes, 1 otherwise. Stdlib only."""

import json
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2

    with open(argv[1]) as f:
        baseline = json.load(f)
    tolerance = float(baseline.get("tolerance", 0.75))
    benches = baseline["benches"]

    failures = []
    checked = 0
    for path in argv[2:]:
        with open(path) as f:
            result = json.load(f)
        name = result.get("bench")
        gates = benches.get(name)
        if gates is None:
            failures.append(f"{path}: bench '{name}' has no baseline entry")
            continue

        for metric, floor in gates.get("floors", {}).items():
            cur = result.get(metric)
            limit = floor * tolerance
            checked += 1
            if cur is None or cur < limit:
                failures.append(
                    f"{name}.{metric}: {cur} < {limit:g} "
                    f"(floor {floor:g} * tolerance {tolerance})")
            else:
                print(f"ok {name}.{metric}: {cur:g} >= {limit:g}")

        for metric, floor in gates.get("exact_min", {}).items():
            cur = result.get(metric)
            checked += 1
            if cur is None or cur < floor:
                failures.append(f"{name}.{metric}: {cur} < {floor:g}")
            else:
                print(f"ok {name}.{metric}: {cur:g} >= {floor:g}")

        for metric, ceiling in gates.get("exact_max", {}).items():
            cur = result.get(metric)
            checked += 1
            if cur is None or cur > ceiling:
                failures.append(f"{name}.{metric}: {cur} > {ceiling:g}")
            else:
                print(f"ok {name}.{metric}: {cur:g} <= {ceiling:g}")

        for metric in gates.get("require_true", []):
            cur = result.get(metric)
            checked += 1
            if cur is not True:
                failures.append(f"{name}.{metric}: expected true, got {cur}")
            else:
                print(f"ok {name}.{metric}: true")

    if not checked and not failures:
        failures.append("no gates were checked - wrong file paths?")
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"{checked} gates checked, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
