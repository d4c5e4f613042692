#!/usr/bin/env python3
"""Builds the SWORD end-to-end benchmark from source and runs it.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload hpccg-dense --seed 1 --seconds 20 --trace 0

Workloads: hpccg-dense, graphsearch-ranged, drb-fleet. The build goes to
$CARGO_TARGET_DIR when set, else .bench_build, relative to the current
directory; build output goes to stderr. After the build this process
becomes the benchmark (exec), so the measurement is one process whose last
stdout line is the JSON result. With --trace 1 the spans are written to
<build dir>/e2e-trace-<workload>-seed<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "sword-e2e-bench"


def build(build_dir):
    """Configures (until it succeeds once) and builds the benchmark; returns
    the binary path."""
    generated = [os.path.join(build_dir, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", TARGET, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, TARGET)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hpccg-dense", "graphsearch-ranged", "drb-fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    trace_out = os.path.join(build_dir, f"e2e-trace-{args.workload}-seed{args.seed}.json")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--work-dir", work_dir, "--trace-out", trace_out]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    sys.exit(main())
