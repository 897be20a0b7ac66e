#!/usr/bin/env python3
"""Build and run the composed soft-timer benchmark.

    python3 stbench/run.py --workload web_mixed --seed 1 --seconds 10 --trace 0
    python3 stbench/run.py --smoke          # every workload, short, small
    python3 stbench/run.py --self-test      # the harness's own tests

Run from the repository root (any directory works; paths are resolved from
this file). The first call configures and builds stbench/ with CMake into
$CARGO_TARGET_DIR/stbench (default .bench_build/stbench); later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's: 0 when
every correctness check passed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("web_mixed", "conn_1m", "timer_fanout")
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "stbench"


def build(target: str) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"stbench: no softtimer sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / target


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly at small scale")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the harness tests")
    args = ap.parse_args()

    try:
        if args.self_test:
            return subprocess.run([str(build("stbench_selftest"))]).returncode
        binary = build("stbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"stbench: build failed: {e}", file=sys.stderr)
        return 2

    if args.smoke:
        rc = 0
        for w in WORKLOADS:
            for trace in (0, 1):
                cmd = [str(binary), "--workload", w, "--seed", str(args.seed),
                       "--seconds", "1", "--trace", str(trace), "--smoke"]
                rc |= subprocess.run(cmd).returncode
        return rc

    if args.workload is None:
        ap.error("--workload is required (or --smoke / --self-test)")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
