#!/usr/bin/env python3
"""End-to-end request benchmark of the specpart service.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the e2e_bench program from source into
.bench_build/perfbench (CMake, Release), runs one measurement, and relays
e2e_bench's output: the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Build output goes to stderr.
Spans of a traced run are written to .bench_build/perfbench/traces/.
Exits non-zero when the build fails, a check fails, or e2e_bench does not
finish within the time limit. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "e2e_bench")
RUN_LIMIT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2

    workdir = os.path.join(BUILD, "work", str(os.getpid()))
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        "--trace-out",
        os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl"),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: no result within {RUN_LIMIT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
