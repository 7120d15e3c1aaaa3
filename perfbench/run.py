#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload job-mn --seed 1 --seconds 25 --trace 0

Run from the repository root. The driver (perfbench/bqo_perfbench.cc) and
the engine library it links are built with CMake into .bench_build/perfbench
on first use; later runs rebuild incrementally. Build output goes to stderr,
so the last line of stdout is the driver's JSON result. Extra flags
(--scale-mult, --corrupt-check) are passed through to the driver; see
NOTES.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "bqo_perfbench")
# A run must end within 180 s, so the binary is stopped a little before.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "bqo_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def arg_value(argv, flag):
    if flag in argv and argv.index(flag) + 1 < len(argv):
        return argv[argv.index(flag) + 1]
    return None


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    extra = []
    workload, seed = arg_value(argv, "--workload"), arg_value(argv, "--seed")
    if arg_value(argv, "--trace") == "1" and workload and seed:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        extra = ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    proc = subprocess.Popen([BINARY] + argv + extra)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
