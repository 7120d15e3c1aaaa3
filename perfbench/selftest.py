#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-scale smoke run of every workload.

    python3 perfbench/selftest.py

Run from the repository root. For each workload in BENCHMARK.json it runs
the driver at a tenth of its scale for one second, untraced and traced, and
checks that
  * the run exits 0 with `correct` true, no failures, and the last stdout
    line is the result JSON;
  * the JSON holds exactly the end-to-end metrics (--trace 0) or the
    per-layer metrics (--trace 1) of BENCHMARK.json, with their units;
  * every metric of both sets is printed as a text line with its unit.
It then corrupts one expected checksum (--corrupt-check) and checks that the
correctness gate fires: `correct` false and a non-zero exit code. On the
first workload it also stretches one recorded span past its parent
(--corrupt-trace) and checks that the span-nesting check fails the run.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE = ["--seconds", "1", "--scale-mult", "0.1"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd + SMOKE + list(extra), cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result


def check_run(workload, trace, spec, errors):
    code, lines, result = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if code != 0 or result is None:
        errors.append(f"{where}: exit {code}")
        return
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']} attempted={result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        errors.append(f"{where}: JSON metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        if m["name"] in got and got[m["name"]]["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got[m['name']]['unit']}")
    printed = {}  # "[workload] metric <name> <value> <unit>"
    for line in lines[:-1]:
        tokens = line.split()
        if len(tokens) == 5 and tokens[1] == "metric":
            printed[tokens[2]] = tokens[4]
    for m in spec["end_to_end"] + (spec["per_layer"] if trace else []):
        if printed.get(m["name"]) != m["unit"]:
            errors.append(f"{where}: no text line for {m['name']} in {m['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, spec, errors)
        code, _, result = run(w["name"], 0, "--corrupt-check")
        if code == 0 or result is None or result["correct"]:
            errors.append(f"{w['name']}: corrupted checksum not caught "
                          f"(exit {code})")
        if w is spec["workloads"][0]:
            code, _, result = run(w["name"], 1, "--corrupt-trace")
            if code == 0 or result is None or result["failed"] == 0:
                errors.append(f"{w['name']}: broken span nesting not caught "
                              f"(exit {code})")
        print(f"selftest: {w['name']} done", flush=True)
    for e in errors:
        print("selftest FAIL:", e)
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
