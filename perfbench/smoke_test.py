#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs perfbench/run.py at smoke-test
sizes (--tiny) and checks that:
  * the run exits 0 and its last line is the result object with exactly the
    keys correct, attempted, failed and metrics;
  * every correctness check passed and no operation failed;
  * every end_to_end (--trace 0) and per_layer (--trace 1) metric named in
    BENCHMARK.json is printed with its unit and a finite value;
  * the exact counts repeat across two runs of one seed, and another seed
    changes the digest;
  * the traced run writes a Chrome trace-event file that parses.
It also checks that the command fails, without a result line, in a
directory holding only BENCHMARK.json and the benchmark.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_build" / "smoke"

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}")


def run(cwd, workload, seed, trace, trace_out=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def result_of(done, label):
    check(done.returncode == 0, f"{label}: exit code {done.returncode}: {done.stderr[-500:]}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{label}: last line is not JSON")
        return None, {}
    exact = {}
    for line in lines:
        if line.startswith("exact "):
            exact = json.loads(line[len("exact "):])
    return result, exact


def check_result(result, names_units, label):
    if result is None:
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{label}: result keys {sorted(result)}")
    check(result.get("correct") is True, f"{label}: correct is not true")
    check(result.get("failed") == 0, f"{label}: {result.get('failed')} operations failed")
    check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
          f"{label}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    check(sorted(metrics) == sorted(names_units), f"{label}: metric names differ")
    for name, unit in names_units.items():
        m = metrics.get(name, {})
        check(m.get("unit") == unit, f"{label}: {name} unit {m.get('unit')} != {unit}")
        value = m.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {name} value {value}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    SCRATCH.mkdir(parents=True, exist_ok=True)

    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload}")
        first, exact1 = result_of(run(ROOT, workload, 1, 0), f"{workload} seed 1")
        check_result(first, end_to_end, f"{workload} seed 1")
        _, exact1b = result_of(run(ROOT, workload, 1, 0), f"{workload} seed 1 again")
        check(exact1 and exact1 == exact1b,
              f"{workload}: exact counts differ across runs of one seed")
        _, exact2 = result_of(run(ROOT, workload, 2, 0), f"{workload} seed 2")
        check(exact2.get("digest") not in (None, exact1.get("digest")),
              f"{workload}: seed 2 has the same digest as seed 1")
        trace_out = SCRATCH / f"{workload}.trace.json"
        traced, exact_t = result_of(run(ROOT, workload, 1, 1, trace_out), f"{workload} traced")
        check_result(traced, per_layer, f"{workload} traced")
        check(exact_t.get("digest") == exact1.get("digest"),
              f"{workload}: traced digest differs from the untraced one")
        try:
            events = json.loads(trace_out.read_text(encoding="utf-8"))["traceEvents"]
            check(len(events) > 0 and all(e["ph"] == "X" for e in events),
                  f"{workload}: empty or malformed Chrome trace")
        except (OSError, ValueError, KeyError):
            check(False, f"{workload}: Chrome trace missing or unreadable")

    print("== command in a directory without the sources")
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, spec["workloads"][0]["name"], 1, 0)
    check(done.returncode != 0, "bare directory: command exited 0")
    check(not done.stdout.strip().endswith("}"), "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
