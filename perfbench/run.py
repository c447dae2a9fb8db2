#!/usr/bin/env python3
"""PIOEval benchmark command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--tiny] [--trace-out <path>]

Run from the root of a checkout. Builds the benchmark (Release) from the
checkout's sources into .bench_build/perfbench, runs one workload, checks its
outputs and prints, as the last stdout line, one JSON object with exactly the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end metrics; with --trace 1 its per_layer metrics,
and the traced run's spans are written as Chrome trace-event JSON (default
.bench_build/perfbench-traces/<workload>-seed<n>.json).

Exits non-zero, without a result line, when the sources or BENCHMARK.json
are missing or the build fails; exits 1 after printing the result when a
correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure (once) and build the Release benchmark; refuse other builds."""
    if not (ROOT / "src" / "sim" / "engine.cpp").is_file():
        die(f"library sources not found under {ROOT / 'src'}; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")
    build_type = ""
    for line in cache.read_text(encoding="utf-8").splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        die(f"refusing to record numbers from a non-Release build ({build_type or 'unset'})")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--trace-out", help="Chrome trace-event JSON path (--trace 1)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()

    traced = args.trace == "1"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    if traced:
        trace_out = Path(args.trace_out) if args.trace_out else (
            ROOT / ".bench_build" / "perfbench-traces" /
            f"{args.workload}-seed{args.seed}.json")
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    result_lines = [line for line in lines if line.startswith("RESULT ")]
    if done.returncode != 0 or not result_lines:
        sys.stdout.write(done.stdout)
        die(f"benchmark exited with {done.returncode} and no result")
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    raw = json.loads(result_lines[-1][len("RESULT "):])

    expected = spec["per_layer" if traced else "end_to_end"]
    got = raw["metrics"]
    missing = [m["name"] for m in expected if m["name"] not in got]
    extra = sorted(set(got) - {m["name"] for m in expected})
    wrong_unit = [m["name"] for m in expected
                  if m["name"] in got and got[m["name"]]["unit"] != m["unit"]]
    if missing or extra or wrong_unit:
        die(f"metrics disagree with BENCHMARK.json: missing {missing}, "
            f"unexpected {extra}, wrong unit {wrong_unit}")

    info = raw["info"]
    print(f"host: {info['host.cpus']} CPUs, load average {info['host.load_avg']}, "
          f"{info['host.steal_pct']}% CPU stolen by the hypervisor during the run, "
          f"build {info['build.type']}, {info['bench.threads']} bench threads")
    print("exact " + json.dumps(raw["exact"], sort_keys=True))
    for failure in raw["failures"]:
        print(f"CHECK FAILED: {failure}")
    fail_ratio = raw["failed"] / max(1, raw["attempted"])
    print(f"attempted {raw['attempted']}, failed {raw['failed']} (fail_ratio {fail_ratio:.6g})")
    width = max(len(m["name"]) for m in expected)
    for m in expected:
        print(f"  {m['name']:<{width}}  {got[m['name']]['value']:.6g} {m['unit']}")

    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": got[m["name"]]["value"], "unit": m["unit"]}
                    for m in expected},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
